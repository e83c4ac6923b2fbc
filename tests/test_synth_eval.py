"""Synthetic corpus generation, scoring, and the ablation harness."""

import random

import pytest

from dxaudit import synth
from dxaudit.core import LexiconKind, make_lexicon, record_to_json
from dxaudit.errors import BadTemplate
from dxaudit.evaluate import report_instances, run_ablation, score
from dxaudit.pipeline import Models, PipelineLexicons, batch_detect
from dxaudit.recall import build_matcher
from dxaudit.synth import SyntheticSpec, Templates, gen_synthetic_corpus

from builders import LookupContextOracle, MapRelationOracle
from oracles import naive_score


@pytest.fixture(scope="module")
def templates(data_dir):
    return Templates.load(data_dir / "templates.txt")


@pytest.fixture(scope="module")
def variants(data_dir):
    return synth.load_variant_pairs(data_dir / "disease_variants.tsv")


class TestGenerator:
    def test_miss_rate_one_puts_every_confirmed_in_gold(self, disease_pool, templates):
        spec = SyntheticSpec(n_records=10, miss_rate=1.0, negation_rate=0.2,
                             enumeration_rate=0.3, seed=1)
        records, gold = gen_synthetic_corpus(spec, disease_pool, templates)
        confirmed = [(rid, d) for rid, d, label in gold.mention_labels
                     if label == "confirmed"]
        assert sorted(gold.findings) == sorted(confirmed)
        assert all(not r.discharge_diagnoses for r in records)

    def test_miss_rate_zero_empty_gold(self, disease_pool, templates):
        spec = SyntheticSpec(n_records=10, miss_rate=0.0, negation_rate=0.2,
                             enumeration_rate=0.3, seed=2)
        _, gold = gen_synthetic_corpus(spec, disease_pool, templates)
        assert gold.findings == ()

    def test_seed_determinism_bytes(self, disease_pool, templates, variants):
        spec = SyntheticSpec(n_records=25, seed=33)
        first, gold_a = gen_synthetic_corpus(spec, disease_pool, templates,
                                             variant_pairs=variants)
        second, gold_b = gen_synthetic_corpus(spec, disease_pool, templates,
                                              variant_pairs=variants)
        assert [record_to_json(r) for r in first] == \
            [record_to_json(r) for r in second]
        assert gold_a == gold_b

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            SyntheticSpec(n_records=1, miss_rate=1.5)
        with pytest.raises(ValueError):
            SyntheticSpec(n_records=1, negation_rate=0.9)

    def test_every_planted_disease_is_recallable(self, disease_pool, templates):
        spec = SyntheticSpec(n_records=30, seed=4)
        records, gold = gen_synthetic_corpus(spec, disease_pool, templates)
        texts = {r.record_id: "".join(t for _, t in r.sections) for r in records}
        for rid, disease, _ in gold.mention_labels:
            assert disease in texts[rid]


class TestTemplates:
    def test_missing_kind_rejected(self, tmp_path):
        path = tmp_path / "templates.txt"
        path.write_text("confirmed\t确诊为{DISEASE}。\n", encoding="utf-8")
        with pytest.raises(BadTemplate):
            Templates.load(path)

    def test_unknown_placeholder_rejected(self, tmp_path):
        path = tmp_path / "templates.txt"
        path.write_text("confirmed\t确诊为{DIAGNOSIS}。\n", encoding="utf-8")
        with pytest.raises(BadTemplate):
            Templates.load(path)

    def test_enum_template_requires_enum_placeholder(self, tmp_path):
        path = tmp_path / "templates.txt"
        path.write_text("enum\t出院诊断齐全。\n", encoding="utf-8")
        with pytest.raises(BadTemplate):
            Templates.load(path)

    def test_untabbed_line_rejected(self, tmp_path):
        path = tmp_path / "templates.txt"
        path.write_text("confirmed 确诊为{DISEASE}。\n", encoding="utf-8")
        with pytest.raises(BadTemplate):
            Templates.load(path)


class TestRelationTrainingPairs:
    def test_a_spelling_under_two_canonical_names_is_one_name(self):
        pool = make_lexicon(["糖尿病", "2型糖尿病", "肺炎"], LexiconKind.DISEASE_NAMES)
        variants = [("糖尿病", "消渴症"), ("2型糖尿病", "消渴症")]
        pairs = synth.relation_training_pairs(pool, variants, [])
        by_relation = {}
        for pair in pairs:
            by_relation.setdefault(pair.relation, []).append((pair.a, pair.b))
        assert by_relation == {
            "similarity": [(name, name) for name in ["糖尿病", "2型糖尿病", "肺炎", "消渴症"]]
                          + variants,
            "irrelevance": [("糖尿病", "2型糖尿病"), ("糖尿病", "肺炎"), ("2型糖尿病", "肺炎"),
                            ("肺炎", "消渴症")],
        }


class TestScore:
    def test_perfect_match(self):
        gold = [("r1", "肺炎"), ("r2", "高血压")]
        assert score(gold, gold) == (1.0, 1.0, 1.0)

    def test_hand_arithmetic_fixture(self):
        gold = [("r1", "a"), ("r1", "b"), ("r2", "c"), ("r2", "d"), ("r3", "e")]
        predictions = [("r1", "a"), ("r1", "b"), ("r2", "c"), ("r9", "x")]
        precision, recall, f1 = score(predictions, gold)
        assert precision == pytest.approx(0.75)
        assert recall == pytest.approx(0.6)
        assert f1 == pytest.approx(2 * 0.75 * 0.6 / 1.35)

    def test_both_empty_convention(self):
        assert score([], []) == (1.0, 1.0, 1.0)

    def test_one_side_empty(self):
        assert score([], [("r", "a")]) == (0.0, 0.0, 0.0)
        assert score([("r", "a")], []) == (0.0, 0.0, 0.0)

    def test_normalization_before_comparison(self):
        assert score([("r", "肺炎 ")], [("r", "肺炎")]) == (1.0, 1.0, 1.0)

    def test_matches_brute_force_oracle_random(self):
        rng = random.Random(19)
        universe = [(f"r{i}", d) for i in range(6) for d in "甲乙丙丁"]
        for _ in range(1000):
            predictions = rng.sample(universe, rng.randint(0, len(universe)))
            gold = rng.sample(universe, rng.randint(0, len(universe)))
            assert score(predictions, gold) == \
                pytest.approx(naive_score(predictions, gold))


@pytest.fixture(scope="module")
def corpus(disease_pool, templates, variants):
    spec = SyntheticSpec(n_records=120, diseases_per_record=4, miss_rate=0.35,
                         negation_rate=0.25, enumeration_rate=0.3, seed=77)
    return gen_synthetic_corpus(spec, disease_pool, templates,
                                variant_pairs=variants)


@pytest.fixture(scope="module")
def oracle_models(corpus, variants, disease_pool, feature_lexicons):
    records, gold = corpus
    samples = synth.labeled_context_samples(records, gold, disease_pool,
                                            feature_lexicons)
    return Models(context=LookupContextOracle(samples),
                  relation=MapRelationOracle(variants))


class TestGoldConsistencyAndAblation:
    def test_oracle_models_reach_perfect_f1(self, corpus, oracle_models,
                                            disease_pool, feature_lexicons):
        records, gold = corpus
        lexicons = PipelineLexicons(diseases=disease_pool, features=feature_lexicons)
        report = batch_detect(records, oracle_models, lexicons)
        assert score(report_instances(report), gold.findings) == (1.0, 1.0, 1.0)

    def test_ablation_rows_and_orderings(self, corpus, oracle_models,
                                         disease_pool, feature_lexicons):
        records, gold = corpus
        lexicons = PipelineLexicons(diseases=disease_pool, features=feature_lexicons)
        ablation, _ = run_ablation(records, gold.findings, oracle_models, lexicons)
        rows = {row.name: row for row in ablation}
        assert set(rows) == {"full", "no_context", "no_relation", "pos_track_off",
                             "neg_track_off", "order_track_off"}
        # negated plantings pass recall, so skipping the context stage must
        # strictly cost precision; variant-covered diagnoses do the same for
        # the relation stage
        assert rows["no_context"].precision < rows["full"].precision
        assert rows["no_relation"].precision < rows["full"].precision
        assert rows["full"].f1 == pytest.approx(1.0)

    def test_ablation_builds_the_matcher_once(self, corpus, oracle_models, disease_pool,
                                              feature_lexicons, monkeypatch):
        from dxaudit import pipeline

        built = []

        def counting_build_matcher(lexicon):
            built.append(lexicon)
            return build_matcher(lexicon)

        monkeypatch.setattr(pipeline, "build_matcher", counting_build_matcher)
        records, gold = corpus
        lexicons = PipelineLexicons(diseases=disease_pool, features=feature_lexicons)
        assert built == []  # built at first use, not with the lexicons
        rows, _ = run_ablation(records, gold.findings, oracle_models, lexicons)
        assert len(rows) == 6
        assert built == [disease_pool]
