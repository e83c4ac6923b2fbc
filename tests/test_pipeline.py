"""Pipeline composition: filtering rules, batch behavior, report I/O."""

import dataclasses
import json

import numpy as np
import pytest

from dxaudit import pipeline, synth
from dxaudit.core import MAX_DISEASE, LexiconKind, MedicalRecord, make_lexicon
from dxaudit.context_model import TrainConfig, train
from dxaudit.errors import DxAuditError, ModelNotLoaded, ParseError, ShapeMismatch
from dxaudit.evaluate import ConfirmAllContext, IrrelevanceAllRelation
from dxaudit.pipeline import (
    Models,
    PipelineLexicons,
    RecordResult,
    batch_detect,
    detect_write_missing,
    load_report_findings,
    write_report,
)
from dxaudit.recall import build_context_window
from dxaudit.relation_model import (RELATIONS, PairEncoder, PairTrainConfig, finetune,
                                    load_pairs)

from builders import LookupContextOracle, MapRelationOracle, score_names


@pytest.fixture()
def pool():
    return make_lexicon(["高血压", "肺炎", "胃溃疡", "脑梗死"], LexiconKind.DISEASE_NAMES)


@pytest.fixture()
def lexicons(pool, feature_lexicons):
    return PipelineLexicons(diseases=pool, features=feature_lexicons)


def oracle_models(records, lexicons, mention_labels, similar_pairs=()):
    gold = synth.SynthGold(findings=(), mention_labels=tuple(mention_labels))
    samples = synth.labeled_context_samples(records, gold, lexicons.diseases,
                                            lexicons.features)
    return Models(context=LookupContextOracle(samples),
                  relation=MapRelationOracle(similar_pairs))


@pytest.fixture(scope="module")
def trained_models(disease_pool, feature_lexicons, data_dir):
    """Both models, briefly trained on a small synthetic corpus."""
    spec = synth.SyntheticSpec(n_records=60, diseases_per_record=4, miss_rate=0.35,
                               negation_rate=0.25, enumeration_rate=0.3, seed=11)
    variants = synth.load_variant_pairs(data_dir / "disease_variants.tsv")
    records, gold = synth.gen_synthetic_corpus(
        spec, disease_pool, synth.Templates.load(data_dir / "templates.txt"),
        variant_pairs=variants)
    samples = synth.labeled_context_samples(records, gold, disease_pool, feature_lexicons)
    context, _ = train(samples, TrainConfig(epochs=2, seed=5), d=8, d_enc=8)
    pairs = synth.relation_training_pairs(
        disease_pool, variants, load_pairs(data_dir / "relation_pairs_fixture.tsv"))
    encoder = PairEncoder.from_names([p.a for p in pairs] + [p.b for p in pairs],
                                     d_pair=8, seed=3)
    relation, _ = finetune(encoder, pairs, PairTrainConfig(hidden=8, epochs=2, seed=3))
    return Models(context=context, relation=relation)


class CountingContext:
    """A context stage that keeps each call's (disease, context) windows."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = []

    def classify(self, *samples):
        self.calls.append([(sample.disease, sample.context) for sample in samples])
        return self.inner.classify(*samples)


def names_of(rows):
    """The names that MapRelationOracle rows hold."""
    return [name for name, in rows]


def record(record_id, text, discharge):
    return MedicalRecord(record_id=record_id, sections=(("现病史", text),),
                         discharge_diagnoses=tuple(discharge))


class TestDetect:
    def test_planted_confirmed_disease_found_with_spans(self, lexicons):
        rec = record("r1", "入院后确诊为肺炎，继续治疗。", ["高血压"])
        models = oracle_models([rec], lexicons, [("r1", "肺炎", "confirmed")])
        findings = detect_write_missing(rec, models, lexicons)
        assert len(findings) == 1
        finding = findings[0]
        assert finding.disease == "肺炎"
        assert finding.evidence_spans == ((0, 6, 8),)
        assert finding.context_label_prob == 1.0
        assert all(rel == "irrelevance" for _, rel, _ in finding.relations)

    def test_exact_discharge_match_suppressed_without_model_calls(self, lexicons):
        calls = []

        class SpyContext:
            def classify(self, *samples):
                calls.extend(sample.disease for sample in samples)
                return [("confirmed", 1.0)] * len(samples)

        rec = record("r1", "入院后确诊为肺炎。", ["肺炎"])
        models = Models(context=SpyContext(), relation=IrrelevanceAllRelation())
        assert detect_write_missing(rec, models, lexicons) == []
        assert calls == []

    def test_non_confirmed_labels_filtered(self, lexicons):
        rec = record("r1", "否认高血压。肺炎待查。", [])
        models = oracle_models([rec], lexicons, [("r1", "高血压", "non_current"),
                                                 ("r1", "肺炎", "unknown")])
        assert detect_write_missing(rec, models, lexicons) == []

    def test_similar_discharge_name_suppresses(self, lexicons):
        rec = record("r1", "入院后确诊为肺炎。", ["肺部感染"])
        models = oracle_models([rec], lexicons, [("r1", "肺炎", "confirmed")],
                               similar_pairs=[("肺炎", "肺部感染")])
        assert detect_write_missing(rec, models, lexicons) == []

    def test_empty_discharge_list_emits(self, lexicons):
        rec = record("r1", "入院后确诊为肺炎。", [])
        models = oracle_models([rec], lexicons, [("r1", "肺炎", "confirmed")])
        findings = detect_write_missing(rec, models, lexicons)
        assert [f.disease for f in findings] == ["肺炎"]
        assert findings[0].relations == ()

    def test_findings_sorted_by_first_span(self, lexicons):
        cases = [
            ((("现病史", "确诊胃溃疡。另确诊为肺炎。"),),
             [("胃溃疡", ((0, 2, 5),)), ("肺炎", ((0, 10, 12),))]),
            # across sections, with one disease in both
            ((("现病史", "确诊为高血压，后确诊为肺炎。"), ("既往史", "既往肺炎，现脑梗死。")),
             [("高血压", ((0, 3, 6),)), ("肺炎", ((0, 11, 13), (1, 2, 4))),
              ("脑梗死", ((1, 6, 9),))]),
        ]
        for sections, expected in cases:
            rec = MedicalRecord(record_id="r1", sections=sections, discharge_diagnoses=())
            models = oracle_models([rec], lexicons, [("r1", disease, "confirmed")
                                                     for disease, _ in expected])
            findings = detect_write_missing(rec, models, lexicons)
            assert [(f.disease, f.evidence_spans) for f in findings] == expected

    def test_lookup_oracle_refuses_two_labels_for_one_sample(self, lexicons):
        rec = record("r1", "确诊为肺炎。", [])
        twin = dataclasses.replace(rec, record_id="r2")
        with pytest.raises(ValueError, match="肺炎"):
            oracle_models([rec, twin], lexicons, [("r1", "肺炎", "confirmed"),
                                                  ("r2", "肺炎", "unknown")])

    @pytest.mark.parametrize("stage, expected", [
        (IrrelevanceAllRelation(), [["irrelevance"] * 3] * 2),
        (MapRelationOracle([("肺炎", "肺部感染")]),
         [["similarity", "irrelevance", "similarity"],
          ["irrelevance", "similarity", "irrelevance"]]),
    ], ids=["irrelevance-all", "map-oracle"])
    def test_relation_stand_ins_give_one_hot_rows(self, stage, expected):
        names, against = ["肺炎", "高血压"], ["肺部感染", "高血压", "肺炎"]
        assert [len(stage.embed_names(x)) for x in ([], names, against)] == [0, 2, 3]
        assert score_names(stage, names, []).shape == (2, 0, len(RELATIONS))
        assert score_names(stage, [], against).shape == (0, 3, len(RELATIONS))
        probs = score_names(stage, names, against)
        assert np.array_equal(probs, np.eye(len(RELATIONS))[
            [[RELATIONS.index(relation) for relation in row] for row in expected]])

    def test_one_relation_call_per_chunk_scores_every_pair(self, lexicons):
        """Every confirmed candidate of every record of a chunk is paired
        with each of its record's discharge names, in record order, and
        the pairs are scored in one call; a record with no confirmed
        candidate, or no discharge name, adds no pair. A record alone
        makes the one call of its own pairs."""
        calls = []

        class SpyRelation(MapRelationOracle):
            def predict_proba(self, rows, against_rows):
                calls.append((names_of(rows), names_of(against_rows)))
                return super().predict_proba(rows, against_rows)

        records = [record("r1", "确诊为肺炎。确诊胃溃疡。否认脑梗死。", ["高血压"]),
                   record("r2", "否认肺炎。", ["高血压"]),
                   record("r3", "确诊为脑梗死。", []),
                   record("r4", "确诊为脑梗死。", ["高血压", "脑卒中"])]
        context = oracle_models(records, lexicons, [
            ("r1", "肺炎", "confirmed"), ("r1", "胃溃疡", "confirmed"),
            ("r1", "脑梗死", "non_current"), ("r2", "肺炎", "non_current"),
            ("r3", "脑梗死", "confirmed"), ("r4", "脑梗死", "confirmed")]).context
        models = Models(context, SpyRelation([("脑梗死", "脑卒中")]))
        report = batch_detect(records, models, lexicons)
        assert calls == [(["肺炎", "胃溃疡", "脑梗死", "脑梗死"],
                          ["高血压", "高血压", "高血压", "脑卒中"])]
        assert [[f.disease for f in r.findings] for r in report.results] == \
            [["肺炎", "胃溃疡"], [], ["脑梗死"], []]
        calls.clear()
        assert detect_write_missing(records[3], models, lexicons) == []
        assert calls == [(["脑梗死", "脑梗死"], ["高血压", "脑卒中"])]

    def test_model_not_loaded(self, lexicons):
        rec = record("r1", "确诊为肺炎。", [])
        with pytest.raises(ModelNotLoaded):
            detect_write_missing(rec, Models(context=None, relation=None), lexicons)

    def test_monotone_in_discharge_removal(self, lexicons, data_dir, disease_pool,
                                           feature_lexicons):
        templates = synth.Templates.load(data_dir / "templates.txt")
        variants = synth.load_variant_pairs(data_dir / "disease_variants.tsv")
        spec = synth.SyntheticSpec(n_records=40, diseases_per_record=4,
                                   miss_rate=0.3, negation_rate=0.25,
                                   enumeration_rate=0.3, seed=21)
        records, gold = synth.gen_synthetic_corpus(spec, disease_pool, templates,
                                                   variant_pairs=variants)
        full_lexicons = PipelineLexicons(diseases=disease_pool,
                                         features=feature_lexicons)
        models = oracle_models(records, full_lexicons, gold.mention_labels,
                               similar_pairs=variants)
        for rec in records:
            base = {f.disease for f in
                    detect_write_missing(rec, models, full_lexicons)}
            for drop in range(len(rec.discharge_diagnoses)):
                shrunk = dataclasses.replace(
                    rec, discharge_diagnoses=tuple(
                        dx for i, dx in enumerate(rec.discharge_diagnoses)
                        if i != drop))
                grown = {f.disease for f in
                         detect_write_missing(shrunk, models, full_lexicons)}
                assert base <= grown


class TestBatchDetect:
    def test_parallelism_invariance(self, lexicons, tmp_path):
        records = [
            record(f"r{i}", "确诊为肺炎。另见高血压记录：否认脑梗死。", ["高血压"])
            for i in range(20)
        ]
        labels = []
        for i in range(20):
            labels += [(f"r{i}", "肺炎", "confirmed"),
                       (f"r{i}", "高血压", "confirmed"),
                       (f"r{i}", "脑梗死", "non_current")]
        models = oracle_models(records, lexicons, labels)
        counting = CountingContext(models.context)
        models = Models(counting, models.relation)
        seq = batch_detect(records, models, lexicons, parallelism=1)
        par = batch_detect(records, models, lexicons, parallelism=8)
        path_a, path_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_report(seq, path_a)
        write_report(par, path_b)
        assert path_a.read_bytes() == path_b.read_bytes()
        # the twenty records share two windows to judge (高血压 is a discharge
        # diagnosis): one call per batch judges them
        assert [len(call) for call in counting.calls] == [2, 2]

    def test_unexpected_error_in_one_record_is_its_error_entry(self, lexicons):
        """A stage that raises on r2's candidate 胃溃疡, or gives an answer
        detect refuses, fails r2 alone; detect_write_missing raises the
        same error for r2."""
        class FaultyRelation(MapRelationOracle):
            def predict_proba(self, rows, against_rows):
                if "胃溃疡" in names_of(rows):
                    raise ValueError("cannot score 胃溃疡")
                return super().predict_proba(rows, against_rows)

        class BadAnswerContext:
            def __init__(self, bad):
                self.bad = bad

            def classify(self, *samples):
                judgments = [("confirmed", 1.0)] * len(samples)
                return self.bad(judgments) if any(
                    sample.disease == "胃溃疡" for sample in samples) else judgments

        class BadGridRelation(MapRelationOracle):
            def __init__(self, bad):
                super().__init__()
                self.bad = bad

            def predict_proba(self, rows, against_rows):
                probs = super().predict_proba(rows, against_rows)
                return self.bad(probs) if "胃溃疡" in names_of(rows) else probs

        class BadRowsRelation(MapRelationOracle):
            def __init__(self, bad):
                super().__init__()
                self.bad = bad

            def embed_names(self, names):
                rows = super().embed_names(names)
                return self.bad(rows) if "胃溃疡" in names else rows

        def nan_cell(probs):
            probs[1, 0] = np.nan
            return probs

        labels = "non_current, confirmed, unknown"
        cases = [
            (ConfirmAllContext(), FaultyRelation(), ValueError,
             "ValueError: cannot score 胃溃疡"),
            (BadAnswerContext(lambda judgments: judgments[:-1]), IrrelevanceAllRelation(),
             ShapeMismatch, "context stage gave 0 judgments for 1 samples"),
            (BadAnswerContext(lambda judgments: [("maybe", 0.9)] * len(judgments)),
             IrrelevanceAllRelation(), DxAuditError,
             f"context stage judged a sample 'maybe' at probability 0.9; a judgment is "
             f"one of {labels} at a probability in [0, 1]"),
            (BadAnswerContext(lambda judgments: [("confirmed", float("nan"))] * len(judgments)),
             IrrelevanceAllRelation(), DxAuditError,
             f"context stage judged a sample 'confirmed' at probability nan; a judgment "
             f"is one of {labels} at a probability in [0, 1]"),
            (BadAnswerContext(lambda judgments: [("confirmed", 1.5)] * len(judgments)),
             IrrelevanceAllRelation(), DxAuditError,
             f"context stage judged a sample 'confirmed' at probability 1.5; a judgment "
             f"is one of {labels} at a probability in [0, 1]"),
            (ConfirmAllContext(), BadGridRelation(lambda probs: probs[:-1]), ShapeMismatch,
             "relation stage gave probabilities of shape (1, 5) for (2, 5)"),
            (ConfirmAllContext(), BadGridRelation(lambda probs: probs[:, :-1]), ShapeMismatch,
             "relation stage gave probabilities of shape (2, 4) for (2, 5)"),
            (ConfirmAllContext(), BadGridRelation(nan_cell), ShapeMismatch,
             "relation stage gave a probability that is not finite"),
            # r1 has embedded 高血压 in the batch, so r2 alone embeds one more
            # name: the last message is detect_write_missing's
            (ConfirmAllContext(), BadRowsRelation(lambda rows: rows[:-1]), ShapeMismatch,
             "relation stage gave 1 rows for 2 names",
             "relation stage gave 2 rows for 3 names"),
            (ConfirmAllContext(), BadRowsRelation(lambda rows: np.concatenate([rows, rows])),
             ShapeMismatch, "relation stage gave 4 rows for 2 names",
             "relation stage gave 6 rows for 3 names"),
        ]
        records = [record("r1", "确诊为肺炎。", ["高血压"]),
                   record("r2", "确诊为胃溃疡。", ["高血压", "冠心病"]),
                   record("r3", "确诊为脑梗死。", [])]
        for context, relation, error_type, error, *lone in cases:
            models = Models(context, relation)
            report = batch_detect(records, models, lexicons)
            assert [r.record_id for r in report.results] == ["r1", "r3"]
            assert [[f.disease for f in r.findings] for r in report.results] == \
                [["肺炎"], ["脑梗死"]]
            assert report.errors == [{"record_id": "r2", "error": error}]
            assert report.summary["records"] == 2
            assert report.summary["errors"] == 1
            with pytest.raises(error_type) as raised:
                detect_write_missing(records[1], models, lexicons)
            assert (lone or [error])[0].endswith(str(raised.value))

    def test_a_failed_call_is_not_made_again_for_its_lone_record(self, lexicons):
        """When a chunk's classify call raises, a record whose new windows
        are all of the chunk's takes that error, as the same call would
        raise it again: a one-record corpus makes one call, through
        batch_detect and detect_write_missing alike. In a chunk of three
        records, each record's windows are then judged on their own, and
        the fault fails only the record that holds it."""
        calls = []

        class RaisingContext:
            def classify(self, *samples):
                calls.append([sample.disease for sample in samples])
                if any(sample.disease == "胃溃疡" for sample in samples):
                    raise ValueError("cannot judge 胃溃疡")
                return [("confirmed", 1.0)] * len(samples)

        models = Models(RaisingContext(), IrrelevanceAllRelation())
        lone = record("r2", "确诊为胃溃疡。另确诊为肺炎。", [])
        error = {"record_id": "r2", "error": "ValueError: cannot judge 胃溃疡"}
        assert batch_detect([lone], models, lexicons).errors == [error]
        assert calls == [["胃溃疡", "肺炎"]]
        calls.clear()
        with pytest.raises(ValueError, match="cannot judge 胃溃疡"):
            detect_write_missing(lone, models, lexicons)
        assert calls == [["胃溃疡", "肺炎"]]

        calls.clear()
        records = [record("r1", "确诊为肺炎。", []), lone, record("r3", "确诊为脑梗死。", [])]
        report = batch_detect(records, models, lexicons)
        assert calls == [["肺炎", "胃溃疡", "肺炎", "脑梗死"], ["肺炎"], ["胃溃疡", "肺炎"],
                         ["脑梗死"]]
        assert [[f.disease for f in r.findings] for r in report.results] == \
            [["肺炎"], ["脑梗死"]]
        assert report.errors == [error]

    def test_chunks_match_one_record_at_a_time_and_faults_fail_alone(
            self, lexicons, tmp_path, monkeypatch):
        """A corpus of 80 records: batch_detect makes no more classify calls
        than its new sample rows over CHUNK_ROWS, rounded up, at the
        packaged chunk size and at one that cuts the corpus into chunks of
        about ten records, and its report lines are detect_write_missing's,
        record by record. Three records fail, each at another stage, and
        their error entries come in record order, though r06's staging
        fault is raised before r05's relation fault."""
        class KeywordContext:
            calls: list = []
            fail = True

            def classify(self, *samples):
                KeywordContext.calls.append(samples)
                if self.fail and any(sample.disease == "脑梗死" for sample in samples):
                    raise ValueError("cannot judge 脑梗死")
                return [("non_current" if "否认" in sample.context else "confirmed", 0.9)
                        for sample in samples]

        class FaultyRelation(MapRelationOracle):
            def predict_proba(self, rows, against_rows):
                if "故障" in names_of(against_rows):
                    raise ValueError("cannot score against 故障")
                return super().predict_proba(rows, against_rows)

        def faulty_window(record, mention):
            if record.record_id == "r06":
                raise ValueError("cannot window r06")
            return build_context_window(record, mention)

        def one_by_one(records, models):
            results = []
            failing = ("r05", "r06", "r30") if KeywordContext.fail else ("r05", "r06")
            for rec in records:
                if rec.record_id in failing:
                    with pytest.raises(ValueError):
                        detect_write_missing(rec, models, lexicons)
                else:
                    results.append(RecordResult(rec.record_id,
                                                detect_write_missing(rec, models, lexicons)))
            return results

        def same_bytes(report, results):
            path_a, path_b = tmp_path / "chunked.jsonl", tmp_path / "one_by_one.jsonl"
            write_report(report, path_a)
            write_report(dataclasses.replace(report, results=results), path_b)
            return path_a.read_bytes() == path_b.read_bytes()

        monkeypatch.setattr(pipeline, "build_context_window", faulty_window)
        records = [record(f"r{i:02d}", f"第{i}次入院，确诊为肺炎，予抗感染治疗后好转。"
                          "否认高血压病史，胃溃疡待查。"
                          + ("另确诊为脑梗死。" if i == 30 else ""),
                          ["故障"] if i == 5 else [["肺炎"], ["高血压"], []][i % 3])
                   for i in range(80)]
        models = Models(KeywordContext(), FaultyRelation())

        # No call fails: each new window is judged once, in as few calls as
        # the staging rule allows
        KeywordContext.fail = False
        for chunk_rows in (pipeline.CHUNK_ROWS, 256):
            monkeypatch.setattr(pipeline, "CHUNK_ROWS", chunk_rows)
            KeywordContext.calls = []
            report = batch_detect(records, models, lexicons)
            judged = [(s.disease, s.context) for samples in KeywordContext.calls
                      for s in samples]
            assert len(judged) == len(set(judged))
            rows = sum(len(d) + 1 + len(c) for d, c in judged)
            assert len(KeywordContext.calls) <= -(-rows // chunk_rows)
            assert same_bytes(report, one_by_one(records, models))
        assert rows < pipeline.PASS_ROWS * 8 and len(KeywordContext.calls) >= 6

        KeywordContext.fail, KeywordContext.calls = True, []
        report = batch_detect(records, models, lexicons)
        # chunks of about ten records; r30's chunk reruns per record
        assert 6 <= len(KeywordContext.calls) < len(records) // 2
        assert report.errors == [
            {"record_id": "r05", "error": "ValueError: cannot score against 故障"},
            {"record_id": "r06", "error": "ValueError: cannot window r06"},
            {"record_id": "r30", "error": "ValueError: cannot judge 脑梗死"}]
        results = one_by_one(records, models)
        assert same_bytes(report, results)
        assert report.summary["findings"] == sum(len(r.findings) for r in results) > 0

    def test_trained_models_find_in_a_batch_what_they_find_record_by_record(
            self, trained_models, disease_pool, feature_lexicons, data_dir, tmp_path):
        """Trained models over records of few candidates and discharge
        names: batch_detect's report lines are detect_write_missing's,
        record by record, relation probabilities included. The batch
        scores each record's pairs inside one call over the chunk's pairs;
        alone, a record with one pair makes a call of one pair. The
        relation model has the benchmark's sizes (d_pair 24, hidden 48),
        at which a one-row product's bits differ from a block row's for
        most pairs."""
        variants = synth.load_variant_pairs(data_dir / "disease_variants.tsv")
        pairs = synth.relation_training_pairs(
            disease_pool, variants, load_pairs(data_dir / "relation_pairs_fixture.tsv"))
        encoder = PairEncoder.from_names([p.a for p in pairs] + [p.b for p in pairs],
                                         d_pair=24, seed=3)
        relation, _ = finetune(encoder, pairs, PairTrainConfig(hidden=48, epochs=2, seed=3))
        spec = synth.SyntheticSpec(n_records=80, diseases_per_record=2, miss_rate=0.5,
                                   negation_rate=0.2, enumeration_rate=0.0, seed=41)
        records, _ = synth.gen_synthetic_corpus(
            spec, disease_pool, synth.Templates.load(data_dir / "templates.txt"))
        calls = []

        class CountingRelation:
            def embed_names(self, names):
                return relation.embed_names(names)

            def predict_proba(self, rows, against_rows):
                calls.append(len(rows))
                return relation.predict_proba(rows, against_rows)

        models = Models(trained_models.context, CountingRelation())
        lexicons = PipelineLexicons(diseases=disease_pool, features=feature_lexicons)
        report = batch_detect(records, models, lexicons)
        assert report.errors == [] and len(calls) == 1
        one_by_one = [RecordResult(rec.record_id, detect_write_missing(rec, models, lexicons))
                      for rec in records]
        single = [result for result in one_by_one
                  if any(len(finding.relations) == 1 for finding in result.findings)]
        assert calls.count(1) >= 3 and len(single) >= 3
        path_a, path_b = tmp_path / "batched.jsonl", tmp_path / "one_by_one.jsonl"
        write_report(report, path_a)
        write_report(dataclasses.replace(report, results=one_by_one), path_b)
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_a_disease_past_its_cap_counts_its_capped_rows(self, feature_lexicons,
                                                           monkeypatch):
        """Chunks are staged by the rows each sample holds: a 40-character
        disease holds MAX_DISEASE rows, so a chunk of CHUNK_ROWS = two
        capped windows and one row closes after three records, where
        counting the window's own disease would close it after two."""
        long_name = "".join(chr(0x4E00 + i) for i in range(40))
        lexicons = PipelineLexicons(
            diseases=make_lexicon([long_name], LexiconKind.DISEASE_NAMES),
            features=feature_lexicons)
        records = [record(f"r{i}", f"第{i}次确诊为{long_name}。", ["肺炎"])
                   for i in range(10, 19)]
        context = len(f"第10次确诊为{long_name}。")
        monkeypatch.setattr(pipeline, "CHUNK_ROWS", 2 * (MAX_DISEASE + 1 + context) + 1)
        calls = []

        class CountingContext:
            def classify(self, *samples):
                calls.append([len(s.disease) for s in samples])
                return [("confirmed", 0.9)] * len(samples)

        batch_detect(records, Models(CountingContext(), IrrelevanceAllRelation()), lexicons)
        assert calls == [[MAX_DISEASE] * 3] * 3

    def test_a_generator_corpus_is_read_one_chunk_at_a_time(self, lexicons, monkeypatch):
        """A generator of records, every new window closing its chunk: no
        record past a chunk is read before that chunk's classify call, and
        r2's 肺炎 window, judged in the chunk before, is not judged again.
        With room for one memo entry, filing r2's chunk evicts 肺炎, so r2
        can read it only because filing waits until the chunk is read."""
        events = []

        def corpus():
            for rec in (record("r1", "确诊为肺炎。", []),
                        MedicalRecord("r2", (("现病史", "确诊为肺炎。"),
                                             ("既往史", "确诊为高血压。")), ()),
                        record("r3", "确诊为脑梗死。", [])):
                events.append(rec.record_id)
                yield rec

        class LoggingContext:
            def classify(self, *samples):
                events.append([(sample.disease, sample.context) for sample in samples])
                return [("confirmed", 0.9)] * len(samples)

        monkeypatch.setattr(pipeline, "CHUNK_ROWS", 1)
        monkeypatch.setattr(pipeline, "MEMO_ENTRIES", 1)
        report = batch_detect(corpus(), Models(LoggingContext(), IrrelevanceAllRelation()),
                              lexicons)
        assert events == ["r1", [("肺炎", "确诊为肺炎。")], "r2", [("高血压", "确诊为高血压。")],
                          "r3", [("脑梗死", "确诊为脑梗死。")]]
        assert report.errors == []
        assert [[f.disease for f in r.findings] for r in report.results] == \
            [["肺炎"], ["肺炎", "高血压"], ["脑梗死"]]

    @pytest.mark.parametrize("text, discharge", [
        ("入院后确诊为肺炎，另见高血压记录：否认脑梗死。", ["胃溃疡"]),
        ("患者一般情况可，生命体征平稳。", ["胃溃疡"]),
    ], ids=["memo-served", "no-mention"])
    def test_a_chunk_holds_at_most_staged_rows(self, lexicons, text, discharge):
        """A corpus whose windows are all judged already, or whose records
        hold no mention, adds no new row: its chunks close at STAGED_ROWS
        rows held, one per record plus each window's characters, one more
        and its record's discharge names. Copies of one record under fresh ids, read from a generator
        of twice as many, give their first outcome once that many are read."""
        read = 0

        def corpus():
            nonlocal read
            while read < 2 * pipeline.STAGED_ROWS:
                read += 1
                yield record(f"r{read}", text, discharge)

        rec = record("r0", text, discharge)
        windows = [(m.disease, build_context_window(rec, m).context)
                   for m in pipeline.find_mentions(lexicons.matcher, rec)]
        held = 1 + sum(len(d) + len(c) + 1 + len(discharge) for d, c in windows)
        models = Models(ConfirmAllContext(), IrrelevanceAllRelation())
        outcomes = pipeline._detect(corpus(), models, lexicons.features, lexicons.matcher)
        first, outcome = next(outcomes)
        assert first.record_id == "r1" and len(outcome[0]) == len(windows)
        assert read == -(-pipeline.STAGED_ROWS // held)
        assert len(windows) == (3 if windows else 0)

    @pytest.mark.parametrize("memo_entries", [None, 2, 1], ids=["default", "two", "one"])
    def test_records_repeated_under_fresh_ids_match_one_record_at_a_time(
            self, trained_models, disease_pool, feature_lexicons, data_dir, tmp_path,
            monkeypatch, memo_entries):
        """Trained models over a corpus that repeats its records under fresh
        ids, across several chunks of one pass each: batch_detect's report
        lines are detect_write_missing's, record by record. Each distinct
        window reaches classify once per call, none with zero samples,
        while the memos are large enough; with room for two entries, or
        one, so that every filing evicts, neither memo ever holds more."""
        spec = synth.SyntheticSpec(n_records=30, diseases_per_record=4, miss_rate=0.35,
                                   negation_rate=0.25, enumeration_rate=0.3, seed=31)
        originals, _ = synth.gen_synthetic_corpus(
            spec, disease_pool, synth.Templates.load(data_dir / "templates.txt"),
            variant_pairs=synth.load_variant_pairs(data_dir / "disease_variants.tsv"))
        records = [dataclasses.replace(rec, record_id=f"{rec.record_id}-{k}")
                   for k in range(3) for rec in originals]
        lexicons = PipelineLexicons(diseases=disease_pool, features=feature_lexicons)
        counting = CountingContext(trained_models.context)
        models = Models(counting, trained_models.relation)

        memos = {}
        keep = pipeline._keep
        bound = memo_entries or pipeline.MEMO_ENTRIES

        def bounded_keep(memo, items):
            keep(memo, items)
            assert len(memo) <= bound
            memos.update((id(memo), type(key)) for key in memo)

        monkeypatch.setattr(pipeline, "MEMO_ENTRIES", bound)
        monkeypatch.setattr(pipeline, "_keep", bounded_keep)
        monkeypatch.setattr(pipeline, "CHUNK_ROWS", pipeline.PASS_ROWS)
        report = batch_detect(records, models, lexicons)
        assert report.errors == []
        assert sorted(memos.values(), key=str) == [str, tuple]
        windows = [window for call in counting.calls for window in call]
        assert min(map(len, counting.calls)) > 0
        assert len(counting.calls) >= 3
        if memo_entries is None:
            assert len(windows) == len(set(windows)) < len(records) * 4

        one_by_one = [RecordResult(rec.record_id,
                                   detect_write_missing(rec, trained_models, lexicons))
                      for rec in records]
        path_a, path_b = tmp_path / "batched.jsonl", tmp_path / "one_by_one.jsonl"
        write_report(report, path_a)
        write_report(dataclasses.replace(report, results=one_by_one), path_b)
        assert path_a.read_bytes() == path_b.read_bytes()
        assert report.summary["findings"] > 0

    def test_empty_corpus(self, lexicons):
        report = batch_detect([], oracle_models([], lexicons, []), lexicons)
        assert report.results == []
        assert report.summary["records"] == 0
        assert report.summary["findings"] == 0

    def test_unparseable_line_reported_rest_processed(self, lexicons, tmp_path):
        good = {"record_id": "ok", "sections": [{"name": "s", "text": "确诊为肺炎。"}],
                "discharge_diagnoses": []}
        path = tmp_path / "corpus.jsonl"
        path.write_text(json.dumps(good, ensure_ascii=False) + "\n{broken\n",
                        encoding="utf-8")
        models = oracle_models([record("ok", good["sections"][0]["text"], [])],
                               lexicons, [("ok", "肺炎", "confirmed")])
        report = batch_detect(str(path), models, lexicons)
        assert len(report.results) == 1
        assert report.results[0].record_id == "ok"
        assert len(report.errors) == 1
        assert report.errors[0]["line"] == 2

    def test_summary_counts(self, lexicons):
        records = [record("r1", "确诊为肺炎。否认高血压。", [])]
        models = oracle_models(records, lexicons, [("r1", "肺炎", "confirmed"),
                                                   ("r1", "高血压", "non_current")])
        report = batch_detect(records, models, lexicons)
        assert report.summary["findings"] == 1
        assert report.summary["context_labels"]["confirmed"] == 1
        assert report.summary["context_labels"]["non_current"] == 1
        assert report.summary["findings_by_section"] == {"现病史": 1}

    def test_report_round_trip(self, lexicons, tmp_path):
        records = [record("r1", "确诊为肺炎。", [])]
        models = oracle_models(records, lexicons, [("r1", "肺炎", "confirmed")])
        report = batch_detect(records, models, lexicons)
        path = tmp_path / "report.jsonl"
        write_report(report, path)
        loaded = load_report_findings(path)
        assert set(loaded) == {"r1"}
        assert loaded["r1"][0]["disease"] == "肺炎"

    def test_repeated_record_id_in_a_list_keeps_the_first(self, lexicons, tmp_path):
        first, repeat = record("r1", "确诊为肺炎。", []), record("r1", "确诊为高血压。", [])
        models = oracle_models([first], lexicons, [("r1", "肺炎", "confirmed")])
        report = batch_detect([first, repeat], models, lexicons)
        assert report.errors == [{"record_id": "r1", "error": "duplicate record_id 'r1'"}]
        assert (report.summary["records"], report.summary["errors"]) == (1, 1)
        path = tmp_path / "report.jsonl"
        write_report(report, path)
        assert [f["disease"] for f in load_report_findings(path)["r1"]] == ["肺炎"]

    @pytest.mark.parametrize("bad_line, message", [
        ("not json", "invalid JSON"),
        ("[1, 2]", "not a JSON object"),
        ('{"record_id": "r2", "findings": {"disease": "肺炎"}}', "list of objects"),
        ('{"record_id": "r2", "findings": [{"evidence_spans": []}]}', "string disease"),
        ('{"record_id": ["r2"], "findings": []}', "record_id"),
        ('{"record_id": "r1", "findings": []}', "duplicate record_id 'r1'"),
        ('{"record_ids": "r2", "findings": []}', "neither record_id nor summary"),
        ('{"record_id": "r2", "findings": [{"disease": "、"}]}', "'、' normalized to empty"),
    ])
    def test_malformed_report_line_is_parse_error(self, tmp_path, bad_line, message):
        path = tmp_path / "report.jsonl"
        path.write_text('{"record_id": "r1", "findings": []}\n\n' + bad_line + "\n",
                        encoding="utf-8")
        with pytest.raises(ParseError, match=message) as excinfo:
            load_report_findings(path)
        assert excinfo.value.line == 3

    def test_undecodable_report_line_is_parse_error(self, tmp_path):
        path = tmp_path / "report.jsonl"
        path.write_bytes(b'{"record_id": "r1", "findings": []}\n\xff{"x":1}\n')
        with pytest.raises(ParseError, match="invalid UTF-8") as excinfo:
            load_report_findings(path)
        assert excinfo.value.line == 2
