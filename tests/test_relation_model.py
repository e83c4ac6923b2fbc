"""Pair generators, contrastive pretraining, and the 5-class comparator."""

import math
import random
import re

import numpy as np
import pytest

from dxaudit.core import IcdIndex, MedicalRecord
from dxaudit import relation_model
from dxaudit.modelio import load_model, save_model
from dxaudit.errors import (
    BadModelFile,
    DegenerateBatch,
    DegenerateData,
    InsufficientCodes,
    ParseError,
    UnknownCode,
)
from dxaudit.relation_model import (
    BLOCK_ROWS,
    RELATIONS,
    DiseasePair,
    PairEncoder,
    PairSource,
    PairTrainConfig,
    RelationClassifier,
    contrastive_pretrain,
    drop_conflicts,
    finetune,
    gen_negative_icd_siblings,
    gen_negative_random,
    gen_negative_same_list,
    gen_positive_coding_pairs,
    info_nce_batch_loss,
    load_pairs,
    save_pairs,
)

from conftest import make_fixture_icd_entries
from oracles import naive_info_nce, seed_normalize_disease_name, seed_relation_forward


def record_with_diagnoses(record_id, diagnoses):
    return MedicalRecord(record_id=record_id, sections=(("s", "正文。"),),
                         discharge_diagnoses=tuple(diagnoses))


class TestCodingPairs:
    def test_scleral_rupture_fixture(self, fixture_icd):
        pairs = gen_positive_coding_pairs([("巩膜破裂伤", "S05.301")], fixture_icd)
        assert pairs == [DiseasePair("巩膜破裂伤", "巩膜破裂", PairSource.CODING_PAIR)]
        assert pairs[0].polarity == "same"

    def test_duplicates_collapse(self, fixture_icd):
        rows = [("巩膜破裂伤", "S05.301"), ("巩膜破裂伤", "S05.301")]
        assert len(gen_positive_coding_pairs(rows, fixture_icd)) == 1

    def test_unknown_code(self, fixture_icd):
        with pytest.raises(UnknownCode):
            gen_positive_coding_pairs([("某病", "Z99.9")], fixture_icd)


class TestSameListNegatives:
    def test_three_diagnoses_three_pairs(self):
        records = [record_with_diagnoses("r", ["高血压", "糖尿病", "肺炎"])]
        pairs = gen_negative_same_list(records)
        assert len(pairs) == 3
        assert all(p.polarity == "dissimilar" for p in pairs)

    def test_singleton_list_no_pairs(self):
        assert gen_negative_same_list([record_with_diagnoses("r", ["高血压"])]) == []

    def test_conflict_with_positives_dropped(self):
        records = [record_with_diagnoses("r", ["巩膜破裂伤", "巩膜破裂", "白内障"])]
        positives = [DiseasePair("巩膜破裂伤", "巩膜破裂", PairSource.CODING_PAIR)]
        pairs = gen_negative_same_list(records, exclude_pairs=[p.key for p in positives])
        keys = {p.key for p in pairs}
        assert frozenset(("巩膜破裂伤", "巩膜破裂")) not in keys
        assert len(pairs) == 2


class TestSiblingNegatives:
    def test_same_depth_soundness_exhaustive(self, fixture_icd):
        pairs = gen_negative_icd_siblings(fixture_icd)
        titles_to_code = {}
        for entry in fixture_icd.entries():
            titles_to_code[entry.title] = entry.code
        assert pairs
        for pair in pairs:
            code_a, code_b = titles_to_code[pair.a], titles_to_code[pair.b]
            depth_a = len(code_a.replace(".", ""))
            depth_b = len(code_b.replace(".", ""))
            assert depth_a == depth_b
            assert code_a[:3] == code_b[:3]
            assert code_a != code_b
            assert not code_a.startswith(code_b) and not code_b.startswith(code_a)

    def test_s05_sibling_emitted_ancestor_never(self, fixture_icd):
        pairs = gen_negative_icd_siblings(fixture_icd)
        keys = {p.key for p in pairs}
        s05_3 = "眼球裂伤不伴眼内组织脱出"
        assert frozenset((s05_3, "眶穿通伤")) in keys  # S05.3 vs S05.4
        assert frozenset((s05_3, "巩膜破裂")) not in keys  # S05.3 vs S05.301
        assert frozenset(("巩膜破裂", "角膜裂伤")) in keys  # S05.301 vs S05.302

    def test_same_category_scope_excludes_ancestors(self, fixture_icd):
        pairs = gen_negative_icd_siblings(fixture_icd, sibling_scope="same_category")
        keys = {p.key for p in pairs}
        s05_3 = "眼球裂伤不伴眼内组织脱出"
        assert frozenset((s05_3, "巩膜破裂")) not in keys
        # cross-depth pair under the same category is now allowed
        assert frozenset(("巩膜破裂", "眶穿通伤")) in keys

    def test_single_code_table(self):
        index = IcdIndex([make_fixture_icd_entries()[0]])
        assert gen_negative_icd_siblings(index) == []


class TestRandomNegatives:
    def test_thousand_pairs_all_cross_prefix(self, fixture_icd):
        title_to_prefix = {e.title: e.code[:3] for e in fixture_icd.entries()}
        pairs = gen_negative_random(fixture_icd, 1000, seed=17)
        assert len(pairs) == 1000
        for pair in pairs:
            assert title_to_prefix[pair.a] != title_to_prefix[pair.b]

    def test_seed_determinism(self, fixture_icd):
        first = gen_negative_random(fixture_icd, 50, seed=5)
        second = gen_negative_random(fixture_icd, 50, seed=5)
        assert first == second

    def test_single_code_insufficient(self):
        index = IcdIndex([make_fixture_icd_entries()[0]])
        with pytest.raises(InsufficientCodes):
            gen_negative_random(index, 10, seed=0)

    def test_exclusion_respected(self, fixture_icd):
        positives = [DiseasePair("病种A0", "病种B0", PairSource.CODING_PAIR)]
        pairs = gen_negative_random(fixture_icd, 200, seed=3,
                                    exclude_pairs=[p.key for p in positives])
        assert frozenset(("病种A0", "病种B0")) not in {p.key for p in pairs}

    def test_positive_negative_disjoint_audit(self, fixture_icd):
        positives = gen_positive_coding_pairs(
            [("巩膜破裂伤", "S05.301"), ("病种A0临床", "A10")], fixture_icd)
        negatives = gen_negative_icd_siblings(fixture_icd)
        negatives += gen_negative_random(fixture_icd, 500, seed=1,
                                         exclude_pairs=[p.key for p in positives])
        negatives = drop_conflicts(negatives, positives)
        assert {p.key for p in positives} & {p.key for p in negatives} == set()


class TestPairFiles:
    def test_round_trip(self, tmp_path):
        pairs = [
            DiseasePair("巩膜破裂伤", "巩膜破裂", PairSource.CODING_PAIR),
            DiseasePair("高血压", "糖尿病", PairSource.SAME_LIST),
            DiseasePair("头部骨折", "头骨骨折", PairSource.ANNOTATED,
                        relation="similarity"),
        ]
        path = tmp_path / "pairs.tsv"
        save_pairs(pairs, path)
        assert load_pairs(path) == pairs

    @pytest.mark.parametrize("text, line, message", [
        ("a\tb\n", 1, "4 tab-separated fields"),
        ("# note\na\tb\tsimilarity\tannotated\nc\td\tsimilarity\tscraped\n", 3,
         "scraped"),
        ("a\t \tsimilarity\tannotated\n", 1, "empty"),
    ])
    def test_bad_row_is_parse_error_with_line(self, tmp_path, text, line, message):
        path = tmp_path / "pairs.tsv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError, match=message) as excinfo:
            load_pairs(path)
        assert excinfo.value.line == line


class TestContrastiveObjective:
    def test_identical_embeddings_log_batch_size(self):
        encoder = PairEncoder(list("abcd"), d_pair=4, seed=0)
        encoder.embedding[:] = 1.0
        batch = [DiseasePair("a", "b", PairSource.CODING_PAIR),
                 DiseasePair("c", "d", PairSource.CODING_PAIR),
                 DiseasePair("ab", "cd", PairSource.CODING_PAIR)]
        loss = info_nce_batch_loss(encoder, batch, tau=0.05)
        assert abs(loss - math.log(len(batch))) < 1e-9

    def test_orthogonal_positives_hand_value(self):
        encoder = PairEncoder(list("abcd"), d_pair=2, seed=0)
        encoder.embedding[encoder._ids["a"]] = [1.0, 0.0]
        encoder.embedding[encoder._ids["b"]] = [1.0, 0.0]
        encoder.embedding[encoder._ids["c"]] = [0.0, 1.0]
        encoder.embedding[encoder._ids["d"]] = [0.0, 1.0]
        batch = [DiseasePair("a", "b", PairSource.CODING_PAIR),
                 DiseasePair("c", "d", PairSource.CODING_PAIR)]
        loss = info_nce_batch_loss(encoder, batch, tau=0.05)
        assert abs(loss - math.log1p(math.exp(-20.0))) < 1e-9

    def test_loss_non_negative_random(self):
        rng = np.random.default_rng(8)
        encoder = PairEncoder(list("abcdef"), d_pair=3, seed=1)
        for _ in range(200):
            encoder.embedding[:] = rng.normal(size=encoder.embedding.shape)
            batch = [DiseasePair("ab", "cd", PairSource.CODING_PAIR),
                     DiseasePair("ef", "fa", PairSource.CODING_PAIR),
                     DiseasePair("bc", "de", PairSource.RANDOM_NEG)]
            assert info_nce_batch_loss(encoder, batch, tau=0.05) >= 0.0

    def test_matches_naive_oracle(self):
        encoder = PairEncoder(list("abcdefgh"), d_pair=5, seed=3)
        batch = [DiseasePair("abc", "abd", PairSource.CODING_PAIR),
                 DiseasePair("ef", "eg", PairSource.CODING_PAIR),
                 DiseasePair("ha", "cd", PairSource.RANDOM_NEG)]
        got = info_nce_batch_loss(encoder, batch, tau=0.05)
        u = np.stack([encoder.embed(p.a) for p in batch])
        v = np.stack([encoder.embed(p.b) for p in batch])
        u_hat = (u / np.linalg.norm(u, axis=1, keepdims=True)).tolist()
        v_hat = (v / np.linalg.norm(v, axis=1, keepdims=True)).tolist()
        expected = naive_info_nce(u_hat, v_hat, anchors=[0, 1], tau=0.05)
        assert abs(got - expected) < 1e-12

    def test_degenerate_batch(self):
        encoder = PairEncoder(list("ab"), d_pair=2, seed=0)
        batch = [DiseasePair("a", "b", PairSource.RANDOM_NEG),
                 DiseasePair("b", "a", PairSource.CODING_PAIR)]
        with pytest.raises(DegenerateBatch):
            info_nce_batch_loss(encoder, batch, tau=0.05)

    def test_pretraining_loss_decreases_five_epochs(self):
        rng = random.Random(1)
        chars = "心肝肺肾脑胃炎症病痛"
        pairs = []
        for _ in range(350):
            base = "".join(rng.choice(chars) for _ in range(rng.randint(2, 5)))
            pairs.append(DiseasePair(base, base + "症", PairSource.CODING_PAIR))
        for _ in range(150):
            a = "".join(rng.choice(chars) for _ in range(rng.randint(2, 5)))
            b = "".join(rng.choice(chars) for _ in range(rng.randint(2, 5)))
            if a == b:
                b += "炎"
            pairs.append(DiseasePair(a, b, PairSource.RANDOM_NEG))
        assert len(pairs) == 500
        encoder = PairEncoder.from_names(
            [p.a for p in pairs] + [p.b for p in pairs], d_pair=16, seed=2)
        config = PairTrainConfig(batch_size=256, tau=0.05,
                                 pretrain_learning_rate=0.5, epochs=5, seed=2)
        _, history = contrastive_pretrain(pairs, encoder, config)
        assert len(history) == 5
        assert all(b < a for a, b in zip(history, history[1:]))


@pytest.fixture(scope="module")
def fixture_pair_model(data_dir):
    pairs = load_pairs(data_dir / "relation_pairs_fixture.tsv")
    names = sorted({p.a for p in pairs} | {p.b for p in pairs})
    training = pairs + [DiseasePair(n, n, PairSource.ANNOTATED,
                                    relation="similarity") for n in names]
    encoder = PairEncoder.from_names(names, d_pair=24, seed=3)
    config = PairTrainConfig(learning_rate=0.05, hidden=48, epochs=60, seed=3)
    model, history = finetune(encoder, training, config)
    return model, pairs, history


@pytest.fixture(scope="module")
def pool_pair_model(data_dir, disease_pool):
    """The production-style training mix over the packaged disease pool."""
    from dxaudit.synth import load_variant_pairs, relation_training_pairs

    variants = load_variant_pairs(data_dir / "disease_variants.tsv")
    fixture = load_pairs(data_dir / "relation_pairs_fixture.tsv")
    pairs = relation_training_pairs(disease_pool, variants, fixture)
    names = [p.a for p in pairs] + [p.b for p in pairs]
    encoder = PairEncoder.from_names(names, d_pair=24, seed=3)
    config = PairTrainConfig(learning_rate=0.05, hidden=48, epochs=8, seed=3)
    model, _ = finetune(encoder, pairs, config)
    return model, sorted(set(disease_pool.entries))


class TestFineTune:
    def test_training_set_recovery(self, fixture_pair_model):
        model, pairs, _ = fixture_pair_model
        hits = sum(1 for p in pairs
                   if model.predict(p.a, p.b)[0] == p.relation)
        assert hits / len(pairs) >= 0.9

    def test_memorized_case_pairs(self, fixture_pair_model):
        model, _, _ = fixture_pair_model
        assert model.predict("头部骨折", "头骨骨折")[0] == "similarity"
        assert model.predict("电解质紊乱", "低钾血症")[0] == "inclusion"

    def test_identity_pairs_similar(self, fixture_pair_model):
        model, pairs, _ = fixture_pair_model
        names = sorted({p.a for p in pairs} | {p.b for p in pairs})
        similarity_idx = RELATIONS.index("similarity")
        for name in names:
            probs = model.predict_proba(name, name)
            assert int(np.argmax(probs)) == similarity_idx

    def test_loss_decreases(self, fixture_pair_model):
        _, _, history = fixture_pair_model
        assert history[-1] < history[0]

    def test_missing_class_raises(self, data_dir):
        pairs = [p for p in load_pairs(data_dir / "relation_pairs_fixture.tsv")
                 if p.relation != "other"]
        encoder = PairEncoder.from_names([p.a for p in pairs], d_pair=8, seed=0)
        with pytest.raises(DegenerateData):
            finetune(encoder, pairs, PairTrainConfig(epochs=1))

    def test_unlabeled_pair_raises(self):
        encoder = PairEncoder(list("ab"), d_pair=4, seed=0)
        with pytest.raises(DegenerateData):
            finetune(encoder, [DiseasePair("a", "b", PairSource.CODING_PAIR)],
                     PairTrainConfig(epochs=1))

    def test_symmetric_agreement(self, pool_pair_model):
        model, names = pool_pair_model
        rng = random.Random(4)
        agreements = []
        for _ in range(100):
            a, b = rng.sample(names, 2)
            fwd = model.predict(a, b)[0]
            rev = model.predict(b, a)[0]
            if fwd in ("similarity", "irrelevance") or rev in ("similarity", "irrelevance"):
                agreements.append(fwd == rev)
        assert agreements and sum(agreements) / len(agreements) >= 0.95

    def test_save_load_round_trip(self, fixture_pair_model, tmp_path):
        model, pairs, _ = fixture_pair_model
        path = tmp_path / "relation.bin"
        model.save(path)
        loaded = RelationClassifier.load(path)
        for pair in pairs[:10]:
            assert loaded.predict(pair.a, pair.b) == \
                model.predict(pair.a, pair.b)
        model.save(tmp_path / "again.bin")
        assert (tmp_path / "relation.bin").read_bytes() == \
            (tmp_path / "again.bin").read_bytes()


def random_names(model, n, seed):
    """Names over the model's vocabulary plus a few unknown characters,
    some longer than max_name."""
    rng = random.Random(seed)
    chars = model.encoder.chars + list("鱼羊△")
    longest = model.config.max_name + 10
    return ["".join(rng.choice(chars) for _ in range(rng.randint(1, longest)))
            for _ in range(n)]


class TestBlockScoring:
    def test_embed_many_matches_embed(self, fixture_pair_model):
        encoder = fixture_pair_model[0].encoder
        names = random_names(fixture_pair_model[0], 40, seed=1)
        rows = encoder.embed_many(names, max_name=50)
        for name, row in zip(names, rows):
            np.testing.assert_allclose(row, encoder.embed(name, 50), rtol=0, atol=1e-12)

    def test_embed_many_rejects_empty_names(self, fixture_pair_model):
        encoder = fixture_pair_model[0].encoder
        for names in ([], ["肺炎", ""]):
            with pytest.raises(ValueError):
                encoder.embed_many(names)

    @pytest.mark.parametrize("n", [1, BLOCK_ROWS, 2 * BLOCK_ROWS + 3])
    def test_rows_match_single_pairs(self, fixture_pair_model, n):
        model = fixture_pair_model[0]
        names = random_names(model, n, seed=n)
        block = model.predict_proba("头部骨折", names)
        assert block.shape == (n, len(RELATIONS))
        for name, row in zip(names, block):
            np.testing.assert_allclose(row, model.predict_proba("头部骨折", name),
                                       rtol=0, atol=1e-12)

    def test_empty_list_gives_no_rows(self, fixture_pair_model):
        assert fixture_pair_model[0].predict_proba("头部骨折", []).shape == (0, 5)

    def test_single_pair_is_the_seed_forward(self, fixture_pair_model):
        model = fixture_pair_model[0]
        names = random_names(model, 60, seed=7)
        for a, b in zip(names, names[1:]):
            expected = seed_relation_forward(model, seed_normalize_disease_name(a),
                                             seed_normalize_disease_name(b))
            assert np.array_equal(model.predict_proba(a, b), expected)

    def test_block_size_does_not_change_rows(self, fixture_pair_model, monkeypatch):
        model = fixture_pair_model[0]
        names = random_names(model, 50, seed=9)
        whole = model.predict_proba("电解质紊乱", names)
        monkeypatch.setattr(relation_model, "BLOCK_ROWS", 7)
        np.testing.assert_allclose(model.predict_proba("电解质紊乱", names), whole,
                                   rtol=0, atol=1e-12)


class TestModelFileFields:
    @pytest.mark.parametrize("part, key", [("meta", "vocab"), ("meta", "config"),
                                           ("arrays", "W_h")])
    def test_missing_field_names_path_and_key(self, fixture_pair_model, tmp_path,
                                              part, key):
        fixture_pair_model[0].save(tmp_path / "full.bin")
        meta, arrays = load_model(tmp_path / "full.bin", "relation")
        meta, arrays = dict(meta), dict(arrays)
        del (meta if part == "meta" else arrays)[key]
        path = tmp_path / "lacking.bin"
        save_model(path, "relation", meta, arrays)
        pattern = re.escape(f"{path}: model ") + f".*'{key}'"
        with pytest.raises(BadModelFile, match=pattern):
            RelationClassifier.load(path)
