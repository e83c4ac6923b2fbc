"""Pair generators, contrastive pretraining, and the 5-class comparator."""

import copy
import math
import random
import re

import numpy as np
import pytest

from dxaudit.core import IcdIndex, MedicalRecord
from dxaudit.evaluate import ConfirmAllContext, report_instances
from dxaudit.pipeline import Models, PipelineLexicons, batch_detect
from dxaudit.synth import SyntheticSpec, Templates, gen_synthetic_corpus, load_variant_pairs
from dxaudit import relation_model
from dxaudit.modelio import load_model, save_model
from dxaudit.errors import (
    BadModelFile,
    BadSetting,
    DegenerateBatch,
    DegenerateData,
    InsufficientCodes,
    ParseError,
    UnknownCode,
)
from dxaudit.relation_model import (
    BLOCK_ROWS,
    MAX_NAME,
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

from builders import relation_classifier
from conftest import make_fixture_icd_entries
from oracles import (
    central_difference_worst_error,
    naive_info_nce,
    seed_contrastive_pretrain,
    seed_finetune,
    seed_finetune_step,
    seed_normalize_disease_name,
    seed_relation_forward,
)


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

    @pytest.mark.parametrize("n", [-3, 2.5, True])
    def test_count_that_is_no_count_is_refused(self, fixture_icd, n):
        with pytest.raises(BadSetting, match="n must be"):
            gen_negative_random(fixture_icd, n, seed=0)

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
        encoder = PairEncoder.from_names(list("abcd"), d_pair=4, seed=0)
        encoder.embedding[:] = 1.0
        batch = [DiseasePair("a", "b", PairSource.CODING_PAIR),
                 DiseasePair("c", "d", PairSource.CODING_PAIR),
                 DiseasePair("ab", "cd", PairSource.CODING_PAIR)]
        loss = info_nce_batch_loss(encoder, batch, tau=0.05)
        assert abs(loss - math.log(len(batch))) < 1e-9

    def test_orthogonal_positives_hand_value(self):
        encoder = PairEncoder.from_names(list("abcd"), d_pair=2, seed=0)
        encoder.embedding[encoder.vocab.encode("a")[0]] = [1.0, 0.0]
        encoder.embedding[encoder.vocab.encode("b")[0]] = [1.0, 0.0]
        encoder.embedding[encoder.vocab.encode("c")[0]] = [0.0, 1.0]
        encoder.embedding[encoder.vocab.encode("d")[0]] = [0.0, 1.0]
        batch = [DiseasePair("a", "b", PairSource.CODING_PAIR),
                 DiseasePair("c", "d", PairSource.CODING_PAIR)]
        loss = info_nce_batch_loss(encoder, batch, tau=0.05)
        assert abs(loss - math.log1p(math.exp(-20.0))) < 1e-9

    def test_loss_non_negative_random(self):
        rng = np.random.default_rng(8)
        encoder = PairEncoder.from_names(list("abcdef"), d_pair=3, seed=1)
        for _ in range(200):
            encoder.embedding[:] = rng.normal(size=encoder.embedding.shape)
            batch = [DiseasePair("ab", "cd", PairSource.CODING_PAIR),
                     DiseasePair("ef", "fa", PairSource.CODING_PAIR),
                     DiseasePair("bc", "de", PairSource.RANDOM_NEG)]
            assert info_nce_batch_loss(encoder, batch, tau=0.05) >= 0.0

    def test_matches_naive_oracle(self):
        encoder = PairEncoder.from_names(list("abcdefgh"), d_pair=5, seed=3)
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
        encoder = PairEncoder.from_names(list("ab"), d_pair=2, seed=0)
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

    def test_matches_the_seed_loop(self):
        """Batches of 8 over 30 pairs, a third of them positive, so some
        batches hold fewer than two positives and take no step."""
        rng = random.Random(4)
        pairs = [DiseasePair(f"病{rng.choice('甲乙丙丁戊')}{k}", f"病{k}症",
                             PairSource.CODING_PAIR if k % 3 == 0 else PairSource.RANDOM_NEG)
                 for k in range(30)]
        names = [p.a for p in pairs] + [p.b for p in pairs]
        config = PairTrainConfig(batch_size=8, pretrain_learning_rate=0.5, epochs=3, seed=6)
        encoder, history = contrastive_pretrain(
            pairs, PairEncoder.from_names(names, d_pair=4, seed=1), config)
        seed_encoder, seed_history = seed_contrastive_pretrain(
            pairs, PairEncoder.from_names(names, d_pair=4, seed=1), config)
        assert history == seed_history
        assert np.array_equal(encoder.embedding, seed_encoder.embedding)

    def test_overflowing_embedding_norms_are_refused(self):
        """At a huge but finite learning rate the row norms overflow to inf,
        every similarity is 0 and the loss is exactly log(batch), which is
        finite: the norms themselves must be refused."""
        pairs = [DiseasePair(f"病{c}", f"病{c}症", PairSource.CODING_PAIR)
                 for c in "甲乙丙丁戊己"]
        pairs += [DiseasePair(f"病{a}", f"病{b}", PairSource.RANDOM_NEG)
                  for a, b in zip("甲乙丙丁戊己", "乙丙丁戊己甲")]
        encoder = PairEncoder.from_names([p.a for p in pairs] + [p.b for p in pairs],
                                         d_pair=8, seed=0)
        config = PairTrainConfig(pretrain_learning_rate=1e300, epochs=2)
        with pytest.raises(DegenerateData, match="diverged"):
            contrastive_pretrain(pairs, encoder, config)


class TestGradients:
    """Hand-written relation gradients against central finite differences.

    The names repeat characters, hold one the vocabulary lacks and run past
    MAX_NAME, so the scatter into the embedding table sees repeated rows,
    the unknown-character row and clipping.
    """

    def test_info_nce_embedding_gradient(self):
        encoder = PairEncoder.from_names(list("abcdefgh"), d_pair=5, seed=3)
        batch = [DiseasePair("abca", "abd", PairSource.CODING_PAIR),
                 DiseasePair("efx", "eg", PairSource.CODING_PAIR),
                 DiseasePair("ha", "cdcdcdcd" * 7, PairSource.RANDOM_NEG),
                 DiseasePair("bbgfedcb" * 7, "fe", PairSource.BACK_TRANSLATION)]
        _, grad = info_nce_batch_loss(encoder, batch, tau=0.05, with_grads=True)
        worst = central_difference_worst_error(
            {"embedding": encoder.embedding}, {"embedding": grad},
            lambda: info_nce_batch_loss(encoder, batch, tau=0.05))
        assert worst < 1e-4

    def test_finetune_step_gradients(self):
        encoder = PairEncoder.from_names(list("abcdefg"), d_pair=3, seed=1)
        model = relation_classifier(encoder, PairTrainConfig(hidden=6), seed=2)
        a, b, label = "abcafedc" * 7, "dexd", RELATIONS.index("secondary")

        # one SGD step at lr=1 moves each parameter by minus its gradient
        stepped = copy.deepcopy(model)
        stepped._step([(stepped.encoder.encode_ids(a), stepped.encoder.encode_ids(b),
                        label)], 1.0)
        after = step_params(stepped)
        analytic = {name: table - after[name]
                    for name, table in step_params(model).items()}
        worst = central_difference_worst_error(
            step_params(model), analytic,
            lambda: -math.log(model.predict_proba(a, b)[label]))
        assert worst < 1e-4

    def test_finetune_batch_gradients(self):
        """One step on a batch moves each parameter by minus the gradient of
        the batch's summed loss. The names share characters, so rows of the
        embedding table take gradient from several examples, and the batch
        holds a symmetric pair in both orders, as finetune builds it."""
        encoder = PairEncoder.from_names(list("abcdefg"), d_pair=3, seed=1)
        model = relation_classifier(encoder, PairTrainConfig(hidden=6), seed=2)
        examples = [("abcafedc" * 7, "dexd", "secondary"), ("cab", "gfa", "inclusion"),
                    ("bdgb", "ea", "irrelevance"), ("ea", "bdgb", "irrelevance")]
        batch = [(encoder.encode_ids(a), encoder.encode_ids(b), RELATIONS.index(r))
                 for a, b, r in examples]
        stepped = copy.deepcopy(model)
        stepped._step(batch, 1.0)
        after = step_params(stepped)
        analytic = {name: table - after[name]
                    for name, table in step_params(model).items()}
        worst = central_difference_worst_error(
            step_params(model), analytic,
            lambda: sum(-math.log(model.predict_proba(a, b)[RELATIONS.index(r)])
                        for a, b, r in examples))
        assert worst < 1e-4


def step_params(model):
    return {**model.p, "embedding": model.encoder.embedding}


class TestBatchedStep:
    """The batched fine-tune step against the seed's per-example step."""

    @staticmethod
    def model_and_examples(n):
        encoder = PairEncoder.from_names(list("abcdefghij"), d_pair=4, seed=5)
        model = relation_classifier(encoder, PairTrainConfig(hidden=7), seed=6)
        rng = random.Random(n)
        examples = []
        for _ in range(n):
            a, b = ("".join(rng.choice("abcdefghijx") for _ in range(rng.randint(1, 9)))
                    for _ in range(2))
            examples.append((encoder.encode_ids(a), encoder.encode_ids(b),
                             rng.randrange(len(RELATIONS))))
        return model, examples

    def test_batch_of_one_is_the_seed_step(self):
        model, examples = self.model_and_examples(5)
        for example in examples:
            oracle = copy.deepcopy(model)
            expected_loss = seed_finetune_step(oracle, *example, 0.3)
            loss = model._step([example], 0.3)
            assert loss == pytest.approx(expected_loss, abs=1e-12)
            for name, table in step_params(model).items():
                assert np.abs(table - step_params(oracle)[name]).max() <= 1e-12, name

    @pytest.mark.parametrize("n", [2, 5, relation_model.FINETUNE_BATCH])
    def test_batch_moves_by_the_sum_of_single_moves(self, n):
        model, examples = self.model_and_examples(n)
        start = step_params(model)
        summed = {name: np.zeros_like(table) for name, table in start.items()}
        for example in examples:
            single = copy.deepcopy(model)
            single._step([example], 0.3)
            for name, table in step_params(single).items():
                summed[name] += table - start[name]
        batched = copy.deepcopy(model)
        batched._step(examples, 0.3)
        for name, table in step_params(batched).items():
            assert np.abs((table - start[name]) - summed[name]).max() <= 1e-12, name


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
    def test_matches_the_seed_loop(self, data_dir):
        pairs = load_pairs(data_dir / "relation_pairs_fixture.tsv")
        names = [p.a for p in pairs] + [p.b for p in pairs]
        config = PairTrainConfig(learning_rate=0.05, hidden=6, epochs=3, seed=2)
        model, history = finetune(PairEncoder.from_names(names, d_pair=4, seed=1),
                                  pairs, config)
        seed_model, seed_history = seed_finetune(
            PairEncoder.from_names(names, d_pair=4, seed=1), pairs, config)
        assert history == seed_history
        assert np.array_equal(model.encoder.embedding, seed_model.encoder.embedding)
        for name, table in model.p.items():
            assert np.array_equal(table, seed_model.p[name]), name

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

    @pytest.mark.parametrize("extra", [0, 6, 10])
    def test_partial_last_batch(self, tmp_path, extra):
        """Example counts that FINETUNE_BATCH does not divide, one of them
        below a single batch: training finishes, fits a pair of every class
        and retrains to the same bytes."""
        pairs = [DiseasePair("头痛", "头痛", PairSource.ANNOTATED, "similarity"),
                 DiseasePair("糖尿病", "糖尿病肾病", PairSource.ANNOTATED, "inclusion"),
                 DiseasePair("肺炎", "呼吸衰竭", PairSource.ANNOTATED, "secondary"),
                 DiseasePair("骨折", "贫血", PairSource.ANNOTATED, "irrelevance"),
                 DiseasePair("高血压", "胃炎", PairSource.ANNOTATED, "other")]
        for i in range(extra):
            pairs.append(DiseasePair(f"感染{i}", f"脓毒症{i}", PairSource.ANNOTATED,
                                     "secondary") if i % 2 else
                         DiseasePair(f"肿瘤{i}", f"肿瘤{i}转移", PairSource.ANNOTATED,
                                     "inclusion"))
        # irrelevance and other are trained in both orders
        n_examples = len(pairs) + 2
        assert n_examples % relation_model.FINETUNE_BATCH != 0
        assert (n_examples < relation_model.FINETUNE_BATCH) == (extra == 0)
        config = PairTrainConfig(learning_rate=0.05, hidden=16, epochs=150, seed=4)

        def train(path):
            encoder = PairEncoder.from_names([p.a + p.b for p in pairs], d_pair=8, seed=4)
            model, history = finetune(encoder, pairs, config)
            model.save(path)
            return model, history

        model, history = train(tmp_path / "first.bin")
        assert len(history) == config.epochs and history[-1] < history[0]
        assert all(model.predict(p.a, p.b)[0] == p.relation for p in pairs)
        train(tmp_path / "again.bin")
        assert (tmp_path / "first.bin").read_bytes() == (tmp_path / "again.bin").read_bytes()

    def test_missing_class_raises(self, data_dir):
        pairs = [p for p in load_pairs(data_dir / "relation_pairs_fixture.tsv")
                 if p.relation != "other"]
        encoder = PairEncoder.from_names([p.a for p in pairs], d_pair=8, seed=0)
        with pytest.raises(DegenerateData):
            finetune(encoder, pairs, PairTrainConfig(epochs=1))

    def test_unlabeled_pair_raises(self):
        encoder = PairEncoder.from_names(list("ab"), d_pair=4, seed=0)
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

    def test_load_draws_nothing_and_saves_the_same_bytes(self, fixture_pair_model,
                                                         tmp_path, monkeypatch):
        fixture_pair_model[0].save(tmp_path / "relation.bin")

        def no_draws(*args, **kwargs):
            raise AssertionError("a load drew random numbers")

        with monkeypatch.context() as patched:
            patched.setattr(np.random, "default_rng", no_draws)
            loaded = RelationClassifier.load(tmp_path / "relation.bin")
        loaded.save(tmp_path / "again.bin")
        assert (tmp_path / "again.bin").read_bytes() == \
            (tmp_path / "relation.bin").read_bytes()


def random_names(model, n, seed):
    """Names over the model's vocabulary plus a few unknown characters,
    some longer than MAX_NAME."""
    rng = random.Random(seed)
    chars = model.encoder.vocab.chars + list("鱼羊△")
    longest = MAX_NAME + 10
    return ["".join(rng.choice(chars) for _ in range(rng.randint(1, longest)))
            for _ in range(n)]


class TestBlockScoring:
    def test_embed_many_matches_embed(self, fixture_pair_model):
        encoder = fixture_pair_model[0].encoder
        names = random_names(fixture_pair_model[0], 40, seed=1)
        rows = encoder.embed_many(names)
        for name, row in zip(names, rows):
            np.testing.assert_allclose(row, encoder.embed(name), rtol=0, atol=1e-12)

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

    @pytest.mark.parametrize("block_rows", [BLOCK_ROWS, 7])
    @pytest.mark.parametrize("n", [0, 1, BLOCK_ROWS, 2 * BLOCK_ROWS + 3])
    def test_prepared_rows_score_as_names(self, fixture_pair_model, monkeypatch,
                                          n, block_rows):
        model = fixture_pair_model[0]
        names = random_names(model, n, seed=n + 1)
        monkeypatch.setattr(relation_model, "BLOCK_ROWS", block_rows)
        rows = model.embed_names(names)
        assert rows.shape == (n, model.encoder.d_pair)
        for a in ("头部骨折", " 电解质紊乱，"):
            assert np.array_equal(model.predict_proba(a, rows), model.predict_proba(a, names))

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


class PerPairRelation:
    """The per-pair path: one single-pair forward per (candidate, discharge name)."""

    def __init__(self, model):
        self.model = model

    def predict_proba(self, a, b):
        rows = [self.model.predict_proba(a, name) for name in b]
        return np.array(rows).reshape(-1, len(RELATIONS))


def test_detect_relations_are_the_single_pair_predictions(
        pool_pair_model, disease_pool, feature_lexicons, data_dir):
    spec = SyntheticSpec(n_records=150, diseases_per_record=4, miss_rate=0.35,
                         negation_rate=0.25, enumeration_rate=0.3, seed=23)
    records, _ = gen_synthetic_corpus(
        spec, disease_pool, Templates.load(data_dir / "templates.txt"),
        variant_pairs=load_variant_pairs(data_dir / "disease_variants.tsv"))
    model = pool_pair_model[0]
    lexicons = PipelineLexicons(diseases=disease_pool, features=feature_lexicons)
    report = batch_detect(records, Models(ConfirmAllContext(), model), lexicons)
    assert report.errors == []
    checked = 0
    for result in report.results:
        for finding in result.findings:
            for dx, relation, prob in finding.relations:
                expected, expected_prob = model.predict(finding.disease, dx)
                assert relation == expected
                assert abs(prob - expected_prob) <= 1e-12
                checked += 1
    assert checked > 100
    per_pair = batch_detect(records, Models(ConfirmAllContext(), PerPairRelation(model)),
                            lexicons)
    assert report_instances(report) == report_instances(per_pair)


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
