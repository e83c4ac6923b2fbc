"""The gated fusion classifier: forward math, gradients, augmentation."""

import math
import random

import numpy as np
import pytest

from dxaudit.core import LexiconKind, make_lexicon
from dxaudit.errors import (
    BadModelFile,
    DegenerateData,
    EmptyPool,
    ParseError,
    ShapeMismatch,
)
from dxaudit.features import LABELS, ContextSample, assemble_features
from dxaudit.context_model import (
    CharVocab,
    CharWindowEncoder,
    ContextClassifier,
    GatedFusionHead,
    TrainConfig,
    augment_disease_replace,
    _row_sums,
    augment_eda,
    focal_loss,
    load_training_samples,
    pack,
    train,
)

from oracles import (
    finite_difference_worst_error,
    naive_focal_loss,
    naive_forward,
    naive_fusion_forward,
)


def random_instance(rng: np.random.Generator):
    """A random (encoder, head, ids, tracks) tiny instance."""
    vocab_size = int(rng.integers(3, 10))
    d_enc = int(rng.integers(2, 6))
    d = int(rng.integers(2, 6))
    length = int(rng.integers(2, 12))
    vocab = CharVocab([chr(ord("a") + i) for i in range(vocab_size)])
    encoder = CharWindowEncoder(vocab, d_enc=d_enc, window=2,
                                seed=int(rng.integers(0, 2**31)))
    head = GatedFusionHead(d_enc=d_enc, d=d, seed=int(rng.integers(0, 2**31)))
    ids = rng.integers(0, vocab_size + 2, size=length)
    tracks = tuple(rng.integers(0, 2, size=length) for _ in range(3))
    return encoder, head, ids, tracks


def make_sample(disease="ab", context="abcabdca", label=None) -> ContextSample:
    rng = np.random.default_rng(0)
    return ContextSample(
        disease=disease, context=context,
        pos_track=rng.integers(0, 2, size=len(context)).astype(np.uint8),
        neg_track=rng.integers(0, 2, size=len(context)).astype(np.uint8),
        order_track=rng.integers(0, 2, size=len(context)).astype(np.uint8),
        label=label)


class TestForward:
    def test_matches_naive_recomputation(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            encoder, head, ids, tracks = random_instance(rng)
            got = head.forward(encoder.encode(ids), tracks)
            expected = naive_forward(encoder.embedding, encoder.window, head.p,
                                     list(ids), *[list(t) for t in tracks])
            assert np.allclose(got, np.array(expected), atol=1e-9)

    def test_output_is_distribution(self):
        rng = np.random.default_rng(22)
        for _ in range(200):
            encoder, head, ids, tracks = random_instance(rng)
            probs = head.forward(encoder.encode(ids), tracks)
            assert abs(probs.sum() - 1.0) < 1e-9
            assert (probs > 0).all()

    def test_gate_forced_open_selects_h3(self):
        rng = np.random.default_rng(23)
        encoder, head, ids, tracks = random_instance(rng)
        head.p["W_g"][:] = 0.0
        head.p["c_g"][:] = 50.0
        _, cache = head.forward(encoder.encode(ids), tracks, return_cache=True)
        assert np.allclose(cache["o"], cache["h3"], atol=1e-9)

    def test_gate_forced_closed_selects_h2(self):
        rng = np.random.default_rng(24)
        encoder, head, ids, tracks = random_instance(rng)
        head.p["W_g"][:] = 0.0
        head.p["c_g"][:] = -50.0
        _, cache = head.forward(encoder.encode(ids), tracks, return_cache=True)
        assert np.allclose(cache["o"], cache["h2"], atol=1e-9)

    def test_closed_gate_ignores_feature_tracks(self):
        rng = np.random.default_rng(25)
        encoder, head, ids, _ = random_instance(rng)
        head.p["W_g"][:] = 0.0
        head.p["c_g"][:] = -50.0
        h1 = encoder.encode(ids)
        length = len(ids)
        tracks_a = tuple(np.zeros(length, dtype=np.intp) for _ in range(3))
        tracks_b = tuple(np.ones(length, dtype=np.intp) for _ in range(3))
        assert np.allclose(head.forward(h1, tracks_a), head.forward(h1, tracks_b),
                           atol=1e-9)

    def test_gating_convexity_fuzz(self):
        rng = np.random.default_rng(26)
        for _ in range(1000):
            encoder, head, ids, tracks = random_instance(rng)
            _, cache = head.forward(encoder.encode(ids), tracks, return_cache=True)
            low = np.minimum(cache["h2"], cache["h3"])
            high = np.maximum(cache["h2"], cache["h3"])
            assert (cache["o"] >= low - 1e-12).all()
            assert (cache["o"] <= high + 1e-12).all()

    def test_shape_mismatch(self):
        head = GatedFusionHead(d_enc=8, d=4, seed=0)
        with pytest.raises(ShapeMismatch):
            head.forward(np.zeros((5, 4)), tuple(np.zeros(5, dtype=np.intp)
                                                 for _ in range(3)))
        with pytest.raises(ShapeMismatch):
            head.forward(np.zeros((5, 8)), tuple(np.zeros(4, dtype=np.intp)
                                                 for _ in range(3)))

    def test_naive_fusion_handles_known_gate(self):
        # sanity of the oracle itself: g=1 everywhere reduces to tanh path
        head = GatedFusionHead(d_enc=3, d=2, seed=1)
        head.p["W_g"][:] = 0.0
        head.p["c_g"][:] = 50.0
        h1 = np.random.default_rng(0).normal(size=(4, 3))
        tracks = tuple(np.zeros(4, dtype=np.intp) for _ in range(3))
        got = head.forward(h1, tracks)
        expected = naive_fusion_forward(head.p, h1.tolist(), [0] * 4, [0] * 4, [0] * 4)
        assert np.allclose(got, expected, atol=1e-9)


class TestFocalLoss:
    def test_gamma_zero_is_cross_entropy(self):
        rng = np.random.default_rng(30)
        for _ in range(1000):
            raw = rng.random(3) + 1e-3
            probs = raw / raw.sum()
            label = int(rng.integers(0, 3))
            assert abs(focal_loss(probs, label, 0.0)
                       - (-math.log(probs[label]))) < 1e-9

    def test_perfect_prediction_zero_loss(self):
        probs = np.array([0.0, 1.0, 0.0])
        assert focal_loss(probs, 1, 2.0) == 0.0
        assert focal_loss(probs, 1, 0.0) == 0.0

    def test_half_probability_gamma_two(self):
        probs = np.array([0.5, 0.5, 0.0])
        expected = 0.25 * math.log(2)
        assert abs(focal_loss(probs, 0, 2.0) - expected) < 1e-9

    def test_matches_naive(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            raw = rng.random(3) + 1e-3
            probs = raw / raw.sum()
            label = int(rng.integers(0, 3))
            gamma = float(rng.choice([0.0, 1.0, 2.0, 3.0]))
            assert abs(focal_loss(probs, label, gamma)
                       - naive_focal_loss(probs, label, gamma)) < 1e-12


class TestGradients:
    def test_full_model_matches_finite_differences(self):
        vocab = CharVocab(list("abcdefg"))
        encoder = CharWindowEncoder(vocab, d_enc=4, window=2, seed=1)
        head = GatedFusionHead(d_enc=4, d=3, seed=2)
        model = ContextClassifier(encoder, head, TrainConfig(focal_gamma=2.0))
        sample = make_sample(disease="ad", context="abcadefgba", label="confirmed")
        worst = finite_difference_worst_error(model, sample, label_index=1)
        assert worst < 1e-4


class TestPackedBatches:
    def test_packed_forward_matches_naive_per_sequence(self):
        rng = np.random.default_rng(27)
        lengths_seen = set()
        for _ in range(100):
            encoder, head, _, _ = random_instance(rng)
            vocab_size = len(encoder.vocab)
            sequences = []
            for _ in range(int(rng.integers(1, 9))):
                length = int(rng.integers(1, 13))
                lengths_seen.add(length)
                sequences.append((rng.integers(0, vocab_size, size=length),
                                  tuple(rng.integers(0, 2, size=length) for _ in range(3))))
            ids, tracks, starts = pack(sequences)
            got = head.forward(encoder.encode(ids, starts), tracks, starts)
            assert got.shape == (len(sequences), head.n_classes)
            for row, (seq_ids, seq_tracks) in zip(got, sequences):
                expected = naive_forward(encoder.embedding, encoder.window, head.p,
                                         list(seq_ids), *[list(t) for t in seq_tracks])
                assert np.allclose(row, np.array(expected), atol=1e-9)
        # length 1, and lengths no longer than the window, occur
        assert {1, 2} <= lengths_seen

    def test_packed_gradients_match_finite_differences(self):
        vocab = CharVocab(list("abcdefg"))
        encoder = CharWindowEncoder(vocab, d_enc=4, window=2, seed=1)
        head = GatedFusionHead(d_enc=4, d=3, seed=2)
        model = ContextClassifier(encoder, head, TrainConfig(focal_gamma=2.0))
        samples = [make_sample(disease="ad", context="abcadefgba"),
                   make_sample(disease="g", context="c"),
                   make_sample(disease="bc", context="gfedcb")]
        labels = [1, 0, 2]

        def total_loss():
            return sum(focal_loss(model.forward(s), y, 2.0) for s, y in zip(samples, labels))

        loss, head_grads, enc_grads = model.loss_and_grads(
            [model.inputs(s) for s in samples], labels)
        assert abs(loss - total_loss()) < 1e-12
        analytic = {f"head.{k}": v for k, v in head_grads.items()}
        analytic["encoder.embedding"] = enc_grads["embedding"]
        h, worst = 1e-5, 0.0
        for name, table in model.named_params():
            flat, grad = table.reshape(-1), analytic[name].reshape(-1)
            for k in range(flat.size):
                saved = flat[k]
                flat[k] = saved + h
                up = total_loss()
                flat[k] = saved - h
                down = total_loss()
                flat[k] = saved
                numeric = (up - down) / (2 * h)
                err = abs(numeric - grad[k]) / max(abs(numeric), abs(grad[k]), 1e-6)
                worst = max(worst, err)
        assert worst < 1e-4

    def test_row_sums_equal_add_at(self):
        rng = np.random.default_rng(28)
        for _ in range(50):
            idx = rng.integers(0, 6, size=int(rng.integers(1, 40)))
            rows = rng.normal(size=(len(idx), 3))
            expected = np.zeros((6, 3))
            np.add.at(expected, idx, rows)
            assert np.allclose(_row_sums(6, idx, rows), expected, rtol=0, atol=1e-12)


class TestAugmentEda:
    def test_exactly_two_variants(self, feature_lexicons):
        sample = assemble_features("肺炎", "患者确诊为肺炎，继续对症治疗观察。",
                                   feature_lexicons, label="confirmed")
        variants = augment_eda(sample, feature_lexicons, seed=0)
        assert len(variants) == 2
        for variant in variants:
            assert variant.label == "confirmed"
            assert "肺炎" in variant.context

    def test_degenerate_context_is_identity(self, feature_lexicons):
        sample = assemble_features("肺炎", "肺炎", feature_lexicons, label="confirmed")
        variants = augment_eda(sample, feature_lexicons, seed=0)
        assert [v.context for v in variants] == ["肺炎", "肺炎"]

    def test_seed_determinism(self, feature_lexicons):
        sample = assemble_features("肺炎", "患者确诊为肺炎，继续对症治疗观察。",
                                   feature_lexicons, label="confirmed")
        first = augment_eda(sample, feature_lexicons, seed=9)
        second = augment_eda(sample, feature_lexicons, seed=9)
        assert [v.context for v in first] == [v.context for v in second]

    def test_disease_occurrences_protected(self, feature_lexicons):
        context = "肺炎" + "甲乙丙丁" * 10 + "肺炎尾部。"
        sample = assemble_features("肺炎", context, feature_lexicons, label="confirmed")
        for seed in range(20):
            for variant in augment_eda(sample, feature_lexicons, seed=seed):
                assert variant.context.count("肺炎") >= 2


class TestAugmentDiseaseReplace:
    def test_replaces_all_occurrences(self, feature_lexicons):
        pool = make_lexicon(["高血压", "胃溃疡", "糖尿病"], LexiconKind.DISEASE_NAMES)
        exclusion = make_lexicon(["糖尿病"], LexiconKind.CHRONIC_EXCLUSION)
        sample = assemble_features("肺炎", "初诊肺炎，复查肺炎好转。",
                                   feature_lexicons, label="confirmed")
        variants = augment_disease_replace(sample, pool, exclusion,
                                           feature_lexicons, seed=1)
        assert len(variants) == 3
        for variant in variants:
            assert "肺炎" not in variant.context
            assert variant.context.count(variant.disease) == 2
            assert variant.label == "confirmed"

    def test_empty_pool(self, feature_lexicons):
        pool = make_lexicon(["糖尿病"], LexiconKind.DISEASE_NAMES)
        exclusion = make_lexicon(["糖尿病"], LexiconKind.CHRONIC_EXCLUSION)
        sample = assemble_features("肺炎", "初诊肺炎。", feature_lexicons)
        with pytest.raises(EmptyPool):
            augment_disease_replace(sample, pool, exclusion, feature_lexicons, seed=1)

    def test_exclusion_never_sampled_ten_thousand_draws(self, feature_lexicons):
        pool = make_lexicon(["高血压", "胃溃疡", "糖尿病", "肝硬化"],
                            LexiconKind.DISEASE_NAMES)
        exclusion = make_lexicon(["糖尿病", "肝硬化"], LexiconKind.CHRONIC_EXCLUSION)
        sample = assemble_features("肺炎", "初诊肺炎。", feature_lexicons)
        drawn = []
        for seed in range(3334):
            for variant in augment_disease_replace(sample, pool, exclusion,
                                                   feature_lexicons, seed=seed):
                drawn.append(variant.disease)
        assert len(drawn) >= 10000
        assert set(drawn) == {"高血压", "胃溃疡"}


def separable_samples(n=200, seed=0):
    rng = random.Random(seed)
    diseases = ["甲病", "乙病", "丙病", "丁病"]
    samples = []
    templates = {
        "confirmed": "现确诊为{d}，予以治疗。",
        "non_current": "否认{d}病史。",
        "unknown": "{d}待查，随访。",
    }
    for i in range(n):
        label = LABELS[i % 3]
        disease = rng.choice(diseases)
        context = templates[label].format(d=disease)
        pos = np.zeros(len(context), dtype=np.uint8)
        at = context.find(disease)
        pos[at : at + len(disease)] = 1
        neg = np.zeros(len(context), dtype=np.uint8)
        denial = context.find("否认")
        if denial >= 0:
            neg[denial : denial + 2] = 1
        samples.append(ContextSample(
            disease=disease, context=context, pos_track=pos, neg_track=neg,
            order_track=np.zeros(len(context), dtype=np.uint8), label=label))
    return samples


class TestTraining:
    def test_loss_strictly_decreases_on_separable_data(self):
        samples = separable_samples(200, seed=1)
        # full-batch descent keeps the per-epoch loss curve monotone
        config = TrainConfig(batch_size=200, learning_rate=2.0, epochs=5, seed=4)
        _, history = train(samples, config, d=16, d_enc=16)
        losses = [h.loss for h in history]
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_seed_reproducibility(self, tmp_path):
        samples = separable_samples(60, seed=2)
        config = TrainConfig(batch_size=8, learning_rate=0.2, epochs=2, seed=7)
        model_a, _ = train(samples, config, d=8, d_enc=8)
        model_b, _ = train(samples, config, d=8, d_enc=8)
        for (name_a, arr_a), (name_b, arr_b) in zip(model_a.named_params(),
                                                    model_b.named_params()):
            assert name_a == name_b
            assert np.array_equal(arr_a, arr_b)

    def test_missing_class_raises(self):
        samples = [s for s in separable_samples(60, seed=3) if s.label != "unknown"]
        with pytest.raises(DegenerateData):
            train(samples, TrainConfig(epochs=1))

    def test_near_uniform_probability_at_init(self):
        vocab = CharVocab(list("abcdef"))
        encoder = CharWindowEncoder(vocab, d_enc=8, seed=0)
        head = GatedFusionHead(d_enc=8, d=8, seed=1)
        model = ContextClassifier(encoder, head, TrainConfig())
        rng = np.random.default_rng(5)
        probs = []
        for _ in range(200):
            length = int(rng.integers(2, 30))
            context = "".join(rng.choice(list("abcdef"), size=length))
            sample = ContextSample(
                disease="ab", context=context,
                pos_track=rng.integers(0, 2, length).astype(np.uint8),
                neg_track=rng.integers(0, 2, length).astype(np.uint8),
                order_track=rng.integers(0, 2, length).astype(np.uint8))
            probs.append(model.classify(sample)[1])
        assert abs(np.mean(probs) - 1 / 3) <= 0.05

    def test_default_config_matches_stated_values(self):
        config = TrainConfig()
        assert config.batch_size == 64
        assert config.learning_rate == 5e-5
        assert config.max_context == 450
        assert config.max_disease == 30
        assert config.focal_gamma == 2.0


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        samples = separable_samples(60, seed=5)
        config = TrainConfig(batch_size=8, learning_rate=0.2, epochs=2, seed=3)
        model, _ = train(samples, config, d=8, d_enc=8)
        path = tmp_path / "context.bin"
        model.save(path)
        loaded = ContextClassifier.load(path)
        for sample in samples[:10]:
            assert loaded.classify(sample) == model.classify(sample)

    def test_save_is_byte_deterministic(self, tmp_path):
        samples = separable_samples(60, seed=5)
        config = TrainConfig(batch_size=8, learning_rate=0.2, epochs=2, seed=3)
        model, _ = train(samples, config, d=8, d_enc=8)
        path_a, path_b = tmp_path / "a.bin", tmp_path / "b.bin"
        model.save(path_a)
        model.save(path_b)
        assert path_a.read_bytes() == path_b.read_bytes()

    @pytest.mark.parametrize("corrupt", [
        lambda data: data[:40],
        lambda data: data[:-8],
        lambda data: b"XXXX" + data[4:],
        lambda data: data[:4] + b"\x09\x00\x00\x00" + data[8:],
        lambda data: data[:12],
    ], ids=["header_cut_short", "array_cut_short", "bad_magic", "bad_version",
            "preamble_cut_short"])
    def test_corrupt_file_raises_bad_model_file(self, tmp_path, corrupt):
        samples = separable_samples(60, seed=5)
        model, _ = train(samples, TrainConfig(batch_size=8, epochs=1, seed=3), d=4, d_enc=4)
        path = tmp_path / "context.bin"
        model.save(path)
        path.write_bytes(corrupt(path.read_bytes()))
        with pytest.raises(BadModelFile, match="context.bin"):
            ContextClassifier.load(path)

    def test_wrong_kind_raises_bad_model_file(self, tmp_path):
        from dxaudit.relation_model import RelationClassifier

        samples = separable_samples(60, seed=5)
        model, _ = train(samples, TrainConfig(batch_size=8, epochs=1, seed=3), d=4, d_enc=4)
        path = tmp_path / "context.bin"
        model.save(path)
        with pytest.raises(BadModelFile, match="expected a relation model"):
            RelationClassifier.load(path)


class TestLoadTrainingSamples:
    GOOD = '{"disease": "肺炎", "context": "确诊为肺炎。", "label": "confirmed"}'

    def test_reads_samples_with_and_without_label(self, tmp_path, feature_lexicons):
        path = tmp_path / "samples.jsonl"
        path.write_text(self.GOOD + '\n\n{"disease": "肺炎", "context": "否认肺炎。"}\n',
                        encoding="utf-8")
        samples = load_training_samples(path, feature_lexicons)
        assert [(s.context, s.label) for s in samples] == [
            ("确诊为肺炎。", "confirmed"), ("否认肺炎。", None)]

    @pytest.mark.parametrize("bad_line, message", [
        (b"not json", "invalid JSON"),
        (b"[1, 2]", "not a JSON object"),
        ('{"disease": "肺炎"}'.encode("utf-8"), "context must be a string"),
        ('{"context": "确诊为肺炎。"}'.encode("utf-8"), "disease must be a string"),
        ('{"disease": 1, "context": "确诊为肺炎。"}'.encode("utf-8"),
         "disease must be a string"),
        ('{"disease": "肺炎", "context": "确诊为肺炎。", "label": "maybe"}'.encode("utf-8"),
         "unknown label 'maybe'"),
        (b'\xff{"disease": 1}', "invalid UTF-8"),
    ], ids=["not-json", "not-object", "no-context", "no-disease", "int-disease",
            "unknown-label", "invalid-utf8"])
    def test_malformed_line_is_parse_error(self, tmp_path, feature_lexicons,
                                           bad_line, message):
        path = tmp_path / "samples.jsonl"
        path.write_bytes(self.GOOD.encode("utf-8") + b"\n" + bad_line + b"\n")
        with pytest.raises(ParseError, match=message) as excinfo:
            load_training_samples(path, feature_lexicons)
        assert excinfo.value.line == 2

    def test_unlabeled_dev_sample_is_degenerate_data(self, feature_lexicons):
        samples = [assemble_features("肺炎", context, feature_lexicons, label=label)
                   for context, label in (("确诊为肺炎。", "confirmed"),
                                          ("否认肺炎。", "non_current"),
                                          ("肺炎待排。", "unknown"))]
        dev = [assemble_features("肺炎", "确诊为肺炎。", feature_lexicons)]
        with pytest.raises(DegenerateData, match="dev"):
            train(samples, TrainConfig(epochs=1), dev_samples=dev, d=4, d_enc=4)
