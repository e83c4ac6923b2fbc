"""The gated fusion classifier: forward math, gradients, augmentation."""

import dataclasses
import math
import random

import numpy as np
import pytest

from dxaudit.core import LexiconKind, make_lexicon
from dxaudit.errors import (
    BadModelFile,
    BadSetting,
    DegenerateData,
    EmptyPool,
    ParseError,
    ShapeMismatch,
)
from dxaudit.features import LABELS, TRACKS, ContextSample, assemble_features
from dxaudit.context_model import (
    WINDOW,
    CharVocab,
    ContextClassifier,
    TrainConfig,
    augment_disease_replace,
    _row_sums,
    _segments,
    augment_eda,
    focal_loss,
    initial_params,
    load_training_samples,
    pack,
    train,
)

from builders import char_encoder, fusion_head
from oracles import (
    context_forward,
    finite_difference_worst_error,
    naive_focal_loss,
    naive_forward,
    naive_fusion_forward,
    seed_context_inputs,
    seed_context_train,
)


def random_instance(rng: np.random.Generator):
    """A random (encoder, head, ids, tracks) tiny instance."""
    vocab_size = int(rng.integers(3, 10))
    d_enc = int(rng.integers(2, 6))
    d = int(rng.integers(2, 6))
    length = int(rng.integers(2, 12))
    vocab = CharVocab([chr(ord("a") + i) for i in range(vocab_size)])
    encoder = char_encoder(vocab, d_enc=d_enc, seed=int(rng.integers(0, 2**31)))
    head = fusion_head(d_enc=d_enc, d=d, seed=int(rng.integers(0, 2**31)))
    ids = rng.integers(0, vocab_size + 2, size=length)
    tracks = tuple(rng.integers(0, 2, size=length) for _ in range(3))
    return encoder, head, ids, tracks


def track_code(tracks):
    """The fusion-table row of each position of (pos, neg, order) 0/1
    tracks, the code GatedFusionHead.forward reads."""
    return np.ravel_multi_index(tracks, (2, 2, 2))


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
            got = head.forward(encoder.encode(ids, [0]), track_code(tracks), [0])
            expected = naive_forward(encoder.embedding, WINDOW, head.p,
                                     list(ids), *[list(t) for t in tracks])
            assert np.allclose(got, np.array(expected), atol=1e-9)

    def test_output_is_distribution(self):
        rng = np.random.default_rng(22)
        for _ in range(200):
            encoder, head, ids, tracks = random_instance(rng)
            probs = head.forward(encoder.encode(ids, [0]), track_code(tracks), [0])
            assert abs(probs.sum() - 1.0) < 1e-9
            assert (probs > 0).all()

    def test_gate_forced_open_selects_h3(self):
        rng = np.random.default_rng(23)
        encoder, head, ids, tracks = random_instance(rng)
        head.p["W_g"][:] = 0.0
        head.p["c_g"][:] = 50.0
        _, cache = head.forward(encoder.encode(ids, [0]), track_code(tracks), [0],
                                return_cache=True)
        assert np.allclose(cache["o"], cache["h3"], atol=1e-9)

    def test_gate_forced_closed_selects_h2(self):
        rng = np.random.default_rng(24)
        encoder, head, ids, tracks = random_instance(rng)
        head.p["W_g"][:] = 0.0
        head.p["c_g"][:] = -50.0
        _, cache = head.forward(encoder.encode(ids, [0]), track_code(tracks), [0],
                                return_cache=True)
        assert np.allclose(cache["o"], cache["h2"], atol=1e-9)

    def test_closed_gate_ignores_feature_tracks(self):
        rng = np.random.default_rng(25)
        encoder, head, ids, _ = random_instance(rng)
        head.p["W_g"][:] = 0.0
        head.p["c_g"][:] = -50.0
        h1 = encoder.encode(ids, [0])
        length = len(ids)
        tracks_a = tuple(np.zeros(length, dtype=np.intp) for _ in range(3))
        tracks_b = tuple(np.ones(length, dtype=np.intp) for _ in range(3))
        assert np.allclose(head.forward(h1, track_code(tracks_a), [0]),
                           head.forward(h1, track_code(tracks_b), [0]), atol=1e-9)

    def test_gating_convexity_fuzz(self):
        rng = np.random.default_rng(26)
        for _ in range(1000):
            encoder, head, ids, tracks = random_instance(rng)
            _, cache = head.forward(encoder.encode(ids, [0]), track_code(tracks), [0],
                                    return_cache=True)
            low = np.minimum(cache["h2"], cache["h3"])
            high = np.maximum(cache["h2"], cache["h3"])
            assert (cache["o"] >= low - 1e-12).all()
            assert (cache["o"] <= high + 1e-12).all()

    def test_shape_mismatch(self):
        head = fusion_head(d_enc=8, d=4, seed=0)
        with pytest.raises(ShapeMismatch):
            head.forward(np.zeros((5, 4)), track_code(tuple(np.zeros(5, dtype=np.intp)
                                                            for _ in range(3))), [0])
        with pytest.raises(ShapeMismatch):
            head.forward(np.zeros((5, 8)), track_code(tuple(np.zeros(4, dtype=np.intp)
                                                            for _ in range(3))), [0])

    def test_naive_fusion_handles_known_gate(self):
        # sanity of the oracle itself: g=1 everywhere reduces to tanh path
        head = fusion_head(d_enc=3, d=2, seed=1)
        head.p["W_g"][:] = 0.0
        head.p["c_g"][:] = 50.0
        h1 = np.random.default_rng(0).normal(size=(4, 3))
        tracks = tuple(np.zeros(4, dtype=np.intp) for _ in range(3))
        got = head.forward(h1, track_code(tracks), [0])
        expected = naive_fusion_forward(head.p, h1.tolist(), [0] * 4, [0] * 4, [0] * 4)
        assert np.allclose(got, expected, atol=1e-9)


def assert_classify_matches_forward(model, *samples):
    """One classify call over every sample, each judged against forward."""
    judgments = model.classify(*samples)
    assert len(judgments) == len(samples)
    for sample, (label, prob) in zip(samples, judgments):
        probs = context_forward(model, sample)
        assert label == LABELS[int(np.argmax(probs))]
        assert abs(prob - probs.max()) <= 1e-12


def bit_tracks(rng, length):
    return {name: rng.integers(0, 2, size=length).astype(np.uint8) for name in TRACKS}


def model_over(encoder, head):
    return ContextClassifier(encoder, head, TrainConfig())


class TestFoldedClassify:
    """classify's folded forward against forward, the training forward."""

    def test_random_instances(self):
        rng = np.random.default_rng(41)
        for _ in range(300):
            encoder, head, ids, tracks = random_instance(rng)
            # the ids as text, "?" (out of the vocabulary) for UNK and SEP,
            # split into (disease, SEP, context) at a random row
            text = "".join("?" if i < 2 else encoder.vocab.chars[i - 2] for i in ids)
            sep = int(rng.integers(0, len(ids) - 1))
            sample = ContextSample(text[:sep], text[sep + 1:],
                                   *(t[sep + 1:].astype(np.uint8) for t in tracks))
            assert_classify_matches_forward(model_over(encoder, head), sample)

    def test_lengths_from_one_past_two_windows(self):
        rng = np.random.default_rng(42)
        encoder, head, _, _ = random_instance(rng)
        model = model_over(encoder, head)
        samples = []
        for n in range(1, 2 * WINDOW + 3):
            for sep in range(n):
                text = "".join(rng.choice(encoder.vocab.chars, size=n))
                samples.append(ContextSample(text[:sep], text[sep + 1:],
                                             **bit_tracks(rng, n - sep - 1)))
        for sample in samples:
            assert_classify_matches_forward(model, sample)
        assert_classify_matches_forward(model, *samples)

    def test_every_track_code(self):
        rng = np.random.default_rng(43)
        encoder, head, _, _ = random_instance(rng)
        model = model_over(encoder, head)
        def code_tracks(codes):
            return [((np.asarray(codes) >> shift) & 1).astype(np.uint8) for shift in (2, 1, 0)]

        # one context row per code, then one context per code
        samples = [ContextSample("a", "abcabcab", *code_tracks(range(8)))]
        samples += [ContextSample("b", "cab", *code_tracks([code] * 3)) for code in range(8)]
        assert_classify_matches_forward(model, *samples)

    def test_longest_disease_and_context(self):
        rng = np.random.default_rng(44)
        chars = [chr(0x4E00 + i) for i in range(60)]
        encoder = char_encoder(CharVocab(chars[:50]), d_enc=32, seed=1)
        model = model_over(encoder, fusion_head(d_enc=32, d=32, seed=2))
        samples = []
        for _ in range(5):
            # the last 10 characters are out of the vocabulary
            disease = "".join(rng.choice(chars, size=30))
            context = "".join(rng.choice(chars, size=450))
            samples.append(ContextSample(disease, context, **bit_tracks(rng, 450)))
        # 481 rows each: one pass per sample
        assert_classify_matches_forward(model, *samples)

    def test_trained_and_reloaded_models(self, tmp_path):
        """Tables built from the parameters before training, or before a
        load replaced them, would fail here."""
        samples = separable_samples(60, seed=11)
        config = TrainConfig(batch_size=8, learning_rate=0.5, epochs=2, seed=5)
        model, _ = train(samples, config, d=8, d_enc=8)
        assert_classify_matches_forward(model, *samples)
        model.save(tmp_path / "context.bin")
        loaded = ContextClassifier.load(tmp_path / "context.bin")
        assert_classify_matches_forward(loaded, *samples)


class TestFocalLoss:
    def test_gamma_zero_is_cross_entropy(self):
        rng = np.random.default_rng(30)
        for _ in range(1000):
            raw = rng.random(3) + 1e-3
            probs = raw / raw.sum()
            label = int(rng.integers(0, 3))
            assert abs(focal_loss(probs[None], [label], 0.0)
                       - (-math.log(probs[label]))) < 1e-9

    def test_perfect_prediction_zero_loss(self):
        probs = np.array([0.0, 1.0, 0.0])
        assert focal_loss(probs[None], [1], 2.0) == 0.0
        assert focal_loss(probs[None], [1], 0.0) == 0.0

    def test_half_probability_gamma_two(self):
        probs = np.array([0.5, 0.5, 0.0])
        expected = 0.25 * math.log(2)
        assert abs(focal_loss(probs[None], [0], 2.0) - expected) < 1e-9

    def test_matches_naive(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            raw = rng.random(3) + 1e-3
            probs = raw / raw.sum()
            label = int(rng.integers(0, 3))
            gamma = float(rng.choice([0.0, 1.0, 2.0, 3.0]))
            assert abs(focal_loss(probs[None], [label], gamma)
                       - naive_focal_loss(probs, label, gamma)) < 1e-12


class TestGradients:
    @pytest.mark.parametrize("focal_gamma", [0.0, 2.0])
    def test_full_model_matches_finite_differences(self, focal_gamma):
        """gamma 0 is plain cross-entropy, where the focal term vanishes."""
        vocab = CharVocab(list("abcdefg"))
        encoder = char_encoder(vocab, d_enc=4, seed=1)
        head = fusion_head(d_enc=4, d=3, seed=2)
        model = ContextClassifier(encoder, head, TrainConfig(focal_gamma=focal_gamma))
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
            sequences, seq_tracks = [], []
            for _ in range(int(rng.integers(1, 9))):
                length = int(rng.integers(1, 13))
                lengths_seen.add(length)
                seq_tracks.append(tuple(rng.integers(0, 2, size=length) for _ in range(3)))
                sequences.append((rng.integers(0, vocab_size, size=length),
                                  track_code(seq_tracks[-1])))
            ids, code, starts = pack(sequences)
            got = head.forward(encoder.encode(ids, starts), code, starts)
            assert got.shape == (len(sequences), len(LABELS))
            for row, (seq_ids, _), tracks in zip(got, sequences, seq_tracks):
                expected = naive_forward(encoder.embedding, WINDOW, head.p,
                                         list(seq_ids), *[list(t) for t in tracks])
                assert np.allclose(row, np.array(expected), atol=1e-9)
        # length 1, and lengths no longer than the window, occur
        assert {1, 2} <= lengths_seen

    def test_packed_gradients_match_finite_differences(self):
        vocab = CharVocab(list("abcdefg"))
        encoder = char_encoder(vocab, d_enc=4, seed=1)
        head = fusion_head(d_enc=4, d=3, seed=2)
        model = ContextClassifier(encoder, head, TrainConfig(focal_gamma=2.0))
        samples = [make_sample(disease="ad", context="abcadefgba"),
                   make_sample(disease="g", context="c"),
                   make_sample(disease="bc", context="gfedcb")]
        labels = [1, 0, 2]

        def total_loss():
            return sum(focal_loss(context_forward(model, s)[None], [y], 2.0)[0]
                       for s, y in zip(samples, labels))

        loss, head_grads, enc_grad = model.loss_and_grads(model.sequences(samples), labels)
        assert abs(loss - total_loss()) < 1e-12
        analytic = {f"head.{k}": v for k, v in head_grads.items()}
        analytic["encoder.embedding"] = enc_grad
        h, worst = 1e-5, 0.0
        for name, table in model.arrays().items():
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

    def test_segment_lengths_equal_diff(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            starts = np.sort(rng.choice(np.arange(1, 40), size=int(rng.integers(0, 8)),
                                        replace=False))
            starts = np.concatenate([[0], starts])
            n = 40 + int(rng.integers(0, 3))
            got_starts, lengths = _segments(starts, n)
            assert np.array_equal(got_starts, starts)
            assert np.array_equal(lengths, np.diff(starts, append=n))
            assert lengths.dtype == np.intp

    @pytest.mark.parametrize("caps", [{}], ids=["default-caps"])
    def test_inputs_and_probabilities_equal_seed_assembly(self, caps):
        rng = np.random.default_rng(30)
        vocab = CharVocab(list("abcdefg"))
        model = ContextClassifier(char_encoder(vocab, d_enc=4, seed=1),
                                  fusion_head(d_enc=4, d=3, seed=2), TrainConfig(**caps))
        samples = [make_sample(disease="".join(rng.choice(list("abcxyz"),
                                                          int(rng.integers(1, 6)))),
                               context="".join(rng.choice(list("abcdefgz"),
                                                          int(rng.integers(1, 20)))))
                   for _ in range(40)]
        got = model.sequences(samples)
        expected = [seed_context_inputs(model, s) for s in samples]
        for (ids, code), (seed_ids, seed_tracks) in zip(got, expected):
            assert ids.dtype == seed_ids.dtype and np.array_equal(ids, seed_ids)
            assert code.dtype == np.intp
            assert np.array_equal(code, np.ravel_multi_index(seed_tracks, (2, 2, 2)))
            assert np.array_equal(model._probs(ids, code, [0]),
                                  model._probs(seed_ids, track_code(seed_tracks), [0]))
        ids, code, starts = pack(got)
        seed_code = np.concatenate([track_code(tracks) for _, tracks in expected])
        assert np.array_equal(code, seed_code)
        assert np.array_equal(model._probs(ids, code, starts),
                              model._probs(ids, seed_code, starts))

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
        [sample] = assemble_features([("肺炎", "患者确诊为肺炎，继续对症治疗观察。")],
                                     feature_lexicons, ["confirmed"])
        variants = augment_eda(sample, feature_lexicons, seed=0)
        assert len(variants) == 2
        for variant in variants:
            assert variant.label == "confirmed"
            assert "肺炎" in variant.context

    def test_degenerate_context_is_identity(self, feature_lexicons):
        [sample] = assemble_features([("肺炎", "肺炎")], feature_lexicons, ["confirmed"])
        variants = augment_eda(sample, feature_lexicons, seed=0)
        assert [v.context for v in variants] == ["肺炎", "肺炎"]

    def test_seed_determinism(self, feature_lexicons):
        [sample] = assemble_features([("肺炎", "患者确诊为肺炎，继续对症治疗观察。")],
                                     feature_lexicons, ["confirmed"])
        first = augment_eda(sample, feature_lexicons, seed=9)
        second = augment_eda(sample, feature_lexicons, seed=9)
        assert [v.context for v in first] == [v.context for v in second]

    def test_disease_occurrences_protected(self, feature_lexicons):
        context = "肺炎" + "甲乙丙丁" * 10 + "肺炎尾部。"
        [sample] = assemble_features([("肺炎", context)], feature_lexicons, ["confirmed"])
        for seed in range(20):
            for variant in augment_eda(sample, feature_lexicons, seed=seed):
                assert variant.context.count("肺炎") >= 2

    def test_protection_reads_the_context_not_pos_track(self, feature_lexicons):
        """The protected characters are the disease's occurrences in the
        context, whatever the sample's pos_track holds."""
        [sample] = assemble_features([("肺炎", "肺炎" + "甲乙丙丁" * 10 + "肺炎尾部。")],
                                     feature_lexicons, ["confirmed"])
        blank = dataclasses.replace(sample, pos_track=np.zeros_like(sample.pos_track))
        for seed in range(20):
            assert ([v.context for v in augment_eda(blank, feature_lexicons, seed=seed)]
                    == [v.context for v in augment_eda(sample, feature_lexicons, seed=seed)])


class TestAugmentDiseaseReplace:
    def test_replaces_all_occurrences(self, feature_lexicons):
        pool = make_lexicon(["高血压", "胃溃疡", "糖尿病"], LexiconKind.DISEASE_NAMES)
        exclusion = make_lexicon(["糖尿病"], LexiconKind.CHRONIC_EXCLUSION)
        [sample] = assemble_features([("肺炎", "初诊肺炎，复查肺炎好转。")],
                                     feature_lexicons, ["confirmed"])
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
        [sample] = assemble_features([("肺炎", "初诊肺炎。")], feature_lexicons)
        with pytest.raises(EmptyPool):
            augment_disease_replace(sample, pool, exclusion, feature_lexicons, seed=1)

    def test_exclusion_never_sampled_ten_thousand_draws(self, feature_lexicons):
        pool = make_lexicon(["高血压", "胃溃疡", "糖尿病", "肝硬化"],
                            LexiconKind.DISEASE_NAMES)
        exclusion = make_lexicon(["糖尿病", "肝硬化"], LexiconKind.CHRONIC_EXCLUSION)
        [sample] = assemble_features([("肺炎", "初诊肺炎。")], feature_lexicons)
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
    def test_a_shape_numpy_cannot_allocate_is_a_bad_setting(self, monkeypatch):
        """numpy's MemoryError comes from a stand-in: a real request that
        large is granted by a kernel that always overcommits."""
        zeros = np.zeros  # the random generator allocates through it too

        def refuse(shape, *args, **kwargs):
            if shape == (9,):
                raise MemoryError(f"Unable to allocate an array with shape {shape}")
            return zeros(shape, *args, **kwargs)

        monkeypatch.setattr(np, "zeros", refuse)
        with pytest.raises(BadSetting, match=r"^d_pair=7, hidden=9: parameter 'b_h' "
                                             r"of shape \(9,\) cannot be allocated$"):
            initial_params({"b_h": (9,)}, 0, {"d_pair": 7, "hidden": 9})

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
        for (name_a, arr_a), (name_b, arr_b) in zip(model_a.arrays().items(),
                                                    model_b.arrays().items()):
            assert name_a == name_b
            assert np.array_equal(arr_a, arr_b)

    @pytest.mark.parametrize("with_dev", [False, True], ids=["no-dev", "dev"])
    def test_epoch_stats_equal_two_pass_evaluation(self, with_dev):
        samples = separable_samples(90, seed=6)
        # a dev accuracy k/7 equals a training accuracy j/90 only at 0 and 1
        dev = separable_samples(7, seed=7) if with_dev else None
        config = TrainConfig(batch_size=16, learning_rate=0.5, epochs=3, seed=8)
        model, history = train(samples, config, dev_samples=dev, d=8, d_enc=8)
        seed_model, seed_history = seed_context_train(samples, config, dev_samples=dev,
                                                      d=8, d_enc=8)
        assert history == seed_history
        for (name, arr), (seed_name, seed_arr) in zip(model.arrays().items(),
                                                      seed_model.arrays().items()):
            assert name == seed_name
            assert np.array_equal(arr, seed_arr)

    @pytest.mark.parametrize("with_dev, passes", [(False, 1), (True, 2)],
                             ids=["no-dev", "dev"])
    def test_one_forward_pass_per_evaluated_set(self, monkeypatch, with_dev, passes):
        calls = dict.fromkeys(["_batched_probs", "mean_loss", "accuracy"], 0)
        for name in calls:
            def counted(self, *args, _real=getattr(ContextClassifier, name), _name=name):
                calls[_name] += 1
                return _real(self, *args)
            monkeypatch.setattr(ContextClassifier, name, counted)
        samples = separable_samples(30, seed=9)
        dev = separable_samples(12, seed=10) if with_dev else None
        train(samples, TrainConfig(batch_size=8, epochs=3, seed=1), dev_samples=dev,
              d=4, d_enc=4)
        assert calls == {"_batched_probs": 3 * passes, "mean_loss": 3, "accuracy": 3}

    def test_empty_dev_set_is_degenerate_data(self):
        with pytest.raises(DegenerateData, match="dev set is empty"):
            train(separable_samples(30, seed=1), TrainConfig(epochs=1), dev_samples=[],
                  d=4, d_enc=4)

    def test_missing_class_raises(self):
        samples = [s for s in separable_samples(60, seed=3) if s.label != "unknown"]
        with pytest.raises(DegenerateData):
            train(samples, TrainConfig(epochs=1))

    def test_near_uniform_probability_at_init(self):
        vocab = CharVocab(list("abcdef"))
        encoder = char_encoder(vocab, d_enc=8, seed=0)
        head = fusion_head(d_enc=8, d=8, seed=1)
        model = ContextClassifier(encoder, head, TrainConfig())
        rng = np.random.default_rng(5)
        samples = []
        for _ in range(200):
            length = int(rng.integers(2, 30))
            context = "".join(rng.choice(list("abcdef"), size=length))
            samples.append(ContextSample(
                disease="ab", context=context,
                pos_track=rng.integers(0, 2, length).astype(np.uint8),
                neg_track=rng.integers(0, 2, length).astype(np.uint8),
                order_track=rng.integers(0, 2, length).astype(np.uint8)))
        probs = [prob for _, prob in model.classify(*samples)]
        assert abs(np.mean(probs) - 1 / 3) <= 0.05

    def test_default_config_matches_stated_values(self):
        config = TrainConfig()
        assert config.batch_size == 16
        assert config.learning_rate == 0.3
        assert config.focal_gamma == 2.0


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        samples = separable_samples(60, seed=5)
        config = TrainConfig(batch_size=8, learning_rate=0.2, epochs=2, seed=3)
        model, _ = train(samples, config, d=8, d_enc=8)
        path = tmp_path / "context.bin"
        model.save(path)
        loaded = ContextClassifier.load(path)
        assert loaded.classify(*samples[:10]) == model.classify(*samples[:10])

    def test_load_draws_nothing_and_saves_the_same_bytes(self, tmp_path, monkeypatch):
        samples = separable_samples(60, seed=5)
        config = TrainConfig(batch_size=8, learning_rate=0.2, epochs=2, seed=3)
        model, _ = train(samples, config, d=8, d_enc=8)
        model.save(tmp_path / "context.bin")

        def no_draws(*args, **kwargs):
            raise AssertionError("a load drew random numbers")

        with monkeypatch.context() as patched:
            patched.setattr(np.random, "default_rng", no_draws)
            loaded = ContextClassifier.load(tmp_path / "context.bin")
        loaded.save(tmp_path / "again.bin")
        assert (tmp_path / "again.bin").read_bytes() == (tmp_path / "context.bin").read_bytes()

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
        lambda data: data[:4] + b"\x01\x00\x00\x00" + data[8:],
    ], ids=["header_cut_short", "array_cut_short", "bad_magic", "bad_version",
            "preamble_cut_short", "version_1"])
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
        ('{"disease": "", "context": "确诊为肺炎。"}'.encode("utf-8"), "disease is empty"),
        ('{"disease": "肺炎", "context": ""}'.encode("utf-8"), "context is empty"),
    ], ids=["not-json", "not-object", "no-context", "no-disease", "int-disease",
            "unknown-label", "invalid-utf8", "empty-disease", "empty-context"])
    def test_malformed_line_is_parse_error(self, tmp_path, feature_lexicons,
                                           bad_line, message):
        path = tmp_path / "samples.jsonl"
        path.write_bytes(self.GOOD.encode("utf-8") + b"\n" + bad_line + b"\n")
        with pytest.raises(ParseError, match=message) as excinfo:
            load_training_samples(path, feature_lexicons)
        assert excinfo.value.line == 2

    def test_unlabeled_dev_sample_is_degenerate_data(self, feature_lexicons):
        samples = assemble_features([("肺炎", "确诊为肺炎。"), ("肺炎", "否认肺炎。"),
                                     ("肺炎", "肺炎待排。")], feature_lexicons,
                                    ["confirmed", "non_current", "unknown"])
        dev = assemble_features([("肺炎", "确诊为肺炎。")], feature_lexicons)
        with pytest.raises(DegenerateData, match="dev"):
            train(samples, TrainConfig(epochs=1), dev_samples=dev, d=4, d_enc=4)

    @pytest.mark.parametrize("split", ["train", "dev"])
    def test_unknown_label_is_degenerate_data(self, feature_lexicons, split):
        """A sample is plain data, so train is where a label outside LABELS
        is refused."""
        samples = assemble_features([("肺炎", "确诊为肺炎。"), ("肺炎", "否认肺炎。"),
                                     ("肺炎", "肺炎待排。")], feature_lexicons, list(LABELS))
        bad = dataclasses.replace(samples[0], label="maybe")
        given = {"train": ([*samples, bad], None), "dev": (samples, [bad])}[split]
        with pytest.raises(DegenerateData, match="unknown label 'maybe'"):
            train(given[0], TrainConfig(epochs=1), dev_samples=given[1], d=4, d_enc=4)
