"""Properties: one classify call over many samples gives each sample
exactly the judgment a call with that sample alone gives, bit for bit,
across pass boundaries and for repeated samples; that judgment is the
original one-sample classify's, bit for bit; and the packed builder lays
out each sample as the original input assembly did, encoding once per
call."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from dxaudit.context_model import (PASS_ROWS, WINDOW, CharVocab,  # noqa: E402
                                   ContextClassifier, TrainConfig)
from dxaudit.core import MAX_CONTEXT, MAX_DISEASE  # noqa: E402
from dxaudit.features import ContextSample  # noqa: E402

from builders import char_encoder, fusion_head  # noqa: E402
from oracles import seed_classifier, seed_context_inputs  # noqa: E402

# 40 characters in the vocabulary, 8 outside it
CHARS = [chr(0x4E00 + i) for i in range(48)]
MODEL = ContextClassifier(char_encoder(CharVocab(CHARS[:40]), d_enc=32, seed=3),
                          fusion_head(d_enc=32, d=32, seed=4), TrainConfig())
SEED_CLASSIFY = seed_classifier(MODEL)
LONGEST = MAX_DISEASE + 1 + MAX_CONTEXT


def make_sample(disease_len, context_len, seed):
    rng = np.random.default_rng(seed)
    text = "".join(rng.choice(CHARS, size=disease_len + context_len))
    tracks = rng.integers(0, 2, size=(3, context_len)).astype(np.uint8)
    return ContextSample(text[:disease_len], text[disease_len:], *tracks)


# (disease length, context length, seed): mostly sentence-sized windows,
# some up to the longest a detect window can be
shapes = st.tuples(st.integers(1, MAX_DISEASE),
                   st.one_of(st.integers(1, 40), st.integers(1, MAX_CONTEXT)),
                   st.integers(0, 2**32 - 1))


@st.composite
def shape_lists(draw):
    drawn = draw(st.lists(shapes, min_size=1, max_size=30))
    repeats = draw(st.lists(st.sampled_from(drawn), max_size=4))
    return draw(st.permutations(drawn + repeats))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(shape_lists())
@example([(1, 1, 0)])  # a one-character context alone
@example([(4, 15, seed) for seed in range(26)])  # 520 rows: just over one pass
@example([(MAX_DISEASE, MAX_CONTEXT, 1), (3, 1, 2), (MAX_DISEASE, MAX_CONTEXT, 1),
          (2, 20, 3), (3, 1, 2)])  # longest windows and short ones, each twice
def test_a_packed_call_judges_each_sample_as_alone(shape_list):
    samples = [make_sample(*shape) for shape in shape_list]
    judgments = MODEL.classify(*samples)
    assert judgments == [MODEL.classify(sample)[0] for sample in samples]
    assert judgments == [SEED_CLASSIFY(sample) for sample in samples]


def test_the_pinned_examples_reach_the_pass_cap_and_the_longest_window():
    """The pinned lists above cross PASS_ROWS and hold a 481-row window."""
    assert LONGEST == 481 < PASS_ROWS < 26 * (4 + 1 + 15)
    assert MODEL.packed_inputs([make_sample(MAX_DISEASE, MAX_CONTEXT, 1)])[2] == [LONGEST]


def test_no_samples_no_judgments():
    assert MODEL.classify() == []


# Texts drawn from the vocabulary, 8 characters outside it, the "\0" that
# holds the separator's place and a non-BMP character; the second model's
# vocabulary holds the last two as well.
TEXT_CHARS = CHARS + ["\0", "\U0001F600"]
BUILDERS = [MODEL, ContextClassifier(char_encoder(CharVocab(CHARS[:40] + ["\0", "\U0001F600"]),
                                                  d_enc=4, seed=5),
                                     fusion_head(d_enc=4, d=3, seed=6), TrainConfig())]
drawn_samples = st.lists(st.tuples(st.text(TEXT_CHARS, min_size=1, max_size=MAX_DISEASE),
                                   st.text(TEXT_CHARS, min_size=1, max_size=60),
                                   st.integers(0, 2**32 - 1)), max_size=30)


def text_sample(disease, context, seed):
    tracks = np.random.default_rng(seed).integers(0, 2, size=(3, len(context)))
    return ContextSample(disease, context, *tracks.astype(np.uint8))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(drawn_samples, st.sampled_from(BUILDERS))
@example([], MODEL)  # no samples
@example([("\U0001F600" * MAX_DISEASE, "a\0\U0001F600", 1), ("z", "\0", 2),
          (CHARS[47], CHARS[0], 3)], BUILDERS[1])  # the longest disease, a context
# of "\0" alone, one-character contexts and characters outside the vocabulary
def test_the_packed_builder_lays_out_the_seed_assembly(drawn, model):
    """packed_inputs holds each sample's seed assembly, WINDOW gap rows
    between two, and sequences gives each sample's own rows."""
    samples = [text_sample(*spec) for spec in drawn]
    ids, code, lengths = model.packed_inputs(samples)
    seed = [(seed_ids, 4 * pos.astype(np.intp) + 2 * neg + order)
            for seed_ids, (pos, neg, order) in (seed_context_inputs(model, s) for s in samples)]
    assert lengths == [len(seed_ids) for seed_ids, _ in seed]
    assert ids.dtype == code.dtype == np.intp
    gap = (np.full(WINDOW, len(model.encoder.embedding)), np.zeros(WINDOW, dtype=np.intp))
    for k, got in enumerate((ids, code)):
        want = [part for rows in seed for part in (gap[k], rows[k])][1:]
        assert np.array_equal(got, np.concatenate(want) if want else [])
    for got, want in zip(model.sequences(samples), seed):
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


@pytest.mark.parametrize("n_samples", [1, 2, 30])
def test_a_classify_call_encodes_once(n_samples, monkeypatch):
    """One CharVocab.encode call per classify call, whatever the number of
    samples; 30 samples of 35 rows take three passes."""
    texts = []
    encode = CharVocab.encode
    monkeypatch.setattr(CharVocab, "encode", lambda vocab, text: texts.append(text)
                        or encode(vocab, text))
    MODEL.classify(*[make_sample(4, 30, seed) for seed in range(n_samples)])
    assert len(texts) == 1
