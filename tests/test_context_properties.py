"""Property: one classify call over many samples gives each sample exactly
the judgment a call with that sample alone gives, bit for bit, across
pass boundaries and for repeated samples; and that judgment is the
original one-sample classify's, bit for bit."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from dxaudit.context_model import (PASS_ROWS, CharVocab, ContextClassifier,  # noqa: E402
                                   TrainConfig)
from dxaudit.core import MAX_CONTEXT, MAX_DISEASE  # noqa: E402
from dxaudit.features import ContextSample  # noqa: E402

from builders import char_encoder, fusion_head  # noqa: E402
from oracles import seed_classifier  # noqa: E402

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
    assert MODEL.inputs(make_sample(MAX_DISEASE, MAX_CONTEXT, 1))[0].shape == (LONGEST,)


def test_no_samples_no_judgments():
    assert MODEL.classify() == []
