"""Properties: RelationClassifier.predict_proba gives a pair the same
probabilities bit for bit whatever pairs it is scored with: alone, inside
a block of 2..BLOCK_ROWS pairs, on either side of a block edge, and with
its disease row broadcast against many rows, as the DRG fallback scores a
name against the ICD titles. Detect scores a chunk's pairs in one call and
writes the probabilities to its report, so one record's bytes must not
depend on the records beside it."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from dxaudit.relation_model import (BLOCK_ROWS, RELATIONS, PairEncoder,  # noqa: E402
                                    PairTrainConfig)

from builders import relation_classifier  # noqa: E402

# The benchmark's relation sizes (d_pair 24, hidden 48), over names whose
# characters the encoder mostly knows; a few lie outside it.
CHARS = [chr(0x4E00 + i) for i in range(48)]
MODEL = relation_classifier(PairEncoder.from_names(["".join(CHARS[:40])], d_pair=24, seed=3),
                            PairTrainConfig(hidden=48), seed=4)
NAMES = ["".join(np.random.default_rng(i).choice(CHARS, size=1 + i % 9)) for i in range(40)]
ROWS = MODEL.embed_names(NAMES)
ALONE = {}


def alone(a, b):
    """The probabilities of rows a and b scored as the only pair of a call."""
    if (a, b) not in ALONE:
        ALONE[a, b] = MODEL.predict_proba(ROWS[[a]], ROWS[[b]])[0]
    return ALONE[a, b]


pairs = st.lists(st.tuples(st.integers(0, len(NAMES) - 1), st.integers(0, len(NAMES) - 1)),
                 min_size=1, max_size=BLOCK_ROWS)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(pairs, st.integers(0, BLOCK_ROWS - 1))
@example([(0, 1)], 0)  # a lone pair
@example([(0, 1)], BLOCK_ROWS)  # a lone pair in a block of its own after a full one
@example([(2, 3), (4, 5)], BLOCK_ROWS - 1)  # one pair on each side of the edge
@example([(i % 40, (7 * i) % 40) for i in range(BLOCK_ROWS)], 0)  # one full block
@example([(i % 40, (7 * i) % 40) for i in range(BLOCK_ROWS)], 1)  # a block and a lone pair
def test_a_pair_scores_as_alone_in_any_block(drawn, before):
    """The drawn pairs, scored in one call after ``before`` other pairs,
    so that a block edge may fall anywhere among them; then each pair's
    disease row broadcast against the drawn pairs' right-hand rows."""
    left, right = (np.array(side) for side in zip(*drawn))
    filler = np.arange(before) % len(NAMES)
    probs = MODEL.predict_proba(ROWS[np.concatenate([filler, left])],
                                ROWS[np.concatenate([filler[::-1], right])])
    assert probs.shape == (before + len(drawn), len(RELATIONS))
    assert np.array_equal(probs[before:], [alone(a, b) for a, b in drawn])
    for a in sorted(set(left))[:3]:
        broadcast = MODEL.predict_proba(np.broadcast_to(ROWS[a], (len(right), ROWS.shape[1])),
                                        ROWS[right])
        assert np.array_equal(broadcast, [alone(a, b) for b in right])


def test_a_lone_pair_is_the_first_of_two_copies():
    """The lone-pair rule: one pair scores as the first row of a block of
    two copies of it, and predict reads that row."""
    for a, b in [(0, 1), (5, 5), (39, 2)]:
        twice = MODEL.predict_proba(ROWS[[a, a]], ROWS[[b, b]])
        assert np.array_equal(twice[0], twice[1])
        assert np.array_equal(alone(a, b), twice[0])
        relation, prob = MODEL.predict(NAMES[a], NAMES[b])
        assert (relation, prob) == (RELATIONS[int(twice[0].argmax())], float(twice[0].max()))
