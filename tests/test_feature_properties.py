"""Property tests: enumerated items are marked as the character loop marks
them, and a batch's samples are the samples of its windows built alone."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from dxaudit.core import LexiconKind, make_lexicon  # noqa: E402
from dxaudit.features import (LABELS, TRACKS, FeatureLexicons,  # noqa: E402
                              assemble_features, mark_serial_numbers)

from oracles import loop_serial_numbers, seed_assemble_features  # noqa: E402

# Enumerator pieces, the three sentence terminators and CJK text.
ALPHABET = "0123456789.、①。；\n肺炎高血压"


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.text(ALPHABET, max_size=40))
@example("1.高血压 2.糖尿病")  # two items, the first ended by the second
@example("①肺炎。②高血压；3、糖尿病\n")  # each item ended by a terminator
@example("12.1.肺炎")  # enumerators overlapping and back to back
def test_serial_numbers_match_the_character_loop(feature_lexicons, context):
    track = mark_serial_numbers(context, feature_lexicons.patterns)
    assert track.tolist() == loop_serial_numbers(context, feature_lexicons.patterns)


# Context pieces: negation words, their halves and words overlapping them,
# enumerators and terminators, "\0", non-BMP characters, CJK text, and a
# run long enough that three of them pass the context cap.
PIECES = ["否认", "否", "认", "无明显", "明显异常", "已排除", "不能除外", "1.", "①", "(2)",
          "3、", "。", "；", "\n", "\0", "𠀀", "😀", "肺炎", "高血压", "长" * 200]
# Diseases reach past the 30-character cap.
DISEASES = st.text("肺炎高血压𠀀", min_size=1, max_size=35)
WINDOWS = st.lists(st.tuples(DISEASES, st.lists(st.sampled_from(PIECES), min_size=1,
                                                max_size=8).map("".join)),
                   min_size=1, max_size=6)


@pytest.fixture(scope="module")
def join_lexicons(feature_lexicons):
    """The packaged words plus one overlapping 无明显, and the packaged
    patterns plus three that would match differently over joined contexts:
    an anchored one, a look-behind and one that can match "\\0"."""
    negation = make_lexicon([*feature_lexicons.negation.entries, "明显异常"],
                            LexiconKind.NEGATION_WORDS)
    enumerators = make_lexicon([*feature_lexicons.enumerators.entries, "^3、",
                                "(?<![^。])[0-9][.]", "[0-9]\\W"],
                               LexiconKind.ENUMERATOR_PATTERNS)
    return FeatureLexicons(negation=negation, enumerators=enumerators)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(WINDOWS, st.lists(st.sampled_from([*LABELS, None]), min_size=6, max_size=6),
       st.booleans())
@example([("肺炎", "肺炎。否"), ("肺炎", "认肺炎")], [None] * 6, False)  # 否|认 at a join
@example([("肺炎", "3、肺炎。1.")], ["confirmed"] * 6, True)  # one window, items at its edges
@example([("肺炎", "肺炎3"), ("肺炎", "2.肺炎\0否认"), ("肺炎", "3、肺炎")], [None] * 6,
         False)  # patterns that join lexicons adds, at and across joins
def test_a_batch_builds_each_window_as_alone(join_lexicons, windows, labels, labeled):
    labels = labels[:len(windows)] if labeled else [None] * len(windows)
    got = assemble_features(windows, join_lexicons, labels if labeled else None)
    want = [seed_assemble_features(d, c, join_lexicons, label)
            for (d, c), label in zip(windows, labels)]
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.disease, a.context, a.label) == (b.disease, b.context, b.label)
        for track in TRACKS:
            assert getattr(a, track).dtype == getattr(b, track).dtype
            assert getattr(a, track).tolist() == getattr(b, track).tolist(), track
