"""Property test: enumerated items are marked as the character loop marks
them."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from dxaudit.features import mark_serial_numbers  # noqa: E402

from oracles import loop_serial_numbers  # noqa: E402

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
