"""Property test: CharVocab.encode gives the ids of the dict-lookup loop it
replaced, as intp, over any code points: NUL, astral characters, lone
surrogates and code points above the vocabulary's highest."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from dxaudit.context_model import CharVocab  # noqa: E402
from oracles import dict_loop_encode  # noqa: E402

# Any code point, surrogates included, plus the edges drawn more often.
CHARS = st.one_of(st.integers(0, 0x10FFFF).map(chr),
                  st.sampled_from(["\0", "a", "肺", "\ud800", "\udfff", "\U0001F600",
                                   "\U0010FFFF"]))


@st.composite
def vocab_and_text(draw):
    chars = draw(st.lists(CHARS, unique=True, max_size=12))
    known = st.sampled_from(chars) if chars else CHARS
    return chars, "".join(draw(st.lists(st.one_of(known, CHARS), max_size=24)))


@pytest.mark.parametrize("first_id", [1, 2])
@settings(max_examples=300, deadline=None, derandomize=True)
@given(vocab_and_text())
@example(([], ""))  # the empty vocabulary and text
@example(([], "\0肺"))  # every character unknown
@example((["a", "b"], "abc\0"))  # one past the highest, and NUL
@example((["肺"], "\ud800肺\U0001F600"))  # a lone surrogate and an astral character
@example((["\U0001F600", "\0"], "\0\U0001F600\U0010FFFF"))
def test_encode_equals_the_dict_loop(first_id, drawn):
    chars, text = drawn
    vocab = CharVocab(chars, first_id=first_id)
    got = vocab.encode(text)
    assert got.dtype == np.intp
    assert np.array_equal(got, dict_loop_encode(vocab, text))
