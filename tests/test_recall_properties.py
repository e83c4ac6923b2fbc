"""Property tests: the matcher's raw hits are every occurrence of every
entry, mentions come in first-span order, and a span's sentence window is
the character loop's."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from dxaudit.core import SENTENCE_BOUNDARIES, MedicalRecord  # noqa: E402
from dxaudit.recall import DiseaseMatcher, _sentence_window, find_mentions  # noqa: E402

from oracles import loop_sentence_window  # noqa: E402

# Character-class metacharacters, two CJK characters and one outside the BMP.
ALPHABET = "]^-\\肺炎\U00020000"


@st.composite
def lexicon_and_text(draw):
    words = draw(st.lists(st.text(ALPHABET, min_size=1, max_size=5),
                          min_size=1, max_size=8))
    # A prefix of each word, so one-character entries and entries that are
    # prefixes of other entries both occur.
    prefixes = [word[:draw(st.integers(1, len(word)))] for word in words]
    entries = sorted(set(words) | set(prefixes))
    # Entries and noise ("x" starts no entry) laid side by side give
    # overlapping, nested and repeated occurrences.
    pieces = draw(st.lists(st.one_of(st.sampled_from(entries),
                                     st.text(ALPHABET + "x", max_size=3)),
                           max_size=12))
    return entries, "".join(pieces)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(lexicon_and_text())
@example((["肺", "炎"], "肺炎x肺"))  # one-character entries only
@example((["肺炎", "肺炎肺"], "x肺炎"))  # the text ends right after a head
@example((["肺炎肺", "肺炎肺炎"], "肺炎肺"))  # ends one character after a head
@example((["肺炎", "肺炎肺炎"], "肺炎肺炎肺炎"))  # an entry is another's head
@example((["\U00020000", "\U00020000肺", "肺\U00020000炎"],
          "肺\U00020000炎\U00020000肺"))  # characters outside the BMP
@example((["肺", "肺炎", "肺炎肺", "炎", "炎肺"], "肺炎肺炎"))  # several ends per start
def test_raw_hits_are_every_occurrence(case):
    entries, text = case
    # Hits come by start, then by end: the order is part of the contract.
    expected = sorted((i, i + len(entry), entry)
                      for entry in entries
                      for i in range(len(text)) if text.startswith(entry, i))
    assert DiseaseMatcher(entries).scan(text) == expected


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(lexicon_and_text(), min_size=1, max_size=3))
def test_mentions_come_in_first_span_order(cases):
    entries = sorted({entry for case_entries, _ in cases for entry in case_entries})
    sections = tuple((f"s{i}", text) for i, (_, text) in enumerate(cases) if text)
    mentions = find_mentions(DiseaseMatcher(entries),
                             MedicalRecord("r1", sections, discharge_diagnoses=()))
    firsts = [mention.spans[0] for mention in mentions]
    assert all(a < b for a, b in zip(firsts, firsts[1:]))
    for mention in mentions:
        assert all(a < b for a, b in zip(mention.spans, mention.spans[1:]))


@st.composite
def text_and_span(draw):
    # Sentence boundaries among ordinary characters, so boundaries fall at
    # either end of the text and right beside or inside the span.
    text = draw(st.text(SENTENCE_BOUNDARIES + "肺炎x", max_size=12))
    start = draw(st.integers(0, len(text)))
    return text, start, draw(st.integers(start, len(text)))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(text_and_span())
@example(("", 0, 0))
@example(("。肺炎；", 0, 0))
@example(("。肺炎；", 4, 4))
@example(("。肺炎；", 1, 3))
@example(("\n肺炎x\n", 0, 5))
@example(("肺炎", 0, 2))
def test_sentence_window_matches_the_loop(case):
    text, start, end = case
    assert _sentence_window(text, start, end) == loop_sentence_window(text, start, end)
