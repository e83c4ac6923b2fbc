"""Property tests: the matcher indexes its entries as the seed matcher did,
its hits are the brute-force kept hits in start order, mentions come in
first-span order, a span's sentence window is the character loop's, and a
mention's context window is the seed builder's."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from dxaudit import recall  # noqa: E402
from dxaudit.core import MAX_CONTEXT, SENTENCE_BOUNDARIES, MedicalRecord  # noqa: E402
from dxaudit.recall import (DiseaseMatcher, _sentence_window,  # noqa: E402
                            build_context_window, find_mentions)

from oracles import (brute_force_mentions, loop_sentence_window,  # noqa: E402
                     seed_context_window, seed_matcher_index)

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


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.text(ALPHABET, min_size=1, max_size=6), min_size=1, max_size=12))
@example(["肺", "\U00020000"])  # one-character entries only
@example(["肺炎", "肺炎肺", "肺炎肺炎", "肺炎]^-\\", "肺"])  # one head, many lengths
def test_matcher_indexes_entries_as_the_seed_matcher(entries):
    matcher = DiseaseMatcher(entries)
    assert (matcher._heads, matcher._first.pattern) == seed_matcher_index(entries)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(lexicon_and_text())
@example((["肺", "炎"], "肺炎x肺"))  # one-character entries only
@example((["肺炎", "肺炎肺"], "x肺炎"))  # the text ends right after a head
@example((["肺炎肺", "肺炎肺炎"], "肺炎肺"))  # ends one character after a head
@example((["肺炎", "肺炎肺炎"], "肺炎肺炎肺炎"))  # an entry is another's head
@example((["\U00020000", "\U00020000肺", "肺\U00020000炎"],
          "肺\U00020000炎\U00020000肺"))  # characters outside the BMP
@example((["肺", "肺炎", "肺炎肺", "炎", "炎肺"], "肺炎肺炎"))  # several ends per start
def test_scan_gives_exactly_the_brute_force_kept_hits_in_start_order(case):
    entries, text = case
    # The oracle sorts its kept hits, which rise in start: the order is part
    # of the contract.
    assert DiseaseMatcher(entries).scan(text) == brute_force_mentions(entries, text)


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


# Nested entries, so overlaps are resolved before the windows are built.
WINDOW_ENTRIES = ["肺炎", "大叶性肺炎", "高血压"]


@st.composite
def multi_section_record(draw):
    # Entries, sentence ends, commas (which end no sentence) and runs of up
    # to 500 filler characters: short sentences and sentences longer than
    # MAX_CONTEXT, whose windows are shrunk.
    piece = st.one_of(st.sampled_from(WINDOW_ENTRIES + list(SENTENCE_BOUNDARIES) + ["，"]),
                      st.integers(1, 500).map(lambda n: "长" * n))
    texts = draw(st.lists(st.lists(piece, max_size=16).map("".join), min_size=1, max_size=3))
    return MedicalRecord("r1", tuple((f"s{i}", text) for i, text in enumerate(texts) if text),
                         discharge_diagnoses=())


@settings(max_examples=400, deadline=None, derandomize=True)
@given(multi_section_record())
# two sections with sentences over MAX_CONTEXT: the cut first-ranked one fills the cap
@example(MedicalRecord("r1", (("a", "长" * 300 + "肺炎，肺炎" + "长" * 300 + "。"),
                              ("b", "肺炎。" + "长" * 500 + "肺炎。")), ()))
# two spans whose box is exactly MAX_CONTEXT long, and two too far apart
@example(MedicalRecord("r1", (("a", "长" * 100 + "肺炎" + "长" * 446 + "肺炎" + "长" * 99
                               + "。"),), ()))
@example(MedicalRecord("r1", (("a", "长" * 300 + "肺炎" + "长" * 500 + "肺炎。"),), ()))
def test_context_window_is_the_seed_builders(record):
    matcher = DiseaseMatcher(WINDOW_ENTRIES)
    for mention in find_mentions(matcher, record):
        windowed = build_context_window(record, mention)
        assert len(windowed.context) <= MAX_CONTEXT
        assert (windowed.context, windowed.context_spans) == seed_context_window(
            record, mention.spans)


def test_drawn_records_reach_the_shrink_path(monkeypatch):
    """The drawn records, not only the examples, cut windows to the cap."""
    shrunk, shrink = [], recall._shrink_window
    monkeypatch.setattr(recall, "_shrink_window",
                        lambda *args: shrunk.append(args) or shrink(*args))
    test_context_window_is_the_seed_builders()
    assert len(shrunk) >= 30
