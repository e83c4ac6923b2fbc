"""Stage 1: find every lexicon disease in a record and build context windows.

The matcher holds the lexicon's entries in a hash set and files every entry
of two or more characters under its head, its first two characters, with
the sorted distinct entry lengths under each head. A scan stops only at
positions holding some entry's first character; there it looks up the
character itself, then one slice per length filed under the two characters
from there. So its cost follows those positions and the lengths under
their heads, not the lexicon's size.

Overlapping hits are resolved by longest-match-wins: a hit is dropped when
its span is fully covered by another hit. This keeps a disease from being
double-reported alongside one of its substrings while preserving genuinely
distinct partial overlaps.
"""

from __future__ import annotations

import re
from collections import defaultdict
from dataclasses import dataclass, replace

from .core import MAX_CONTEXT, SENTENCE_BOUNDARIES, Lexicon, LexiconKind, MedicalRecord
from .errors import EmptyLexicon, SpanMismatch, WindowOverflow


@dataclass(frozen=True)
class DiseaseMention:
    """All occurrences of one disease in one record, plus its context."""

    disease: str
    spans: tuple[tuple[int, int, int], ...]  # (section_index, start, end)
    context: str = ""
    context_spans: tuple[tuple[int, int], ...] = ()


class DiseaseMatcher:
    """Every entry of a disease lexicon, with the entry lengths under each head."""

    def __init__(self, entries):
        self._entries = frozenset(entries)
        if not self._entries:
            raise EmptyLexicon("disease lexicon is empty")
        # An entry of two or more characters is filed under its head (its
        # first two characters); one-character entries live only in the set.
        lengths: defaultdict[str, set[int]] = defaultdict(set)
        for entry in self._entries:
            if len(entry) > 1:
                lengths[entry[:2]].add(len(entry))
        self._heads = {head: sorted(sizes) for head, sizes in lengths.items()}
        firsts = sorted({e[0] for e in self._entries})
        self._first = re.compile("[" + "".join(map(re.escape, firsts)) + "]")

    def scan(self, text: str) -> list[tuple[int, int, str]]:
        """All raw (start, end, entry) hits in start order, overlaps included.

        At each position holding some entry's first character, the character
        itself and then each entry length filed under the two characters
        from there are looked up, so one start's hits come in end order.
        """
        entries, heads = self._entries, self._heads
        n = len(text)
        hits: list[tuple[int, int, str]] = []
        for match in self._first.finditer(text):
            i = match.start()
            piece = text[i]
            if piece in entries:
                hits.append((i, i + 1, piece))
            for length in heads.get(text[i:i + 2], ()):
                end = i + length
                if end > n:
                    break
                piece = text[i:end]
                if piece in entries:
                    hits.append((i, end, piece))
        return hits


def build_matcher(lexicon: Lexicon) -> DiseaseMatcher:
    if lexicon.kind is not LexiconKind.DISEASE_NAMES:
        raise ValueError(f"matcher requires a disease lexicon, got {lexicon.kind}")
    return DiseaseMatcher(lexicon.entries)


def resolve_overlaps(hits: list[tuple[int, int, str]]) -> list[tuple[int, int, str]]:
    """Longest-match filter: drop hits fully covered by an accepted hit.

    Containment is transitive, so the accepted hits are exactly the hits no
    other hit contains (a repeated hit is kept once). Sorted by (start asc,
    end desc), every hit that could contain a hit comes before it, so a hit
    is kept when it ends past every hit before it, and the kept hits rise
    strictly in both start and end. O(n log n).
    """
    accepted: list[tuple[int, int, str]] = []
    reach = -1
    for start, end, entry in sorted(hits, key=lambda h: (h[0], -h[1], h[2])):
        if end > reach:
            accepted.append((start, end, entry))
            reach = end
    return accepted


def find_mentions(matcher: DiseaseMatcher, record: MedicalRecord) -> list[DiseaseMention]:
    """One mention per distinct disease, aggregating every occurrence.

    Sections are scanned independently; spans never cross sections. The
    kept hits of a section rise in start, so each mention's spans rise in
    (section, start) and the mentions come in order of their first span.
    """
    by_disease: dict[str, list[tuple[int, int, int]]] = {}
    for section_index, (_, text) in enumerate(record.sections):
        for start, end, entry in resolve_overlaps(matcher.scan(text)):
            by_disease.setdefault(entry, []).append((section_index, start, end))
    return [DiseaseMention(disease=disease, spans=tuple(spans))
            for disease, spans in by_disease.items()]


def _sentence_window(text: str, start: int, end: int) -> tuple[int, int]:
    """Expand [start, end) to the enclosing sentence, terminator included."""
    left = max(text.rfind(mark, 0, start) for mark in SENTENCE_BOUNDARIES) + 1
    ends = [i for i in (text.find(mark, end) for mark in SENTENCE_BOUNDARIES) if i >= 0]
    return left, min(ends) + 1 if ends else len(text)  # keep the terminator


def _shrink_window(
    window: tuple[int, int, int, list[tuple[int, int]]],
    budget: int,
) -> tuple[int, int, int, list[tuple[int, int]]]:
    """Fit a too-long window into ``budget`` chars around its spans.

    Keeps the longest prefix of spans whose bounding box fits, then pads
    symmetrically inside the original window bounds. The first span always
    fits: it is only called for the first-ranked window, while ``budget``
    is still the full limit, which no disease name exceeds.
    """
    section, w_start, w_end, spans = window
    kept = [spans[0]]
    for span in spans[1:]:
        if span[1] - kept[0][0] <= budget:
            kept.append(span)
        else:
            break
    box_start, box_end = kept[0][0], kept[-1][1]
    extra = budget - (box_end - box_start)
    left = max(w_start, box_start - extra // 2)
    right = min(w_end, left + budget)
    left = max(w_start, right - budget)
    inside = [s for s in spans if left <= s[0] and s[1] <= right]
    return (section, left, right, inside)


def build_context_window(record: MedicalRecord, mention: DiseaseMention) -> DiseaseMention:
    """Fill ``context`` with sentence-bounded windows around each span.

    Windows are merged when they overlap, selected by (span count desc,
    document order) under the MAX_CONTEXT budget, and concatenated in
    document order. Spans that survive are re-mapped into the context.
    """
    if not mention.spans:
        raise ValueError("mention has no spans")
    if len(mention.disease) > MAX_CONTEXT:
        raise WindowOverflow(f"disease surface of {len(mention.disease)} chars "
                             f"exceeds budget {MAX_CONTEXT}")

    # Per-section merged sentence windows, each carrying its spans.
    windows: list[tuple[int, int, int, list[tuple[int, int]]]] = []
    for section, start, end in mention.spans:
        text = record.sections[section][1]
        w_start, w_end = _sentence_window(text, start, end)
        merged = False
        for i, (sec, a, b, spans) in enumerate(windows):
            if sec == section and w_start < b and a < w_end:
                windows[i] = (sec, min(a, w_start), max(b, w_end), spans + [(start, end)])
                merged = True
                break
        if not merged:
            windows.append((section, w_start, w_end, [(start, end)]))

    order = sorted(
        range(len(windows)),
        key=lambda i: (-len(windows[i][3]), windows[i][0], windows[i][1]),
    )
    budget = MAX_CONTEXT
    selected: list[tuple[int, int, int, list[tuple[int, int]]]] = []
    for rank, i in enumerate(order):
        window = windows[i]
        length = window[2] - window[1]
        if length <= budget:
            selected.append(window)
            budget -= length
        elif rank == 0:
            shrunk = _shrink_window(window, budget)
            selected.append(shrunk)
            budget -= shrunk[2] - shrunk[1]

    selected.sort(key=lambda w: (w[0], w[1]))
    parts: list[str] = []
    context_spans: list[tuple[int, int]] = []
    offset = 0
    for section, a, b, spans in selected:
        text = record.sections[section][1]
        parts.append(text[a:b])
        for start, end in sorted(spans):
            context_spans.append((start - a + offset, end - a + offset))
        offset += b - a
    context = "".join(parts)
    for start, end in context_spans:
        if context[start:end] != mention.disease:
            raise SpanMismatch(
                f"span [{start}, {end}) of the context holds {context[start:end]!r}, "
                f"not {mention.disease!r}")
    return replace(mention, context=context, context_spans=tuple(context_spans))
