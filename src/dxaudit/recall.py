"""Stage 1: find every lexicon disease in a record and build context windows.

The matcher holds the lexicon's entries in a hash set and files every entry
of two or more characters under its head, its first two characters, with
the distinct entry lengths under each head, longest first. A scan stops
only at positions holding some entry's first character; there it looks up
one slice per length filed under the two characters from there, then the
character itself, and stops at the first hit. So its cost follows those
positions and the lengths under their heads, not the lexicon's size.

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
        # Each entry's length is filed under its head, its first two
        # characters, in one pass. A one-character entry is its own head,
        # so the heads' first characters are every entry's; it is looked up
        # in the set alone, and only two-character heads are kept.
        lengths: defaultdict[str, set[int]] = defaultdict(set)
        for entry in self._entries:
            lengths[entry[:2]].add(len(entry))
        self._heads = {head: sorted(sizes, reverse=True)
                       for head, sizes in lengths.items() if len(head) > 1}
        firsts = sorted({head[0] for head in lengths})
        self._first = re.compile("[" + "".join(map(re.escape, firsts)) + "]")

    def scan(self, text: str) -> list[tuple[int, int, str]]:
        """The (start, end, entry) hits that no other hit contains, in start order.

        At each position holding some entry's first character, the entry
        lengths filed under the two characters from there are looked up
        longest first, then the character itself. The first hit is the
        position's one candidate: every shorter hit there lies inside it.
        ``resolve_overlaps`` drops the candidates an earlier one covers.
        """
        entries, heads = self._entries, self._heads
        n = len(text)
        candidates: list[tuple[int, int, str]] = []
        for match in self._first.finditer(text):
            i = match.start()
            for length in heads.get(text[i:i + 2], ()):
                end = i + length
                if end <= n and (piece := text[i:end]) in entries:
                    candidates.append((i, end, piece))
                    break
            else:
                if text[i] in entries:
                    candidates.append((i, i + 1, text[i]))
        return resolve_overlaps(candidates)


def build_matcher(lexicon: Lexicon) -> DiseaseMatcher:
    if lexicon.kind is not LexiconKind.DISEASE_NAMES:
        raise ValueError(f"matcher requires a disease lexicon, got {lexicon.kind}")
    return DiseaseMatcher(lexicon.entries)


def resolve_overlaps(hits: list[tuple[int, int, str]]) -> list[tuple[int, int, str]]:
    """Longest-match filter over at most one hit per start, in start order.

    A hit that another hit contains starts after it (at one start, the
    longer hit is the one given), so it is contained exactly when it ends
    at or before the last kept end: every earlier hit ends at or before
    some kept hit's end. The kept hits are the hits no other hit contains,
    rising strictly in both start and end. O(n), no sort.
    """
    kept: list[tuple[int, int, str]] = []
    reach = 0
    for hit in hits:
        if hit[1] > reach:
            kept.append(hit)
            reach = hit[1]
    return kept


def find_mentions(matcher: DiseaseMatcher, record: MedicalRecord) -> list[DiseaseMention]:
    """One mention per distinct disease, aggregating every occurrence.

    Sections are scanned independently; spans never cross sections. A
    section's hits rise in start, so each mention's spans rise in
    (section, start) and the mentions come in order of their first span.
    """
    by_disease: dict[str, list[tuple[int, int, int]]] = {}
    for section_index, (_, text) in enumerate(record.sections):
        for start, end, entry in matcher.scan(text):
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

    The box runs from the first span to the last span end within ``budget``
    of it (span ends rise, so those spans are a prefix), then is padded
    symmetrically inside the original window bounds. The first span always
    fits: it is only called for the first-ranked window, while ``budget``
    is still the full limit, which no disease name exceeds.
    """
    section, w_start, w_end, spans = window
    box_start = spans[0][0]
    box_end = max(end for _, end in spans if end - box_start <= budget)
    left = max(w_start, box_start - (budget - (box_end - box_start)) // 2)
    right = min(w_end, left + budget)
    left = max(w_start, right - budget)
    return (section, left, right, [s for s in spans if left <= s[0] and s[1] <= right])


def build_context_window(record: MedicalRecord, mention: DiseaseMention) -> DiseaseMention:
    """Fill ``context`` with sentence-bounded windows around each span.

    The spans are walked in (section, start) order, so their sentence
    windows rise and each merges only into the one before it when the two
    overlap. Windows are selected by (span count desc, document order)
    under the MAX_CONTEXT budget, the first-ranked one cut around its spans
    if it alone overflows, and concatenated in document order. Spans that
    survive are re-mapped into the context.
    """
    if not mention.spans:
        raise ValueError("mention has no spans")
    if len(mention.disease) > MAX_CONTEXT:
        raise WindowOverflow(f"disease surface of {len(mention.disease)} chars "
                             f"exceeds budget {MAX_CONTEXT}")

    # Per-section merged sentence windows, each carrying its spans.
    windows: list[tuple[int, int, int, list[tuple[int, int]]]] = []
    for section, start, end in sorted(mention.spans):
        w_start, w_end = _sentence_window(record.sections[section][1], start, end)
        if windows and windows[-1][0] == section and w_start < windows[-1][2]:
            _, a, b, spans = windows[-1]
            windows[-1] = (section, a, max(b, w_end), spans + [(start, end)])
        else:
            windows.append((section, w_start, w_end, [(start, end)]))

    budget = MAX_CONTEXT
    selected: list[tuple[int, int, int, list[tuple[int, int]]]] = []
    for rank, window in enumerate(sorted(windows, key=lambda w: (-len(w[3]), w[0], w[1]))):
        if window[2] - window[1] > budget:
            if rank:
                continue
            window = _shrink_window(window, budget)
        selected.append(window)
        budget -= window[2] - window[1]

    parts: list[str] = []
    context_spans: list[tuple[int, int]] = []
    offset = 0
    for section, a, b, spans in sorted(selected):
        parts.append(record.sections[section][1][a:b])
        context_spans.extend((start - a + offset, end - a + offset) for start, end in spans)
        offset += b - a
    context = "".join(parts)
    for start, end in context_spans:
        if context[start:end] != mention.disease:
            raise SpanMismatch(
                f"span [{start}, {end}) of the context holds {context[start:end]!r}, "
                f"not {mention.disease!r}")
    return replace(mention, context=context, context_spans=tuple(context_spans))
