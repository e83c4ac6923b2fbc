"""The three aligned feature tracks built over a classification sample.

Each track is a 0/1 array exactly as long as the context:

* pos_track  - characters inside any occurrence of the disease
* neg_track  - characters inside any occurrence of a negation word
* order_track - characters belonging to enumerated-list items

All marking functions are pure; the lexicons they read are immutable.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from .core import MAX_CONTEXT, MAX_DISEASE, SENTENCE_BOUNDARIES, Lexicon, LexiconKind
from .errors import BadPattern, BadSetting, EmptyContext

LABELS = ("non_current", "confirmed", "unknown")
TRACKS = ("pos_track", "neg_track", "order_track")


@dataclass(frozen=True)
class ContextSample:
    disease: str
    context: str
    pos_track: np.ndarray
    neg_track: np.ndarray
    order_track: np.ndarray
    label: str | None = None

    def __post_init__(self):
        for name, cap in (("disease", MAX_DISEASE), ("context", MAX_CONTEXT)):
            if len(getattr(self, name)) > cap:
                raise ValueError(f"{name} is longer than its cap of {cap} characters")
        n = len(self.context)
        tracks = [getattr(self, name) for name in TRACKS]
        for name, track in zip(TRACKS, tracks):
            if len(track) != n:
                raise ValueError(f"{name} length {len(track)} != context length {n}")
        # One pass over all three tracks (count_nonzero costs half of .any()
        # on a short window); the first bad entry names its track.
        joined = np.concatenate(tracks)
        bad = joined != joined.astype(bool)
        if np.count_nonzero(bad):
            at = int(bad.argmax())
            raise ValueError(f"{TRACKS[at // n]} holds {joined[at]}; "
                             f"a track holds only 0 and 1")
        if self.label is not None and self.label not in LABELS:
            raise ValueError(f"unknown label {self.label!r}")


def _mark_occurrences(track: np.ndarray, context: str, needle: str) -> None:
    start = 0
    while True:
        idx = context.find(needle, start)
        if idx < 0:
            break
        track[idx : idx + len(needle)] = 1
        start = idx + 1  # overlapping occurrences union their ranges


def mark_disease_positions(disease: str, context: str) -> np.ndarray:
    """1 over every character of every occurrence of ``disease``."""
    if not disease:
        raise ValueError("disease must be non-empty")
    track = np.zeros(len(context), dtype=np.uint8)
    _mark_occurrences(track, context, disease)
    return track


def mark_negation(context: str, negation_lexicon: Lexicon) -> np.ndarray:
    """1 over every character inside any negation-word occurrence."""
    track = np.zeros(len(context), dtype=np.uint8)
    for word in negation_lexicon.entries:
        _mark_occurrences(track, context, word)
    return track


def mark_serial_numbers(context: str, patterns: tuple[re.Pattern, ...]) -> np.ndarray:
    """1 over enumerated-list items, given compiled enumerator patterns.

    An item runs from its enumerator token to the character before the
    next enumerator or sentence terminator, whichever comes first.
    """
    track = np.zeros(len(context), dtype=np.uint8)
    tokens: list[tuple[int, int]] = []
    for pattern in patterns:
        for match in pattern.finditer(context):
            if match.end() > match.start():
                tokens.append((match.start(), match.end()))
    tokens = sorted(set(tokens))
    next_starts = [t[0] for t in tokens[1:]] + [len(context)]
    for (start, end), next_start in zip(tokens, next_starts):
        stops = [i for i in (context.find(mark, end) for mark in SENTENCE_BOUNDARIES) if i >= 0]
        track[start:min([next_start, *stops])] = 1
    return track


@dataclass(frozen=True)
class FeatureLexicons:
    """The negation words and enumerator patterns of a run, with both kinds
    checked (BadSetting) and every pattern compiled (BadPattern) once."""

    negation: Lexicon
    enumerators: Lexicon
    patterns: tuple[re.Pattern, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for lexicon, kind in ((self.negation, LexiconKind.NEGATION_WORDS),
                              (self.enumerators, LexiconKind.ENUMERATOR_PATTERNS)):
            if lexicon.kind is not kind:
                raise BadSetting(f"expected a {kind.value} lexicon, got {lexicon.kind.value}")
        compiled = []
        for raw in self.enumerators.entries:
            try:
                compiled.append(re.compile(raw))
            except re.error as exc:
                raise BadPattern(f"pattern {raw!r}: {exc}")
        object.__setattr__(self, "patterns", tuple(compiled))


def assemble_features(
    disease: str,
    context: str,
    lexicons: FeatureLexicons,
    label: str | None = None,
) -> ContextSample:
    """Build a ContextSample with all three tracks, applying length caps."""
    disease = disease[:MAX_DISEASE]
    context = context[:MAX_CONTEXT]
    if not context:
        raise EmptyContext("cannot assemble features over an empty context")
    return ContextSample(
        disease=disease,
        context=context,
        pos_track=mark_disease_positions(disease, context),
        neg_track=mark_negation(context, lexicons.negation),
        order_track=mark_serial_numbers(context, lexicons.patterns),
        label=label,
    )
