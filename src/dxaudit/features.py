"""The three aligned feature tracks built over a classification sample.

Each track is a 0/1 array exactly as long as the context:

* pos_track  - characters inside any occurrence of the disease
* neg_track  - characters inside any occurrence of a negation word
* order_track - characters belonging to enumerated-list items

A sample (ContextSample) holds a disease of at most MAX_DISEASE
characters, a context of at most MAX_CONTEXT, the three tracks and a label
of LABELS or None. assemble_features builds it so; where a sample is used,
ContextClassifier.packed_inputs refuses a cap or track it breaks
(ValueError) and context_model.train an unknown label (DegenerateData).

``assemble_features`` builds a whole batch of (disease, context) windows
in one call, over the capped contexts joined by ``"\\0"``: one
``mark_negation`` pass over the joined text marks every context, each
disease is marked within its own context's stretch of one array for the
batch, and each context's items come from its own ``mark_serial_numbers``
call (an enumerator pattern may be anchored or look behind, so it is
never run across a join). No negation word holds ``"\\0"``
(``FeatureLexicons`` refuses one), so no negation mark crosses a join.
Each sample's tracks are read-only views of the batch's arrays.

All marking functions are pure; the lexicons they read are immutable.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

import numpy as np

from .core import MAX_CONTEXT, MAX_DISEASE, TERMINATOR, Lexicon, LexiconKind
from .errors import BadPattern, BadSetting, EmptyContext

LABELS = ("non_current", "confirmed", "unknown")
TRACKS = ("pos_track", "neg_track", "order_track")


@dataclass(frozen=True)
class ContextSample:
    """A window, its tracks and a label or None: plain data in the module's
    format, which packed_inputs (caps, tracks) and train (label) check."""

    disease: str
    context: str
    pos_track: np.ndarray
    neg_track: np.ndarray
    order_track: np.ndarray
    label: str | None = None


def mark_occurrences(track: np.ndarray, context: str, needle: str) -> None:
    """Set track to 1 over every occurrence of needle in context."""
    start = 0
    while True:
        idx = context.find(needle, start)
        if idx < 0:
            break
        track[idx : idx + len(needle)] = 1
        start = idx + 1  # overlapping occurrences union their ranges


def mark_negation(context: str, negation_lexicon: Lexicon) -> np.ndarray:
    """1 over every character inside any negation-word occurrence."""
    track = np.zeros(len(context), dtype=np.uint8)
    for word in negation_lexicon.entries:
        mark_occurrences(track, context, word)
    return track


def mark_serial_numbers(context: str, patterns: tuple[re.Pattern, ...]) -> np.ndarray:
    """1 over enumerated-list items, given compiled enumerator patterns.

    An item runs from its enumerator token to the character before the
    next enumerator or sentence terminator, whichever comes first.
    """
    track = np.zeros(len(context), dtype=np.uint8)
    tokens = sorted({match.span() for pattern in patterns
                     for match in pattern.finditer(context) if match.end() > match.start()})
    next_starts = [t[0] for t in tokens[1:]] + [len(context)]
    for (start, end), next_start in zip(tokens, next_starts):
        stop = TERMINATOR.search(context, end, next_start)
        track[start:stop.start() if stop else next_start] = 1
    return track


@dataclass(frozen=True)
class FeatureLexicons:
    """The negation words and enumerator patterns of a run, with both kinds
    checked (BadSetting) and every pattern compiled (BadPattern) once.
    A negation word holding "\\0", which assemble_features joins contexts
    with, is refused too (BadSetting)."""

    negation: Lexicon
    enumerators: Lexicon
    patterns: tuple[re.Pattern, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for lexicon, kind in ((self.negation, LexiconKind.NEGATION_WORDS),
                              (self.enumerators, LexiconKind.ENUMERATOR_PATTERNS)):
            if lexicon.kind is not kind:
                raise BadSetting(f"expected a {kind.value} lexicon, got {lexicon.kind.value}")
        for word in self.negation.entries:
            if "\0" in word:
                raise BadSetting(f"negation word {word!r} holds \"\\0\", "
                                 "which joins the contexts of a batch")
        compiled = []
        for raw in self.enumerators.entries:
            try:
                compiled.append(re.compile(raw))
            except re.error as exc:
                raise BadPattern(f"pattern {raw!r}: {exc}")
        object.__setattr__(self, "patterns", tuple(compiled))


def assemble_features(
    windows: Iterable[tuple[str, str]],
    lexicons: FeatureLexicons,
    labels: Sequence[str | None] | None = None,
) -> list[ContextSample]:
    """One ContextSample per (disease, context) window, in order, with all
    three tracks, applying length caps; ``labels``, when given, holds one
    label per window (ValueError for another count).

    An empty context raises EmptyContext and an empty disease ValueError,
    the first such window in order failing the call. See the module
    docstring for how the tracks are built.
    """
    capped = [(disease[:MAX_DISEASE], context[:MAX_CONTEXT]) for disease, context in windows]
    if labels is None:
        labels = [None] * len(capped)
    elif len(labels) != len(capped):
        raise ValueError(f"{len(labels)} labels for {len(capped)} windows")
    joined = "\0".join(context for _, context in capped)
    pos = np.zeros(len(joined), dtype=np.uint8)
    order = np.zeros(len(joined), dtype=np.uint8)
    bounds = []
    start = 0
    for disease, context in capped:
        if not context:
            raise EmptyContext("cannot assemble features over an empty context")
        if not disease:
            raise ValueError("disease must be non-empty")
        end = start + len(context)
        mark_occurrences(pos[start:end], context, disease)
        order[start:end] = mark_serial_numbers(context, lexicons.patterns)
        bounds.append((start, end))
        start = end + 1
    neg = mark_negation(joined, lexicons.negation)
    for track in (pos, neg, order):
        track.flags.writeable = False
    return [ContextSample(disease, context, pos[a:b], neg[a:b], order[a:b], label)
            for (disease, context), (a, b), label in zip(capped, bounds, labels)]
