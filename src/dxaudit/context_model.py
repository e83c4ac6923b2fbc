"""Stage 2: the gated feature-fusion classifier over (disease, context).

The model reads the pair as one character sequence (disease, separator,
context), encodes it, embeds the three 0/1 feature tracks, and fuses the
two streams through a learned gate:

    h2 = relu(W1' h1 + b1)                    per position
    f_t = track-bit embedding lookups         t in {pos, neg, order}
    f1 = relu(sum_t W_t' f_t + b_f)
    h3 = tanh(W_fm' [f1; h2] + b_fm)
    g  = sigmoid(W_g' [f1; h2] + c_g)
    o  = g * h3 + (1 - g) * h2
    c  = [max-pool(o); mean-pool(o)]          over the length axis
    y  = softmax(W_y' c + b_y)

Everything is plain numpy with hand-written backprop, so gradients can be
validated against finite differences and training is deterministic per
seed. The encoder is a trainable character embedding followed by a
symmetric windowed average (CharWindowEncoder).

``ContextClassifier.classify`` runs the same math for any number of
samples, packed end to end, from per-model tables of the
parameter-only products; the training forward above stays its
reference.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate

import numpy as np

from .core import MAX_CONTEXT, MAX_DISEASE, parse_json_object, read_lines
from .errors import (BadSetting, DegenerateData, EmptyPool, ParseError, ShapeMismatch,
                     require_at_least)
from .features import (LABELS, TRACKS, ContextSample, FeatureLexicons, assemble_features,
                       mark_occurrences)
from .modelio import read_model, write_model

UNK_ID = 0
SEP_ID = 1
WINDOW = 2  # characters averaged on each side of a position


@dataclass
class TrainConfig:
    batch_size: int = 16
    learning_rate: float = 0.3
    focal_gamma: float = 2.0
    epochs: int = 5
    seed: int = 0

    def __post_init__(self):
        require_at_least(vars(self), batch_size=1, epochs=1, seed=0, learning_rate=0.0,
                         focal_gamma=0.0)


class CharVocab:
    """Deterministic character -> id map; ids below ``first_id`` are reserved
    (UNK_ID and SEP_ID here, UNK_ID only in the relation encoder)."""

    def __init__(self, chars: list[str], first_id: int = 2):
        self.chars = list(chars)
        self.first_id = first_id

    @classmethod
    def from_texts(cls, texts) -> "CharVocab":
        return cls(sorted(set().union(*texts)))

    def __len__(self) -> int:
        return len(self.chars) + self.first_id

    @cached_property
    def _table(self) -> np.ndarray:
        """Entry ``ord(ch)`` holds ch's id, every other entry UNK_ID; the last
        entry serves each code point above the highest character's. Built
        at the first encode, in the smallest dtype that holds every id."""
        codes = [ord(ch) for ch in self.chars]
        table = np.zeros(max(codes, default=-1) + 2, dtype=np.min_scalar_type(len(self)))
        table[codes] = np.arange(self.first_id, len(self))
        return table

    def encode(self, text: str) -> np.ndarray:
        # surrogatepass: a lone surrogate is one more code point
        codes = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), np.uint32)
        return self._table.take(codes, mode="clip").astype(np.intp)


def _segments(starts: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Start rows and lengths of the sequences packed into ``n`` rows."""
    starts = np.asarray(starts, dtype=np.intp)
    # np.diff(append=) costs four times this on a batch's few starts
    lengths = np.empty(len(starts), dtype=np.intp)
    lengths[:-1] = starts[1:] - starts[:-1]
    lengths[-1] = n - starts[-1]
    return starts, lengths


def _row_sums(n_rows: int, idx: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """out[k] = the sum of every rows[i] with idx[i] == k.

    What np.add.at into zeros gives (up to summation order), without its
    per-row cost.
    """
    order = np.argsort(idx, kind="stable")
    sorted_idx = idx[order]
    # np.diff(prepend=) costs more than the rest on a few rows
    starts_run = np.ones(len(idx), dtype=bool)
    starts_run[1:] = sorted_idx[1:] != sorted_idx[:-1]
    first = np.flatnonzero(starts_run)
    out = np.zeros((n_rows, rows.shape[1]))
    out[sorted_idx[first]] = np.add.reduceat(rows[order], first, axis=0)
    return out


# Most rows in one packed pass. Past this a bigger pass saves no per-call
# overhead; its activations only add to peak memory and allocation cost.
PASS_ROWS = 512


_GAP_COUNTS = np.ones(WINDOW)  # any nonzero count serves a gap row


@lru_cache(maxsize=PASS_ROWS)
def _window_counts(n: int) -> np.ndarray:
    """How many rows the window of each row of an n-row sequence averages:
    min(i, WINDOW) + min(n - 1 - i, WINDOW) + 1 for row i."""
    i = np.arange(n)
    counts = np.minimum(i, WINDOW) + np.minimum(n - 1 - i, WINDOW) + 1.0
    counts.flags.writeable = False  # shared by every call through the cache
    return counts


def _passes(lengths, size: int):
    """(start, stop) runs of consecutive sequences, given their row counts,
    each at most ``size`` sequences and PASS_ROWS rows; a longer sequence
    runs alone."""
    start = rows = 0
    for i, length in enumerate(lengths):
        if i > start and (i - start == size or rows + length > PASS_ROWS):
            yield start, i
            start, rows = i, 0
        rows += length
    if start < len(lengths):
        yield start, len(lengths)


def _lengths(sequences) -> list[int]:
    return [len(ids) for ids, _ in sequences]


def pack(sequences) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lay (ids, code) sequences from ``ContextClassifier.sequences`` end
    to end, with no padding.

    Returns the concatenated ids, the concatenated track codes and the row
    at which each sequence starts.
    """
    lengths = _lengths(sequences)
    starts = np.zeros(len(lengths), dtype=np.intp)
    np.cumsum(lengths[:-1], out=starts[1:])
    ids = np.concatenate([ids for ids, _ in sequences])
    code = np.concatenate([code for _, code in sequences])
    return ids, code, starts


def _track_heads(gap: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """The track rows in front of a context after ``gap`` gap rows, by the
    length n of the disease, as (pos, neg and order): pos reads 1 on the
    disease, and all three read 0 on the gap and SEP rows."""
    return [(np.array([0] * gap + [1] * n + [0], dtype=np.uint8),
             np.zeros(gap + n + 1, dtype=np.uint8)) for n in range(MAX_DISEASE + 1)]


_FIRST_HEADS, _HEADS = _track_heads(0), _track_heads(WINDOW)
_TRACK_WEIGHTS = np.array([4, 2, 1])  # code = 4*pos + 2*neg + order


class CharWindowEncoder:
    """Trainable char embeddings averaged over a symmetric +/-WINDOW.

    Input is a packed batch: sequences end to end plus each one's start
    row. The window is clipped at the sequence's own ends, so one cumsum
    over the whole batch serves every sequence.
    """

    def __init__(self, vocab: CharVocab, embedding: np.ndarray):
        self.vocab = vocab
        self.embedding = embedding  # a row per id of ``vocab``

    def _bounds(self, n: int, starts: np.ndarray):
        idx = np.arange(n)
        starts, lengths = _segments(starts, n)
        first = np.repeat(starts, lengths)
        lo = np.maximum(first, idx - WINDOW)
        hi = np.minimum(first + np.repeat(lengths, lengths), idx + WINDOW + 1)
        return lo, hi

    def _window_sums(self, rows: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        csum = np.empty((len(rows) + 1, rows.shape[1]))
        csum[0] = 0.0
        np.cumsum(rows, axis=0, out=csum[1:])
        return csum[hi] - csum[lo]

    def encode(self, ids: np.ndarray, starts: np.ndarray) -> np.ndarray:
        lo, hi = self._bounds(len(ids), starts)
        return self._window_sums(self.embedding[ids], lo, hi) / (hi - lo)[:, None]

    def backward(self, ids: np.ndarray, d_h1: np.ndarray, starts: np.ndarray) -> np.ndarray:
        lo, hi = self._bounds(len(ids), starts)
        # window membership is symmetric inside a sequence
        d_rows = self._window_sums(d_h1 / (hi - lo)[:, None], lo, hi)
        return _row_sums(len(self.embedding), ids, d_rows)


def initial_params(shapes: dict[str, tuple[int, ...]], seed: int,
                   settings: dict[str, int]) -> dict[str, np.ndarray]:
    """Fresh parameters for a shape table: each matrix drawn from N(0, 0.1**2)
    in table order, each vector zero. The one place parameters are drawn.

    A shape numpy cannot allocate raises BadSetting naming ``settings``, the
    dimensions the table was computed from, and the shape."""
    rng = np.random.default_rng(seed)
    params: dict[str, np.ndarray] = {}
    for name, shape in shapes.items():
        try:
            params[name] = (rng.normal(0.0, 0.1, size=shape) if len(shape) == 2
                            else np.zeros(shape))
        except (MemoryError, ValueError) as exc:  # ValueError: more bytes than intp holds
            named = ", ".join(f"{key}={value}" for key, value in settings.items())
            raise BadSetting(f"{named}: parameter {name!r} of shape {shape} "
                             "cannot be allocated") from exc
    return params


def epoch_batches(n: int, size: int, epochs: int, seed: int):
    """Per epoch, the index batches of one pass over n items: one order of
    range(n), shuffled in place each epoch by one random.Random(seed), cut
    into batches of ``size`` (the last may be shorter)."""
    rng = random.Random(seed)
    order = list(range(n))
    for _ in range(epochs):
        rng.shuffle(order)
        yield [order[start : start + size] for start in range(0, n, size)]


class GatedFusionHead:
    """Parameters and forward/backward of the fusion-and-classify stack.

    Forward and backward take a packed batch (see CharWindowEncoder): the
    per-position math runs on all rows at once and pooling reduces each
    sequence's rows, so a batch of B sequences yields (B, len(LABELS)).
    """

    def __init__(self, p: dict[str, np.ndarray]):
        self.p = p  # keyed and shaped as ``shapes`` gives
        self.d_enc, self.d = p["W1"].shape

    @staticmethod
    def shapes(d_enc: int, d: int) -> dict[str, tuple[int, ...]]:
        """Each parameter's shape, in the order initial_params draws them."""
        return {"W1": (d_enc, d), "b1": (d,),
                "e_pos": (2, d), "e_neg": (2, d), "e_order": (2, d),
                "W_pos": (d, d), "W_neg": (d, d), "W_order": (d, d), "b_f": (d,),
                "W_fm": (2 * d, d), "b_fm": (d,), "W_g": (2 * d, d), "c_g": (d,),
                "W_y": (2 * d, len(LABELS)), "b_y": (len(LABELS),)}

    def forward(self, h1: np.ndarray, code: np.ndarray, starts: np.ndarray,
                return_cache: bool = False):
        """Class probabilities of the packed rows ``h1``, whose track codes
        (rows of ``_track_table``) are ``code``, one per row."""
        p = self.p
        n = h1.shape[0]
        if h1.shape[1] != self.d_enc:
            raise ShapeMismatch(f"encoder width {h1.shape[1]} != head d_enc {self.d_enc}")
        if len(code) != n:
            raise ShapeMismatch("track codes are not aligned with the encoding")
        starts, lengths = _segments(starts, n)

        u1 = h1 @ p["W1"] + p["b1"]
        h2 = np.maximum(u1, 0.0)
        f1 = np.maximum(self._track_table()[code], 0.0)
        z = np.concatenate([f1, h2], axis=1)
        u3 = z @ p["W_fm"] + p["b_fm"]
        h3 = np.tanh(u3)
        g = 1.0 / (1.0 + np.exp(-(z @ p["W_g"] + p["c_g"])))
        o = g * h3 + (1.0 - g) * h2
        c_max = np.maximum.reduceat(o, starts, axis=0)
        cvec = np.concatenate(
            [c_max, np.add.reduceat(o, starts, axis=0) / lengths[:, None]], axis=1)
        scores = cvec @ p["W_y"] + p["b_y"]
        exp = np.exp(scores - scores.max(axis=1, keepdims=True))
        probs = exp / exp.sum(axis=1, keepdims=True)
        if not return_cache:
            return probs
        # The max-pool gradient goes to each sequence's first maximal row.
        at_max = np.where(o == np.repeat(c_max, lengths, axis=0), np.arange(n)[:, None], n)
        cache = {"h1": h1, "h2": h2, "z": z, "h3": h3, "g": g, "o": o,
                 "imax": np.minimum.reduceat(at_max, starts, axis=0),
                 "cvec": cvec, "code": code, "lengths": lengths}
        return probs, cache

    def _track_table(self) -> np.ndarray:
        """uf for each of the 8 (pos, neg, order) bit triples, at row
        ``4*pos + 2*neg + order``.

        A track's contribution is a 2-row embedding lookup followed by a
        linear map, so the maps are applied to the embedding tables and the
        three lookups become one.
        """
        p = self.p
        table = ((p["e_pos"] @ p["W_pos"])[:, None, None]
                 + (p["e_neg"] @ p["W_neg"])[None, :, None]
                 + (p["e_order"] @ p["W_order"])[None, None, :] + p["b_f"])
        return table.reshape(8, self.d)

    def backward(self, cache: dict, d_scores: np.ndarray):
        """Gradients for every head parameter, summed over the batch, plus d(h1).

        ``d_scores`` holds one row per sequence.
        """
        p = self.p
        d = self.d
        lengths = cache["lengths"]
        grads = {}
        grads["W_y"] = cache["cvec"].T @ d_scores
        grads["b_y"] = d_scores.sum(axis=0)
        d_cvec = d_scores @ p["W_y"].T
        d_o = np.repeat(d_cvec[:, d:] / lengths[:, None], lengths, axis=0)
        d_o[cache["imax"], np.arange(d)] += d_cvec[:, :d]

        h2, h3, g = cache["h2"], cache["h3"], cache["g"]
        d_g = d_o * (h3 - h2)
        d_h3 = d_o * g
        d_h2 = d_o * (1.0 - g)

        d_u3 = d_h3 * (1.0 - h3 * h3)
        grads["W_fm"] = cache["z"].T @ d_u3
        grads["b_fm"] = d_u3.sum(axis=0)
        d_z = d_u3 @ p["W_fm"].T

        d_ug = d_g * g * (1.0 - g)
        grads["W_g"] = cache["z"].T @ d_ug
        grads["c_g"] = d_ug.sum(axis=0)
        d_z += d_ug @ p["W_g"].T

        d_f1 = d_z[:, :d]
        d_h2 += d_z[:, d:]

        d_uf = d_f1 * (cache["z"][:, :d] > 0.0)
        grads["b_f"] = d_uf.sum(axis=0)
        per_code = _row_sums(8, cache["code"], d_uf).reshape(2, 2, 2, d)
        for axis, name in enumerate(("pos", "neg", "order")):
            per_bit = per_code.sum(axis=tuple(a for a in range(3) if a != axis))
            grads[f"W_{name}"] = p[f"e_{name}"].T @ per_bit
            grads[f"e_{name}"] = per_bit @ p[f"W_{name}"].T

        d_u1 = d_h2 * (h2 > 0.0)
        grads["W1"] = cache["h1"].T @ d_u1
        grads["b1"] = d_u1.sum(axis=0)
        d_h1 = d_u1 @ p["W1"].T
        return grads, d_h1


def require_finite(value):
    """``value``, a loss or a parameter array, or DegenerateData when any of
    it is not finite: training diverged."""
    if not np.isfinite(value).all():
        raise DegenerateData("training diverged; try a lower learning rate")
    return value


def focal_loss(probs: np.ndarray, label_indices, gamma: float) -> np.ndarray:
    """-(1 - p)^gamma * log(p) with p clamped at 1e-12, one loss per row of
    ``probs``; row i's p is its entry at ``label_indices[i]``."""
    p = np.maximum(probs[np.arange(len(probs)), label_indices], 1e-12)
    return -((1.0 - p) ** gamma) * np.log(p)


def _focal_score_grad(probs: np.ndarray, label_indices: np.ndarray,
                      gamma: float) -> np.ndarray:
    """d(focal loss)/d(scores), one row per sample."""
    p_label = probs[np.arange(len(probs)), label_indices]
    p = np.clip(p_label, 1e-12, 1.0 - 1e-12)
    one_minus = 1.0 - p  # at gamma 0 the first term is -0.0 and the second 1 / p
    dldp = gamma * one_minus ** (gamma - 1.0) * np.log(p) - one_minus ** gamma / p
    onehot = np.zeros_like(probs)
    onehot[np.arange(len(probs)), label_indices] = 1.0
    return (dldp * p_label)[:, None] * (onehot - probs)


# ---------------------------------------------------------------------------
# Data augmentation
# ---------------------------------------------------------------------------


def augment_eda(sample: ContextSample, lexicons: FeatureLexicons,
                seed: int) -> list[ContextSample]:
    """Two perturbed copies: one with 5% of the context's length in character
    swaps, one with each character deleted with probability 0.1.

    Characters inside disease occurrences are protected: never swapped,
    never deleted. Tracks are recomputed on the perturbed context and the
    label is preserved.
    """
    rng = random.Random(seed)
    context = sample.context
    protected = np.zeros(len(context), dtype=bool)
    mark_occurrences(protected, context, sample.disease)
    free = [i for i in range(len(context)) if not protected[i]]

    chars = list(context)
    if len(free) >= 2:
        for _ in range(math.ceil(0.05 * len(context))):
            i, j = rng.sample(free, 2)
            chars[i], chars[j] = chars[j], chars[i]
    swapped = "".join(chars)

    kept = [ch for i, ch in enumerate(context)
            if protected[i] or rng.random() >= 0.1]
    deleted = "".join(kept)

    return assemble_features([(sample.disease, swapped), (sample.disease, deleted)],
                             lexicons, [sample.label] * 2)


def augment_disease_replace(sample: ContextSample, disease_pool, exclusion,
                            lexicons: FeatureLexicons, seed: int) -> list[ContextSample]:
    """Three copies with the disease swapped for another, at every occurrence.

    Replacements are drawn from the pool minus the exclusion list (chronic
    diseases that would falsify the label) minus the original disease.
    """
    excluded = set(exclusion.entries) | {sample.disease}
    candidates = [d for d in disease_pool.entries if d not in excluded]
    if not candidates:
        raise EmptyPool("no replacement diseases remain after exclusions")
    rng = random.Random(seed)
    windows = []
    for _ in range(3):
        replacement = candidates[rng.randrange(len(candidates))]
        windows.append((replacement, sample.context.replace(sample.disease, replacement)))
    return assemble_features(windows, lexicons, [sample.label] * 3)


# ---------------------------------------------------------------------------
# The trained classifier
# ---------------------------------------------------------------------------


@dataclass
class EpochStats:
    epoch: int
    loss: float
    dev_accuracy: float


class ContextClassifier:
    """Encoder + fusion head with classify/save/load and training support."""

    def __init__(self, encoder: CharWindowEncoder, head: GatedFusionHead,
                 config: TrainConfig):
        self.encoder = encoder
        self.head = head
        self.config = config

    # -- input assembly ---------------------------------------------------

    def packed_inputs(self, samples) -> tuple[np.ndarray, np.ndarray, list[int]]:
        """The samples laid end to end: the char ids of each (disease, SEP,
        context), aligned with them each row's track code ``4*pos + 2*neg +
        order`` (disease rows read 4, the SEP row 0), and each sample's row
        count. Between two samples sit WINDOW gap rows of code 0 whose id is
        one past every row of the embedding; ``classify`` runs its passes on
        this layout, and ``sequences`` cuts it into one view per sample.

        The one place a sample becomes rows, and so where its format (see
        ``features``) is checked, ValueError for a cap or track it breaks:
        one ``CharVocab.encode`` call over the joined texts and one
        concatenation of the tracks, whatever the number of samples.
        """
        texts, lengths, seps, gaps = [], [], [], []
        pos, neg, order = [], [], []
        row = 0
        for sample in samples:
            heads = _FIRST_HEADS
            if lengths:  # WINDOW gap rows before every sample but the first
                heads = _HEADS
                gaps += range(row, row + WINDOW)
                row += WINDOW
            n, m = len(sample.disease), len(sample.context)
            for name, length, cap in (("disease", n, MAX_DISEASE), ("context", m, MAX_CONTEXT)):
                if length > cap:
                    raise ValueError(f"{name} is longer than its cap of {cap} characters")
            tracks = sample.pos_track, sample.neg_track, sample.order_track
            for name, track in zip(TRACKS, tracks):
                if len(track) != m:
                    raise ValueError(f"{name} length {len(track)} != context length {m}")
            texts.append(f"{sample.disease}\0{sample.context}")
            lengths.append(n + 1 + m)
            seps.append(row + n)
            row += lengths[-1]
            pos_head, zero_head = heads[n]
            pos += (pos_head, tracks[0])
            neg += (zero_head, tracks[1])
            order += (zero_head, tracks[2])
        # "\0" holds the place of each SEP and gap row; those rows are then set
        ids = self.encoder.vocab.encode(("\0" * WINDOW).join(texts))
        ids[seps] = SEP_ID
        if gaps:  # an empty index still costs a microsecond
            ids[gaps] = len(self.encoder.embedding)
        tracks = np.concatenate(pos + neg + order or [np.zeros(0, dtype=np.uint8)])
        bad = np.flatnonzero(tracks != tracks.astype(bool))  # the cast reads 0.5 as 0
        if len(bad):  # the first, in a sample's track: a head row holds 0 or 1
            raise ValueError(f"{TRACKS[bad[0] // row]} holds {tracks[bad[0]]}; "
                             "a track holds only 0 and 1")
        return ids, _TRACK_WEIGHTS @ tracks.astype(np.intp).reshape(3, -1), lengths

    def sequences(self, samples) -> list[tuple[np.ndarray, np.ndarray]]:
        """Each sample's (ids, code) rows of ``packed_inputs``, as views, for
        ``loss_and_grads`` and ``_batched_probs``."""
        ids, code, lengths = self.packed_inputs(samples)
        starts = accumulate([length + WINDOW for length in lengths], initial=0)
        return [(ids[a:a + length], code[a:a + length]) for a, length in zip(starts, lengths)]

    # -- inference ----------------------------------------------------------

    def _probs(self, ids, code, starts) -> np.ndarray:
        return self.head.forward(self.encoder.encode(ids, starts), code, starts)

    def classify(self, *samples: ContextSample) -> list[tuple[str, float]]:
        """Each sample's most probable label and its probability, in order.

        Computes what ``_probs`` does, from the tables of ``_folded``: the
        character rows are averaged after the ``W1`` product, not before,
        and the feature half of the fusion input is one table row per
        position. One ``packed_inputs`` call, so one ``CharVocab.encode``
        whatever the number of samples, lays every sample out; they then
        run in passes of at most PASS_ROWS rows (a detect window has at
        most MAX_DISEASE + 1 + MAX_CONTEXT = 481), each a slice of that
        layout. Detect passes it the distinct samples of a chunk, closed at
        pipeline.STAGED_ROWS (32768) staged rows; a sample repeated in a
        later chunk is judged again. Each sample's probabilities are
        bit-identical to those of a call with that sample alone. The tables
        hold the parameters as they were at the first call. The tests hold
        it to ``oracles.context_forward``, ``_probs`` of one sample.
        """
        ids, code, lengths = self.packed_inputs(samples)
        judgments, row = [], 0
        for a, b in _passes(lengths, len(lengths)):
            end = row + sum(lengths[a:b]) + WINDOW * (b - a - 1)
            judgments += self._classify_pass(ids[row:end], code[row:end], lengths[a:b])
            row = end + WINDOW
        return judgments

    def _classify_pass(self, ids, code, lengths) -> list[tuple[str, float]]:
        """Judgments of the sequences of ``lengths`` rows each, laid out as
        ``packed_inputs`` lays them, WINDOW gap rows between two.

        The gap rows read the table's all-zero last row, so that the window
        sums add exact zeros across a boundary; they ride along to the
        pooling, which skips them.
        """
        char_rows, code_rows, mix, w_y, b_y = self._folded
        d = self.head.d
        counts = _window_counts(len(ids)) if len(lengths) == 1 else np.concatenate(
            [part for length in lengths for part in (_GAP_COUNTS, _window_counts(length))][1:])
        rows = char_rows[ids]
        # The rest works in place where it can: a pass's arrays are big
        # enough that each fresh one costs page faults.
        h2 = rows.copy()
        for k in range(1, WINDOW + 1):
            h2[k:] += rows[:-k]
            h2[:-k] += rows[k:]
        h2 /= counts[:, None]
        np.maximum(h2, 0.0, out=h2)
        u = h2 @ mix
        u += code_rows[code]
        g = np.negative(u[:, d:])  # g = 1 / (1 + exp(-u[:, d:]))
        np.exp(g, out=g)
        g += 1.0
        np.divide(1.0, g, out=g)
        o = np.tanh(u[:, :d])  # o = h2 + g * (tanh(u[:, :d]) - h2)
        o -= h2
        o *= g
        o += h2
        # [max-pool; mean-pool] per sequence, each its own slice's
        # reduction: np.add.reduceat adds in another order, which moves
        # the last bits
        cvec = np.empty((len(lengths), 2 * d))
        start = 0
        for row, length in zip(cvec, lengths):
            np.maximum.reduce(o[start:start + length], axis=0, out=row[:d])
            np.add.reduce(o[start:start + length], axis=0, out=row[d:])
            row[d:] /= length
            start += length + WINDOW
        # a vector-matrix product per sequence, as a lone sequence's is
        scores = np.matmul(cvec[:, None, :], w_y)[:, 0] + b_y
        # the softmax's top entry: exp(0) over the sum (the ufunc reductions
        # are what ndarray.max and .sum call, without their wrappers)
        probs = 1.0 / np.add.reduce(
            np.exp(scores - np.maximum.reduce(scores, axis=1, keepdims=True)), axis=1)
        return [(LABELS[top], prob)
                for top, prob in zip(scores.argmax(axis=1).tolist(), probs.tolist())]

    @cached_property
    def _folded(self) -> tuple[np.ndarray, ...]:
        """The products of ``classify``'s forward that depend only on the
        parameters, built at its first call:

        - ``embedding @ W1 + b1``, a row per character id, then a row of
          zeros;
        - ``f1 @ [W_fm[:d] | W_g[:d]] + [b_fm | c_g]``, a row per track code,
          where f1 is ``relu(GatedFusionHead._track_table())``;
        - ``[W_fm[d:] | W_g[d:]]``, the product of h2 with both halves;
        - copies of ``W_y`` and ``b_y``.
        """
        p, d = self.head.p, self.head.d
        char_rows = np.zeros((len(self.encoder.embedding) + 1, d))
        char_rows[:-1] = self.encoder.embedding @ p["W1"] + p["b1"]
        mix = np.concatenate([p["W_fm"], p["W_g"]], axis=1)
        code_rows = (np.maximum(self.head._track_table(), 0.0) @ mix[:d]
                     + np.concatenate([p["b_fm"], p["c_g"]]))
        return char_rows, code_rows, mix[d:], p["W_y"].copy(), p["b_y"].copy()

    # -- training -----------------------------------------------------------
    # These take sequences from ``sequences``, so a training set is encoded
    # once.

    def loss_and_grads(self, batch, label_indices):
        """Summed focal loss of a batch of sequences and its summed
        gradients: (loss, head gradients by name, embedding gradient).

        The batch runs as one packed forward and backward pass, or as
        several when it holds more than PASS_ROWS rows.
        """
        labels = np.asarray(label_indices, dtype=np.intp)
        parts = [self._packed_loss_and_grads(batch[a:b], labels[a:b])
                 for a, b in _passes(_lengths(batch), len(batch))]
        head_grads = {k: sum(part[1][k] for part in parts) for k in parts[0][1]}
        return sum(part[0] for part in parts), head_grads, sum(part[2] for part in parts)

    def _packed_loss_and_grads(self, batch, labels):
        ids, code, starts = pack(batch)
        gamma = self.config.focal_gamma
        h1 = self.encoder.encode(ids, starts)
        probs, cache = self.head.forward(h1, code, starts, return_cache=True)
        loss = require_finite(float(focal_loss(probs, labels, gamma).sum()))
        head_grads, d_h1 = self.head.backward(cache, _focal_score_grad(probs, labels, gamma))
        return loss, head_grads, self.encoder.backward(ids, d_h1, starts)

    def _batched_probs(self, sequences) -> np.ndarray:
        """Class probabilities, one row per sequence, in packed mini-batches."""
        return np.concatenate([self._probs(*pack(sequences[a:b]))
                               for a, b in _passes(_lengths(sequences),
                                                   self.config.batch_size)])

    # The two reductions take ``_batched_probs`` rows, so one forward pass
    # over a set serves both.

    def mean_loss(self, probs: np.ndarray, label_indices) -> float:
        return float(focal_loss(probs, np.asarray(label_indices, dtype=np.intp),
                                self.config.focal_gamma).mean())

    def accuracy(self, probs: np.ndarray, label_indices) -> float:
        return float(np.mean(np.argmax(probs, axis=1) == np.asarray(label_indices)))

    # -- persistence ----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        """Every parameter (not a copy) under its name in a model file."""
        return {"encoder.embedding": self.encoder.embedding,
                **{f"head.{k}": v for k, v in self.head.p.items()}}

    def save(self, path) -> None:
        write_model(path, "context", LABELS, "".join(self.encoder.vocab.chars), self.config,
                    {"d_enc": self.head.d_enc, "d": self.head.d}, self.arrays())

    @classmethod
    def load(cls, path) -> "ContextClassifier":
        vocab, config, arrays = read_model(
            path, "context", LABELS, TrainConfig, ("d_enc", "d"),
            lambda vocab, d_enc, d: {
                # the embedding's first two rows are UNK_ID and SEP_ID
                "encoder.embedding": (len(vocab) + 2, d_enc),
                **{f"head.{k}": s for k, s in GatedFusionHead.shapes(d_enc, d).items()}})
        encoder = CharWindowEncoder(CharVocab(list(vocab)), arrays.pop("encoder.embedding"))
        head = GatedFusionHead({k.removeprefix("head."): v for k, v in arrays.items()})
        return cls(encoder, head, config)


@np.errstate(over="ignore", invalid="ignore")  # require_finite refuses what overflows
def train(samples: list[ContextSample], config: TrainConfig,
          dev_samples: list[ContextSample] | None = None,
          d: int = 32, d_enc: int = 32,
          ) -> tuple[ContextClassifier, list[EpochStats]]:
    """Minimize mean focal loss with plain SGD; deterministic per seed.

    Per-epoch loss is the full-training-set loss measured after the
    epoch's updates; dev accuracy falls back to training accuracy when no
    dev split is given. Each evaluated set takes one forward pass per
    epoch: without a dev split the training set's pass gives both loss
    and accuracy. A dev split that is given must not be empty. A batch or
    epoch loss that is not finite raises DegenerateData. The encoder is
    drawn at ``config.seed``, the head at ``config.seed + 1``.
    """
    require_at_least({"d_enc": d_enc, "d": d}, d_enc=1, d=1)
    labels, every = [s.label for s in samples], [*samples, *(dev_samples or ())]
    if dev_samples is not None and not dev_samples:
        raise DegenerateData("the dev set is empty")
    for s in every:
        if s.label not in LABELS:
            raise DegenerateData("every training and dev sample needs a label" if s.label is None
                                 else f"unknown label {s.label!r}")
    missing = [lbl for lbl in LABELS if lbl not in labels]
    if missing:
        raise DegenerateData(f"classes absent from training data: {missing}")

    vocab = CharVocab.from_texts(s.disease + s.context for s in every)
    embedding = initial_params({"embedding": (len(vocab), d_enc)}, config.seed,
                               {"d_enc": d_enc})["embedding"]
    encoder = CharWindowEncoder(vocab, embedding)
    head = GatedFusionHead(initial_params(GatedFusionHead.shapes(d_enc, d), config.seed + 1,
                                          {"d_enc": d_enc, "d": d}))
    model = ContextClassifier(encoder, head, config)

    label_indices = [LABELS.index(lbl) for lbl in labels]
    sequences = model.sequences(samples)
    eval_labels = label_indices
    if dev_samples is not None:
        dev_sequences = model.sequences(dev_samples)
        eval_labels = [LABELS.index(s.label) for s in dev_samples]

    history: list[EpochStats] = []
    for epoch, batches in enumerate(epoch_batches(len(samples), config.batch_size,
                                                  config.epochs, config.seed)):
        for batch in batches:
            _, head_grads, enc_grad = model.loss_and_grads(
                [sequences[i] for i in batch], [label_indices[i] for i in batch])
            scale = config.learning_rate / len(batch)
            for key in head.p:
                head.p[key] -= scale * head_grads[key]
            encoder.embedding -= scale * enc_grad
        probs = model._batched_probs(sequences)
        eval_probs = probs if dev_samples is None else model._batched_probs(dev_sequences)
        history.append(EpochStats(
            epoch=epoch,
            loss=require_finite(model.mean_loss(probs, label_indices)),
            dev_accuracy=model.accuracy(eval_probs, eval_labels),
        ))
    return model, history


def load_training_samples(path, lexicons: FeatureLexicons) -> list[ContextSample]:
    """Read JSON-per-line {disease, context, label} training samples.

    The label may be left out. A malformed line, or an empty disease or
    context, raises ParseError with its line number. The file's samples
    are built in one assemble_features call once every line is checked.
    """
    windows, labels = [], []
    for line_no, line in read_lines(path):
        obj = parse_json_object(line, line_no, "sample")
        for key in ("disease", "context"):
            if not isinstance(obj.get(key), str):
                raise ParseError(f"{key} must be a string", line_no)
            if not obj[key]:
                raise ParseError(f"{key} is empty", line_no)
        label = obj.get("label")
        if label is not None and label not in LABELS:
            raise ParseError(f"unknown label {label!r}; expected one of "
                             f"{list(LABELS)}", line_no)
        windows.append((obj["disease"], obj["context"]))
        labels.append(label)
    return assemble_features(windows, lexicons, labels)
