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
seed. The encoder is pluggable; the reference is a trainable character
embedding followed by a symmetric windowed average.
"""

from __future__ import annotations

import math
import random
from dataclasses import asdict, dataclass

import numpy as np

from .core import decode_line, parse_json_object
from .errors import DegenerateData, EmptyPool, ParseError, ShapeMismatch
from .features import LABELS, ContextSample, FeatureLexicons, assemble_features
from .modelio import load_config, load_model, save_model

UNK_ID = 0
SEP_ID = 1


@dataclass
class TrainConfig:
    batch_size: int = 64
    learning_rate: float = 5e-5
    max_context: int = 450
    max_disease: int = 30
    focal_gamma: float = 2.0
    epochs: int = 5
    seed: int = 0


class CharVocab:
    """Deterministic character -> id map with reserved UNK and SEP slots."""

    def __init__(self, chars: list[str]):
        self.chars = list(chars)
        self._ids = {ch: i + 2 for i, ch in enumerate(self.chars)}

    @classmethod
    def from_texts(cls, texts) -> "CharVocab":
        seen = set()
        for text in texts:
            seen.update(text)
        return cls(sorted(seen))

    def __len__(self) -> int:
        return len(self.chars) + 2

    def encode(self, text: str) -> np.ndarray:
        return np.array([self._ids.get(ch, UNK_ID) for ch in text], dtype=np.intp)


def _segments(starts: np.ndarray | None, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Start rows and lengths of the sequences packed into ``n`` rows.

    ``starts`` of None means the rows hold a single sequence.
    """
    if starts is None:
        return np.zeros(1, dtype=np.intp), np.array([n])
    starts = np.asarray(starts, dtype=np.intp)
    return starts, np.diff(starts, append=n)


def _row_sums(n_rows: int, idx: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """out[k] = the sum of every rows[i] with idx[i] == k.

    What np.add.at into zeros gives (up to summation order), without its
    per-row cost.
    """
    order = np.argsort(idx, kind="stable")
    sorted_idx = idx[order]
    first = np.flatnonzero(np.diff(sorted_idx, prepend=-1))
    out = np.zeros((n_rows, rows.shape[1]))
    out[sorted_idx[first]] = np.add.reduceat(rows[order], first, axis=0)
    return out


# Most rows in one packed pass. Past this a bigger pass saves no per-call
# overhead; its activations only add to peak memory and allocation cost.
PASS_ROWS = 512


def _passes(sequences, size: int):
    """(start, stop) runs of consecutive sequences, each at most ``size``
    sequences and PASS_ROWS rows; a longer sequence runs alone."""
    start = rows = 0
    for i, (ids, _) in enumerate(sequences):
        if i > start and (i - start == size or rows + len(ids) > PASS_ROWS):
            yield start, i
            start, rows = i, 0
        rows += len(ids)
    if start < len(sequences):
        yield start, len(sequences)


def pack(sequences) -> tuple[np.ndarray, tuple[np.ndarray, ...], np.ndarray]:
    """Lay (ids, tracks) sequences end to end, with no padding.

    Returns the concatenated ids, the three concatenated tracks, and the
    row at which each sequence starts.
    """
    lengths = [len(ids) for ids, _ in sequences]
    starts = np.zeros(len(lengths), dtype=np.intp)
    np.cumsum(lengths[:-1], out=starts[1:])
    ids = np.concatenate([ids for ids, _ in sequences])
    tracks = tuple(np.concatenate([tr[t] for _, tr in sequences]) for t in range(3))
    return ids, tracks, starts


class CharWindowEncoder:
    """Trainable char embeddings averaged over a symmetric +/-window.

    Input is a packed batch: sequences end to end plus each one's start
    row. The window is clipped at the sequence's own ends, so one cumsum
    over the whole batch serves every sequence.
    """

    def __init__(self, vocab: CharVocab, d_enc: int = 32, window: int = 2, seed: int = 0):
        self.vocab = vocab
        self.d_enc = d_enc
        self.window = window
        rng = np.random.default_rng(seed)
        self.embedding = rng.normal(0.0, 0.1, size=(len(vocab), d_enc))

    def _bounds(self, n: int, starts: np.ndarray | None):
        idx = np.arange(n)
        starts, lengths = _segments(starts, n)
        first = np.repeat(starts, lengths)
        lo = np.maximum(first, idx - self.window)
        hi = np.minimum(first + np.repeat(lengths, lengths), idx + self.window + 1)
        return lo, hi

    def _window_sums(self, rows: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        csum = np.empty((len(rows) + 1, rows.shape[1]))
        csum[0] = 0.0
        np.cumsum(rows, axis=0, out=csum[1:])
        return csum[hi] - csum[lo]

    def encode(self, ids: np.ndarray, starts: np.ndarray | None = None) -> np.ndarray:
        lo, hi = self._bounds(len(ids), starts)
        return self._window_sums(self.embedding[ids], lo, hi) / (hi - lo)[:, None]

    def backward(self, ids: np.ndarray, d_h1: np.ndarray,
                 starts: np.ndarray | None = None) -> dict[str, np.ndarray]:
        lo, hi = self._bounds(len(ids), starts)
        # window membership is symmetric inside a sequence
        d_rows = self._window_sums(d_h1 / (hi - lo)[:, None], lo, hi)
        return {"embedding": _row_sums(len(self.embedding), ids, d_rows)}

    def params(self) -> dict[str, np.ndarray]:
        return {"embedding": self.embedding}


class GatedFusionHead:
    """Parameters and forward/backward of the fusion-and-classify stack.

    Forward and backward take a packed batch (see CharWindowEncoder): the
    per-position math runs on all rows at once and pooling reduces each
    sequence's rows, so a batch of B sequences yields (B, n_classes).
    """

    def __init__(self, d_enc: int, d: int = 32, d_f: int | None = None,
                 n_classes: int = 3, seed: int = 0):
        if d_f is None:
            d_f = d
        self.d_enc, self.d, self.d_f, self.n_classes = d_enc, d, d_f, n_classes
        rng = np.random.default_rng(seed)

        def mat(*shape):
            return rng.normal(0.0, 0.1, size=shape)

        self.p = {
            "W1": mat(d_enc, d), "b1": np.zeros(d),
            "e_pos": mat(2, d_f), "e_neg": mat(2, d_f), "e_order": mat(2, d_f),
            "W_pos": mat(d_f, d), "W_neg": mat(d_f, d), "W_order": mat(d_f, d),
            "b_f": np.zeros(d),
            "W_fm": mat(2 * d, d), "b_fm": np.zeros(d),
            "W_g": mat(2 * d, d), "c_g": np.zeros(d),
            "W_y": mat(2 * d, n_classes), "b_y": np.zeros(n_classes),
        }

    def forward(self, h1: np.ndarray, tracks: tuple[np.ndarray, np.ndarray, np.ndarray],
                starts: np.ndarray | None = None, return_cache: bool = False):
        p = self.p
        n = h1.shape[0]
        if h1.shape[1] != self.d_enc:
            raise ShapeMismatch(f"encoder width {h1.shape[1]} != head d_enc {self.d_enc}")
        if any(len(t) != n for t in tracks):
            raise ShapeMismatch("feature tracks are not aligned with the encoding")
        starts, lengths = _segments(starts, n)

        u1 = h1 @ p["W1"] + p["b1"]
        h2 = np.maximum(u1, 0.0)
        code = np.ravel_multi_index(tracks, (2, 2, 2))
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
        """uf for each of the 8 (pos, neg, order) bit triples.

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


def focal_loss(probs: np.ndarray, label_index, gamma: float):
    """-(1 - p)^gamma * log(p) with p clamped at 1e-12.

    ``probs`` is one distribution with an int label, or one row per sample
    with an array of labels (then one loss per row).
    """
    p = np.maximum(_label_probs(probs, label_index), 1e-12)
    return -((1.0 - p) ** gamma) * np.log(p)


def _label_probs(probs: np.ndarray, label_index):
    if probs.ndim == 1:
        return probs[label_index]
    return probs[np.arange(len(probs)), label_index]


def _focal_score_grad(probs: np.ndarray, label_indices: np.ndarray,
                      gamma: float) -> np.ndarray:
    """d(focal loss)/d(scores), one row per sample."""
    p_label = _label_probs(probs, label_indices)
    p = np.clip(p_label, 1e-12, 1.0 - 1e-12)
    if gamma == 0.0:
        dldp = -1.0 / p
    else:
        one_minus = 1.0 - p
        dldp = gamma * one_minus ** (gamma - 1.0) * np.log(p) - one_minus ** gamma / p
    onehot = np.zeros_like(probs)
    onehot[np.arange(len(probs)), label_indices] = 1.0
    return (dldp * p_label)[:, None] * (onehot - probs)


# ---------------------------------------------------------------------------
# Data augmentation
# ---------------------------------------------------------------------------


def augment_eda(sample: ContextSample, lexicons: FeatureLexicons, seed: int,
                swap_rate: float = 0.05, deletion_rate: float = 0.1,
                **assemble_kwargs) -> list[ContextSample]:
    """Two perturbed copies: one character-swap variant, one deletion variant.

    Characters inside disease occurrences are protected: never swapped,
    never deleted. Tracks are recomputed on the perturbed context and the
    label is preserved.
    """
    rng = random.Random(seed)
    context = sample.context
    protected = sample.pos_track.astype(bool)
    free = [i for i in range(len(context)) if not protected[i]]

    chars = list(context)
    if len(free) >= 2:
        for _ in range(math.ceil(swap_rate * len(context))):
            i, j = rng.sample(free, 2)
            chars[i], chars[j] = chars[j], chars[i]
    swapped = "".join(chars)

    kept = [ch for i, ch in enumerate(context)
            if protected[i] or rng.random() >= deletion_rate]
    deleted = "".join(kept)

    return [
        assemble_features(sample.disease, text, lexicons, label=sample.label,
                          **assemble_kwargs)
        for text in (swapped, deleted)
    ]


def augment_disease_replace(sample: ContextSample, disease_pool, exclusion,
                            lexicons: FeatureLexicons, seed: int, n: int = 3,
                            **assemble_kwargs) -> list[ContextSample]:
    """n copies with the disease swapped for another, at every occurrence.

    Replacements are drawn from the pool minus the exclusion list (chronic
    diseases that would falsify the label) minus the original disease.
    """
    excluded = set(exclusion.entries) | {sample.disease}
    candidates = [d for d in disease_pool.entries if d not in excluded]
    if not candidates:
        raise EmptyPool("no replacement diseases remain after exclusions")
    rng = random.Random(seed)
    variants = []
    for _ in range(n):
        replacement = candidates[rng.randrange(len(candidates))]
        new_context = sample.context.replace(sample.disease, replacement)
        variants.append(
            assemble_features(replacement, new_context, lexicons,
                              label=sample.label, **assemble_kwargs)
        )
    return variants


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

    def inputs(self, sample: ContextSample) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
        """The sample as one sequence: char ids of (disease, SEP, context) and
        the three 0/1 tracks aligned with them."""
        disease = sample.disease[: self.config.max_disease]
        context = sample.context[: self.config.max_context]
        ids = np.concatenate([
            self.encoder.vocab.encode(disease),
            np.array([SEP_ID], dtype=np.intp),
            self.encoder.vocab.encode(context),
        ])

        def extend(track, prefix_bit):
            return np.concatenate([
                np.full(len(disease), prefix_bit, dtype=np.uint8),
                np.zeros(1, dtype=np.uint8),
                np.asarray(track[: len(context)], dtype=np.uint8),
            ])

        tracks = (extend(sample.pos_track, 1),
                  extend(sample.neg_track, 0),
                  extend(sample.order_track, 0))
        return ids, tracks

    # -- inference ----------------------------------------------------------

    def _probs(self, ids, tracks, starts=None) -> np.ndarray:
        return self.head.forward(self.encoder.encode(ids, starts), tracks, starts)

    def forward(self, sample: ContextSample) -> np.ndarray:
        return self._probs(*self.inputs(sample))[0]

    def classify(self, sample: ContextSample,
                 record_id: str | None = None) -> tuple[str, float]:
        """The most probable label and its probability; record_id is
        accepted and ignored."""
        probs = self.forward(sample)
        idx = int(np.argmax(probs))
        return LABELS[idx], float(probs[idx])

    # -- training -----------------------------------------------------------
    # These take sequences from ``inputs``, so a training set is encoded once.

    def loss_and_grads(self, batch, label_indices):
        """Summed focal loss of a batch of sequences and its summed gradients.

        The batch runs as one packed forward and backward pass, or as
        several when it holds more than PASS_ROWS rows.
        """
        labels = np.asarray(label_indices, dtype=np.intp)
        parts = [self._packed_loss_and_grads(batch[a:b], labels[a:b])
                 for a, b in _passes(batch, len(batch))]
        head_grads = {k: sum(part[1][k] for part in parts) for k in parts[0][1]}
        return (sum(part[0] for part in parts), head_grads,
                {"embedding": sum(part[2] for part in parts)})

    def _packed_loss_and_grads(self, batch, labels):
        ids, tracks, starts = pack(batch)
        gamma = self.config.focal_gamma
        h1 = self.encoder.encode(ids, starts)
        probs, cache = self.head.forward(h1, tracks, starts, return_cache=True)
        loss = float(focal_loss(probs, labels, gamma).sum())
        head_grads, d_h1 = self.head.backward(cache, _focal_score_grad(probs, labels, gamma))
        return loss, head_grads, self.encoder.backward(ids, d_h1, starts)["embedding"]

    def _batched_probs(self, sequences) -> np.ndarray:
        """Class probabilities, one row per sequence, in packed mini-batches."""
        return np.concatenate([self._probs(*pack(sequences[a:b]))
                               for a, b in _passes(sequences, self.config.batch_size)])

    def mean_loss(self, sequences, label_indices) -> float:
        probs = self._batched_probs(sequences)
        return float(focal_loss(probs, np.asarray(label_indices, dtype=np.intp),
                                self.config.focal_gamma).mean())

    def accuracy(self, sequences, label_indices) -> float:
        probs = self._batched_probs(sequences)
        return float(np.mean(np.argmax(probs, axis=1) == np.asarray(label_indices)))

    def named_params(self):
        for name, arr in self.head.p.items():
            yield f"head.{name}", arr
        yield "encoder.embedding", self.encoder.embedding

    # -- persistence ----------------------------------------------------------

    def save(self, path) -> None:
        meta = {
            "vocab": "".join(self.encoder.vocab.chars),
            "d_enc": self.encoder.d_enc,
            "window": self.encoder.window,
            "d": self.head.d,
            "d_f": self.head.d_f,
            "n_classes": self.head.n_classes,
            "labels": list(LABELS),
            "config": asdict(self.config),
        }
        arrays = {f"head.{k}": v for k, v in self.head.p.items()}
        arrays["encoder.embedding"] = self.encoder.embedding
        save_model(path, "context", meta, arrays)

    @classmethod
    def load(cls, path) -> "ContextClassifier":
        meta, arrays = load_model(path, "context")
        vocab = CharVocab(list(meta["vocab"]))
        encoder = CharWindowEncoder(vocab, d_enc=meta["d_enc"], window=meta["window"])
        encoder.embedding = arrays["encoder.embedding"]
        head = GatedFusionHead(d_enc=meta["d_enc"], d=meta["d"], d_f=meta["d_f"],
                               n_classes=meta["n_classes"])
        for key in head.p:
            head.p[key] = arrays[f"head.{key}"]
        config = load_config(meta, TrainConfig)
        return cls(encoder, head, config)


def train(samples: list[ContextSample], config: TrainConfig,
          encoder: CharWindowEncoder | None = None,
          dev_samples: list[ContextSample] | None = None,
          d: int = 32, d_enc: int = 32,
          ) -> tuple[ContextClassifier, list[EpochStats]]:
    """Minimize mean focal loss with plain SGD; deterministic per seed.

    Per-epoch loss is the full-training-set loss measured after the
    epoch's updates; dev accuracy falls back to training accuracy when no
    dev split is given.
    """
    labels = [s.label for s in samples]
    if any(s.label is None for s in [*samples, *(dev_samples or ())]):
        raise DegenerateData("every training and dev sample needs a label")
    present = set(labels)
    missing = [lbl for lbl in LABELS if lbl not in present]
    if missing:
        raise DegenerateData(f"classes absent from training data: {missing}")

    if encoder is None:
        texts = [s.disease for s in samples] + [s.context for s in samples]
        if dev_samples:
            texts += [s.disease for s in dev_samples] + [s.context for s in dev_samples]
        vocab = CharVocab.from_texts(texts)
        encoder = CharWindowEncoder(vocab, d_enc=d_enc, seed=config.seed)
    head = GatedFusionHead(d_enc=encoder.d_enc, d=d, seed=config.seed + 1)
    model = ContextClassifier(encoder, head, config)

    label_indices = [LABELS.index(lbl) for lbl in labels]
    sequences = [model.inputs(s) for s in samples]
    eval_sequences, eval_labels = sequences, label_indices
    if dev_samples:
        eval_sequences = [model.inputs(s) for s in dev_samples]
        eval_labels = [LABELS.index(s.label) for s in dev_samples]

    rng = random.Random(config.seed)
    order = list(range(len(samples)))
    history: list[EpochStats] = []
    for epoch in range(config.epochs):
        rng.shuffle(order)
        for batch_start in range(0, len(order), config.batch_size):
            batch = order[batch_start : batch_start + config.batch_size]
            _, head_grads, enc_grads = model.loss_and_grads(
                [sequences[i] for i in batch], [label_indices[i] for i in batch])
            scale = config.learning_rate / len(batch)
            for key in head.p:
                head.p[key] -= scale * head_grads[key]
            encoder.embedding -= scale * enc_grads["embedding"]
        history.append(EpochStats(
            epoch=epoch,
            loss=model.mean_loss(sequences, label_indices),
            dev_accuracy=model.accuracy(eval_sequences, eval_labels),
        ))
    return model, history


def load_training_samples(path, lexicons: FeatureLexicons,
                          **assemble_kwargs) -> list[ContextSample]:
    """Read JSON-per-line {disease, context, label} training samples.

    The label may be left out. A malformed line raises ParseError with its
    line number.
    """
    samples = []
    with open(path, "rb") as handle:
        for line_no, raw in enumerate(handle, start=1):
            line = decode_line(raw, line_no)
            if not line:
                continue
            obj = parse_json_object(line, line_no, "sample")
            for key in ("disease", "context"):
                if not isinstance(obj.get(key), str):
                    raise ParseError(f"{key} must be a string", line_no)
            label = obj.get("label")
            if label is not None and label not in LABELS:
                raise ParseError(f"unknown label {label!r}; expected one of "
                                 f"{list(LABELS)}", line_no)
            samples.append(assemble_features(
                obj["disease"], obj["context"], lexicons,
                label=label, **assemble_kwargs))
    return samples
