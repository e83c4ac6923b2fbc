"""Stage 3: decide how two disease names relate.

Training happens in two phases, mirroring how the pair data is made:

1. Contrastive pretraining on pairs mined from coded records and the ICD
   tree. Anchored at the batch's positive pairs, the objective is
   in-batch InfoNCE at temperature tau; every pair's right-hand name in
   the batch (positive or negative) serves as a candidate, so mined
   negatives act as hard negatives in the denominator.
2. Supervised fine-tuning of a 5-class softmax head over the joint
   representation [u; v; |u-v|; u*v] with cross-entropy.

The name encoder is a trainable character-embedding table with mean
pooling; gradients are hand-written numpy, deterministic per seed.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import asdict, dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .core import IcdIndex, normalize_disease_name
from .errors import (
    DegenerateBatch,
    DegenerateData,
    EmptyName,
    InsufficientCodes,
    ParseError,
    UnknownCode,
)
from .modelio import load_config, load_model, save_model

RELATIONS = ("similarity", "inclusion", "secondary", "irrelevance", "other")

# Names per pass when one name is scored against a list: bounds the
# temporaries (about 1 KiB per row at d_pair 32) so a whole ICD table is
# never held at once.
BLOCK_ROWS = 256

# Relations whose truth value does not depend on argument order.
SYMMETRIC_RELATIONS = frozenset({"similarity", "irrelevance", "other"})


class PairSource(Enum):
    CODING_PAIR = "coding_pair"
    SAME_LIST = "same_list"
    ICD_SIBLING = "icd_sibling"
    RANDOM_NEG = "random_neg"
    BACK_TRANSLATION = "back_translation"
    ANNOTATED = "annotated"


_POLARITY = {
    PairSource.CODING_PAIR: "same",
    PairSource.BACK_TRANSLATION: "same",
    PairSource.SAME_LIST: "dissimilar",
    PairSource.ICD_SIBLING: "dissimilar",
    PairSource.RANDOM_NEG: "dissimilar",
}


@dataclass(frozen=True)
class DiseasePair:
    a: str
    b: str
    source: PairSource
    relation: str | None = None

    def __post_init__(self):
        if not self.a or not self.b:
            raise ValueError("pair names must be non-empty")
        if self.relation is not None and self.relation not in RELATIONS:
            raise ValueError(f"unknown relation {self.relation!r}")

    @property
    def polarity(self) -> str | None:
        return _POLARITY.get(self.source)

    @property
    def key(self) -> frozenset[str]:
        return frozenset((self.a, self.b))


# ---------------------------------------------------------------------------
# Pretraining-pair generators
# ---------------------------------------------------------------------------


def gen_positive_coding_pairs(coded_records, icd: IcdIndex) -> list[DiseasePair]:
    """(clinical name, ICD standard title) positives, deduplicated."""
    pairs: list[DiseasePair] = []
    seen: set[tuple[str, str]] = set()
    for clinical_name, code in coded_records:
        entry = icd.get(code)
        if entry is None:
            raise UnknownCode(f"code {code!r} not in the ICD table")
        a = normalize_disease_name(clinical_name)
        b = normalize_disease_name(entry.title)
        if (a, b) not in seen:
            seen.add((a, b))
            pairs.append(DiseasePair(a=a, b=b, source=PairSource.CODING_PAIR))
    return pairs


def gen_negative_same_list(records, exclude_pairs=frozenset()) -> list[DiseasePair]:
    """Unordered pairs of distinct diagnoses sharing one discharge list."""
    exclude = {frozenset(p) for p in exclude_pairs} if exclude_pairs else set()
    pairs: list[DiseasePair] = []
    seen: set[frozenset[str]] = set()
    for record in records:
        names = []
        for raw in record.discharge_diagnoses:
            name = normalize_disease_name(raw)
            if name not in names:
                names.append(name)
        for i in range(len(names)):
            for j in range(i + 1, len(names)):
                key = frozenset((names[i], names[j]))
                if key in seen or key in exclude:
                    continue
                seen.add(key)
                pairs.append(DiseasePair(a=names[i], b=names[j],
                                         source=PairSource.SAME_LIST))
    return pairs


def gen_negative_icd_siblings(icd: IcdIndex, sibling_scope: str = "same_depth") -> list[DiseasePair]:
    """Title pairs of ICD codes that sit side by side in the tree.

    same_depth: equal-depth codes sharing their immediate parent prefix.
    same_category: any two codes under one 3-digit category, minus
    ancestor-descendant pairs (those are inclusion, not dissimilarity).
    """
    if sibling_scope not in ("same_depth", "same_category"):
        raise ValueError(f"unknown sibling_scope {sibling_scope!r}")
    entries = icd.entries()
    groups: dict[tuple, list] = {}
    if sibling_scope == "same_depth":
        for entry in entries:
            parent = entry.parent_code
            if parent is not None:
                groups.setdefault((entry.depth, parent), []).append(entry)
    else:
        for entry in entries:
            groups.setdefault((entry.code[:3],), []).append(entry)
    pairs: list[DiseasePair] = []
    seen: set[frozenset[str]] = set()
    for key in sorted(groups):
        members = groups[key]
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                ea, eb = members[i], members[j]
                if ea.code.startswith(eb.code) or eb.code.startswith(ea.code):
                    continue  # ancestor-descendant, never a negative
                a = normalize_disease_name(ea.title)
                b = normalize_disease_name(eb.title)
                if a == b:
                    continue
                pair_key = frozenset((a, b))
                if pair_key in seen:
                    continue
                seen.add(pair_key)
                pairs.append(DiseasePair(a=a, b=b, source=PairSource.ICD_SIBLING))
    return pairs


def gen_negative_random(icd: IcdIndex, n: int, seed: int,
                        exclude_pairs=frozenset()) -> list[DiseasePair]:
    """n title pairs of codes with distinct 3-digit prefixes."""
    codes = icd.codes()
    prefixes = {c[:3] for c in codes}
    if len(prefixes) < 2:
        raise InsufficientCodes(
            f"need codes under >= 2 distinct categories, have {len(prefixes)}")
    exclude = {frozenset(p) for p in exclude_pairs} if exclude_pairs else set()
    rng = random.Random(seed)
    pairs: list[DiseasePair] = []
    attempts = 0
    limit = max(1000, 200 * n)
    while len(pairs) < n:
        attempts += 1
        if attempts > limit:
            raise InsufficientCodes("could not sample enough cross-prefix pairs")
        ca = codes[rng.randrange(len(codes))]
        cb = codes[rng.randrange(len(codes))]
        if ca[:3] == cb[:3]:
            continue
        a = normalize_disease_name(icd.get(ca).title)
        b = normalize_disease_name(icd.get(cb).title)
        if a == b or frozenset((a, b)) in exclude:
            continue
        pairs.append(DiseasePair(a=a, b=b, source=PairSource.RANDOM_NEG))
    return pairs


def load_back_translation_pairs(path: str | Path) -> list[DiseasePair]:
    """Positive pairs produced by an external paraphrase step.

    The file holds one ``name<TAB>paraphrase`` per line; no translation
    machinery ships with the package. A line without a tab, or with a
    name that normalizes to empty, raises ParseError with its line.
    """
    pairs = []
    with open(path, encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) < 2:
                raise ParseError("expected name<TAB>paraphrase", line_no)
            try:
                pairs.append(DiseasePair(a=normalize_disease_name(fields[0]),
                                         b=normalize_disease_name(fields[1]),
                                         source=PairSource.BACK_TRANSLATION))
            except EmptyName as exc:
                raise ParseError(str(exc), line_no)
    return pairs


def drop_conflicts(negatives: list[DiseasePair],
                   positives: list[DiseasePair]) -> list[DiseasePair]:
    """Remove negatives whose unordered pair also appears as a positive."""
    positive_keys = {p.key for p in positives}
    return [p for p in negatives if p.key not in positive_keys]


# ---------------------------------------------------------------------------
# Pair file I/O: a<TAB>b<TAB>label_or_polarity<TAB>source
# ---------------------------------------------------------------------------


def save_pairs(pairs, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, delimiter="\t", lineterminator="\n")
        for pair in pairs:
            tag = pair.relation if pair.relation else (pair.polarity or "")
            writer.writerow([pair.a, pair.b, tag, pair.source.value])


def load_pairs(path: str | Path) -> list[DiseasePair]:
    """Read a pair file; a malformed row raises ParseError with its line."""
    pairs = []
    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle, delimiter="\t")
        for row in reader:
            if not row or row[0].startswith("#"):
                continue
            if len(row) < 4:
                raise ParseError(f"expected 4 tab-separated fields, got {len(row)}",
                                 reader.line_num)
            a, b, tag = row[0], row[1], row[2]
            relation = tag if tag in RELATIONS else None
            try:
                pairs.append(DiseasePair(a=normalize_disease_name(a),
                                         b=normalize_disease_name(b),
                                         source=PairSource(row[3]), relation=relation))
            except (ValueError, EmptyName) as exc:
                raise ParseError(str(exc), reader.line_num)
    return pairs


# ---------------------------------------------------------------------------
# Encoder and training
# ---------------------------------------------------------------------------


@dataclass
class PairTrainConfig:
    batch_size: int = 256
    learning_rate: float = 5e-5
    max_name: int = 50
    tau: float = 0.05
    pretrain_learning_rate: float = 1e-6
    hidden: int = 64
    epochs: int = 5
    seed: int = 0


class PairEncoder:
    """Mean-pooled character embeddings; embed() is deterministic."""

    UNK_ID = 0

    def __init__(self, chars: list[str], d_pair: int = 32, seed: int = 0):
        self.chars = list(chars)
        self._ids = {ch: i + 1 for i, ch in enumerate(self.chars)}
        self.d_pair = d_pair
        rng = np.random.default_rng(seed)
        self.embedding = rng.normal(0.0, 0.1, size=(len(self.chars) + 1, d_pair))

    @classmethod
    def from_names(cls, names, d_pair: int = 32, seed: int = 0) -> "PairEncoder":
        seen = set()
        for name in names:
            seen.update(name)
        return cls(sorted(seen), d_pair=d_pair, seed=seed)

    def encode_ids(self, name: str, max_name: int = 50) -> np.ndarray:
        return np.array([self._ids.get(ch, self.UNK_ID) for ch in name[:max_name]],
                        dtype=np.intp)

    def embed(self, name: str, max_name: int = 50) -> np.ndarray:
        ids = self.encode_ids(name, max_name)
        return self.embedding[ids].mean(axis=0)

    def embed_many(self, names: list[str], max_name: int = 50) -> np.ndarray:
        """One embed() row per name, in one pass: the names' characters are
        packed end to end, looked up together, and mean-pooled name by
        name."""
        clipped = [name[:max_name] for name in names]
        lengths = np.array([len(name) for name in clipped], dtype=np.intp)
        if not clipped or lengths.min() == 0:
            raise ValueError("embed_many needs one or more non-empty names")
        char_ids = np.array([self._ids.get(ch, self.UNK_ID) for ch in "".join(clipped)],
                            dtype=np.intp)
        starts = np.concatenate(([0], np.cumsum(lengths[:-1])))
        return np.add.reduceat(self.embedding[char_ids], starts, axis=0) / lengths[:, None]

    def backward_into(self, grad_table: np.ndarray, ids: np.ndarray,
                      d_vec: np.ndarray) -> None:
        np.add.at(grad_table, ids, np.tile(d_vec / len(ids), (len(ids), 1)))


def info_nce_batch_loss(encoder: PairEncoder, batch: list[DiseasePair],
                        tau: float, max_name: int = 50,
                        with_grads: bool = False):
    """In-batch InfoNCE over the batch's positive anchors.

    Returns the mean anchor loss, and optionally the gradient of the
    encoder embedding table.
    """
    anchors = [k for k, p in enumerate(batch) if p.polarity == "same"]
    if len(anchors) < 2:
        raise DegenerateBatch(
            f"batch has {len(anchors)} positive pairs, need >= 2")
    ids_a = [encoder.encode_ids(p.a, max_name) for p in batch]
    ids_b = [encoder.encode_ids(p.b, max_name) for p in batch]
    u = np.stack([encoder.embedding[i].mean(axis=0) for i in ids_a])
    v = np.stack([encoder.embedding[i].mean(axis=0) for i in ids_b])
    u_norm = np.maximum(np.linalg.norm(u, axis=1, keepdims=True), 1e-12)
    v_norm = np.maximum(np.linalg.norm(v, axis=1, keepdims=True), 1e-12)
    u_hat, v_hat = u / u_norm, v / v_norm

    sims = u_hat[anchors] @ v_hat.T  # (n_anchors, batch)
    logits = sims / tau
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    softmax = exp / exp.sum(axis=1, keepdims=True)
    log_probs = shifted - np.log(exp.sum(axis=1, keepdims=True))
    own = np.array(anchors)
    loss = float(-log_probs[np.arange(len(anchors)), own].mean())
    if not with_grads:
        return loss

    d_sims = softmax.copy()
    d_sims[np.arange(len(anchors)), own] -= 1.0
    d_sims /= tau * len(anchors)

    d_u_hat_anchors = d_sims @ v_hat  # (n_anchors, d)
    d_v_hat = d_sims.T @ u_hat[anchors]  # (batch, d)

    grad = np.zeros_like(encoder.embedding)
    for row, k in enumerate(anchors):
        duh = d_u_hat_anchors[row]
        du = (duh - u_hat[k] * (duh @ u_hat[k])) / u_norm[k, 0]
        encoder.backward_into(grad, ids_a[k], du)
    for k in range(len(batch)):
        dvh = d_v_hat[k]
        dv = (dvh - v_hat[k] * (dvh @ v_hat[k])) / v_norm[k, 0]
        encoder.backward_into(grad, ids_b[k], dv)
    return loss, grad


def _fixed_batches(n: int, batch_size: int) -> list[list[int]]:
    return [list(range(i, min(i + batch_size, n))) for i in range(0, n, batch_size)]


def eval_contrastive_loss(encoder: PairEncoder, pairs: list[DiseasePair],
                          config: PairTrainConfig) -> float:
    """Objective over a fixed, unshuffled batching (for epoch tracking)."""
    losses = []
    for batch_ids in _fixed_batches(len(pairs), config.batch_size):
        batch = [pairs[i] for i in batch_ids]
        if sum(1 for p in batch if p.polarity == "same") < 2:
            continue
        losses.append(info_nce_batch_loss(encoder, batch, config.tau,
                                          config.max_name))
    if not losses:
        raise DegenerateBatch("no batch holds >= 2 positive pairs")
    return sum(losses) / len(losses)


def contrastive_pretrain(pairs: list[DiseasePair], encoder: PairEncoder,
                         config: PairTrainConfig) -> tuple[PairEncoder, list[float]]:
    """SGD on the InfoNCE objective; returns per-epoch evaluation losses."""
    if sum(1 for p in pairs if p.polarity == "same") < 2:
        raise DegenerateBatch("need >= 2 positive pairs to pretrain")
    rng = random.Random(config.seed)
    order = list(range(len(pairs)))
    history: list[float] = []
    for _ in range(config.epochs):
        rng.shuffle(order)
        for batch_ids in _fixed_batches(len(order), config.batch_size):
            batch = [pairs[order[i]] for i in batch_ids]
            if sum(1 for p in batch if p.polarity == "same") < 2:
                continue
            _, grad = info_nce_batch_loss(encoder, batch, config.tau,
                                          config.max_name, with_grads=True)
            encoder.embedding -= config.pretrain_learning_rate * grad
        history.append(eval_contrastive_loss(encoder, pairs, config))
    return encoder, history


# ---------------------------------------------------------------------------
# 5-class fine-tuned classifier
# ---------------------------------------------------------------------------


class RelationClassifier:
    """Encoder + MLP head over the joint pair representation."""

    def __init__(self, encoder: PairEncoder, config: PairTrainConfig,
                 seed: int | None = None):
        self.encoder = encoder
        self.config = config
        d = encoder.d_pair
        rng = np.random.default_rng(config.seed if seed is None else seed)
        self.W_h = rng.normal(0.0, 0.1, size=(4 * d, config.hidden))
        self.b_h = np.zeros(config.hidden)
        self.W_o = rng.normal(0.0, 0.1, size=(config.hidden, len(RELATIONS)))
        self.b_o = np.zeros(len(RELATIONS))

    def _head(self, u: np.ndarray, v: np.ndarray):
        """Probabilities over RELATIONS for u against v, over the last axis:
        one pair when v is a vector, one row per name when v is a matrix.
        Returns the intermediates too, for the backward pass."""
        if v.ndim > 1:
            u = np.broadcast_to(u, v.shape)
        joint = np.concatenate([u, v, np.abs(u - v), u * v], axis=-1)
        pre = joint @ self.W_h + self.b_h
        hidden = np.maximum(pre, 0.0)
        logits = hidden @ self.W_o + self.b_o
        shifted = logits - logits.max(axis=-1, keepdims=True)
        exp = np.exp(shifted)
        probs = exp / exp.sum(axis=-1, keepdims=True)
        return probs, joint, pre, hidden

    def _forward(self, a: str, b: str, with_cache: bool = False):
        max_name = self.config.max_name
        ids_a = self.encoder.encode_ids(a, max_name)
        ids_b = self.encoder.encode_ids(b, max_name)
        u = self.encoder.embedding[ids_a].mean(axis=0)
        v = self.encoder.embedding[ids_b].mean(axis=0)
        probs, joint, pre, hidden = self._head(u, v)
        if not with_cache:
            return probs
        return probs, {"ids_a": ids_a, "ids_b": ids_b, "u": u, "v": v,
                       "joint": joint, "pre": pre, "hidden": hidden}

    def predict_proba(self, a: str, b: str | list[str]) -> np.ndarray:
        """(5,) probabilities for one name b, or (len(b), 5) for a list of
        names, scored BLOCK_ROWS names at a time."""
        a = normalize_disease_name(a)
        if isinstance(b, str):
            return self._forward(a, normalize_disease_name(b))
        names = [normalize_disease_name(name) for name in b]
        max_name = self.config.max_name
        u = self.encoder.embed(a, max_name)
        probs = np.empty((len(names), len(RELATIONS)))
        for start in range(0, len(names), BLOCK_ROWS):
            v = self.encoder.embed_many(names[start : start + BLOCK_ROWS], max_name)
            probs[start : start + BLOCK_ROWS] = self._head(u, v)[0]
        return probs

    def predict(self, a: str, b: str) -> tuple[str, float]:
        """The most probable relation of a to b and its probability."""
        probs = self.predict_proba(a, b)
        idx = int(np.argmax(probs))
        return RELATIONS[idx], float(probs[idx])

    def _step(self, a: str, b: str, label_index: int, lr: float) -> float:
        probs, cache = self._forward(a, b, with_cache=True)
        loss = -math.log(max(float(probs[label_index]), 1e-12))
        d_logits = probs.copy()
        d_logits[label_index] -= 1.0

        d_W_o = np.outer(cache["hidden"], d_logits)
        d_hidden = self.W_o @ d_logits
        d_pre = d_hidden * (cache["pre"] > 0.0)
        d_W_h = np.outer(cache["joint"], d_pre)
        d_joint = self.W_h @ d_pre

        d = self.encoder.d_pair
        u, v = cache["u"], cache["v"]
        sign = np.sign(u - v)
        du = d_joint[:d] + sign * d_joint[2 * d : 3 * d] + v * d_joint[3 * d :]
        dv = d_joint[d : 2 * d] - sign * d_joint[2 * d : 3 * d] + u * d_joint[3 * d :]

        self.W_o -= lr * d_W_o
        self.b_o -= lr * d_logits
        self.W_h -= lr * d_W_h
        self.b_h -= lr * d_pre
        grad_table = np.zeros_like(self.encoder.embedding)
        self.encoder.backward_into(grad_table, cache["ids_a"], du)
        self.encoder.backward_into(grad_table, cache["ids_b"], dv)
        self.encoder.embedding -= lr * grad_table
        return loss

    def save(self, path) -> None:
        meta = {
            "vocab": "".join(self.encoder.chars),
            "d_pair": self.encoder.d_pair,
            "labels": list(RELATIONS),
            "config": asdict(self.config),
        }
        arrays = {"embedding": self.encoder.embedding, "W_h": self.W_h,
                  "b_h": self.b_h, "W_o": self.W_o, "b_o": self.b_o}
        save_model(path, "relation", meta, arrays)

    @classmethod
    def load(cls, path) -> "RelationClassifier":
        meta, arrays = load_model(path, "relation")
        config = load_config(meta, PairTrainConfig)
        encoder = PairEncoder(list(meta["vocab"]), d_pair=meta["d_pair"])
        encoder.embedding = arrays["embedding"]
        model = cls(encoder, config)
        model.W_h, model.b_h = arrays["W_h"], arrays["b_h"]
        model.W_o, model.b_o = arrays["W_o"], arrays["b_o"]
        return model


def finetune(encoder: PairEncoder, labeled_pairs: list[DiseasePair],
             config: PairTrainConfig,
             symmetrize: bool = True) -> tuple[RelationClassifier, list[float]]:
    """Cross-entropy fine-tuning of the 5-class head (and the encoder).

    Pairs whose relation is symmetric are also trained in swapped order
    so predict stays order-stable for those classes.
    """
    for pair in labeled_pairs:
        if pair.relation is None:
            raise DegenerateData(f"pair ({pair.a}, {pair.b}) has no relation label")
    present = {p.relation for p in labeled_pairs}
    missing = [r for r in RELATIONS if r not in present]
    if missing:
        raise DegenerateData(f"classes absent from fine-tune data: {missing}")

    examples: list[tuple[str, str, int]] = []
    for pair in labeled_pairs:
        idx = RELATIONS.index(pair.relation)
        examples.append((pair.a, pair.b, idx))
        if symmetrize and pair.relation in SYMMETRIC_RELATIONS and pair.a != pair.b:
            examples.append((pair.b, pair.a, idx))

    model = RelationClassifier(encoder, config, seed=config.seed + 1)
    rng = random.Random(config.seed)
    order = list(range(len(examples)))
    history: list[float] = []
    for _ in range(config.epochs):
        rng.shuffle(order)
        epoch_loss = 0.0
        for idx in order:
            a, b, label = examples[idx]
            epoch_loss += model._step(a, b, label, config.learning_rate)
        history.append(epoch_loss / len(examples))
    return model, history
