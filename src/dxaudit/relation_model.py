"""Stage 3: decide how two disease names relate.

Training happens in two phases, mirroring how the pair data is made:

1. Contrastive pretraining on pairs mined from coded records and the ICD
   tree. Anchored at the batch's positive pairs, the objective is
   in-batch InfoNCE at temperature tau; every pair's right-hand name in
   the batch (positive or negative) serves as a candidate, so mined
   negatives act as hard negatives in the denominator.
2. Supervised fine-tuning of a 5-class softmax head over the joint
   representation [u; v; |u-v|; u*v] with cross-entropy, in shuffled
   mini-batches of FINETUNE_BATCH examples. Each batch takes one packed
   forward and backward pass, and every parameter moves by the learning
   rate times the sum of the batch's per-example gradients, so the
   learning rate keeps its per-example meaning. PairTrainConfig.batch_size
   is the pretraining batch only.

The name encoder is a trainable character-embedding table with mean
pooling. It shares the context model's character map (CharVocab) and its
embedding-gradient scatter (_row_sums); gradients are hand-written numpy,
deterministic per seed.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate
from pathlib import Path

import numpy as np

from .context_model import (CharVocab, _row_sums, epoch_batches, initial_params,
                            require_finite)
from .core import (IcdIndex, discharge_names, normalize_disease_name, read_lines,
                   read_rows, write_rows)
from .errors import (
    BadSetting,
    DegenerateBatch,
    DegenerateData,
    DxAuditError,
    EmptyName,
    InsufficientCodes,
    ParseError,
    ShapeMismatch,
    UnknownCode,
    require_at_least,
)
from .modelio import read_model, write_model

RELATIONS = ("similarity", "inclusion", "secondary", "irrelevance", "other")

# Names per embedding pass, and name pairs per scoring pass: bounds the
# temporaries (about 1 KiB per row at d_pair 32) so a whole ICD table's
# characters, or a chunk's head activations of every pair, is never held
# at once.
BLOCK_ROWS = 256

# Characters of a name the encoder reads; the rest is cut off.
MAX_NAME = 50

# Examples per fine-tuning step. Their gradients are summed, not averaged,
# so the learning rate stays per example; a larger batch takes fewer,
# larger steps per epoch and ends each epoch at a higher loss.
FINETUNE_BATCH = 8

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
    """(clinical name, ICD standard title) positives, deduplicated in
    first-seen order."""
    names: dict[tuple[str, str], None] = {}
    for clinical_name, code in coded_records:
        entry = icd.get(code)
        if entry is None:
            raise UnknownCode(f"code {code!r} not in the ICD table")
        names[normalize_disease_name(clinical_name), normalize_disease_name(entry.title)] = None
    return [DiseasePair(a=a, b=b, source=PairSource.CODING_PAIR) for a, b in names]


def unordered_pairs(groups, exclude=()):
    """Each unordered pair of two distinct names sharing a group, once, as
    (a, b) in first-seen order: a comes before b in the first group holding
    both. A pair in ``exclude`` (each an iterable of its two names) is
    skipped."""
    seen = {frozenset(p) for p in exclude}
    for names in groups:
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                key = frozenset((a, b))
                if a != b and key not in seen:
                    seen.add(key)
                    yield a, b


def gen_negative_same_list(records, exclude_pairs=frozenset()) -> list[DiseasePair]:
    """Unordered pairs of distinct diagnoses sharing one discharge list."""
    return [DiseasePair(a=a, b=b, source=PairSource.SAME_LIST)
            for a, b in unordered_pairs(map(discharge_names, records), exclude_pairs)]


def gen_negative_icd_siblings(icd: IcdIndex) -> list[DiseasePair]:
    """Title pairs of equal-depth ICD codes sharing their immediate parent.

    Two distinct codes of one depth have one length, so neither is the
    other's ancestor: no pair is an inclusion.
    """
    groups: dict[tuple, list[str]] = {}
    for entry in icd.entries():
        parent = entry.parent_code
        if parent is not None:
            groups.setdefault((entry.depth, parent), []).append(
                normalize_disease_name(entry.title))
    return [DiseasePair(a=a, b=b, source=PairSource.ICD_SIBLING)
            for a, b in unordered_pairs(groups[key] for key in sorted(groups))]


def gen_negative_random(icd: IcdIndex, n: int, seed: int,
                        exclude_pairs=frozenset()) -> list[DiseasePair]:
    """n title pairs of codes with distinct 3-digit prefixes."""
    require_at_least({"n": n}, n=0)
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
    for line_no, line in read_lines(path):
        if line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) < 2:
            raise ParseError("expected name<TAB>name", line_no)
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


# A pair name load_pairs would not read back: a CR ends the line, and lines
# are stripped and blank ones skipped, so whitespace beside an LF (another LF
# included) is lost; a row whose first name starts with '#' is a comment.
_UNWRITABLE_NAME = re.compile(r"\r|\s\n|\n\s")


def _pair_row(pair: DiseasePair) -> list[str]:
    for name, first in ((pair.a, True), (pair.b, False)):
        if _UNWRITABLE_NAME.search(name) or first and name.startswith("#"):
            raise DxAuditError(f"pair name {name!r} cannot be written: it holds a "
                               "CR, has whitespace beside an LF, or starts a row with '#'")
    tag = pair.relation if pair.relation else (pair.polarity or "")
    return [pair.a, pair.b, tag, pair.source.value]


def save_pairs(pairs, path: str | Path) -> None:
    """Write a pair file. A name load_pairs would not read back raises
    DxAuditError naming it, and nothing is written."""
    write_rows(path, map(_pair_row, pairs), delimiter="\t")


def load_pairs(path: str | Path) -> list[DiseasePair]:
    """Read a pair file; a malformed row raises ParseError with its line.

    A row's label is what save_pairs writes: a relation, or else the
    source's polarity, empty for a source without one.
    """
    pairs = []
    for line_no, row in read_rows(path, delimiter="\t"):
        if row[0].startswith("#"):
            continue
        if len(row) < 4:
            raise ParseError(f"expected 4 tab-separated fields, got {len(row)}",
                             line_no)
        a, b, tag = row[0], row[1], row[2]
        try:
            source = PairSource(row[3])
            polarity = _POLARITY.get(source, "")
            if tag not in RELATIONS and tag != polarity:
                expected = repr(polarity) if polarity else "empty"
                raise ValueError(f"{source.value} pair label {tag!r} is neither a "
                                 f"relation nor {expected}")
            pairs.append(DiseasePair(a=normalize_disease_name(a),
                                     b=normalize_disease_name(b), source=source,
                                     relation=tag if tag in RELATIONS else None))
        except (ValueError, EmptyName) as exc:
            raise ParseError(str(exc), line_no)
    return pairs


# ---------------------------------------------------------------------------
# Encoder and training
# ---------------------------------------------------------------------------


@dataclass
class PairTrainConfig:
    batch_size: int = 256
    learning_rate: float = 0.05
    tau: float = 0.05
    pretrain_learning_rate: float = 1e-6
    hidden: int = 64
    epochs: int = 5
    seed: int = 0

    def __post_init__(self):
        require_at_least(vars(self), batch_size=1, epochs=1, seed=0, hidden=1,
                         learning_rate=0.0, pretrain_learning_rate=0.0, tau=0.0)
        if self.tau == 0.0:
            raise BadSetting("tau must be > 0, got 0")


class PairEncoder:
    """Mean-pooled embeddings of a name's first MAX_NAME characters; row 0 is UNK."""

    def __init__(self, chars: list[str], embedding: np.ndarray):
        self.vocab = CharVocab(chars, first_id=1)
        self.embedding = embedding  # a row per id of ``vocab``
        self.d_pair = embedding.shape[1]

    @classmethod
    def from_names(cls, names, d_pair: int = 32, seed: int = 0) -> "PairEncoder":
        """An encoder over the names' characters, its embedding drawn at ``seed``."""
        require_at_least({"d_pair": d_pair}, d_pair=1)
        chars = CharVocab.from_texts(names).chars
        embedding = initial_params({"embedding": (len(chars) + 1, d_pair)}, seed,
                                   {"d_pair": d_pair})["embedding"]
        return cls(chars, embedding)

    def encode_many(self, names: list[str]) -> tuple[np.ndarray, list[int]]:
        """The ids of the names' first MAX_NAME characters packed end to end,
        in one encode, and each name's length."""
        clipped = [name[:MAX_NAME] for name in names]
        return self.vocab.encode("".join(clipped)), [len(name) for name in clipped]

    def pool(self, ids: np.ndarray, lengths: list[int]) -> np.ndarray:
        """The mean embedding of each name packed end to end in ids, as
        encode_many packs them. An empty name has no mean: reduceat would
        give it the next name's first row, so it is refused."""
        if not lengths or min(lengths) == 0:
            raise ValueError("pool needs one or more non-empty names")
        # a list's accumulate costs less per call than np.cumsum
        starts = [0, *accumulate(lengths[:-1])]
        sums = np.add.reduceat(self.embedding[ids], starts, axis=0)
        return sums / np.array(lengths, dtype=np.intp)[:, None]

    def grad(self, ids: np.ndarray, lengths: list[int], d_rows: np.ndarray) -> np.ndarray:
        """The embedding-table gradient of the names that pool(ids, lengths)
        mean-pools, given the gradient of each name's row."""
        counts = np.array(lengths, dtype=np.intp)
        per_char = np.repeat(d_rows / counts[:, None], counts, axis=0)
        return _row_sums(len(self.embedding), ids, per_char)


def info_nce_batch_loss(encoder: PairEncoder, batch: list[DiseasePair],
                        tau: float, with_grads: bool = False):
    """In-batch InfoNCE over the batch's positive anchors.

    Returns the mean anchor loss, and optionally the gradient of the
    encoder embedding table.
    """
    anchors = [k for k, p in enumerate(batch) if p.polarity == "same"]
    if len(anchors) < 2:
        raise DegenerateBatch(
            f"batch has {len(anchors)} positive pairs, need >= 2")
    ids, lengths = encoder.encode_many([*(batch[k].a for k in anchors), *(p.b for p in batch)])
    rows = encoder.pool(ids, lengths)
    norm = np.maximum(np.linalg.norm(rows, axis=1, keepdims=True), 1e-12)
    # a norm that overflows makes every similarity 0 and the loss a finite log(batch)
    require_finite(norm)
    hat = rows / norm
    u_hat, v_hat = hat[:len(anchors)], hat[len(anchors):]

    sims = u_hat @ v_hat.T  # (n_anchors, batch)
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

    d_hat = np.concatenate([d_sims @ v_hat, d_sims.T @ u_hat])  # (n_anchors + batch, d)
    # back through the row normalization x / |x|
    d_rows = (d_hat - hat * (d_hat * hat).sum(axis=1, keepdims=True)) / norm
    return loss, encoder.grad(ids, lengths, d_rows)


def eval_contrastive_loss(encoder: PairEncoder, pairs: list[DiseasePair],
                          config: PairTrainConfig) -> float:
    """Objective over a fixed, unshuffled batching (for epoch tracking)."""
    losses = []
    for start in range(0, len(pairs), config.batch_size):
        batch = pairs[start : start + config.batch_size]
        if sum(1 for p in batch if p.polarity == "same") < 2:
            continue
        losses.append(info_nce_batch_loss(encoder, batch, config.tau))
    if not losses:
        raise DegenerateBatch("no batch holds >= 2 positive pairs")
    return sum(losses) / len(losses)


@np.errstate(over="ignore", invalid="ignore")  # require_finite refuses what overflows
def contrastive_pretrain(pairs: list[DiseasePair], encoder: PairEncoder,
                         config: PairTrainConfig) -> tuple[PairEncoder, list[float]]:
    """SGD on the InfoNCE objective; returns per-epoch evaluation losses.
    One that is not finite, or an embedding norm that overflows in any
    batch, raises DegenerateData."""
    if sum(1 for p in pairs if p.polarity == "same") < 2:
        raise DegenerateBatch("need >= 2 positive pairs to pretrain")
    history: list[float] = []
    for batches in epoch_batches(len(pairs), config.batch_size, config.epochs, config.seed):
        for batch_ids in batches:
            batch = [pairs[i] for i in batch_ids]
            if sum(1 for p in batch if p.polarity == "same") < 2:
                continue
            _, grad = info_nce_batch_loss(encoder, batch, config.tau, with_grads=True)
            encoder.embedding -= config.pretrain_learning_rate * grad
        history.append(require_finite(eval_contrastive_loss(encoder, pairs, config)))
    return encoder, history


# ---------------------------------------------------------------------------
# 5-class fine-tuned classifier
# ---------------------------------------------------------------------------


class RelationClassifier:
    """Encoder + MLP head over the joint pair representation."""

    def __init__(self, encoder: PairEncoder, config: PairTrainConfig,
                 p: dict[str, np.ndarray]):
        self.encoder = encoder
        self.config = config
        self.p = p  # the head, keyed and shaped as ``shapes`` gives

    @staticmethod
    def shapes(d_pair: int, hidden: int) -> dict[str, tuple[int, ...]]:
        """Each head parameter's shape, in the order initial_params draws them."""
        return {"W_h": (4 * d_pair, hidden), "b_h": (hidden,),
                "W_o": (hidden, len(RELATIONS)), "b_o": (len(RELATIONS),)}

    def _head(self, u: np.ndarray, v: np.ndarray):
        """Probabilities over RELATIONS of each row of u against the same
        row of v, one row per pair. Returns the intermediates too, for the
        backward pass."""
        joint = np.concatenate([u, v, np.abs(u - v), u * v], axis=-1)
        pre = joint @ self.p["W_h"] + self.p["b_h"]
        hidden = np.maximum(pre, 0.0)
        logits = hidden @ self.p["W_o"] + self.p["b_o"]
        shifted = logits - logits.max(axis=-1, keepdims=True)
        exp = np.exp(shifted)
        probs = exp / exp.sum(axis=-1, keepdims=True)
        return probs, joint, pre, hidden

    def embed_names(self, names: list[str]) -> np.ndarray:
        """One encoder row per name, normalized and embedded BLOCK_ROWS
        names at a time, so a whole ICD table's characters are never
        looked up at once. A name's row does not depend on the names
        embedded with it, so a name scored many times is embedded once."""
        rows = np.empty((len(names), self.encoder.d_pair))
        for start in range(0, len(names), BLOCK_ROWS):
            block = names[start : start + BLOCK_ROWS]
            rows[start : start + BLOCK_ROWS] = self.encoder.pool(*self.encoder.encode_many(
                [normalize_disease_name(name) for name in block]))
        return rows

    def predict_proba(self, rows: np.ndarray, against_rows: np.ndarray) -> np.ndarray:
        """(len(rows), 5) probabilities of each relation of each embed_names
        row to the same row of ``against_rows``, scored BLOCK_ROWS pairs at
        a time. A block of one pair runs as two copies of it: numpy takes a
        one-row product down its matrix-vector path, whose bits differ from
        a row of a larger product's, while a row of a product of two or
        more rows has the same bits whatever the rows beside it. So no
        pair's probabilities depend on the pairs scored with it."""
        if len(rows) != len(against_rows):
            raise ShapeMismatch(f"{len(rows)} rows against {len(against_rows)} rows; "
                                "a pair is a row of each")
        probs = np.empty((len(rows), len(RELATIONS)))
        for start in range(0, len(rows), BLOCK_ROWS):
            block = probs[start : start + BLOCK_ROWS]
            u, v = rows[start : start + BLOCK_ROWS], against_rows[start : start + BLOCK_ROWS]
            if len(block) == 1:
                u, v = np.repeat(u, 2, axis=0), np.repeat(v, 2, axis=0)
            block[:] = self._head(u, v)[0][:len(block)]
        return probs

    def predict(self, a: str, b: str) -> tuple[str, float]:
        """The most probable relation of a to b and its probability."""
        rows = self.embed_names([a, b])
        probs = self.predict_proba(rows[:1], rows[1:])[0]
        return RELATIONS[int(np.argmax(probs))], float(probs.max())

    def _step(self, batch: list[tuple[np.ndarray, np.ndarray, int]],
              lr: float) -> float:
        """One SGD step on a batch of (ids_a, ids_b, label_index) examples:
        one packed forward and backward pass, after which every parameter
        has moved by lr times the sum of the examples' gradients. Returns
        the summed loss."""
        n = len(batch)
        names = [ids_a for ids_a, _, _ in batch] + [ids_b for _, ids_b, _ in batch]
        ids = np.concatenate(names)
        lengths = [len(name) for name in names]
        rows = self.encoder.pool(ids, lengths)
        u, v = rows[:n], rows[n:]
        labels = np.array([label for _, _, label in batch], dtype=np.intp)
        probs, joint, pre, hidden = self._head(u, v)
        picked = probs[np.arange(n), labels]
        loss = float(-np.log(np.maximum(picked, 1e-12)).sum())
        d_logits = probs.copy()
        d_logits[np.arange(n), labels] -= 1.0

        p = self.p
        d_W_o = hidden.T @ d_logits
        d_hidden = d_logits @ p["W_o"].T
        d_pre = d_hidden * (pre > 0.0)
        d_W_h = joint.T @ d_pre
        d_joint = d_pre @ p["W_h"].T

        # views of [u; v; |u-v|; u*v], without np.split's per-call cost
        d_u, d_v, d_abs, d_prod = d_joint.reshape(n, 4, -1).swapaxes(0, 1)
        sign = np.sign(u - v)
        du = d_u + sign * d_abs + v * d_prod
        dv = d_v - sign * d_abs + u * d_prod

        p["W_o"] -= lr * d_W_o
        p["b_o"] -= lr * d_logits.sum(axis=0)
        p["W_h"] -= lr * d_W_h
        p["b_h"] -= lr * d_pre.sum(axis=0)
        self.encoder.embedding -= lr * self.encoder.grad(
            ids, lengths, np.concatenate([du, dv]))
        return loss

    def save(self, path) -> None:
        write_model(path, "relation", RELATIONS, "".join(self.encoder.vocab.chars),
                    self.config, {"d_pair": self.encoder.d_pair},
                    {"embedding": self.encoder.embedding, **self.p})

    @classmethod
    def load(cls, path) -> "RelationClassifier":
        vocab, config, arrays = read_model(
            path, "relation", RELATIONS, PairTrainConfig, ("d_pair", "config.hidden"),
            # the embedding's first row is UNK_ID
            lambda vocab, d_pair, hidden: {"embedding": (len(vocab) + 1, d_pair),
                                           **cls.shapes(d_pair, hidden)})
        return cls(PairEncoder(list(vocab), arrays.pop("embedding")), config, arrays)


@np.errstate(over="ignore", invalid="ignore")  # require_finite refuses what overflows
def finetune(encoder: PairEncoder, labeled_pairs: list[DiseasePair],
             config: PairTrainConfig) -> tuple[RelationClassifier, list[float]]:
    """Cross-entropy fine-tuning of the 5-class head (and the encoder), in
    shuffled batches of FINETUNE_BATCH examples.

    Pairs whose relation is symmetric are also trained in swapped order
    so predict stays order-stable for those classes. A parameter that is
    not finite at the end (training diverged) raises DegenerateData.
    """
    for pair in labeled_pairs:
        if pair.relation is None:
            raise DegenerateData(f"pair ({pair.a}, {pair.b}) has no relation label")
    present = {p.relation for p in labeled_pairs}
    missing = [r for r in RELATIONS if r not in present]
    if missing:
        raise DegenerateData(f"classes absent from fine-tune data: {missing}")

    # one encode for every name: the code-point table's fixed cost is paid once
    ids, lengths = encoder.encode_many([name for p in labeled_pairs for name in (p.a, p.b)])
    bounds = [0, *accumulate(lengths)]  # slices cost a third of np.split's pieces
    names = [ids[start:end] for start, end in zip(bounds, bounds[1:])]
    examples: list[tuple[np.ndarray, np.ndarray, int]] = []
    for pair, ids_a, ids_b in zip(labeled_pairs, names[::2], names[1::2]):
        idx = RELATIONS.index(pair.relation)
        examples.append((ids_a, ids_b, idx))
        if pair.relation in SYMMETRIC_RELATIONS and pair.a != pair.b:
            examples.append((ids_b, ids_a, idx))

    model = RelationClassifier(encoder, config, initial_params(
        RelationClassifier.shapes(encoder.d_pair, config.hidden), config.seed + 1,
        {"d_pair": encoder.d_pair, "hidden": config.hidden}))
    history: list[float] = []
    for batches in epoch_batches(len(examples), FINETUNE_BATCH, config.epochs, config.seed):
        epoch_loss = sum(model._step([examples[i] for i in batch_ids], config.learning_rate)
                         for batch_ids in batches)
        history.append(epoch_loss / len(examples))
    # Each step's loss is taken before its update, so only the parameters show
    # the last step diverging.
    for param in (*model.p.values(), encoder.embedding):
        require_finite(param)
    return model, history
