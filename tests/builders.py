"""Models for tests that need one without training: freshly drawn
parameters, each drawn through ``initial_params`` as the trainers do, and
stage stand-ins that answer from known labels. Also the rows detect
stages for a record, by its written-down rule."""

import numpy as np

from dxaudit.context_model import CharWindowEncoder, GatedFusionHead, initial_params
from dxaudit.core import discharge_names
from dxaudit.recall import build_context_window, find_mentions
from dxaudit.relation_model import RELATIONS, RelationClassifier


def staged_rows(record, matcher):
    """The rows pipeline._detect stages for a record of a new record_id:
    one, and per window of a mention not among its discharge names, its
    characters, one more and one per discharge name."""
    discharge = discharge_names(record)
    return 1 + sum(len(m.disease) + len(build_context_window(record, m).context) + 1
                   + len(discharge)
                   for m in find_mentions(matcher, record) if m.disease not in discharge)


def char_encoder(vocab, d_enc, seed):
    embedding = initial_params({"embedding": (len(vocab), d_enc)}, seed,
                               {"d_enc": d_enc})["embedding"]
    return CharWindowEncoder(vocab, embedding)


def fusion_head(d_enc, d, seed):
    return GatedFusionHead(initial_params(GatedFusionHead.shapes(d_enc, d), seed,
                                          {"d_enc": d_enc, "d": d}))


def relation_classifier(encoder, config, seed):
    shapes = RelationClassifier.shapes(encoder.d_pair, config.hidden)
    return RelationClassifier(encoder, config, initial_params(
        shapes, seed, {"d_pair": encoder.d_pair, "hidden": config.hidden}))


class LookupContextOracle:
    """Perfect context judgments: the label of the labeled sample with the
    same disease and context, ``unknown`` for any other sample."""

    def __init__(self, labeled_samples):
        self._labels: dict[tuple[str, str], str] = {}
        for sample in labeled_samples:
            key = (sample.disease, sample.context)
            if self._labels.setdefault(key, sample.label) != sample.label:
                raise ValueError(f"{key} is labeled {self._labels[key]}, then {sample.label}")

    def classify(self, *samples):
        return [(self._labels.get((sample.disease, sample.context), "unknown"), 1.0)
                for sample in samples]


class MapRelationOracle:
    """Similarity for listed (or identical) pairs, irrelevance otherwise."""

    def __init__(self, similar_pairs=()):
        self._similar = {frozenset(p) for p in similar_pairs}

    def embed_names(self, names):
        """Each name as a row of one cell, which holds it."""
        return np.array(names, dtype=object).reshape(-1, 1)

    def predict_proba(self, rows, against_rows):
        probs = np.zeros((len(rows), len(RELATIONS)))
        for i, ((a,), (b,)) in enumerate(zip(rows, against_rows)):
            similar = a == b or frozenset((a, b)) in self._similar
            probs[i, RELATIONS.index("similarity" if similar else "irrelevance")] = 1.0
        return probs


def score_names(stage, names, against):
    """A relation stage's (len(names), len(against), len(RELATIONS))
    probabilities of each name to each name of ``against``: each list
    embedded first, then every pair scored in one call."""
    rows, against_rows = stage.embed_names(names), stage.embed_names(against)
    probs = stage.predict_proba(np.repeat(rows, len(against), axis=0),
                                np.tile(against_rows, (len(names), 1)))
    return probs.reshape(len(names), len(against), len(RELATIONS))
