"""Models for tests that need one without training: freshly drawn
parameters, each drawn through ``initial_params`` as the trainers do, and
stage stand-ins that answer from known labels."""

import numpy as np

from dxaudit.context_model import CharWindowEncoder, GatedFusionHead, initial_params
from dxaudit.relation_model import RELATIONS, RelationClassifier


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

    def predict_proba(self, names, against):
        probs = np.zeros((len(names), len(against), len(RELATIONS)))
        for i, a in enumerate(names):
            for j, b in enumerate(against):
                similar = a == b or frozenset((a, b)) in self._similar
                probs[i, j, RELATIONS.index("similarity" if similar else "irrelevance")] = 1.0
        return probs
