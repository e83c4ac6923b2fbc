"""Models of freshly drawn parameters, for tests that need one without
training. Each draws through ``initial_params``, as the trainers do."""

from dxaudit.context_model import CharWindowEncoder, GatedFusionHead, initial_params
from dxaudit.relation_model import RelationClassifier


def char_encoder(vocab, d_enc, seed):
    embedding = initial_params({"embedding": (len(vocab), d_enc)}, seed)["embedding"]
    return CharWindowEncoder(vocab, embedding)


def fusion_head(d_enc, d, seed):
    return GatedFusionHead(initial_params(GatedFusionHead.shapes(d_enc, d), seed))


def relation_classifier(encoder, config, seed):
    shapes = RelationClassifier.shapes(encoder.d_pair, config.hidden)
    return RelationClassifier(encoder, config, initial_params(shapes, seed))
