"""Scoring and ablation over (record_id, disease) finding instances."""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace as dc_replace
from pathlib import Path

import numpy as np

from .core import normalize_disease_name
from .features import ContextSample
from .pipeline import (
    BatchReport,
    DetectConfig,
    Models,
    PipelineLexicons,
    batch_detect,
)
from .recall import build_matcher


def _normalize_instances(instances) -> set[tuple[str, str]]:
    return {(rid, normalize_disease_name(d)) for rid, d in instances}


def score(predictions, gold) -> tuple[float, float, float]:
    """Micro precision/recall/F1 over (record_id, normalized disease).

    Empty-vs-empty comparisons count as perfect; an undefined ratio
    against a non-empty other side counts as zero.
    """
    pred = _normalize_instances(predictions)
    truth = _normalize_instances(gold)
    if not pred and not truth:
        return 1.0, 1.0, 1.0
    tp = len(pred & truth)
    precision = tp / len(pred) if pred else 0.0
    recall = tp / len(truth) if truth else 0.0
    f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
    return precision, recall, f1


def report_instances(report: BatchReport) -> set[tuple[str, str]]:
    return {
        (result.record_id, finding.disease)
        for result in report.results
        for finding in result.findings
    }


# ---------------------------------------------------------------------------
# Stage stand-ins used by ablation rows and oracle checks
# ---------------------------------------------------------------------------


class ConfirmAllContext:
    """Context stage bypass: every candidate is treated as confirmed."""

    def classify(self, sample: ContextSample, record_id: str | None = None):
        return "confirmed", 1.0


class IrrelevanceAllRelation:
    """Relation stage bypass: only exact matches count as covered."""

    def predict(self, a: str, b: str):
        return "irrelevance", 1.0


class LookupContextOracle:
    """Perfect context judgments from a (record_id, disease) -> label map."""

    def __init__(self, mention_labels):
        self._labels = {(rid, d): label for rid, d, label in mention_labels}

    def classify(self, sample: ContextSample, record_id: str | None = None):
        return self._labels.get((record_id, sample.disease), "unknown"), 1.0


class MapRelationOracle:
    """Similarity for listed (or identical) pairs, irrelevance otherwise."""

    def __init__(self, similar_pairs=()):
        self._similar = {frozenset(p) for p in similar_pairs}

    def predict(self, a: str, b: str):
        if a == b or frozenset((a, b)) in self._similar:
            return "similarity", 1.0
        return "irrelevance", 1.0


class TrackZeroingContext:
    """Wraps a context model, zeroing one feature track at inference."""

    def __init__(self, inner, track: str):
        if track not in ("pos_track", "neg_track", "order_track"):
            raise ValueError(f"unknown track {track!r}")
        self._inner = inner
        self._track = track

    def classify(self, sample: ContextSample, record_id: str | None = None):
        silenced = dc_replace(
            sample, **{self._track: np.zeros(len(sample.context), dtype=np.uint8)})
        return self._inner.classify(silenced, record_id=record_id)


# ---------------------------------------------------------------------------
# Ablation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AblationRow:
    name: str
    precision: float
    recall: float
    f1: float


def run_ablation(
    records,
    gold_findings,
    models: Models,
    lexicons: PipelineLexicons,
    config: DetectConfig = DetectConfig(),
) -> list[AblationRow]:
    """Score the full pipeline against stage and feature knock-outs."""
    variants = [
        ("full", models),
        ("no_context", Models(context=ConfirmAllContext(), relation=models.relation)),
        ("no_relation", Models(context=models.context, relation=IrrelevanceAllRelation())),
    ]
    for track in ("pos_track", "neg_track", "order_track"):
        variants.append((
            f"{track}_off",
            Models(context=TrackZeroingContext(models.context, track),
                   relation=models.relation),
        ))
    matcher = build_matcher(lexicons.diseases)
    rows = []
    for name, variant_models in variants:
        report = batch_detect(records, variant_models, lexicons, config,
                              matcher=matcher)
        precision, recall, f1 = score(report_instances(report), gold_findings)
        rows.append(AblationRow(name=name, precision=precision, recall=recall, f1=f1))
    return rows


def write_scores_csv(rows, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["config", "precision", "recall", "f1"])
        for row in rows:
            writer.writerow([row.name, f"{row.precision:.6f}",
                             f"{row.recall:.6f}", f"{row.f1:.6f}"])
