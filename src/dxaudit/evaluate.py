"""Scoring and ablation over (record_id, disease) finding instances."""

from __future__ import annotations

from dataclasses import dataclass, replace as dc_replace
from pathlib import Path

import numpy as np

from .core import normalize_disease_name, write_rows
from .features import TRACKS, ContextSample
from .pipeline import BatchReport, Models, PipelineLexicons, batch_detect
from .relation_model import RELATIONS


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
# Stage stand-ins used by ablation rows
# ---------------------------------------------------------------------------


class ConfirmAllContext:
    """Context stage bypass: every candidate is treated as confirmed."""

    def classify(self, *samples: ContextSample):
        return [("confirmed", 1.0)] * len(samples)


class IrrelevanceAllRelation:
    """Relation stage bypass: only exact matches count as covered."""

    def embed_names(self, names: list[str]) -> np.ndarray:
        """An empty row per name: irrelevance reads nothing of a name."""
        return np.zeros((len(names), 0))

    def predict_proba(self, rows: np.ndarray, against_rows: np.ndarray) -> np.ndarray:
        probs = np.zeros((len(rows), len(RELATIONS)))
        probs[:, RELATIONS.index("irrelevance")] = 1.0
        return probs


class TrackZeroingContext:
    """Wraps a context model, zeroing one feature track at inference."""

    def __init__(self, inner, track: str):
        if track not in TRACKS:
            raise ValueError(f"unknown track {track!r}")
        self._inner = inner
        self._track = track

    def classify(self, *samples: ContextSample):
        return self._inner.classify(*(
            dc_replace(sample, **{self._track: np.zeros(len(sample.context), dtype=np.uint8)})
            for sample in samples))


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
) -> tuple[list[AblationRow], list[dict]]:
    """Score the full pipeline against stage and feature knock-outs, and
    give the first error entry of each record that failed in any row (its
    gold findings count as misses there)."""
    variants = [
        ("full", models),
        ("no_context", dc_replace(models, context=ConfirmAllContext())),
        ("no_relation", dc_replace(models, relation=IrrelevanceAllRelation())),
    ]
    for track in TRACKS:
        variants.append((f"{track}_off", dc_replace(
            models, context=TrackZeroingContext(models.context, track))))
    rows = []
    errors: dict[str, dict] = {}
    for name, variant_models in variants:
        report = batch_detect(records, variant_models, lexicons)
        for error in report.errors:
            errors.setdefault(error["record_id"], error)
        precision, recall, f1 = score(report_instances(report), gold_findings)
        rows.append(AblationRow(name=name, precision=precision, recall=recall, f1=f1))
    return rows, list(errors.values())


def write_scores_csv(rows, path: str | Path) -> None:
    write_rows(path, [["config", "precision", "recall", "f1"]] + [
        [row.name, f"{row.precision:.6f}", f"{row.recall:.6f}", f"{row.f1:.6f}"]
        for row in rows])
