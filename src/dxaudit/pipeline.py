"""Compose recall, context judgment, and relation comparison end to end.

A disease is reported as missing from the discharge list only when every
stage agrees: it was recalled somewhere in the record, its context says
it is a confirmed (current) disease, and the relation comparator finds it
irrelevant to every recorded discharge diagnosis. A candidate that equals
a discharge diagnosis after normalization is suppressed without touching
the models.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .core import (
    Lexicon,
    MedicalRecord,
    decode_line,
    iter_corpus,
    normalize_disease_name,
    parse_json_object,
)
from .errors import DxAuditError, EmptyName, ModelNotLoaded, ParseError
from .features import LABELS, FeatureLexicons, OrderTrackScope, assemble_features
from .recall import DiseaseMatcher, build_context_window, build_matcher, find_mentions


@dataclass(frozen=True)
class WriteMissingFinding:
    disease: str
    evidence_spans: tuple[tuple[int, int, int], ...]
    context_label_prob: float
    relations: tuple[tuple[str, str, float], ...]  # (discharge dx, relation, prob)


@dataclass(frozen=True)
class Models:
    context: object  # classify(sample, record_id=None) -> (label, prob)
    relation: object  # predict(a, b) -> (relation, prob)


@dataclass(frozen=True)
class PipelineLexicons:
    diseases: Lexicon
    features: FeatureLexicons


# emit_on setting -> the relations a candidate may have to every discharge
# diagnosis and still be reported.
EMITTING_RELATIONS = {
    "irrelevance_only": frozenset({"irrelevance"}),
    "irrelevance_or_other": frozenset({"irrelevance", "other"}),
}


@dataclass(frozen=True)
class DetectConfig:
    max_context_len: int = 450
    max_disease: int = 30
    emit_on: str = "irrelevance_only"  # a key of EMITTING_RELATIONS
    order_scope: OrderTrackScope = OrderTrackScope.WHOLE_ITEM

    def __post_init__(self):
        if self.emit_on not in EMITTING_RELATIONS:
            raise DxAuditError(f"unknown emit_on {self.emit_on!r}; expected one of "
                               f"{sorted(EMITTING_RELATIONS)}")

    @property
    def emitting_relations(self) -> frozenset[str]:
        return EMITTING_RELATIONS[self.emit_on]


def _normalized_discharge(record: MedicalRecord) -> list[str]:
    names: list[str] = []
    for raw in record.discharge_diagnoses:
        try:
            name = normalize_disease_name(raw)
        except EmptyName:
            continue
        if name not in names:
            names.append(name)
    return names


def _detect_record(
    record: MedicalRecord,
    matcher: DiseaseMatcher,
    models: Models,
    lexicons: PipelineLexicons,
    config: DetectConfig,
) -> tuple[list[WriteMissingFinding], dict[str, int]]:
    if models.context is None or models.relation is None:
        raise ModelNotLoaded("detect requires trained context and relation models")
    discharge = _normalized_discharge(record)
    discharge_set = set(discharge)
    emit_on = config.emitting_relations

    findings: list[WriteMissingFinding] = []
    label_counts = {label: 0 for label in LABELS}
    for mention in find_mentions(matcher, record):
        if mention.disease in discharge_set:
            continue  # recorded verbatim: no model calls needed
        windowed = build_context_window(record, mention, config.max_context_len)
        sample = assemble_features(
            windowed.disease, windowed.context, lexicons.features,
            max_disease=config.max_disease, max_context=config.max_context_len,
            order_scope=config.order_scope)
        label, prob = models.context.classify(sample, record_id=record.record_id)
        label_counts[label] += 1
        if label != "confirmed":
            continue
        relations = tuple(
            (dx,) + tuple(models.relation.predict(mention.disease, dx))
            for dx in discharge
        )
        if all(rel in emit_on for _, rel, _ in relations):
            findings.append(WriteMissingFinding(
                disease=mention.disease,
                evidence_spans=mention.spans,
                context_label_prob=prob,
                relations=relations,
            ))
    findings.sort(key=lambda f: f.evidence_spans[0])
    return findings, label_counts


def detect_write_missing(
    record: MedicalRecord,
    models: Models,
    lexicons: PipelineLexicons,
    config: DetectConfig = DetectConfig(),
    matcher: DiseaseMatcher | None = None,
) -> list[WriteMissingFinding]:
    if matcher is None:
        matcher = build_matcher(lexicons.diseases)
    findings, _ = _detect_record(record, matcher, models, lexicons, config)
    return findings


@dataclass
class RecordResult:
    record_id: str
    findings: list[WriteMissingFinding]


@dataclass
class BatchReport:
    results: list[RecordResult]
    summary: dict
    errors: list[dict] = field(default_factory=list)


def batch_detect(
    corpus,
    models: Models,
    lexicons: PipelineLexicons,
    config: DetectConfig = DetectConfig(),
    parallelism: int = 1,
    matcher: DiseaseMatcher | None = None,
) -> BatchReport:
    """Detect over a corpus (a list of records or a JSONL path).

    When given a path, bad lines become error entries and the remaining
    records are still processed; a record whose detection raises a
    DxAuditError becomes an error entry too. Records run one after another;
    ``parallelism`` is accepted and ignored. ``matcher`` must be built from
    ``lexicons.diseases``; it is built here when not given.
    """
    errors: list[dict] = []
    if isinstance(corpus, (str, Path)):
        records: list[MedicalRecord] = []
        for line_no, record, error in iter_corpus(corpus):
            if error is not None:
                errors.append({"line": line_no, "error": str(error)})
            else:
                records.append(record)
    else:
        records = list(corpus)

    if matcher is None:
        matcher = build_matcher(lexicons.diseases)

    results: list[RecordResult] = []
    label_totals = {label: 0 for label in LABELS}
    section_counts: dict[str, int] = {}
    n_findings = 0
    for record in records:
        try:
            findings, label_counts = _detect_record(
                record, matcher, models, lexicons, config)
        except DxAuditError as exc:
            errors.append({"record_id": record.record_id, "error": str(exc)})
            continue
        results.append(RecordResult(record_id=record.record_id, findings=findings))
        n_findings += len(findings)
        for label in LABELS:
            label_totals[label] += label_counts[label]
        for finding in findings:
            for section_index in sorted({s[0] for s in finding.evidence_spans}):
                name = record.sections[section_index][0]
                section_counts[name] = section_counts.get(name, 0) + 1
    summary = {
        "records": len(results),
        "findings": n_findings,
        "findings_by_section": dict(sorted(section_counts.items())),
        "context_labels": label_totals,
        "errors": len(errors),
    }
    return BatchReport(results=results, summary=summary, errors=errors)


# ---------------------------------------------------------------------------
# Report I/O: one JSON object per record, then a trailing summary object
# ---------------------------------------------------------------------------


def finding_to_dict(finding: WriteMissingFinding) -> dict:
    return {
        "disease": finding.disease,
        "evidence_spans": [list(span) for span in finding.evidence_spans],
        "context_label_prob": finding.context_label_prob,
        "relations": [[dx, rel, prob] for dx, rel, prob in finding.relations],
    }


def write_report(report: BatchReport, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for result in report.results:
            handle.write(json.dumps({
                "record_id": result.record_id,
                "findings": [finding_to_dict(f) for f in result.findings],
            }, ensure_ascii=False, sort_keys=True))
            handle.write("\n")
        handle.write(json.dumps({
            "summary": report.summary,
            "errors": report.errors,
        }, ensure_ascii=False, sort_keys=True))
        handle.write("\n")


def load_report_findings(path: str | Path) -> dict[str, list[dict]]:
    """record_id -> finding dicts, skipping the trailing summary object."""
    findings: dict[str, list[dict]] = {}
    with open(path, "rb") as handle:
        for line_no, raw in enumerate(handle, start=1):
            line = decode_line(raw, line_no)
            if not line:
                continue
            obj = parse_json_object(line, line_no, "report line")
            if "record_id" in obj:
                if not isinstance(obj["record_id"], str):
                    raise ParseError("record_id must be a string", line_no)
                found = obj.get("findings")
                if not isinstance(found, list) or not all(
                        isinstance(f, dict) and isinstance(f.get("disease"), str)
                        for f in found):
                    raise ParseError("findings must be a list of objects with a "
                                     "string disease", line_no)
                findings[obj["record_id"]] = found
    return findings
