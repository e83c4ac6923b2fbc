"""Compose recall, context judgment, and relation comparison end to end.

A disease is reported as missing from the discharge list only when every
stage agrees: it was recalled somewhere in the record, its context says
it is a confirmed (current) disease, and the relation comparator finds it
irrelevant to every recorded discharge diagnosis. A candidate that equals
a discharge diagnosis after normalization is suppressed without touching
the models.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import cached_property
from itertools import chain
from pathlib import Path
from typing import Protocol

import numpy as np

from .core import (Lexicon, MedicalRecord, discharge_names, json_line,
                   normalize_disease_name, parse_json_object, read_corpus, read_lines,
                   write_lines)
from .errors import DuplicateRecordId, DxAuditError, EmptyName, ModelNotLoaded, ParseError
from .features import LABELS, ContextSample, FeatureLexicons, assemble_features
from .context_model import PASS_ROWS
from .recall import (DiseaseMatcher, DiseaseMention, build_context_window, build_matcher,
                     find_mentions)
from .relation_model import RELATIONS


@dataclass(frozen=True)
class WriteMissingFinding:
    disease: str
    evidence_spans: tuple[tuple[int, int, int], ...]
    context_label_prob: float
    relations: tuple[tuple[str, str, float], ...]  # (discharge dx, relation, prob)


class ContextStage(Protocol):
    def classify(self, *samples: ContextSample) -> list[tuple[str, float]]:
        """Each sample's label (one of LABELS) and its probability, in the
        samples' order. Detect passes a chunk of records' samples in one
        call, and never calls with no samples."""


class RelationStage(Protocol):
    def predict_proba(self, names: list[str], against: list[str] | np.ndarray) -> np.ndarray:
        """(len(names), len(against), len(RELATIONS)) probabilities of each
        relation of each disease in names to each name in against."""


@dataclass(frozen=True)
class Models:
    context: ContextStage
    relation: RelationStage

    def __post_init__(self):
        if self.context is None or self.relation is None:
            raise ModelNotLoaded("detect requires trained context and relation models")


@dataclass(frozen=True)
class PipelineLexicons:
    diseases: Lexicon
    features: FeatureLexicons

    @cached_property
    def matcher(self) -> DiseaseMatcher:
        """The recall matcher of ``diseases``, built at first use; an empty
        lexicon raises EmptyLexicon then."""
        return build_matcher(self.diseases)


def _stage_record(
    record: MedicalRecord,
    matcher: DiseaseMatcher,
    lexicons: PipelineLexicons,
) -> tuple[list[DiseaseMention], list[ContextSample]]:
    """The record's recalled mentions that are not a discharge diagnosis
    verbatim (those need no model calls), and each one's context sample."""
    discharge_set = set(discharge_names(record))
    mentions = [m for m in find_mentions(matcher, record) if m.disease not in discharge_set]
    samples = []
    for mention in mentions:
        windowed = build_context_window(record, mention)
        samples.append(assemble_features(windowed.disease, windowed.context,
                                         lexicons.features))
    return mentions, samples


def _classify(models: Models, samples: list[ContextSample]) -> list[tuple[str, float]]:
    return models.context.classify(*samples) if samples else []


def _detect_record(
    record: MedicalRecord,
    mentions: list[DiseaseMention],
    judgments: list[tuple[str, float]],
    models: Models,
) -> tuple[list[WriteMissingFinding], dict[str, int]]:
    """Findings and context label counts of a staged record, given its
    mentions' (label, prob) judgments: one relation call compares the
    confirmed mentions with the discharge diagnoses."""
    confirmed = []
    label_counts = {label: 0 for label in LABELS}
    for mention, (label, prob) in zip(mentions, judgments):
        label_counts[label] += 1
        if label == "confirmed":
            confirmed.append((mention, prob))
    if not confirmed:
        return [], label_counts

    discharge = discharge_names(record)
    probs = models.relation.predict_proba([m.disease for m, _ in confirmed], discharge)
    findings: list[WriteMissingFinding] = []
    for (mention, prob), grid in zip(confirmed, probs):
        relations = tuple(
            (dx, RELATIONS[k], float(row[k]))
            for dx, row, k in zip(discharge, grid, grid.argmax(axis=1))
        )
        if all(rel == "irrelevance" for _, rel, _ in relations):
            findings.append(WriteMissingFinding(
                disease=mention.disease,
                evidence_spans=mention.spans,
                context_label_prob=prob,
                relations=relations,
            ))
    return findings, label_counts


def detect_write_missing(
    record: MedicalRecord,
    models: Models,
    lexicons: PipelineLexicons,
    matcher: DiseaseMatcher | None = None,
) -> list[WriteMissingFinding]:
    """Write-missing findings for one record. ``matcher`` must be built
    from ``lexicons.diseases``; ``lexicons.matcher`` serves when not given."""
    mentions, samples = _stage_record(record, matcher or lexicons.matcher, lexicons)
    findings, _ = _detect_record(record, mentions, _classify(models, samples), models)
    return findings


def _detect_chunk(chunk, models: Models):
    """(record, (findings, label counts) or the exception it raised) for
    each (record, staged record or exception) of ``chunk``, in order.

    The chunk's samples are classified in one call. When that call
    raises, each record's are classified in a call of their own, so the
    error lands on the record that raised it.
    """
    staged = [outcome for _, outcome in chunk if not isinstance(outcome, Exception)]
    try:
        judgments = iter(_classify(models, [s for _, samples in staged for s in samples]))
    except Exception:
        judgments = None
    for record, outcome in chunk:
        if not isinstance(outcome, Exception):
            mentions, samples = outcome
            try:
                own = (_classify(models, samples) if judgments is None
                       else [next(judgments) for _ in samples])
                outcome = _detect_record(record, mentions, own, models)
            except Exception as exc:
                outcome = exc
        yield record, outcome


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
    parallelism: int = 1,
) -> BatchReport:
    """Detect over a corpus (a list of records or a JSONL path).

    When given a path, bad lines become error entries and the remaining
    records are still processed. A record whose detection raises becomes
    an error entry too: a DxAuditError's message, or any other exception's
    type and message. So is a record repeating an earlier record_id: a list
    corpus keeps the first record, as a path corpus does. Error entries
    come in record order.

    Records run in chunks, one after another: recall, windows and
    features run record by record until the chunk's samples fill a pass
    of PASS_ROWS rows, one ``classify`` call judges them all, and then
    each record's relation call and findings follow (see _detect_chunk).
    ``parallelism`` is accepted and ignored. ``lexicons.matcher`` is
    read before the first record, so an empty disease lexicon raises.
    """
    records, errors = corpus, []
    if isinstance(corpus, (str, Path)):
        records, bad_lines = read_corpus(corpus)
        errors = [{"line": line_no, "error": str(error)} for line_no, error in bad_lines]

    matcher = lexicons.matcher
    outcomes = []
    chunk, rows = [], 0
    seen: set[str] = set()
    for record in records:
        try:
            if record.record_id in seen:
                raise DuplicateRecordId(f"duplicate record_id {record.record_id!r}")
            seen.add(record.record_id)
            staged = _stage_record(record, matcher, lexicons)
            # a sample's rows: disease, separator, context
            size = sum(len(s.disease) + 1 + len(s.context) for s in staged[1])
        except Exception as exc:  # a fault in one record must not end the batch
            staged, size = exc, 0
        if chunk and rows + size > PASS_ROWS:
            outcomes.extend(_detect_chunk(chunk, models))
            chunk, rows = [], 0
        chunk.append((record, staged))
        rows += size
    outcomes.extend(_detect_chunk(chunk, models))

    results: list[RecordResult] = []
    label_totals = {label: 0 for label in LABELS}
    section_counts: dict[str, int] = {}
    n_findings = 0
    for record, outcome in outcomes:
        if isinstance(outcome, Exception):
            error = str(outcome) if isinstance(outcome, DxAuditError) \
                else f"{type(outcome).__name__}: {outcome}"
            errors.append({"record_id": record.record_id, "error": error})
            continue
        findings, label_counts = outcome
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


def write_report(report: BatchReport, path: str | Path) -> None:
    write_lines(path, chain(
        (json_line({"record_id": result.record_id,
                    "findings": [asdict(f) for f in result.findings]})
         for result in report.results),
        [json_line({"summary": report.summary, "errors": report.errors})],
    ))


def load_report_findings(path: str | Path) -> dict[str, list[dict]]:
    """record_id -> finding dicts, skipping the trailing summary object.

    A line holding neither a record_id nor a summary, a repeated record_id,
    or a finding whose disease normalizes to empty raises ParseError with
    its line.
    """
    findings: dict[str, list[dict]] = {}
    for line_no, line in read_lines(path):
        obj = parse_json_object(line, line_no, "report line")
        if "record_id" not in obj:
            if "summary" not in obj:
                raise ParseError("report line holds neither record_id nor summary", line_no)
            continue
        record_id = obj["record_id"]
        if not isinstance(record_id, str):
            raise ParseError("record_id must be a string", line_no)
        if record_id in findings:
            raise ParseError(f"duplicate record_id {record_id!r}", line_no)
        found = obj.get("findings")
        if not isinstance(found, list) or not all(
                isinstance(f, dict) and isinstance(f.get("disease"), str)
                for f in found):
            raise ParseError("findings must be a list of objects with a "
                             "string disease", line_no)
        try:
            for f in found:
                normalize_disease_name(f["disease"])
        except EmptyName as exc:
            raise ParseError(str(exc), line_no)
        findings[record_id] = found
    return findings
