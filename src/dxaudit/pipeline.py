"""Compose recall, context judgment, and relation comparison end to end.

A disease is reported as missing from the discharge list only when every
stage agrees: it was recalled somewhere in the record, its context says
it is a confirmed (current) disease, and the relation comparator finds it
irrelevant to every recorded discharge diagnosis. A candidate that equals
a discharge diagnosis after normalization is suppressed without touching
the models.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import asdict, dataclass, field
from functools import cached_property
from itertools import chain
from pathlib import Path
from typing import Protocol

import numpy as np

from .core import (Lexicon, MedicalRecord, discharge_names, json_line,
                   normalize_disease_name, parse_json_object, read_corpus, read_lines,
                   write_lines)
from .errors import (DuplicateRecordId, DxAuditError, EmptyName, ModelNotLoaded, ParseError,
                     ShapeMismatch)
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
        call, and never calls with no samples. Detect refuses an answer
        with another count of judgments, another label, or a probability
        outside [0, 1]."""


class RelationStage(Protocol):
    def embed_names(self, names: list[str]) -> np.ndarray:
        """One row per name, in order, that does not depend on the names
        embedded with it. Detect embeds each name once per call, and
        refuses another count of rows."""

    def predict_proba(self, rows: np.ndarray, against_rows: np.ndarray) -> np.ndarray:
        """(len(rows), len(against_rows), len(RELATIONS)) probabilities of
        each relation of each embedded disease to each embedded name of
        against_rows. Detect refuses another shape, or a cell that is not
        finite."""


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


# Entries in each of batch_detect's two memos, window judgments and name
# rows; past it the oldest entry goes first, so a call's memory does not
# grow with its corpus.
MEMO_ENTRIES = 4096

# Rows of new samples batch_detect stages before one classify call judges
# them: eight passes' worth, so that each call packs many windows (on the
# toy bench corpus, passes of 512 rows hold about 20 windows each).
CHUNK_ROWS = 8 * PASS_ROWS


def _remember(memo: OrderedDict, key, value) -> None:
    """Store value under key, dropping memo's oldest entry first when it
    already holds MEMO_ENTRIES."""
    if len(memo) >= MEMO_ENTRIES:
        memo.popitem(last=False)
    memo[key] = value


def _judge(models: Models, samples: list[ContextSample]) -> list[tuple[str, float]]:
    """The context stage's judgments of the samples, checked: one per
    sample (else ShapeMismatch), each a label of LABELS at a probability
    in [0, 1] (else DxAuditError). No samples make no call."""
    if not samples:
        return []
    judgments = models.context.classify(*samples)
    if len(judgments) != len(samples):
        raise ShapeMismatch(f"context stage gave {len(judgments)} judgments "
                            f"for {len(samples)} samples")
    for label, prob in judgments:
        if label not in LABELS or not 0.0 <= prob <= 1.0:  # also false for NaN
            raise DxAuditError(f"context stage judged a sample {label!r} at probability "
                               f"{prob!r}; a judgment is one of {', '.join(LABELS)} "
                               "at a probability in [0, 1]")
    return judgments


def _name_rows(models: Models, memo: OrderedDict, names: list[str]) -> np.ndarray:
    """The relation stage's embed_names rows of the names, in order. The
    names memo lacks are embedded in one call, checked to give one row
    each (else ShapeMismatch), then remembered."""
    missing = [name for name in dict.fromkeys(names) if name not in memo]
    fresh = {}
    if missing:
        embedded = models.relation.embed_names(missing)
        if len(embedded) != len(missing):
            raise ShapeMismatch(f"relation stage gave {len(embedded)} rows "
                                f"for {len(missing)} names")
        fresh = dict(zip(missing, embedded))
    rows = np.array([fresh[name] if name in fresh else memo[name] for name in names])
    for name, row in fresh.items():
        _remember(memo, name, row)
    return rows


def _relation_grid(models: Models, names: list[str], against: list[str],
                   named: OrderedDict) -> np.ndarray:
    """The relation stage's probabilities of names against ``against``,
    scored on their rows (see _name_rows, which keeps them in ``named``),
    checked: a grid of shape (len(names), len(against), len(RELATIONS))
    with every cell finite, else ShapeMismatch."""
    rows = _name_rows(models, named, [*names, *against])
    grid = models.relation.predict_proba(rows[:len(names)], rows[len(names):])
    expected = (len(names), len(against), len(RELATIONS))
    if np.shape(grid) != expected:
        raise ShapeMismatch(f"relation stage gave a grid of shape {np.shape(grid)} "
                            f"for {expected}")
    if not np.isfinite(grid).all():
        raise ShapeMismatch("relation stage gave a grid with a non-finite cell")
    return grid


def _detect_record(
    record: MedicalRecord,
    mentions: list[DiseaseMention],
    judgments: list[tuple[str, float]],
    models: Models,
    named: OrderedDict,
) -> tuple[list[WriteMissingFinding], dict[str, int]]:
    """Findings and context label counts of a staged record, given its
    mentions' (label, prob) judgments: one relation call compares the
    confirmed mentions with the discharge diagnoses (see _relation_grid)."""
    confirmed = []
    label_counts = {label: 0 for label in LABELS}
    for mention, (label, prob) in zip(mentions, judgments):
        label_counts[label] += 1
        if label == "confirmed":
            confirmed.append((mention, prob))
    if not confirmed:
        return [], label_counts

    discharge = discharge_names(record)
    probs = _relation_grid(models, [m.disease for m, _ in confirmed], discharge, named)
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


def _stage(record: MedicalRecord, matcher: DiseaseMatcher, features: FeatureLexicons,
           judged: OrderedDict, pending: dict):
    """The record staged for its chunk, (mentions, windows, known), and its
    new samples: its recalled mentions that are not a discharge diagnosis
    verbatim (those need no model calls), each one's window as (disease,
    context), and the judgments ``judged`` has of them. Each other window
    not yet in ``pending`` gets its sample there."""
    discharge_set = set(discharge_names(record))
    mentions = [m for m in find_mentions(matcher, record) if m.disease not in discharge_set]
    windows = [(m.disease, build_context_window(record, m).context) for m in mentions]
    known = {w: judged[w] for w in windows if w in judged}
    new = {w: assemble_features(*w, features)
           for w in windows if w not in known and w not in pending}
    pending.update(new)
    return (mentions, windows, known), new.values()


def _detect_chunk(chunk, pending: dict, judged: OrderedDict, models: Models,
                  named: OrderedDict):
    """(record, (findings, label counts) or the exception it raised) for
    each (record, staged record or exception) of ``chunk``, in order.

    ``pending`` maps each window first seen in the chunk to its sample.
    They are judged in one call, and the judgments are remembered in
    ``judged``. When that call raises, or its answer is refused, each
    record's pending windows are judged in a call of their own, so the
    error lands on the record that raised it; a record whose unjudged
    windows are all of ``pending`` takes that first error, as its own
    call would be the same call.
    """
    try:
        fresh = dict(zip(pending, _judge(models, list(pending.values()))))
    except Exception as exc:
        fresh = exc
    else:
        for window, judgment in fresh.items():
            _remember(judged, window, judgment)
    for record, outcome in chunk:
        if not isinstance(outcome, Exception):
            mentions, windows, known = outcome
            try:
                own = fresh
                if isinstance(own, Exception):
                    todo = [w for w in dict.fromkeys(windows) if w not in known]
                    if len(todo) == len(pending):
                        raise own
                    own = dict(zip(todo, _judge(models, [pending[w] for w in todo])))
                judgments = [known[w] if w in known else own[w] for w in windows]
                outcome = _detect_record(record, mentions, judgments, models, named)
            except Exception as exc:
                outcome = exc
        yield record, outcome


def detect_write_missing(
    record: MedicalRecord,
    models: Models,
    lexicons: PipelineLexicons,
    matcher: DiseaseMatcher | None = None,
) -> list[WriteMissingFinding]:
    """Write-missing findings for one record: batch_detect's path over a
    chunk of this one record, with memos of its own, raising the error
    batch_detect would enter for it. ``matcher`` must be built from
    ``lexicons.diseases``; ``lexicons.matcher`` serves when not given."""
    judged, pending = OrderedDict(), {}
    staged, _ = _stage(record, matcher or lexicons.matcher, lexicons.features, judged, pending)
    [(_, outcome)] = _detect_chunk([(record, staged)], pending, judged, models, OrderedDict())
    if isinstance(outcome, Exception):
        raise outcome
    return outcome[0]


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

    Records run in chunks, one after another: recall and windows run
    record by record, and each window not seen before in this call gets
    its features, until those new samples hold CHUNK_ROWS (8 passes of
    PASS_ROWS, 4096) rows, each sample's counted as it holds them, its
    disease capped at MAX_DISEASE; one ``classify`` call judges them all,
    which encodes them in one CharVocab.encode call, and then each
    record's relation call and findings follow (see _detect_chunk). A
    window, its (disease, context), seen before in this call takes the
    judgment given then, and each name is embedded once in this call,
    the relation calls taking rows of names. Both memos hold at most
    MEMO_ENTRIES entries each and end with the call; no byte of the
    report depends on them. ``parallelism`` is accepted and ignored.
    ``lexicons.matcher`` is read before the first record, so an empty
    disease lexicon raises.
    """
    records, errors = corpus, []
    if isinstance(corpus, (str, Path)):
        records, bad_lines = read_corpus(corpus)
        errors = [{"line": line_no, "error": str(error)} for line_no, error in bad_lines]

    matcher = lexicons.matcher
    judged, named = OrderedDict(), OrderedDict()
    outcomes = []
    chunk, pending, rows = [], {}, 0
    seen: set[str] = set()
    for record in records:
        try:
            if record.record_id in seen:
                raise DuplicateRecordId(f"duplicate record_id {record.record_id!r}")
            seen.add(record.record_id)
            staged, new = _stage(record, matcher, lexicons.features, judged, pending)
            # the rows each sample holds, its disease capped at MAX_DISEASE
            rows += sum(len(s.disease) + 1 + len(s.context) for s in new)
        except Exception as exc:  # a fault in one record must not end the batch
            staged = exc
        chunk.append((record, staged))
        if rows >= CHUNK_ROWS:
            outcomes.extend(_detect_chunk(chunk, pending, judged, models, named))
            chunk, pending, rows = [], {}, 0
    outcomes.extend(_detect_chunk(chunk, pending, judged, models, named))

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
