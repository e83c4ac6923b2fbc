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

from .core import (Lexicon, MedicalRecord, discharge_names, json_line, normalize_disease_name,
                   parse_json_object, read_corpus, read_lines, write_lines)
from .errors import (DuplicateRecordId, DxAuditError, EmptyName, ModelNotLoaded, ParseError,
                     ShapeMismatch)
from .features import LABELS, ContextSample, FeatureLexicons, assemble_features
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
        that is not a number in [0, 1]."""


class RelationStage(Protocol):
    def embed_names(self, names: list[str]) -> np.ndarray:
        """One row per name, in order, that does not depend on the names
        embedded with it. Detect embeds each name once per chunk, and
        refuses another count of rows."""

    def predict_proba(self, rows: np.ndarray, against_rows: np.ndarray) -> np.ndarray:
        """(len(rows), len(RELATIONS)) probabilities of each relation of the
        disease embedded in each row to the name embedded in the same row
        of against_rows, which detect passes as many rows as rows. A pair's
        probabilities must not depend on the pairs scored with it. Detect
        refuses another shape, or a probability that is not finite."""


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


# Rows _detect stages before a chunk closes: one per record, and per window
# its characters, one more and one per discharge name its candidate may be
# paired with. It bounds what a chunk's classify call packs and the chunk's
# relation pairs; a toy or train bench corpus is one chunk.
STAGED_ROWS = 32768


def _judge(models: Models, features: FeatureLexicons,
           windows: list[tuple[str, str]]) -> list[tuple[str, float]]:
    """The context stage's judgments of the (disease, context) windows,
    their samples built in one assemble_features call, checked: one per
    sample (else ShapeMismatch), each a label of LABELS at a probability
    in [0, 1], a Python or numpy float or integer but not a bool (else
    DxAuditError), which is kept as a float."""
    samples = assemble_features(windows, features)
    judgments = models.context.classify(*samples)
    if len(judgments) != len(samples):
        raise ShapeMismatch(f"context stage gave {len(judgments)} judgments "
                            f"for {len(samples)} samples")
    for label, prob in judgments:
        if (label not in LABELS or isinstance(prob, bool)
                or not isinstance(prob, (float, int, np.floating, np.integer))
                or not 0.0 <= prob <= 1.0):  # also false for NaN
            raise DxAuditError(f"context stage judged a sample {label!r} at probability "
                               f"{prob!r}; a judgment is one of {', '.join(LABELS)} "
                               "at a probability in [0, 1]")
    return [(label, float(prob)) for label, prob in judgments]


def _checked_rows(relation: RelationStage, names: list[str]) -> np.ndarray:
    """relation.embed_names(names), checked to hold one row per name, else
    ShapeMismatch."""
    rows = relation.embed_names(names)
    if len(rows) != len(names):
        raise ShapeMismatch(f"relation stage gave {len(rows)} rows for {len(names)} names")
    return rows


def _checked_probs(relation: RelationStage, rows: np.ndarray,
                   against_rows: np.ndarray) -> np.ndarray:
    """relation.predict_proba(rows, against_rows), checked: one row of
    len(RELATIONS) probabilities per pair, every one finite, else
    ShapeMismatch."""
    probs = relation.predict_proba(rows, against_rows)
    expected = (len(rows), len(RELATIONS))
    if np.shape(probs) != expected:
        raise ShapeMismatch(f"relation stage gave probabilities of shape {np.shape(probs)} "
                            f"for {expected}")
    if not np.isfinite(probs).all():
        raise ShapeMismatch("relation stage gave a probability that is not finite")
    return probs


def _answered(requests: list[list], call) -> tuple[list[dict | Exception], dict]:
    """Each request's answers (a dict from its items to what ``call``
    answered them) or the exception it takes, and every answer given.

    ``call`` answers a list of distinct items, one answer each in order,
    or raises. One call answers all the requests' distinct items, so an
    item that several requests hold, or one request holds twice, is sent
    once; when that call raises, each request gets a call of its own, and
    a request holding every distinct item takes that first error, as its
    own call would be the same call. No items make no call."""
    union = list(dict.fromkeys(chain.from_iterable(requests)))
    try:
        given = dict(zip(union, call(union))) if union else {}
        return [given] * len(requests), given
    except Exception as exc:
        first, given, out = exc, {}, []
    for request in requests:
        items = list(dict.fromkeys(request))
        try:
            if len(items) == len(union):
                raise first
            own = dict(zip(items, call(items))) if items else {}
            given.update(own)
        except Exception as exc:
            own = exc
        out.append(own)
    return out, given


def _detect_record(
    record: MedicalRecord,
    confirmed: list[tuple[DiseaseMention, float]],
    discharge: list[str],
    probs: np.ndarray,
) -> list[WriteMissingFinding]:
    """Findings of a judged record, given its confirmed (mention, prob)
    candidates, its discharge_names and the (len(confirmed),
    len(discharge), len(RELATIONS)) probabilities of each candidate to
    each of those names: a candidate is found when its most probable
    relation to every one is irrelevance. ``record`` is the record they
    are of; a trace of this call reads its record_id."""
    findings: list[WriteMissingFinding] = []
    for (mention, prob), grid in zip(confirmed, probs):
        relations = tuple((dx, RELATIONS[k], float(row[k]))
                          for dx, row, k in zip(discharge, grid, grid.argmax(axis=1)))
        if all(rel == "irrelevance" for _, rel, _ in relations):
            findings.append(WriteMissingFinding(
                disease=mention.disease, evidence_spans=mention.spans,
                context_label_prob=prob, relations=relations))
    return findings


def _detect_chunk(chunk, models: Models, features: FeatureLexicons):
    """(record, (findings, label counts) or the exception it raised) for
    each (record, staged record or exception) of ``chunk``, in order.

    Three stage calls serve the chunk through _answered, each sent the
    chunk's distinct items: the context stage judges the windows
    (_judge), the relation stage embeds the names of each record's
    (confirmed candidate, discharge name) pairs (_checked_rows), then
    scores the pairs (_checked_probs). A record takes the first error of
    its answers. No answer outlives the chunk."""
    outcomes = [staged for _, staged in chunk]
    live = [i for i, outcome in enumerate(outcomes) if not isinstance(outcome, Exception)]
    answers, _ = _answered([outcomes[i][1] for i in live],
                           lambda windows: _judge(models, features, windows))
    for i, own in zip(live, answers):
        if not isinstance(own, Exception):
            mentions, windows, discharge = outcomes[i]
            read = [own[w] for w in windows]
            label_counts = {label: [got for got, _ in read].count(label) for label in LABELS}
            own = ([(mention, prob) for mention, (label, prob) in zip(mentions, read)
                    if label == "confirmed"], discharge, label_counts)
        outcomes[i] = own

    pairs = {i: [(mention.disease, dx) for mention, _ in outcomes[i][0] for dx in outcomes[i][1]]
             for i in live if not isinstance(outcomes[i], Exception)}
    embedded, rows = _answered([list(chain.from_iterable(request)) for request in pairs.values()],
                               lambda names: _checked_rows(models.relation, names))

    def score(pairs):
        index = {name: k for k, name in enumerate(dict.fromkeys(chain.from_iterable(pairs)))}
        table = np.array([rows[name] for name in index])
        return _checked_probs(models.relation, table[[index[name] for name, _ in pairs]],
                              table[[index[dx] for _, dx in pairs]])

    scored, _ = _answered([[] if isinstance(own, Exception) else pairs[i]
                           for i, own in zip(pairs, embedded)], score)
    scores = {i: own if isinstance(own, Exception) else probs
              for i, own, probs in zip(pairs, embedded, scored)}
    for i, (record, _) in enumerate(chunk):
        outcome = scores.get(i, outcomes[i])
        if not isinstance(outcome, Exception):
            confirmed, discharge, label_counts = outcomes[i]
            probs = np.array([outcome[pair] for pair in pairs[i]]).reshape(
                len(confirmed), len(discharge), len(RELATIONS))
            outcome = _detect_record(record, confirmed, discharge, probs), label_counts
        yield record, outcome


def _detect(records, models: Models, features: FeatureLexicons, matcher: DiseaseMatcher):
    """(record, (findings, label counts) or the exception it raised) for
    each of ``records``, in order, read one chunk at a time.

    A record is staged as (mentions, windows, discharge): its
    discharge_names, its recalled mentions not among them verbatim (those
    need no model calls) and each one's (disease, context) window; a
    repeated record_id or a staging fault is staged as its exception.
    Once the chunk's records hold STAGED_ROWS rows, or the corpus ends,
    the chunk is decided before the next record is read (see
    _detect_chunk, _answered). Each chunk is decided from its own stage
    calls alone, so a window repeated across chunks is judged again.
    """
    seen: set[str] = set()
    records = iter(records)
    for first in records:
        chunk, held = [], 0
        for record in chain([first], records):
            held += 1
            try:
                if record.record_id in seen:
                    raise DuplicateRecordId(f"duplicate record_id {record.record_id!r}")
                seen.add(record.record_id)
                discharge = discharge_names(record)
                listed = set(discharge)
                mentions = [m for m in find_mentions(matcher, record) if m.disease not in listed]
                windows = [(m.disease, build_context_window(record, m).context) for m in mentions]
                held += sum(len(d) + len(c) + 1 + len(discharge) for d, c in windows)
                staged = (mentions, windows, discharge)
            except Exception as exc:  # a fault in one record must not end the batch
                staged = exc
            chunk.append((record, staged))
            if held >= STAGED_ROWS:
                break
        yield from _detect_chunk(chunk, models, features)


def detect_write_missing(
    record: MedicalRecord,
    models: Models,
    lexicons: PipelineLexicons,
    matcher: DiseaseMatcher | None = None,
) -> list[WriteMissingFinding]:
    """Write-missing findings for one record: batch_detect's path (see
    _detect) over this one record, raising the error batch_detect would
    enter for it. ``matcher`` must be built from ``lexicons.diseases``;
    ``lexicons.matcher`` serves when not given."""
    [(_, outcome)] = _detect([record], models, lexicons.features,
                             matcher or lexicons.matcher)
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

    Records run through _detect, a chunk at a time: one call judges a
    chunk's distinct windows, one embeds its distinct names and one scores
    its (confirmed candidate, discharge name) pairs, and when a call
    fails, each record gets a call of its own (see _answered). A chunk
    keeps nothing for the next, so a window repeated across chunks is
    judged again, and no byte of the report depends on where a chunk
    closes.
    ``parallelism`` is accepted and ignored. ``lexicons.matcher`` is read
    before the first record, so an empty disease lexicon raises.
    """
    records, errors = corpus, []
    if isinstance(corpus, (str, Path)):
        records, bad_lines = read_corpus(corpus)
        errors = [{"line": line_no, "error": str(error)} for line_no, error in bad_lines]

    results: list[RecordResult] = []
    label_totals = {label: 0 for label in LABELS}
    section_counts: dict[str, int] = {}
    for record, outcome in _detect(records, models, lexicons.features, lexicons.matcher):
        if isinstance(outcome, Exception):
            error = str(outcome) if isinstance(outcome, DxAuditError) \
                else f"{type(outcome).__name__}: {outcome}"
            errors.append({"record_id": record.record_id, "error": error})
            continue
        findings, label_counts = outcome
        results.append(RecordResult(record_id=record.record_id, findings=findings))
        for label in LABELS:
            label_totals[label] += label_counts[label]
        for finding in findings:
            for section_index in sorted({s[0] for s in finding.evidence_spans}):
                name = record.sections[section_index][0]
                section_counts[name] = section_counts.get(name, 0) + 1
    summary = {
        "records": len(results),
        "findings": sum(len(result.findings) for result in results),
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
