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
from itertools import accumulate, chain
from pathlib import Path
from typing import Protocol

import numpy as np

from .core import (MAX_CONTEXT, MAX_DISEASE, Lexicon, MedicalRecord, discharge_names,
                   json_line, normalize_disease_name, parse_json_object, read_corpus,
                   read_lines, write_lines)
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


# Entries in each of _detect's two memos, window judgments and name rows;
# past it the oldest entries go first, so a call's memory does not grow
# with its corpus.
MEMO_ENTRIES = 4096

# Rows of new samples _detect stages before one classify call judges them:
# eight passes' worth, so that each call packs many windows (on the toy
# bench corpus, passes of 512 rows hold about 20 windows each).
CHUNK_ROWS = 8 * PASS_ROWS

# Rows _detect stages in all before a chunk closes: one per record, and per
# window, new or served by the window memo, its characters, one more and
# one per discharge name its candidate may be paired with. Memo-served
# windows and records without candidates cost classify nothing, so only
# this bound closes a chunk of them, and it bounds the chunk's relation
# pairs too. On the bench corpora a chunk's new rows reach CHUNK_ROWS first.
STAGED_ROWS = 8 * CHUNK_ROWS


def _keep(memo: OrderedDict, items) -> None:
    """Add items, a dict of keys memo lacks, to memo, then drop memo's
    oldest entries past MEMO_ENTRIES."""
    memo.update(items)
    while len(memo) > MEMO_ENTRIES:
        memo.popitem(last=False)


def _judge(models: Models, features: FeatureLexicons,
           windows: list[tuple[str, str]]) -> list[tuple[str, float]]:
    """The context stage's judgments of the (disease, context) windows,
    their samples built in one assemble_features call, checked: one per
    sample (else ShapeMismatch), each a label of LABELS at a probability
    in [0, 1] (else DxAuditError). No windows make no call."""
    if not windows:
        return []
    samples = assemble_features(windows, features)
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


def _name_rows(models: Models, memo: OrderedDict, names: list[str]) -> np.ndarray:
    """The relation stage's rows of the names, in order. The names memo
    lacks are embedded in one call (see _checked_rows), then kept in memo."""
    missing = [name for name in dict.fromkeys(names) if name not in memo]
    fresh = dict(zip(missing, _checked_rows(models.relation, missing))) if missing else {}
    rows = np.array([fresh[name] if name in fresh else memo[name] for name in names])
    _keep(memo, fresh)
    return rows


def _relation_probs(models: Models, named: OrderedDict,
                    compared: list[tuple[list[str], list[str]]]) -> list[np.ndarray]:
    """For each (names, against) of ``compared``, every pair of which is
    scored in one checked call (see _checked_probs): the relation stage's
    (len(names), len(against), len(RELATIONS)) probabilities of each name
    to each name of ``against``. The rows of their distinct names come
    from one _name_rows call, which keeps them in ``named``."""
    distinct = list(dict.fromkeys(chain.from_iterable(chain(*pair) for pair in compared)))
    index = {name: i for i, name in enumerate(distinct)}
    left = [index[name] for names, against in compared for name in names for _ in against]
    right = [index[dx] for names, against in compared for _ in names for dx in against]
    rows = _name_rows(models, named, distinct)
    probs = _checked_probs(models.relation, rows[left], rows[right])
    ends = accumulate(len(names) * len(against) for names, against in compared)
    return [probs[end - len(names) * len(against) : end].reshape(
                len(names), len(against), len(RELATIONS))
            for (names, against), end in zip(compared, ends)]


def _detect_record(
    record: MedicalRecord,
    confirmed: list[tuple[DiseaseMention, float]],
    discharge: list[str],
    probs: np.ndarray,
    label_counts: dict[str, int],
) -> tuple[list[WriteMissingFinding], dict[str, int]]:
    """Findings and context label counts of a judged record, given its
    confirmed (mention, prob) candidates, its discharge_names and the
    (len(confirmed), len(discharge), len(RELATIONS)) probabilities of
    each candidate to each of those names: a candidate is found when its
    most probable relation to every one is irrelevance. ``record`` is the
    record they are of; a trace of this call reads its record_id."""
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


def _judged(chunk, pending: dict, judged: OrderedDict, models: Models,
            features: FeatureLexicons) -> tuple[list, dict | Exception]:
    """Each (record, staged record or exception) of ``chunk`` as (record,
    (confirmed (mention, prob) candidates, discharge names, label counts)
    or the exception it raised), and the judgments of ``pending`` (or the
    exception their call raised), which the caller files in ``judged``.

    ``pending`` holds each window first seen in the chunk, in order.
    Their samples are built and judged in one call (see _judge). Each
    record reads its judgments from ``judged`` or that call's. When that
    call raises, or its answer is refused, each record's unjudged windows
    are built and judged in a call of their own, so the error lands on
    the record that raised it; a record whose unjudged windows are all of
    ``pending`` takes that first error, as its own call would be the same
    call.
    """
    try:
        fresh = dict(zip(pending, _judge(models, features, list(pending))))
    except Exception as exc:
        fresh = exc
    out = []
    for record, outcome in chunk:
        if not isinstance(outcome, Exception):
            mentions, windows, discharge = outcome
            try:
                own = fresh
                if isinstance(own, Exception):
                    todo = [w for w in dict.fromkeys(windows) if w not in judged]
                    if len(todo) == len(pending):
                        raise own
                    own = dict(zip(todo, _judge(models, features, todo)))
                confirmed, label_counts = [], dict.fromkeys(LABELS, 0)
                for mention, window in zip(mentions, windows):
                    label, prob = judged[window] if window in judged else own[window]
                    label_counts[label] += 1
                    if label == "confirmed":
                        confirmed.append((mention, prob))
                outcome = (confirmed, discharge, label_counts)
            except Exception as exc:
                outcome = exc
        out.append((record, outcome))
    return out, fresh


def _detect_chunk(chunk, pending: dict, judged: OrderedDict, models: Models,
                  features: FeatureLexicons, named: OrderedDict):
    """(record, (findings, label counts) or the exception it raised) for
    each (record, staged record or exception) of ``chunk``, in order.

    The chunk's records are judged first (see _judged). Then the
    confirmed candidates of every record are compared with its discharge
    names in one relation call (see _relation_probs), and each record
    reads its own slice of the answer. When that call raises, or its
    answer is refused, each record with a pair to score is scored in a
    call of its own, so the error lands on the record that raised it; the
    only record of a chunk with pairs takes that first error, as its own
    call would be the same call. The
    chunk's judgments are filed in ``judged`` only once every record of
    the chunk has read them.
    """
    records, fresh = _judged(chunk, pending, judged, models, features)
    paired = {i: ([m.disease for m, _ in outcome[0]], outcome[1])
              for i, (_, outcome) in enumerate(records)
              if not isinstance(outcome, Exception) and outcome[0] and outcome[1]}
    try:
        answers = dict(zip(paired, _relation_probs(models, named, list(paired.values()))
                               if paired else ()))
    except Exception as exc:
        answers = exc
    for i, (record, outcome) in enumerate(records):
        if not isinstance(outcome, Exception):
            confirmed, discharge, label_counts = outcome
            try:
                if i not in paired:
                    probs = np.empty((len(confirmed), len(discharge), len(RELATIONS)))
                elif not isinstance(answers, Exception):
                    probs = answers[i]
                elif len(paired) == 1:
                    raise answers
                else:
                    [probs] = _relation_probs(models, named, [paired[i]])
                outcome = _detect_record(record, confirmed, discharge, probs, label_counts)
            except Exception as exc:
                outcome = exc
        yield record, outcome
    if not isinstance(fresh, Exception):
        _keep(judged, fresh)


def _detect(records, models: Models, features: FeatureLexicons, matcher: DiseaseMatcher):
    """(record, (findings, label counts) or the exception it raised) for
    each of ``records``, in order, read one chunk at a time.

    A record is staged as (mentions, windows, discharge): its
    discharge_names, its recalled mentions not among them verbatim (those
    need no model calls) and each one's (disease, context) window; a
    repeated record_id or a staging fault is staged as its exception. A
    window that neither the window memo nor the chunk holds is pending,
    and counts the rows its sample will hold, capped as assemble_features
    caps them. At CHUNK_ROWS pending rows, or STAGED_ROWS rows held in all
    (counted as STAGED_ROWS says), the chunk goes to _detect_chunk before
    the next record is read. Both memos end with the generator.
    """
    judged, named = OrderedDict(), OrderedDict()
    seen: set[str] = set()
    records = iter(records)
    while True:
        chunk, pending, rows, held = [], {}, 0, 0
        for record in records:
            held += 1
            try:
                if record.record_id in seen:
                    raise DuplicateRecordId(f"duplicate record_id {record.record_id!r}")
                seen.add(record.record_id)
                discharge = discharge_names(record)
                listed = set(discharge)
                mentions = [m for m in find_mentions(matcher, record) if m.disease not in listed]
                windows = [(m.disease, build_context_window(record, m).context) for m in mentions]
                new = {w: None for w in windows if w not in judged and w not in pending}
                pending.update(new)
                rows += sum(min(len(d), MAX_DISEASE) + 1 + min(len(c), MAX_CONTEXT)
                            for d, c in new)
                held += sum(len(d) + len(c) + 1 + len(discharge) for d, c in windows)
                staged = (mentions, windows, discharge)
            except Exception as exc:  # a fault in one record must not end the batch
                staged = exc
            chunk.append((record, staged))
            if rows >= CHUNK_ROWS or held >= STAGED_ROWS:
                break
        yield from _detect_chunk(chunk, pending, judged, models, features, named)
        if rows < CHUNK_ROWS and held < STAGED_ROWS:
            return


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

    Records run through _detect, a chunk at a time (see _detect_chunk):
    one classify call judges a chunk's new windows, and one relation call
    scores its (confirmed candidate, discharge name) pairs. A window
    judged before in this call takes the judgment given then, and each
    name is embedded once in this call; both memos hold at most
    MEMO_ENTRIES entries each and end with the call, and no byte of the
    report depends on them.
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
