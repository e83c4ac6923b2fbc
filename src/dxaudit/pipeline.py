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
        that is not a number in [0, 1]."""


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
    or raises. One call answers all the requests' distinct items; when it
    raises, each request gets a call of its own, and a request holding
    every distinct item takes that first error, as its own call would be
    the same call. No items make no call."""
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


def _detect_chunk(chunk, models: Models, features: FeatureLexicons, judged: OrderedDict,
                  named: OrderedDict):
    """(record, (findings, label counts) or the exception it raised) for
    each (record, staged record or exception) of ``chunk``, in order; it
    returns the judgments and name rows the chunk's calls gave.

    Three stage calls serve the chunk through _answered: the context stage
    judges the windows ``judged`` lacks (_judge), the relation stage embeds
    the names ``named`` lacks of each record's (confirmed candidate,
    discharge name) pairs (_checked_rows), then scores each distinct pair
    (_checked_probs). A record takes the first error of its answers. Every
    read of the memos is done before the first record is yielded."""
    outcomes = [staged for _, staged in chunk]
    live = [i for i, outcome in enumerate(outcomes) if not isinstance(outcome, Exception)]
    answers, judgments = _answered([[w for w in outcomes[i][1] if w not in judged] for i in live],
                                   lambda windows: _judge(models, features, windows))
    for i, own in zip(live, answers):
        if not isinstance(own, Exception):
            mentions, windows, discharge = outcomes[i]
            read = [judged[w] if w in judged else own[w] for w in windows]
            label_counts = {label: [got for got, _ in read].count(label) for label in LABELS}
            own = ([(mention, prob) for mention, (label, prob) in zip(mentions, read)
                    if label == "confirmed"], discharge, label_counts)
        outcomes[i] = own

    pairs = {i: [(mention.disease, dx) for mention, _ in outcomes[i][0] for dx in outcomes[i][1]]
             for i in live if not isinstance(outcomes[i], Exception)}
    embedded, rows = _answered(
        [[name for name in dict.fromkeys(chain.from_iterable(request)) if name not in named]
         for request in pairs.values()],
        lambda names: _checked_rows(models.relation, names))

    def score(pairs):
        index = {name: k for k, name in enumerate(dict.fromkeys(chain.from_iterable(pairs)))}
        table = np.array([rows[name] if name in rows else named[name] for name in index])
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
    return judgments, rows


def _detect(records, models: Models, features: FeatureLexicons, matcher: DiseaseMatcher):
    """(record, (findings, label counts) or the exception it raised) for
    each of ``records``, in order, read one chunk at a time.

    A record is staged as (mentions, windows, discharge): its
    discharge_names, its recalled mentions not among them verbatim (those
    need no model calls) and each one's (disease, context) window; a
    repeated record_id or a staging fault is staged as its exception. A
    window new to the window memo and the chunk counts the rows its sample
    will hold, capped as assemble_features caps them. At CHUNK_ROWS new
    rows, or STAGED_ROWS rows held in all, the chunk is decided before the
    next record is read: its three stage calls share one fallback rule
    (see _detect_chunk, _answered). Its answers are filed in the memos only
    when a next chunk starts; both memos end with the generator.
    """
    judged, named = OrderedDict(), OrderedDict()
    seen: set[str] = set()
    records, filing = iter(records), ()
    for first in records:
        for memo, items in filing:
            _keep(memo, items)
        chunk, pending, rows, held = [], set(), 0, 0
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
                new = {w for w in windows if w not in judged and w not in pending}
                pending |= new
                rows += sum(min(len(d), MAX_DISEASE) + 1 + min(len(c), MAX_CONTEXT)
                            for d, c in new)
                held += sum(len(d) + len(c) + 1 + len(discharge) for d, c in windows)
                staged = (mentions, windows, discharge)
            except Exception as exc:  # a fault in one record must not end the batch
                staged = exc
            chunk.append((record, staged))
            if rows >= CHUNK_ROWS or held >= STAGED_ROWS:
                break
        judgments, names = yield from _detect_chunk(chunk, models, features, judged, named)
        filing = (judged, judgments), (named, names)


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
    chunk's new windows, one embeds its new names and one scores its
    (confirmed candidate, discharge name) pairs, and when a call fails,
    each record gets a call of its own (see _answered). A window judged,
    or a name embedded, before in this call is not sent again; both memos
    hold at most MEMO_ENTRIES entries each and end with the call, and no
    byte of the report depends on them.
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
