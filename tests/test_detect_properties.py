"""Properties: detect's chunking is invisible. Over drawn corpora, chunk
bounds and stage or window-builder faults, batch_detect reports each
record as detect_write_missing reports it alone, and the records that
fail alone are the records that fail in the batch, with the same error
type, in record order. A chunk is read only up to the record whose rows
reach the bound, and no call sends one window or name twice."""

from dataclasses import asdict

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from dxaudit import pipeline  # noqa: E402
from dxaudit.core import (LexiconKind, MedicalRecord, json_line, load_lexicon,  # noqa: E402
                          make_lexicon)
from dxaudit.errors import DuplicateRecordId  # noqa: E402
from dxaudit.features import FeatureLexicons  # noqa: E402
from dxaudit.pipeline import (Models, PipelineLexicons, batch_detect,  # noqa: E402
                              detect_write_missing)

from builders import MapRelationOracle, staged_rows  # noqa: E402
from conftest import DATA_DIR  # noqa: E402

DISEASES = ["高血压", "肺炎", "胃溃疡", "脑梗死", "冠心病"]
# Discharge names: the pool itself, so that candidates may already be
# listed, and two names the relation stand-in finds similar to a disease.
SIMILAR = [("肺炎", "肺部感染"), ("脑梗死", "脑卒中")]
NAMES = DISEASES + [name for _, name in SIMILAR]
# Sentences that confirm, deny or question a disease, and one that holds none.
SENTENCES = ["确诊为{}。", "否认{}。", "{}待查。", "另见{}，予对症治疗。", "生命体征平稳。"]


LEXICONS = PipelineLexicons(
    diseases=make_lexicon(DISEASES, LexiconKind.DISEASE_NAMES),
    features=FeatureLexicons(
        negation=load_lexicon(DATA_DIR / "negation_words.txt", LexiconKind.NEGATION_WORDS),
        enumerators=load_lexicon(DATA_DIR / "enumerator_patterns.txt",
                                 LexiconKind.ENUMERATOR_PATTERNS)))


class Fault(Exception):
    """A stage that raises."""


class FaultyContext:
    """Judges by cue words; a call holding a sample of ``trigger`` raises or
    answers ``kind``'s wrong answer."""

    def __init__(self, trigger=None, kind=None):
        self.trigger, self.kind = trigger, kind

    def classify(self, *samples):
        judgments = [("non_current" if "否认" in s.context else
                      "unknown" if "待查" in s.context else "confirmed",
                      0.5 + len(s.context) % 5 / 10) for s in samples]
        if not any(s.disease == self.trigger for s in samples):
            return judgments
        if self.kind == "raise":
            raise Fault(f"cannot judge {self.trigger}")
        if self.kind == "count":
            return judgments[:-1]
        if self.kind == "label":
            return [("maybe", prob) for _, prob in judgments]
        return [(label, float("nan")) for label, _ in judgments]


class FaultyRelation(MapRelationOracle):
    """MapRelationOracle whose ``stage`` (embed or score), in a call
    holding ``trigger``, raises or answers ``kind``'s wrong answer."""

    def __init__(self, stage=None, trigger=None, kind=None):
        super().__init__(SIMILAR)
        self.stage, self.trigger, self.kind = stage, trigger, kind

    def _faulty(self, answer):
        if self.kind == "raise":
            raise Fault(f"cannot {self.stage} {self.trigger}")
        if self.kind == "count":
            return answer[:-1]
        if self.kind == "shape":
            return answer[:, :-1]
        answer[-1, 0] = np.nan
        return answer

    def embed_names(self, names):
        rows = super().embed_names(names)
        return self._faulty(rows) if self.stage == "embed" and self.trigger in names else rows

    def predict_proba(self, rows, against_rows):
        probs = super().predict_proba(rows, against_rows)
        held = {name for name, in rows} | {name for name, in against_rows}
        return self._faulty(probs) if self.stage == "score" and self.trigger in held else probs


sentences = st.tuples(st.sampled_from(SENTENCES), st.sampled_from(DISEASES))
records = st.builds(
    lambda rid, sections, discharge: MedicalRecord(
        record_id=f"r{rid}",
        sections=tuple((name, "".join(s.format(d) for s, d in text))
                       for name, text in zip(("现病史", "既往史"), sections)),
        discharge_diagnoses=tuple(discharge)),
    st.integers(0, 59),  # ids repeat
    st.lists(st.lists(sentences, min_size=1, max_size=4), min_size=1, max_size=2),
    st.lists(st.sampled_from(NAMES), max_size=3, unique=True))

faults = st.one_of(
    st.just(("context", None, None)),  # no fault
    st.tuples(st.just("context"), st.sampled_from(DISEASES),
              st.sampled_from(["raise", "count", "label", "nan"])),
    st.tuples(st.just("embed"), st.sampled_from(NAMES), st.sampled_from(["raise", "count"])),
    st.tuples(st.just("score"), st.sampled_from(NAMES),
              st.sampled_from(["raise", "count", "shape", "nan"])),
    st.tuples(st.just("window"), st.sampled_from(DISEASES), st.just("raise")))


def bound(packaged):
    """A bound between 1 and its packaged value, small ones often."""
    return st.one_of(st.integers(1, 64), st.integers(1, packaged))


def models_for(fault):
    stage, trigger, kind = fault
    if stage == "context":
        return Models(FaultyContext(trigger, kind), FaultyRelation())
    if stage == "window":
        return Models(FaultyContext(), FaultyRelation())
    return Models(FaultyContext(), FaultyRelation(stage, trigger, kind))


def faulty_windows(trigger):
    """pipeline.build_context_window, raising for a mention of ``trigger``."""
    build = pipeline.build_context_window

    def build_context_window(record, mention):
        if mention.disease == trigger:
            raise Fault(f"cannot build a window of {trigger}")
        return build(record, mention)
    return build_context_window


def lines(results):
    return [json_line({"record_id": r.record_id, "findings": [asdict(f) for f in r.findings]})
            for r in results]


@settings(max_examples=900, deadline=None, derandomize=True)
@given(st.lists(records, min_size=1, max_size=40), faults, bound(pipeline.STAGED_ROWS))
def test_a_batch_reports_and_fails_each_record_as_alone(corpus, fault, limit):
    models = models_for(fault)
    alone, failed, seen = [], [], set()
    with pytest.MonkeyPatch.context() as patch:
        if fault[0] == "window":
            patch.setattr(pipeline, "build_context_window", faulty_windows(fault[1]))
        for rec in corpus:
            if rec.record_id in seen:
                failed.append((rec.record_id, DuplicateRecordId))
                continue
            seen.add(rec.record_id)
            try:
                alone.append(pipeline.RecordResult(
                    rec.record_id, detect_write_missing(rec, models, LEXICONS)))
            except Exception as exc:
                failed.append((rec.record_id, type(exc)))

        patch.setattr(pipeline, "STAGED_ROWS", limit)
        report = batch_detect(corpus, models, LEXICONS)
        outcomes = pipeline._detect(corpus, models, LEXICONS.features, LEXICONS.matcher)
        batch_failed = [(rec.record_id, type(outcome)) for rec, outcome in outcomes
                        if isinstance(outcome, Exception)]
    assert lines(report.results) == lines(alone)
    assert [entry["record_id"] for entry in report.errors] == [rid for rid, _ in failed]
    assert batch_failed == failed


def closing_records(corpus):
    """For each record of ``corpus``, how many records are read when its
    chunk closes: at the first record whose chunk holds STAGED_ROWS staged
    rows (a repeated record_id holds one), or at the corpus's end."""
    closes, held, seen = [], 0, set()
    for read, rec in enumerate(corpus, 1):
        held += 1 if rec.record_id in seen else staged_rows(rec, LEXICONS.matcher)
        seen.add(rec.record_id)
        if held >= pipeline.STAGED_ROWS or read == len(corpus):
            closes += [read] * (read - len(closes))
            held = 0
    return closes


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(records, min_size=1, max_size=40), bound(pipeline.STAGED_ROWS))
def test_detect_reads_a_chunk_up_to_the_record_that_fills_it(corpus, limit):
    read = []

    def reading():
        for rec in corpus:
            read.append(rec)
            yield rec

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pipeline, "STAGED_ROWS", limit)
        closes = closing_records(corpus)
        outcomes = pipeline._detect(reading(), models_for(("context", None, None)),
                                    LEXICONS.features, LEXICONS.matcher)
        for rec, close, (got, _) in zip(corpus, closes, outcomes):
            assert got is rec and len(read) == close
    assert len(read) == len(corpus)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(records, min_size=1, max_size=40), bound(pipeline.STAGED_ROWS))
def test_no_call_sends_a_window_or_name_twice(corpus, limit):
    sent = []

    class LoggingContext(FaultyContext):
        def classify(self, *samples):
            sent.append([(s.disease, s.context) for s in samples])
            return super().classify(*samples)

    class LoggingRelation(FaultyRelation):
        def embed_names(self, names):
            sent.append(list(names))
            return super().embed_names(names)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pipeline, "STAGED_ROWS", limit)
        batch_detect(corpus, Models(LoggingContext(), LoggingRelation()), LEXICONS)
    assert all(len(set(items)) == len(items) for items in sent)
