"""Pipeline composition: filtering rules, batch behavior, report I/O."""

import dataclasses
import json

import pytest

from dxaudit import synth
from dxaudit.core import LexiconKind, MedicalRecord, make_lexicon
from dxaudit.errors import DxAuditError, ModelNotLoaded, ParseError
from dxaudit.evaluate import (
    ConfirmAllContext,
    IrrelevanceAllRelation,
    LookupContextOracle,
    MapRelationOracle,
)
from dxaudit.pipeline import (
    DetectConfig,
    Models,
    PipelineLexicons,
    batch_detect,
    detect_write_missing,
    load_report_findings,
    write_report,
)


@pytest.fixture()
def pool():
    return make_lexicon(["高血压", "肺炎", "胃溃疡", "脑梗死"], LexiconKind.DISEASE_NAMES)


@pytest.fixture()
def lexicons(pool, feature_lexicons):
    return PipelineLexicons(diseases=pool, features=feature_lexicons)


def oracle_models(mention_labels, similar_pairs=()):
    return Models(context=LookupContextOracle(mention_labels),
                  relation=MapRelationOracle(similar_pairs))


def record(record_id, text, discharge):
    return MedicalRecord(record_id=record_id, sections=(("现病史", text),),
                         discharge_diagnoses=tuple(discharge))


class TestDetect:
    def test_planted_confirmed_disease_found_with_spans(self, lexicons):
        rec = record("r1", "入院后确诊为肺炎，继续治疗。", ["高血压"])
        models = oracle_models([("r1", "肺炎", "confirmed")])
        findings = detect_write_missing(rec, models, lexicons)
        assert len(findings) == 1
        finding = findings[0]
        assert finding.disease == "肺炎"
        assert finding.evidence_spans == ((0, 6, 8),)
        assert finding.context_label_prob == 1.0
        assert all(rel == "irrelevance" for _, rel, _ in finding.relations)

    def test_exact_discharge_match_suppressed_without_model_calls(self, lexicons):
        calls = []

        class SpyContext:
            def classify(self, sample, record_id=None):
                calls.append(sample.disease)
                return "confirmed", 1.0

        rec = record("r1", "入院后确诊为肺炎。", ["肺炎"])
        models = Models(context=SpyContext(), relation=IrrelevanceAllRelation())
        assert detect_write_missing(rec, models, lexicons) == []
        assert calls == []

    def test_non_confirmed_labels_filtered(self, lexicons):
        rec = record("r1", "否认高血压。肺炎待查。", [])
        models = oracle_models([("r1", "高血压", "non_current"),
                                ("r1", "肺炎", "unknown")])
        assert detect_write_missing(rec, models, lexicons) == []

    def test_similar_discharge_name_suppresses(self, lexicons):
        rec = record("r1", "入院后确诊为肺炎。", ["肺部感染"])
        models = oracle_models([("r1", "肺炎", "confirmed")],
                               similar_pairs=[("肺炎", "肺部感染")])
        assert detect_write_missing(rec, models, lexicons) == []

    def test_empty_discharge_list_emits(self, lexicons):
        rec = record("r1", "入院后确诊为肺炎。", [])
        models = oracle_models([("r1", "肺炎", "confirmed")])
        findings = detect_write_missing(rec, models, lexicons)
        assert [f.disease for f in findings] == ["肺炎"]
        assert findings[0].relations == ()

    def test_findings_sorted_by_first_span(self, lexicons):
        rec = record("r1", "确诊胃溃疡。另确诊为肺炎。", [])
        models = oracle_models([("r1", "胃溃疡", "confirmed"),
                                ("r1", "肺炎", "confirmed")])
        findings = detect_write_missing(rec, models, lexicons)
        assert [f.disease for f in findings] == ["胃溃疡", "肺炎"]

    def test_emit_on_other_config(self, lexicons):
        class OtherRelation:
            def predict(self, a, b):
                return "other", 0.9

        rec = record("r1", "入院后确诊为肺炎。", ["高血压"])
        models = Models(context=ConfirmAllContext(), relation=OtherRelation())
        strict = detect_write_missing(rec, models, lexicons)
        assert strict == []
        relaxed = detect_write_missing(
            rec, models, lexicons, DetectConfig(emit_on="irrelevance_or_other"))
        assert [f.disease for f in relaxed] == ["肺炎"]

    def test_unknown_emit_on_rejected_at_construction(self):
        with pytest.raises(DxAuditError, match="bogus"):
            DetectConfig(emit_on="bogus")

    def test_model_not_loaded(self, lexicons):
        rec = record("r1", "确诊为肺炎。", [])
        with pytest.raises(ModelNotLoaded):
            detect_write_missing(rec, Models(context=None, relation=None), lexicons)

    def test_monotone_in_discharge_removal(self, lexicons, data_dir, disease_pool,
                                           feature_lexicons):
        templates = synth.Templates.load(data_dir / "templates.txt")
        variants = synth.load_variant_pairs(data_dir / "disease_variants.tsv")
        spec = synth.SyntheticSpec(n_records=40, diseases_per_record=4,
                                   miss_rate=0.3, negation_rate=0.25,
                                   enumeration_rate=0.3, seed=21)
        records, gold = synth.gen_synthetic_corpus(spec, disease_pool, templates,
                                                   variant_pairs=variants)
        models = oracle_models(gold.mention_labels, similar_pairs=variants)
        full_lexicons = PipelineLexicons(diseases=disease_pool,
                                         features=feature_lexicons)
        for rec in records:
            base = {f.disease for f in
                    detect_write_missing(rec, models, full_lexicons)}
            for drop in range(len(rec.discharge_diagnoses)):
                shrunk = dataclasses.replace(
                    rec, discharge_diagnoses=tuple(
                        dx for i, dx in enumerate(rec.discharge_diagnoses)
                        if i != drop))
                grown = {f.disease for f in
                         detect_write_missing(shrunk, models, full_lexicons)}
                assert base <= grown


class TestBatchDetect:
    def test_parallelism_invariance(self, lexicons, tmp_path):
        records = [
            record(f"r{i}", "确诊为肺炎。另见高血压记录：否认脑梗死。", ["高血压"])
            for i in range(20)
        ]
        labels = []
        for i in range(20):
            labels += [(f"r{i}", "肺炎", "confirmed"),
                       (f"r{i}", "高血压", "confirmed"),
                       (f"r{i}", "脑梗死", "non_current")]
        models = oracle_models(labels)
        seq = batch_detect(records, models, lexicons, parallelism=1)
        par = batch_detect(records, models, lexicons, parallelism=8)
        path_a, path_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_report(seq, path_a)
        write_report(par, path_b)
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_empty_corpus(self, lexicons):
        report = batch_detect([], oracle_models([]), lexicons)
        assert report.results == []
        assert report.summary["records"] == 0
        assert report.summary["findings"] == 0

    def test_unparseable_line_reported_rest_processed(self, lexicons, tmp_path):
        good = {"record_id": "ok", "sections": [{"name": "s", "text": "确诊为肺炎。"}],
                "discharge_diagnoses": []}
        path = tmp_path / "corpus.jsonl"
        path.write_text(json.dumps(good, ensure_ascii=False) + "\n{broken\n",
                        encoding="utf-8")
        models = oracle_models([("ok", "肺炎", "confirmed")])
        report = batch_detect(str(path), models, lexicons)
        assert len(report.results) == 1
        assert report.results[0].record_id == "ok"
        assert len(report.errors) == 1
        assert report.errors[0]["line"] == 2

    def test_summary_counts(self, lexicons):
        records = [record("r1", "确诊为肺炎。否认高血压。", [])]
        models = oracle_models([("r1", "肺炎", "confirmed"),
                                ("r1", "高血压", "non_current")])
        report = batch_detect(records, models, lexicons)
        assert report.summary["findings"] == 1
        assert report.summary["context_labels"]["confirmed"] == 1
        assert report.summary["context_labels"]["non_current"] == 1
        assert report.summary["findings_by_section"] == {"现病史": 1}

    def test_report_round_trip(self, lexicons, tmp_path):
        records = [record("r1", "确诊为肺炎。", [])]
        models = oracle_models([("r1", "肺炎", "confirmed")])
        report = batch_detect(records, models, lexicons)
        path = tmp_path / "report.jsonl"
        write_report(report, path)
        loaded = load_report_findings(path)
        assert set(loaded) == {"r1"}
        assert loaded["r1"][0]["disease"] == "肺炎"

    @pytest.mark.parametrize("bad_line, message", [
        ("not json", "invalid JSON"),
        ("[1, 2]", "not a JSON object"),
        ('{"record_id": "r2", "findings": {"disease": "肺炎"}}', "list of objects"),
        ('{"record_id": "r2", "findings": [{"evidence_spans": []}]}', "string disease"),
        ('{"record_id": ["r2"], "findings": []}', "record_id"),
    ])
    def test_malformed_report_line_is_parse_error(self, tmp_path, bad_line, message):
        path = tmp_path / "report.jsonl"
        path.write_text('{"record_id": "r1", "findings": []}\n\n' + bad_line + "\n",
                        encoding="utf-8")
        with pytest.raises(ParseError, match=message) as excinfo:
            load_report_findings(path)
        assert excinfo.value.line == 3

    def test_undecodable_report_line_is_parse_error(self, tmp_path):
        path = tmp_path / "report.jsonl"
        path.write_bytes(b'{"record_id": "r1", "findings": []}\n\xff{"x":1}\n')
        with pytest.raises(ParseError, match="invalid UTF-8") as excinfo:
            load_report_findings(path)
        assert excinfo.value.line == 2
