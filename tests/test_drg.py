"""Severity regrouping and the cost-delta report."""

import json
import math
import random
from decimal import Decimal

import numpy as np
import pytest

from dxaudit import drg, relation_model
from dxaudit.core import (CcLevel, DrgAssignment, IcdEntry, IcdIndex, MedicalRecord, Tier,
                          json_line)
from dxaudit.drg import (
    MATCH_THRESHOLD,
    DrgGroupTable,
    cc_mcc_level,
    cost_delta_report,
    recovered_levels_for_records,
    regroup,
)
from dxaudit.errors import (BadSetting, DxAuditError, MissingGroupRow, ParseError,
                            ShapeMismatch)
from dxaudit.relation_model import (
    DiseasePair,
    PairEncoder,
    PairSource,
    PairTrainConfig,
    finetune,
    load_pairs,
)

from builders import MapRelationOracle
from conftest import make_fixture_icd_entries
from oracles import seed_cc_mcc_level


def minor(major: int) -> int:
    return major * 100


@pytest.fixture(scope="module")
def table():
    return DrgGroupTable({
        ("GB2", Tier.MCC): minor(18000),
        ("GB2", Tier.CC): minor(14000),
        ("GB2", Tier.NO_CC): minor(10000),
        ("GB1", Tier.MCC): minor(22000),
        ("GB1", Tier.CC): minor(20000),
        ("GB1", Tier.NO_CC): minor(17000),
        ("ES1", Tier.MCC): minor(22000),
        ("ES1", Tier.CC): minor(20000),
    })


def rec(record_id, adrg, tier, cost_major):
    return MedicalRecord(
        record_id=record_id, sections=(("s", "正文。"),), discharge_diagnoses=(),
        drg=DrgAssignment(adrg=adrg, tier=tier, avg_cost=minor(cost_major)))


class TestCcMccLevel:
    def test_exact_title_match(self, fixture_icd):
        assert cc_mcc_level("角膜裂伤", fixture_icd) is CcLevel.CC
        assert cc_mcc_level("巩膜破裂", fixture_icd) is CcLevel.NONE

    def test_unresolvable_surface(self, fixture_icd):
        assert cc_mcc_level("不存在的病", fixture_icd) is CcLevel.NONE

    def test_normalization_applied(self, fixture_icd):
        assert cc_mcc_level("角膜裂伤 ", fixture_icd) is CcLevel.CC

    def test_model_resolves_paraphrase(self, fixture_icd, data_dir):
        fixture_pairs = load_pairs(data_dir / "relation_pairs_fixture.tsv")
        paraphrase_pair = DiseasePair("角膜裂开损伤", "角膜裂伤",
                                      PairSource.ANNOTATED, relation="similarity")
        titles = [e.title for e in fixture_icd.entries()]
        training = fixture_pairs + [paraphrase_pair] + [
            DiseasePair(t, t, PairSource.ANNOTATED, relation="similarity")
            for t in titles
        ]
        names = [p.a for p in training] + [p.b for p in training]
        encoder = PairEncoder.from_names(names, d_pair=24, seed=6)
        model, _ = finetune(encoder, training,
                            PairTrainConfig(learning_rate=0.05, hidden=48,
                                            epochs=60, seed=6))
        assert cc_mcc_level("角膜裂开损伤", fixture_icd, model, MATCH_THRESHOLD,
                            model.embed_names(fixture_icd.titles())) is CcLevel.CC

    def test_relation_match_takes_the_most_severe_level(self):
        """A title matched through the relation model resolves as an exact
        match of that title does, whatever the order of its entries."""
        icd = IcdIndex([IcdEntry("E11", "糖尿病", CcLevel.NONE),
                        IcdEntry("E11.9", "糖尿病", CcLevel.MCC)])
        assert cc_mcc_level("糖尿病", icd) is CcLevel.MCC
        oracle = MapRelationOracle([("消渴症", "糖尿病")])
        assert cc_mcc_level("消渴症", icd, oracle, MATCH_THRESHOLD,
                            oracle.embed_names(icd.titles())) is CcLevel.MCC

    @pytest.mark.parametrize("rows", [None, 0, 2], ids=["missing", "no-rows", "two-rows"])
    def test_title_rows_of_another_count_are_refused(self, rows):
        """The fallback needs one row per title: a missing title_rows was a
        bare TypeError, and a count other than the titles' a numpy
        IndexError or a silently wrong row."""
        icd = IcdIndex([IcdEntry("E11", "糖尿病", CcLevel.MCC)])
        oracle = MapRelationOracle([("消渴症", "糖尿病")])
        title_rows = None if rows is None else oracle.embed_names(["糖尿病"] * rows)
        with pytest.raises(ShapeMismatch, match="title_rows.* for 1 ICD titles"):
            cc_mcc_level("消渴症", icd, oracle, MATCH_THRESHOLD, title_rows)

    @pytest.mark.parametrize("answer, message", [
        (lambda grid: np.full(grid.shape, np.nan), "non-finite cell"),
        (lambda grid: grid[:, :, :3], r"shape \(1, 1, 3\) for \(1, 1, 5\)"),
    ], ids=["all-nan", "three-relations"])
    def test_relation_answers_detect_refuses_are_refused(self, answer, message):
        """The fallback checks the model's grid as detect does: an all-NaN
        grid resolved 消渴症 to NONE, and one of 3 relation columns to MCC,
        both without an error."""
        class BadGrid(MapRelationOracle):
            def predict_proba(self, rows, against_rows):
                return answer(super().predict_proba(rows, against_rows))

        icd = IcdIndex([IcdEntry("E11", "糖尿病", CcLevel.MCC)])
        model = BadGrid([("消渴症", "糖尿病")])
        with pytest.raises(ShapeMismatch, match=message):
            cc_mcc_level("消渴症", icd, model, MATCH_THRESHOLD, model.embed_names(icd.titles()))


@pytest.fixture(scope="module")
def paraphrase_model(fixture_icd, data_dir):
    """The fixture pairs, one paraphrase and every title's identity pair."""
    titles = [e.title for e in fixture_icd.entries()]
    training = load_pairs(data_dir / "relation_pairs_fixture.tsv") + [
        DiseasePair("角膜裂开损伤", "角膜裂伤", PairSource.ANNOTATED, relation="similarity"),
    ] + [DiseasePair(t, t, PairSource.ANNOTATED, relation="similarity") for t in titles]
    names = [p.a for p in training] + [p.b for p in training]
    encoder = PairEncoder.from_names(names, d_pair=24, seed=6)
    model, _ = finetune(encoder, training,
                        PairTrainConfig(learning_rate=0.05, hidden=48, epochs=30, seed=6))
    return model


@pytest.fixture(scope="module")
def duplicate_title_icd():
    """The fixture table plus entries repeating a normalized title, one of
    them ahead of the original in code order."""
    extra = [IcdEntry("A05", "角膜裂伤", CcLevel.MCC),
             IcdEntry("Z98", "病种B1，", CcLevel.MCC),
             IcdEntry("Z99", "病种A0亚型1", CcLevel.MCC)]
    return IcdIndex(make_fixture_icd_entries() + extra)


# Surfaces that are not ICD titles, so each one goes to the table scan.
UNRESOLVED = ["角膜裂开损伤", "角膜裂伤伴感染", "病种A0亚型", "病种B1型",
              "病种C2亚型3", "巩膜破裂伤", "眼球裂伤", "眶穿通损伤", "头部骨折",
              "电解质紊乱", "低钾血症", "不存在的病", "肺炎", "病种", "亚型1"]


class CountingModel:
    def __init__(self, inner):
        self.inner = inner
        self.calls = 0
        self.embeds = []

    def predict_proba(self, rows, against_rows):
        self.calls += 1
        return self.inner.predict_proba(rows, against_rows)

    def embed_names(self, names):
        self.embeds.append(names)
        return self.inner.embed_names(names)


class TestTableScan:
    @pytest.mark.parametrize("block_rows", [relation_model.BLOCK_ROWS, 4])
    @pytest.mark.parametrize("threshold", [0.5, 0.8])
    def test_matches_entry_by_entry_scan(self, paraphrase_model, duplicate_title_icd,
                                         monkeypatch, threshold, block_rows):
        monkeypatch.setattr(relation_model, "BLOCK_ROWS", block_rows)
        assert not any(duplicate_title_icd.by_title(name) for name in UNRESOLVED)
        rows = paraphrase_model.embed_names(duplicate_title_icd.titles())
        got = [cc_mcc_level(name, duplicate_title_icd, paraphrase_model, threshold, rows)
               for name in UNRESOLVED]
        want = [seed_cc_mcc_level(name, duplicate_title_icd, paraphrase_model, threshold)
                for name in UNRESOLVED]
        assert got == want
        assert CcLevel.NONE in got
        assert any(level is not CcLevel.NONE for level in got)

    def test_duplicate_title_goes_to_first_code(self, paraphrase_model,
                                                duplicate_title_icd):
        # "角膜裂伤" is S05.302 (CC) and, earlier in code order, A05 (MCC).
        assert cc_mcc_level("角膜裂开损伤", duplicate_title_icd, paraphrase_model, 0.5,
                            paraphrase_model.embed_names(duplicate_title_icd.titles())
                            ) is CcLevel.MCC

    def test_one_call_per_unresolved_finding(self, paraphrase_model, fixture_icd):
        counting = CountingModel(paraphrase_model)
        rows = paraphrase_model.embed_names(fixture_icd.titles())
        assert cc_mcc_level("角膜裂开损伤", fixture_icd, counting, MATCH_THRESHOLD,
                            rows) is CcLevel.CC
        assert (counting.calls, counting.embeds) == (1, [["角膜裂开损伤"]])

    def test_empty_icd_index_is_none(self, paraphrase_model):
        assert cc_mcc_level("角膜裂开损伤", IcdIndex([]), paraphrase_model, MATCH_THRESHOLD,
                            paraphrase_model.embed_names([])) is CcLevel.NONE


# Findings per record: titles (one with a trailing list comma) and
# surfaces that are not, one of them twice.
FINDINGS = {
    "a": ["角膜裂伤", "角膜裂开损伤", "病种A0亚型"],
    "b": [],
    "c": ["角膜裂开损伤", "巩膜破裂，", "头部骨折"],
}


def join(icd, model, findings=FINDINGS, threshold=0.5):
    records = [rec(record_id, "GB2", Tier.NO_CC, 10000) for record_id in findings]
    by_record = {record_id: [{"disease": name} for name in names]
                 for record_id, names in findings.items()}
    return recovered_levels_for_records(records, by_record, icd, model, threshold)


class TestRecoveredLevels:
    def test_titles_are_embedded_once_per_call(self, paraphrase_model,
                                               duplicate_title_icd, monkeypatch):
        levels_calls = []
        real = drg.cc_mcc_level

        def counting_level(disease, *args):
            levels_calls.append(disease)
            return real(disease, *args)

        monkeypatch.setattr(drg, "cc_mcc_level", counting_level)
        counting = CountingModel(paraphrase_model)
        join(duplicate_title_icd, counting)
        names = [name for names in FINDINGS.values() for name in names]
        assert levels_calls == names
        # the titles once, then each finding that is not a title
        assert counting.embeds == [duplicate_title_icd.titles(), ["角膜裂开损伤"],
                                   ["病种A0亚型"], ["角膜裂开损伤"], ["头部骨折"]]
        assert counting.calls == 4

    def test_exact_titles_embed_nothing(self, paraphrase_model, duplicate_title_icd):
        counting = CountingModel(paraphrase_model)
        joined = join(duplicate_title_icd, counting,
                      {"a": ["角膜裂伤", "巩膜破裂，"], "b": ["病种A0亚型1"]})
        assert (counting.embeds, counting.calls) == ([], 0)
        assert [levels for _, levels in joined] == [[CcLevel.MCC, CcLevel.NONE],
                                                   [CcLevel.MCC]]

    @pytest.mark.parametrize("block_rows", [relation_model.BLOCK_ROWS, 4])
    @pytest.mark.parametrize("threshold", [0.5, 0.8])
    def test_levels_match_entry_by_entry_scan(self, paraphrase_model,
                                              duplicate_title_icd, monkeypatch,
                                              threshold, block_rows):
        monkeypatch.setattr(relation_model, "BLOCK_ROWS", block_rows)
        findings = {f"r{i}": UNRESOLVED[i:i + 3] + ["角膜裂伤"]
                    for i in range(0, len(UNRESOLVED), 3)}
        joined = join(duplicate_title_icd, paraphrase_model, findings, threshold)
        want = [[seed_cc_mcc_level(name, duplicate_title_icd, paraphrase_model, threshold)
                 for name in names] for names in findings.values()]
        assert [levels for _, levels in joined] == want

    def test_rows_give_the_same_level_as_names(self, paraphrase_model,
                                               duplicate_title_icd):
        """The table's rows, embedded at once or title by title, give each
        name the level of the scan that scores it name against title."""
        titles = duplicate_title_icd.titles()
        whole = paraphrase_model.embed_names(titles)
        one_by_one = np.concatenate([paraphrase_model.embed_names([t]) for t in titles])
        for name in UNRESOLVED:
            want = seed_cc_mcc_level(name, duplicate_title_icd, paraphrase_model, 0.5)
            for rows in (whole, one_by_one):
                assert cc_mcc_level(name, duplicate_title_icd, paraphrase_model, 0.5,
                                    rows) is want

    def test_unnormalized_finding_gets_its_normal_forms_level(self, paraphrase_model,
                                                              fixture_icd):
        # Not a title, so the relation model normalizes it before scoring.
        raw, name = " 角膜裂开损伤，", "角膜裂开损伤"
        assert not fixture_icd.by_title(raw)
        rows = paraphrase_model.embed_names(fixture_icd.titles())
        for disease in (name, raw):
            assert cc_mcc_level(disease, fixture_icd, paraphrase_model,
                                title_rows=rows) is CcLevel.CC
        joined = join(fixture_icd, paraphrase_model, {"a": [raw, name]}, threshold=0.8)
        assert [levels for _, levels in joined] == [[CcLevel.CC, CcLevel.CC]]

    @pytest.mark.parametrize("threshold", [math.nan, -0.01, 1.5, math.inf, -math.inf])
    def test_threshold_outside_unit_interval(self, paraphrase_model, fixture_icd,
                                             threshold):
        with pytest.raises(BadSetting, match="threshold"):
            join(fixture_icd, paraphrase_model, threshold=threshold)

    @pytest.mark.parametrize("threshold", [0.0, 1.0])
    def test_threshold_at_either_end(self, paraphrase_model, fixture_icd, threshold):
        assert len(join(fixture_icd, paraphrase_model, threshold=threshold)) == 3

    def test_report_records_absent_from_the_corpus_are_refused(self, fixture_icd):
        records = [rec("a", "GB2", Tier.NO_CC, 10000)]
        by_record = {"a": [], "x1": [{"disease": "角膜裂伤"}], "x2": []}
        with pytest.raises(DxAuditError, match="2 record.* not in the corpus, the first 'x1'"):
            recovered_levels_for_records(records, by_record, fixture_icd)


class TestRegroup:
    def test_recovered_mcc_raises_tier(self, table):
        original = DrgAssignment("GB2", Tier.NO_CC, minor(10000))
        new = regroup(original, [CcLevel.MCC], table)
        assert new.tier is Tier.MCC
        assert new.avg_cost == minor(18000)
        assert new.adrg == "GB2"

    def test_already_maximal_unchanged(self, table):
        original = DrgAssignment("GB2", Tier.MCC, minor(18000))
        assert regroup(original, [CcLevel.CC], table) == original

    def test_no_recovered_levels_unchanged(self, table):
        original = DrgAssignment("GB2", Tier.NO_CC, minor(10000))
        assert regroup(original, [CcLevel.NONE, CcLevel.NONE], table) == original

    def test_missing_group_row(self, table):
        original = DrgAssignment("ZZ9", Tier.NO_CC, minor(5000))
        with pytest.raises(MissingGroupRow):
            regroup(original, [CcLevel.MCC], table)

    def test_idempotent_and_never_lower_fuzz(self, table):
        rng = random.Random(5)
        tiers = list(Tier)
        levels = list(CcLevel)
        for _ in range(2000):
            adrg = rng.choice(["GB2", "GB1"])
            tier = rng.choice(tiers)
            original = DrgAssignment(adrg, tier, minor(rng.randrange(0, 30000)))
            recovered = [rng.choice(levels) for _ in range(rng.randrange(0, 4))]
            once = regroup(original, recovered, table)
            assert once.tier <= original.tier  # a lower digit is more severe
            assert regroup(once, recovered, table) == once


class TestCostDeltaReport:
    def test_three_record_fixture(self, table):
        joined = [
            (rec("a", "GB2", Tier.NO_CC, 10000), [CcLevel.MCC]),
            (rec("b", "GB1", Tier.CC, 20000), []),
            (rec("c", "ES1", Tier.CC, 20000), [CcLevel.MCC]),
        ]
        report = cost_delta_report(joined, table)
        out = report.to_dict()
        assert [r["delta"] for r in out["records"]] == [8000, 0, 2000]
        assert out["total_delta"] == 10000
        assert out["total_original"] == 50000
        assert out["percent"] == pytest.approx(0.2)
        assert report.total_delta_minor == sum(d.delta_minor for d in report.deltas)

    def test_no_findings_zero_percent(self, table):
        joined = [(rec("a", "GB2", Tier.NO_CC, 10000), [])]
        report = cost_delta_report(joined, table)
        assert report.total_delta_minor == 0
        assert report.percent == 0.0

    def test_records_without_drg_skipped_and_counted(self, table):
        bare = MedicalRecord(record_id="x", sections=(("s", "正文。"),),
                             discharge_diagnoses=())
        report = cost_delta_report([(bare, [CcLevel.MCC])], table)
        assert report.skipped_no_drg == 1
        assert report.deltas == []

    def test_precision_scaled_total(self, table):
        joined = [(rec("a", "GB2", Tier.NO_CC, 10000), [CcLevel.MCC])]
        out = cost_delta_report(joined, table, precision=0.925).to_dict()
        assert out["precision_scaled_total_delta"] == 7400

    @pytest.mark.parametrize("total_minor, written", [
        (1_234_567_890_123_456, True), (-1_234_567_890_123_456, True),
        (123_456_789_012_345_678, False)], ids=["above-1e13", "negative", "inexact"])
    def test_every_amount_written_is_the_amount(self, total_minor, written):
        """Totals are sums, so they can pass any cost read; each amount is
        written as its exact value, or refused."""
        half = total_minor // 2
        report = drg.DrgImpactReport(
            [drg.RecordDelta(r, "GB2", 5, 1, 0, cost)
             for r, cost in (("a", half), ("b", total_minor - half))],
            skipped_no_drg=0, total_original_minor=total_minor)
        if not written:
            with pytest.raises(DxAuditError, match="cannot be written exactly"):
                report.to_dict()
            return
        out = json.loads(json_line(report.to_dict()), parse_float=Decimal)
        assert [out["total_delta"] * 100, out["total_original"] * 100] == [total_minor] * 2
        assert [r["delta"] * 100 for r in out["records"]] == [half, total_minor - half]

    def test_negative_delta_reported_signed(self):
        inverted = DrgGroupTable({
            ("GB2", Tier.MCC): minor(8000),
            ("GB2", Tier.NO_CC): minor(10000),
        })
        assert inverted.warnings  # inverted ordering detected, not enforced
        joined = [(rec("a", "GB2", Tier.NO_CC, 10000), [CcLevel.MCC])]
        out = cost_delta_report(joined, inverted).to_dict()
        assert out["records"][0]["delta"] == -2000


class TestGroupTableIO:
    def test_load_and_lookup(self, tmp_path):
        path = tmp_path / "groups.csv"
        path.write_text("adrg,tier,avg_cost\nGB2,1,18000\nGB2,5,10000\n",
                        encoding="utf-8")
        table = DrgGroupTable.load(path)
        assert table.cost("GB2", Tier.MCC) == minor(18000)
        with pytest.raises(MissingGroupRow):
            table.cost("GB2", Tier.CC)

    def test_bad_tier_rejected(self, tmp_path):
        path = tmp_path / "groups.csv"
        path.write_text("adrg,tier,avg_cost\nGB2,2,18000\n", encoding="utf-8")
        with pytest.raises(ParseError):
            DrgGroupTable.load(path)

    @pytest.mark.parametrize("cost", ["Infinity", "-inf", "NaN"])
    def test_non_finite_cost_rejected(self, tmp_path, cost):
        path = tmp_path / "groups.csv"
        path.write_text(f"adrg,tier,avg_cost\nGB2,1,18000\nGB2,3,{cost}\n",
                        encoding="utf-8")
        with pytest.raises(ParseError, match=f"avg_cost '{cost}' is not finite") as excinfo:
            DrgGroupTable.load(path)
        assert excinfo.value.line == 3

    @pytest.mark.parametrize("cost", ["1e100000", "10000000000000000"])
    def test_cost_at_the_bound_rejected(self, tmp_path, cost):
        path = tmp_path / "groups.csv"
        path.write_text(f"adrg,tier,avg_cost\nGB2,1,18000\nGB2,3,{cost}\n",
                        encoding="utf-8")
        with pytest.raises(ParseError, match=f"avg_cost '{cost}' is not below") as excinfo:
            DrgGroupTable.load(path)
        assert excinfo.value.line == 3

    def test_cost_below_the_bound_is_exact(self, tmp_path):
        path = tmp_path / "groups.csv"
        path.write_text("adrg,tier,avg_cost\nGB2,1,9999999999999999.99\n",
                        encoding="utf-8")
        assert DrgGroupTable.load(path).cost("GB2", Tier.MCC) == 10**18 - 1

    @pytest.mark.parametrize("adrg", ["xx", "GB", "GB23", "1B2", "gb2"])
    def test_bad_adrg_names_its_line(self, tmp_path, adrg):
        path = tmp_path / "groups.csv"
        path.write_text(f"adrg,tier,avg_cost\nGB2,1,18000\n{adrg},1,100\n",
                        encoding="utf-8")
        with pytest.raises(ParseError, match=f"bad ADRG '{adrg}'") as excinfo:
            DrgGroupTable.load(path)
        assert excinfo.value.line == 3

    def test_duplicate_row_rejected(self, tmp_path):
        path = tmp_path / "groups.csv"
        path.write_text("adrg,tier,avg_cost\nGB2,1,18000\nGB2,1,17000\n",
                        encoding="utf-8")
        with pytest.raises(ParseError):
            DrgGroupTable.load(path)
