"""Severity regrouping and cost-delta estimation for recovered diagnoses.

A recovered disease is mapped to its CC/MCC level through the ICD table;
if any recovered level is more severe than the record's current tier, the
record moves to that tier within the same ADRG and the published average
cost of the new group is used to estimate the reimbursement difference.

All currency is integer minor units, so totals are exact. Full grouper
logic (ADRG assignment, principal-diagnosis CC exclusion lists) is out of
scope and flagged in report metadata.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from pathlib import Path

import numpy as np

from .core import (
    CcLevel,
    DrgAssignment,
    IcdIndex,
    MedicalRecord,
    Tier,
    _ADRG_RE,
    _cost_to_minor,
    _minor_to_major,
    read_table,
)
from .errors import BadSetting, DxAuditError, MissingGroupRow, ParseError, ShapeMismatch
from .relation_model import RELATIONS

# The tier a recovered diagnosis of each CC/MCC level calls for. A lower
# tier digit is more severe, so the most severe of several tiers is their min.
_TIER_FOR_LEVEL = {CcLevel.MCC: Tier.MCC, CcLevel.CC: Tier.CC, CcLevel.NONE: Tier.NO_CC}

# Relations under which a title can stand in for a disease that is not one.
_MATCHING_RELATIONS = [RELATIONS.index("similarity"), RELATIONS.index("inclusion")]

# Least relation probability at which such a title stands in.
MATCH_THRESHOLD = 0.8


class DrgGroupTable:
    """(adrg, tier) -> average cost, with cost-ordering sanity warnings."""

    def __init__(self, rows: dict[tuple[str, Tier], int]):
        self.rows = dict(rows)
        self.warnings: list[str] = []
        adrgs = sorted({adrg for adrg, _ in self.rows})
        for adrg in adrgs:
            by_severity = [
                (tier, self.rows[(adrg, tier)])
                for tier in (Tier.MCC, Tier.CC, Tier.NO_CC)
                if (adrg, tier) in self.rows
            ]
            for (t_hi, c_hi), (t_lo, c_lo) in zip(by_severity, by_severity[1:]):
                if c_hi < c_lo:
                    self.warnings.append(
                        f"{adrg}: tier {t_hi.value} costs less than tier {t_lo.value}")

    @classmethod
    def load(cls, path: str | Path) -> "DrgGroupTable":
        rows: dict[tuple[str, Tier], int] = {}
        for line_no, row in read_table(path, {"adrg", "tier", "avg_cost"}):
            try:
                tier = Tier(int(row["tier"]))
            except ValueError:
                raise ParseError(f"bad tier {row['tier']!r}", line_no)
            key = (row["adrg"].strip(), tier)
            if not _ADRG_RE.match(key[0]):
                raise ParseError(f"bad ADRG {key[0]!r}: expected 2 letters + 1 digit", line_no)
            if key in rows:
                raise ParseError(f"duplicate group row {key}", line_no)
            rows[key] = _cost_to_minor(row["avg_cost"].strip(), line_no)
        return cls(rows)

    def cost(self, adrg: str, tier: Tier) -> int:
        try:
            return self.rows[(adrg, tier)]
        except KeyError:
            raise MissingGroupRow(f"no row for ({adrg}, tier {tier.value})")


def cc_mcc_level(
    disease: str,
    icd: IcdIndex,
    relation_model=None,
    threshold: float = MATCH_THRESHOLD,
    title_rows: np.ndarray | None = None,
) -> CcLevel:
    """CC/MCC level of a disease surface, or NONE when unresolvable.

    Resolution is exact normalized-title match first; otherwise the
    relation model's best similarity/inclusion title above ``threshold``,
    the first entry in code order winning a tie. Several entries under one
    title resolve to the most severe level.

    The fallback embeds the name, which the model normalizes, and makes
    one predict_proba call that scores it against ``title_rows``, the
    relation model's embed_names(icd.titles()), which a model needs: one
    row per distinct normalized title. Titles come in the code order of
    their first entry, so the first maximum is the first entry in code
    order to reach it, as in an entry-by-entry scan. Missing ``title_rows``,
    or rows of another count than the titles, raise ShapeMismatch.
    """
    exact = icd.by_title(disease)
    if exact:
        return _most_severe(exact)
    titles = icd.titles()
    if relation_model is None or not titles:
        return CcLevel.NONE
    if title_rows is None or len(title_rows) != len(titles):
        given = "no title_rows" if title_rows is None else f"title_rows of {len(title_rows)} rows"
        raise ShapeMismatch(f"{given} for {len(titles)} ICD titles; the relation fallback "
                            "needs the model's embed_names(icd.titles())")
    probs = relation_model.predict_proba(relation_model.embed_names([disease]), title_rows)[0]
    relation = probs.argmax(axis=1)
    prob = probs[np.arange(len(titles)), relation]
    usable = np.isin(relation, _MATCHING_RELATIONS) & (prob >= threshold)
    best = int(np.where(usable, prob, -np.inf).argmax())
    return _most_severe(icd.by_title(titles[best])) if usable[best] else CcLevel.NONE


def _most_severe(entries) -> CcLevel:
    """The most severe CC/MCC level of the ICD entries under one title."""
    return min((e.cc_level for e in entries), key=_TIER_FOR_LEVEL.get)


def regroup(
    original: DrgAssignment,
    recovered_levels: list[CcLevel],
    table: DrgGroupTable,
) -> DrgAssignment:
    """Most severe of the original tier and the recovered levels.

    The ADRG never changes; idempotent; never lowers severity.
    """
    best = min([original.tier, *map(_TIER_FOR_LEVEL.get, recovered_levels)])
    if best is original.tier:
        return original
    return DrgAssignment(adrg=original.adrg, tier=best,
                         avg_cost=table.cost(original.adrg, best))


@dataclass
class RecordDelta:
    record_id: str
    adrg: str
    old_tier: int
    new_tier: int
    old_cost_minor: int
    new_cost_minor: int

    @property
    def delta_minor(self) -> int:
        return self.new_cost_minor - self.old_cost_minor


@dataclass
class DrgImpactReport:
    deltas: list[RecordDelta]
    skipped_no_drg: int
    total_original_minor: int
    precision: float | None = None
    table_warnings: list[str] = field(default_factory=list)

    def __post_init__(self):
        if self.precision is not None and not 0.0 <= self.precision <= 1.0:
            raise BadSetting(f"precision must be in [0, 1], got {self.precision}")

    @property
    def total_delta_minor(self) -> int:
        return sum(d.delta_minor for d in self.deltas)

    @property
    def percent(self) -> float:
        if self.total_original_minor == 0:
            return 0.0
        return self.total_delta_minor / self.total_original_minor

    def to_dict(self) -> dict:
        out = {
            "records": [
                {
                    "record_id": d.record_id,
                    "adrg": d.adrg,
                    "old_tier": d.old_tier,
                    "new_tier": d.new_tier,
                    "old_cost": _minor_to_major(d.old_cost_minor),
                    "new_cost": _minor_to_major(d.new_cost_minor),
                    "delta": _minor_to_major(d.delta_minor),
                }
                for d in self.deltas
            ],
            "skipped_no_drg": self.skipped_no_drg,
            "total_delta": _minor_to_major(self.total_delta_minor),
            "total_original": _minor_to_major(self.total_original_minor),
            "percent": self.percent,
            "notes": ["principal-diagnosis CC exclusion rules not applied"]
            + self.table_warnings,
        }
        if self.precision is not None:
            out["precision"] = self.precision
            out["precision_scaled_total_delta"] = (
                _minor_to_major(round(self.total_delta_minor * self.precision)))
        return out


def cost_delta_report(
    corpus_findings,
    table: DrgGroupTable,
    precision: float | None = None,
) -> DrgImpactReport:
    """Per-record cost deltas for (record, recovered CC levels) pairs.

    Records without a DRG assignment are skipped and counted. Deltas are
    signed; an inverted published table can produce negative ones.
    """
    deltas: list[RecordDelta] = []
    skipped = 0
    total_original = 0
    for record, levels in corpus_findings:
        if record.drg is None:
            skipped += 1
            continue
        total_original += record.drg.avg_cost
        new = regroup(record.drg, levels, table)
        deltas.append(RecordDelta(
            record_id=record.record_id,
            adrg=record.drg.adrg,
            old_tier=record.drg.tier.value,
            new_tier=new.tier.value,
            old_cost_minor=record.drg.avg_cost,
            new_cost_minor=new.avg_cost,
        ))
    return DrgImpactReport(
        deltas=deltas,
        skipped_no_drg=skipped,
        total_original_minor=total_original,
        precision=precision,
        table_warnings=list(table.warnings),
    )


def recovered_levels_for_records(
    records: list[MedicalRecord],
    findings_by_record: dict[str, list[dict]],
    icd: IcdIndex,
    relation_model=None,
    threshold: float = MATCH_THRESHOLD,
) -> list[tuple[MedicalRecord, list[CcLevel]]]:
    """Join a detect report onto records, resolving each finding's level.

    A report that names a record absent from ``records`` was made from
    another corpus, and is refused. The relation model embeds the ICD
    titles once, at the first finding that is not a title, and every such
    finding is scored against those rows (titles x d_pair floats, held for
    this call only).
    """
    if not 0.0 <= threshold <= 1.0:  # also false for NaN
        raise BadSetting(f"threshold must be in [0, 1], got {threshold}")
    known = {record.record_id for record in records}
    unknown = [record_id for record_id in findings_by_record if record_id not in known]
    if unknown:
        raise DxAuditError(f"{len(unknown)} record(s) of the report are not in the "
                           f"corpus, the first {unknown[0]!r}")
    title_rows = cache(lambda: relation_model.embed_names(icd.titles()))
    out = []
    for record in records:
        levels = []
        for finding in findings_by_record.get(record.record_id, []):
            disease = finding["disease"]
            rows = None if relation_model is None or icd.by_title(disease) else title_rows()
            levels.append(cc_mcc_level(disease, icd, relation_model, threshold, rows))
        out.append((record, levels))
    return out
