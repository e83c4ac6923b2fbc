"""Domain types, name normalization, and corpus/table I/O.

Everything loaded here is immutable after load.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from decimal import Decimal, InvalidOperation
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator

from .errors import (
    BadCode,
    DuplicateCode,
    DuplicateRecordId,
    DxAuditError,
    EmptyName,
    ParseError,
)

# Sentence boundaries used by context windows and enumerated-item extents.
SENTENCE_BOUNDARIES = "。；\n"  # 。 ； newline

# Trailing list punctuation stripped by normalize_disease_name (applied
# after full-width folding, so 、，；, etc. are covered by their
# half-width forms plus the ideographic comma).
_TRAILING_PUNCT = "、,;；"

# Full-width ASCII (U+FF01-U+FF5E) and the ideographic space (U+3000),
# and the half-width characters they fold to.
_FULL_WIDTH_RE = re.compile("[\uff01-\uff5e\u3000]")
_HALF_WIDTH = {o: o - 0xFEE0 for o in range(0xFF01, 0xFF5F)} | {0x3000: " "}

_ICD_CODE_RE = re.compile(r"^[A-Z][0-9]{2}(\.[0-9]([0-9]{2})?)?$")


class CcLevel(Enum):
    """Complication severity carried by an ICD entry."""

    NONE = "NONE"
    CC = "CC"
    MCC = "MCC"


class Tier(int, Enum):
    """DRG severity tier, encoded as the conventional final digit."""

    MCC = 1
    CC = 3
    NO_CC = 5

    @property
    def severity(self) -> int:
        """Higher means more severe (MCC > CC > NO_CC)."""
        return {Tier.MCC: 2, Tier.CC: 1, Tier.NO_CC: 0}[self]


def tier_for_cc_level(level: CcLevel) -> Tier | None:
    if level is CcLevel.MCC:
        return Tier.MCC
    if level is CcLevel.CC:
        return Tier.CC
    return None


class LexiconKind(Enum):
    DISEASE_NAMES = "disease_names"
    NEGATION_WORDS = "negation_words"
    CHRONIC_EXCLUSION = "chronic_exclusion"
    ENUMERATOR_PATTERNS = "enumerator_patterns"


_ADRG_RE = re.compile(r"^[A-Z]{2}[0-9]$")


@dataclass(frozen=True)
class DrgAssignment:
    """An ADRG plus severity tier, with the group's average cost.

    avg_cost is stored in integer minor units (1/100 of the published
    currency unit) so report totals never drift.
    """

    adrg: str
    tier: Tier
    avg_cost: int

    def __post_init__(self):
        if not _ADRG_RE.match(self.adrg):
            raise ValueError(f"bad ADRG {self.adrg!r}: expected 2 letters + 1 digit")
        if self.avg_cost < 0:
            raise ValueError("avg_cost must be non-negative")


@dataclass(frozen=True)
class MedicalRecord:
    """A full record: ordered sections of text plus the discharge list."""

    record_id: str
    sections: tuple[tuple[str, str], ...]
    discharge_diagnoses: tuple[str, ...]
    drg: DrgAssignment | None = None

    def __post_init__(self):
        if not self.record_id:
            raise ValueError("record_id must be non-empty")
        for name, text in self.sections:
            if not text:
                raise ValueError(f"section {name!r} has empty text")

    def section_text(self, index: int) -> str:
        return self.sections[index][1]


@dataclass(frozen=True)
class IcdEntry:
    code: str
    title: str
    cc_level: CcLevel

    def __post_init__(self):
        if not _ICD_CODE_RE.match(self.code):
            raise BadCode(f"code {self.code!r} violates the 3/4/6-digit grammar")

    @property
    def depth(self) -> int:
        return len(self.code.replace(".", ""))

    @property
    def parent_code(self) -> str | None:
        """Immediate ancestor code string, or None for 3-digit categories."""
        if self.depth == 6:
            return self.code[:5]
        if self.depth == 4:
            return self.code[:3]
        return None


@dataclass(frozen=True)
class Lexicon:
    """An immutable set of entries with deterministic iteration order."""

    kind: LexiconKind
    entries: tuple[str, ...]
    _members: frozenset[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for entry in self.entries:
            if not entry:
                raise ValueError("lexicon entries must be non-empty")
        object.__setattr__(self, "_members", frozenset(self.entries))

    def __contains__(self, item: str) -> bool:
        return item in self._members

    def __len__(self) -> int:
        return len(self.entries)


def normalize_disease_name(raw: str) -> str:
    """Canonical form of a disease surface.

    Full-width ASCII is folded to half-width, surrounding whitespace is
    removed, and trailing list punctuation is stripped. Internal
    characters are preserved. Idempotent.
    """
    result = raw.translate(_HALF_WIDTH) if _FULL_WIDTH_RE.search(raw) else raw
    while True:  # punctuation and whitespace can interleave at the tail
        stripped = result.strip().rstrip(_TRAILING_PUNCT)
        if stripped == result:
            break
        result = stripped
    if not result:
        raise EmptyName(f"disease name {raw!r} normalized to empty")
    return result


# ---------------------------------------------------------------------------
# Corpus I/O (one JSON object per line)
# ---------------------------------------------------------------------------


def _cost_to_minor(value, line: int) -> int:
    """Exact conversion of a published cost to integer minor units."""
    try:
        minor = Decimal(str(value)) * 100
    except (InvalidOperation, ValueError):
        raise ParseError(f"bad avg_cost {value!r}", line)
    if minor != minor.to_integral_value():
        raise ParseError(f"avg_cost {value!r} has sub-minor-unit precision", line)
    if minor < 0:
        raise ParseError(f"avg_cost {value!r} is negative", line)
    return int(minor)


def _minor_to_major(minor: int):
    """Render minor units back to the published unit (int when whole)."""
    if minor % 100 == 0:
        return minor // 100
    return minor / 100


def _parse_drg(obj: dict, line: int) -> DrgAssignment:
    try:
        adrg = obj["adrg"]
        tier = obj["tier"]
        if not isinstance(tier, int) or isinstance(tier, bool):
            raise ParseError(f"bad drg object: tier {tier!r} is not an integer", line)
        tier = Tier(tier)
        avg_cost = _cost_to_minor(obj["avg_cost"], line)
        return DrgAssignment(adrg=adrg, tier=tier, avg_cost=avg_cost)
    except ParseError:
        raise
    except (KeyError, ValueError, TypeError) as exc:
        raise ParseError(f"bad drg object: {exc}", line)


def parse_json_object(text: str, line: int, what: str) -> dict:
    """One JSONL line that must hold an object; ``what`` names it in errors."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line) from None
    if not isinstance(obj, dict):
        raise ParseError(f"{what} is not a JSON object", line)
    return obj


def parse_record_line(text: str, line: int = 0) -> MedicalRecord:
    obj = parse_json_object(text, line, "record")
    try:
        record_id = obj["record_id"]
        sections = tuple((s["name"], s["text"]) for s in obj["sections"])
        diagnoses = obj["discharge_diagnoses"]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"missing or malformed field: {exc}", line)
    if not isinstance(record_id, str) or not record_id:
        raise ParseError("record_id must be a non-empty string", line)
    for name, sect_text in sections:
        if not isinstance(name, str):
            raise ParseError(f"section name {name!r} is not a string", line)
        if not isinstance(sect_text, str) or not sect_text:
            raise ParseError(f"section {name!r} has empty text", line)
    if not isinstance(diagnoses, list):
        raise ParseError("discharge_diagnoses must be a list of strings", line)
    for diagnosis in diagnoses:
        if not isinstance(diagnosis, str):
            raise ParseError(f"discharge diagnosis {diagnosis!r} is not a string", line)
    drg = None
    if obj.get("drg") is not None:
        drg = _parse_drg(obj["drg"], line)
    return MedicalRecord(
        record_id=record_id,
        sections=sections,
        discharge_diagnoses=tuple(diagnoses),
        drg=drg,
    )


def record_to_json(record: MedicalRecord) -> str:
    obj: dict = {
        "record_id": record.record_id,
        "sections": [{"name": n, "text": t} for n, t in record.sections],
        "discharge_diagnoses": list(record.discharge_diagnoses),
    }
    if record.drg is not None:
        obj["drg"] = {
            "adrg": record.drg.adrg,
            "tier": record.drg.tier.value,
            "avg_cost": _minor_to_major(record.drg.avg_cost),
        }
    return json.dumps(obj, ensure_ascii=False, sort_keys=True)


def decode_line(raw: bytes, line: int) -> str:
    """One line of a UTF-8 file, decoded on its own and stripped."""
    try:
        return raw.decode("utf-8").strip()
    except UnicodeDecodeError as exc:
        raise ParseError(f"invalid UTF-8 at byte {exc.start}", line) from None


def iter_corpus(
    path: str | Path,
) -> Iterator[tuple[int, MedicalRecord | None, DxAuditError | None]]:
    """Yield (line_no, record, error) for each non-blank JSONL corpus line.

    Exactly one of record and error is set. Each line is decoded and parsed
    on its own, so a bad line (undecodable, unparseable, or repeating an
    earlier record_id) yields its error and reading goes on.
    """
    seen: set[str] = set()
    with open(path, "rb") as handle:
        for line_no, raw in enumerate(handle, start=1):
            try:
                text = decode_line(raw, line_no)
                if not text:
                    continue
                record = parse_record_line(text, line_no)
            except ParseError as exc:
                yield line_no, None, exc
                continue
            if record.record_id in seen:
                yield line_no, None, DuplicateRecordId(
                    f"duplicate record_id {record.record_id!r}")
                continue
            seen.add(record.record_id)
            yield line_no, record, None


def load_corpus(path: str | Path) -> list[MedicalRecord]:
    """Load a JSONL corpus, preserving file order.

    Raises the first bad line's error: a ParseError carrying its 1-based
    line number, or DuplicateRecordId on a repeated id.
    """
    records: list[MedicalRecord] = []
    for _, record, error in iter_corpus(path):
        if error is not None:
            raise error
        records.append(record)
    return records


def save_corpus(records: Iterable[MedicalRecord], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(record_to_json(record))
            handle.write("\n")


# ---------------------------------------------------------------------------
# ICD table
# ---------------------------------------------------------------------------


class IcdIndex:
    """Lookup over an ICD table: by code, by normalized title, children."""

    def __init__(self, entries: Iterable[IcdEntry]):
        self._by_code: dict[str, IcdEntry] = {}
        self._by_title: dict[str, list[IcdEntry]] = {}
        self._children: dict[str, list[str]] = {}
        for entry in entries:
            if entry.code in self._by_code:
                raise DuplicateCode(f"code {entry.code} appears twice")
            self._by_code[entry.code] = entry
        for code in sorted(self._by_code):  # every list below is in code order
            entry = self._by_code[code]
            title_key = normalize_disease_name(entry.title)
            self._by_title.setdefault(title_key, []).append(entry)
            parent = entry.parent_code
            if parent is not None and parent in self._by_code:
                self._children.setdefault(parent, []).append(code)

    def __len__(self) -> int:
        return len(self._by_code)

    def __contains__(self, code: str) -> bool:
        return code in self._by_code

    def get(self, code: str) -> IcdEntry | None:
        return self._by_code.get(code)

    def by_title(self, title: str) -> list[IcdEntry]:
        return list(self._by_title.get(normalize_disease_name(title), ()))

    def titles(self) -> list[str]:
        """Distinct normalized titles, in the code order of their first entry."""
        return list(self._by_title)

    def children_of(self, code: str) -> list[str]:
        return list(self._children.get(code, ()))

    def codes(self) -> list[str]:
        return sorted(self._by_code)

    def entries(self) -> list[IcdEntry]:
        return [self._by_code[c] for c in self.codes()]


def load_icd_table(path: str | Path) -> IcdIndex:
    """Load a comma-separated table with header ``code,title,cc_level``."""
    import csv

    entries: list[IcdEntry] = []
    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.DictReader(handle)
        required = {"code", "title", "cc_level"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise ParseError(f"ICD table must carry header {sorted(required)}")
        for line_no, row in enumerate(reader, start=2):
            code = row["code"].strip()
            if not _ICD_CODE_RE.match(code):
                raise BadCode(f"line {line_no}: code {code!r} violates the grammar")
            try:
                level = CcLevel(row["cc_level"].strip().upper())
            except ValueError:
                raise ParseError(f"bad cc_level {row['cc_level']!r}", line_no)
            entries.append(IcdEntry(code=code, title=row["title"].strip(), cc_level=level))
    return IcdIndex(entries)


# ---------------------------------------------------------------------------
# Lexicons (one entry per line, '#' comments)
# ---------------------------------------------------------------------------


def load_lexicon(path: str | Path, kind: LexiconKind) -> Lexicon:
    """Load a one-entry-per-line lexicon ('#' starts a comment line)."""
    with open(path, encoding="utf-8") as handle:
        lines = [line.strip() for line in handle]
    return make_lexicon(
        (line for line in lines if line and not line.startswith("#")), kind)


def make_lexicon(entries: Iterable[str], kind: LexiconKind) -> Lexicon:
    """Build a lexicon from entries in order, dropping repeats.

    Word lexicons are normalized; enumerator-pattern lexicons are kept
    verbatim because their entries are regexes.
    """
    out: list[str] = []
    seen: set[str] = set()
    for entry in entries:
        if kind is not LexiconKind.ENUMERATOR_PATTERNS:
            entry = normalize_disease_name(entry)
        if entry not in seen:
            seen.add(entry)
            out.append(entry)
    return Lexicon(kind=kind, entries=tuple(out))
