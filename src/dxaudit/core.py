"""Domain types, name normalization, and corpus/table I/O.

Everything loaded here is immutable after load. Every text input is read
here: the corpus by the lenient ``read_corpus``, every other file by the
strict ``read_lines`` (CSV by ``read_rows``, headed tables by ``read_table``)
or, for lexicons, by its decoder ``_read_text``. One leading UTF-8 byte
order mark is dropped. Lines end at LF, CRLF or CR, never at U+2028 or
U+0085; blank lines are skipped; a malformed line, undecodable bytes
included, is a ParseError.

Every output is written here too, by ``write_bytes`` (text by
``write_lines``, CSV by ``write_rows``, JSON encoded by ``json_line``):
UTF-8, LF line ends, and a file that appears whole or not at all.
"""

from __future__ import annotations

import codecs
import csv
import io
import json
import os
import re
from dataclasses import dataclass
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
TERMINATOR = re.compile(f"[{SENTENCE_BOUNDARIES}]")

# Caps, in characters, on a classified context window and on the disease
# name read with it; features.assemble_features clips to them.
MAX_CONTEXT = 450
MAX_DISEASE = 30

# Trailing list punctuation stripped by normalize_disease_name (applied
# after full-width folding, so 、，；, etc. are covered by their
# half-width forms plus the ideographic comma).
_TRAILING_PUNCT = "、,;；"

# Full-width ASCII (U+FF01-U+FF5E) and the ideographic space (U+3000),
# and the half-width characters they fold to.
_FULL_WIDTH_RE = re.compile("[\uff01-\uff5e\u3000]")
_HALF_WIDTH = {o: o - 0xFEE0 for o in range(0xFF01, 0xFF5F)} | {0x3000: " "}

# A line of an LF-ended text whose last non-blank character is trailing list
# punctuation.
_PUNCT_LINE_END_RE = re.compile(rf"[{_TRAILING_PUNCT}][^\S\n]*$", re.MULTILINE)

_ICD_CODE_RE = re.compile(r"^[A-Z][0-9]{2}(\.[0-9]([0-9]{2})?)?$")


class CcLevel(Enum):
    """Complication severity carried by an ICD entry."""

    NONE = "NONE"
    CC = "CC"
    MCC = "MCC"


class Tier(int, Enum):
    """DRG severity tier, encoded as the conventional final digit: a lower
    digit is more severe."""

    MCC = 1
    CC = 3
    NO_CC = 5


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

    def __post_init__(self):
        if not all(self.entries):
            raise ValueError("lexicon entries must be non-empty")


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


def discharge_names(record: MedicalRecord) -> list[str]:
    """The record's discharge diagnoses normalized, in order, without repeats.

    A name that normalizes to empty (say a lone list comma) is skipped.
    """
    names: dict[str, None] = {}
    for raw in record.discharge_diagnoses:
        try:
            names[normalize_disease_name(raw)] = None
        except EmptyName:
            pass
    return list(names)


# ---------------------------------------------------------------------------
# Corpus I/O (one JSON object per line)
# ---------------------------------------------------------------------------


# Costs are refused at or above this, in the published unit. Below it the
# conversion is exact and fast; the int() of a Decimal such as 1e800000
# takes time that grows with the square of its exponent.
MAX_COST = 10**16


def _cost_to_minor(value, line: int) -> int:
    """Exact conversion of a published cost below MAX_COST to integer minor
    units."""
    try:
        minor = Decimal(str(value)) * 100
    except (InvalidOperation, ValueError):
        raise ParseError(f"bad avg_cost {value!r}", line)
    if not minor.is_finite():
        raise ParseError(f"avg_cost {value!r} is not finite", line)
    if minor != minor.to_integral_value():
        raise ParseError(f"avg_cost {value!r} has sub-minor-unit precision", line)
    if minor < 0:
        raise ParseError(f"avg_cost {value!r} is negative", line)
    if minor >= 100 * MAX_COST:
        raise ParseError(f"avg_cost {value!r} is not below {MAX_COST}", line)
    return int(minor)


def _minor_to_major(minor: int):
    """Minor units in the published unit: an int when whole, else the float
    whose JSON text is the amount. Past about 10**13 such a float may not
    exist, and the amount is refused rather than written rounded."""
    if minor % 100 == 0:
        return minor // 100
    major = minor / 100
    if Decimal(repr(major)) * 100 != minor:
        raise DxAuditError(f"amount {Decimal(minor).scaleb(-2)} cannot be written "
                           "exactly as a JSON number")
    return major


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
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply", line) from None
    except ValueError as exc:  # an integer past Python's int_max_str_digits
        raise ParseError(f"invalid JSON: {exc}", line) from None
    if "\\ud" in text or "\\uD" in text:  # only an escape spells a lone surrogate
        try:
            json_line(obj).encode("utf-8")
        except UnicodeEncodeError as exc:
            raise ParseError("invalid JSON: unpaired surrogate "
                             f"{exc.object[exc.start]!r}", line) from None
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
    return json_line(obj)


def _read_text(path: str | Path) -> tuple[str, ParseError | None]:
    """A UTF-8 file's text, decoded once, without a leading byte order mark
    and with its line ends made LF, and None.

    If the file holds an undecodable byte, the text is that of the lines
    before the byte's line, and the ParseError names the byte and its line.
    """
    with open(path, "rb") as handle:
        data = handle.read().removeprefix(codecs.BOM_UTF8)
    try:
        text, bad = data.decode("utf-8"), False
    except UnicodeDecodeError as exc:
        text, bad = data[:exc.start].decode("utf-8"), True
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    if not bad:
        return text, None
    head, _, tail = text.rpartition("\n")  # tail: the bad line up to its byte
    return head, ParseError(f"invalid UTF-8 at byte {len(tail.encode('utf-8'))}",
                            text.count("\n") + 1)


def read_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """Yield (line_no, text) for each non-blank line of a UTF-8 file, stripped.

    The file is decoded once; an undecodable byte raises after the lines before it.
    """
    text, error = _read_text(path)
    for line_no, line in enumerate(text.split("\n"), start=1):
        if line := line.strip():
            yield line_no, line
    if error is not None:
        raise error


def read_rows(path: str | Path, delimiter: str = ",") -> list[tuple[int, list[str]]]:
    """(line_no, fields) for each CSV row; a row spanning lines has its last line's."""
    numbered = list(read_lines(path))
    reader = csv.reader((line + "\n" for _, line in numbered), delimiter=delimiter)
    return [(numbered[reader.line_num - 1][0], row) for row in reader]


def read_table(path: str | Path,
               required: set[str]) -> list[tuple[int, dict[str, str]]]:
    """(line_no, column -> field) for each row under a CSV header.

    The header must name every ``required`` column and no column twice, and
    each row must have as many fields as the header.
    """
    (header_line, header), *rows = read_rows(path) or [(None, [])]
    if not required.issubset(header):
        raise ParseError(f"{path} must carry header {sorted(required)}", header_line)
    twice = [name for i, name in enumerate(header) if name in header[:i]]
    if twice:
        raise ParseError(f"{path}: header names column {twice[0]!r} twice", header_line)
    for line_no, row in rows:
        if len(row) != len(header):
            raise ParseError(f"expected {len(header)} fields, got {len(row)}", line_no)
    return [(line_no, dict(zip(header, row))) for line_no, row in rows]


def json_line(obj, indent: int | None = None) -> str:
    """``obj`` as JSON with sorted keys and raw (unescaped) non-ASCII."""
    return json.dumps(obj, ensure_ascii=False, sort_keys=True, indent=indent)


def _replaceable(path: str | Path) -> str | None:
    """The regular file a temporary file may replace to write ``path``, its
    symlinks followed one step at a time; None if a step passes through
    /proc (as /dev/stdout does, to whatever file the shell opened) or the
    target exists and is not a regular file."""
    target = os.path.abspath(path)
    for _ in range(40):  # the links the kernel follows before ELOOP
        target = os.path.join(os.path.realpath(os.path.dirname(target)),
                              os.path.basename(target))
        if target.startswith("/proc/"):
            return None
        if not os.path.islink(target):
            return None if os.path.exists(target) and not os.path.isfile(target) else target
        target = os.path.join(os.path.dirname(target), os.readlink(target))
    return None


def write_bytes(path: str | Path, chunks: Iterable[bytes]) -> None:
    """Write ``chunks`` to ``path`` whole or not at all: to a new temporary
    file beside it (beside a symlink's target, so the link stays a link) that
    then replaces it, or that is removed if writing raises. A FIFO, a device or a
    file behind an open descriptor (/dev/stdout) is appended to in place, so
    it keeps its inode and its bytes."""
    target = _replaceable(path)
    if target is None:
        with open(path, "ab") as handle:
            handle.writelines(chunks)
        return
    # A short new name, so that it fits wherever the target's name does;
    # "x" creates it with the default mode and never opens another's file.
    temp = os.path.join(os.path.dirname(target), f".{os.urandom(8).hex()}.tmp")
    handle = None
    try:
        with open(temp, "xb") as handle:
            handle.writelines(chunks)
        os.replace(temp, target)
    except BaseException as exc:
        if handle is not None and os.path.exists(temp):
            os.remove(temp)
        if isinstance(exc, OSError) and exc.filename == temp:
            exc.filename = str(path)  # name the file asked for
        raise


def write_lines(path: str | Path, lines: Iterable[str]) -> None:
    """Write each line as UTF-8 followed by LF."""
    write_bytes(path, (f"{line}\n".encode("utf-8") for line in lines))


def write_rows(path: str | Path, rows: Iterable[list], delimiter: str = ",") -> None:
    """Write CSV rows, each ended by LF."""
    def encoded():
        text = io.StringIO()
        writer = csv.writer(text, delimiter=delimiter, lineterminator="\n")
        for row in rows:
            writer.writerow(row)
            yield text.getvalue().encode("utf-8")
            text.seek(0)
            text.truncate()
    write_bytes(path, encoded())


def _frameless(exc: DxAuditError) -> DxAuditError:
    """``exc`` with no traceback along its ``__context__`` chain: a kept
    error holds no frame, and so none of its reader's lines."""
    link = exc
    while link is not None:
        link.__traceback__ = None
        link = link.__context__
    return exc


def read_corpus(path: str | Path,
                ) -> tuple[list[MedicalRecord], list[tuple[int, DxAuditError]]]:
    """The records of a JSONL corpus in file order, and (line_no, error) for
    each bad line: one that is undecodable, unparseable or repeats an
    earlier record_id. Each line is decoded and parsed on its own, so a bad
    line does not end the reading."""
    records, errors, seen = [], [], set()
    # Split at LF, CRLF or CR; no name keeps the file's bytes past the split
    lines = Path(path).read_bytes().removeprefix(codecs.BOM_UTF8).splitlines()
    for line_no, raw in enumerate(lines, start=1):
        try:
            text = raw.decode("utf-8").strip()
        except UnicodeDecodeError as exc:
            errors.append((line_no, ParseError(f"invalid UTF-8 at byte {exc.start}", line_no)))
            continue
        if not text:
            continue
        try:
            record = parse_record_line(text, line_no)
        except ParseError as exc:
            errors.append((line_no, _frameless(exc)))
            continue
        if record.record_id in seen:
            errors.append((line_no, DuplicateRecordId(
                f"duplicate record_id {record.record_id!r}")))
        else:
            seen.add(record.record_id)
            records.append(record)
    return records, errors


def load_corpus(path: str | Path) -> list[MedicalRecord]:
    """Load a JSONL corpus, preserving file order.

    Raises the first bad line's error: a ParseError carrying its 1-based
    line number, or DuplicateRecordId on a repeated id.
    """
    records, errors = read_corpus(path)
    if errors:
        raise errors[0][1]
    return records


def save_corpus(records: Iterable[MedicalRecord], path: str | Path) -> None:
    write_lines(path, map(record_to_json, records))


# ---------------------------------------------------------------------------
# ICD table
# ---------------------------------------------------------------------------


class IcdIndex:
    """Lookup over an ICD table: by code and by normalized title."""

    def __init__(self, entries: Iterable[IcdEntry]):
        self._by_code: dict[str, IcdEntry] = {}
        self._by_title: dict[str, list[IcdEntry]] = {}
        for entry in entries:
            if entry.code in self._by_code:
                raise DuplicateCode(f"code {entry.code} appears twice")
            self._by_code[entry.code] = entry
        for code in sorted(self._by_code):  # every list below is in code order
            entry = self._by_code[code]
            title_key = normalize_disease_name(entry.title)
            self._by_title.setdefault(title_key, []).append(entry)

    def get(self, code: str) -> IcdEntry | None:
        return self._by_code.get(code)

    def by_title(self, title: str) -> list[IcdEntry]:
        # A key is its own normal form, so a title that is one needs no
        # normalizing; detect reports name diseases in normal form.
        entries = self._by_title.get(title)
        if entries is None:
            entries = self._by_title.get(normalize_disease_name(title), ())
        return list(entries)

    def titles(self) -> list[str]:
        """Distinct normalized titles, in the code order of their first entry."""
        return list(self._by_title)

    def codes(self) -> list[str]:
        return sorted(self._by_code)

    def entries(self) -> list[IcdEntry]:
        return [self._by_code[c] for c in self.codes()]


def load_icd_table(path: str | Path) -> IcdIndex:
    """Load a comma-separated table with header ``code,title,cc_level``."""
    entries: list[IcdEntry] = []
    for line_no, row in read_table(path, {"code", "title", "cc_level"}):
        code = row["code"].strip()
        if not _ICD_CODE_RE.match(code):
            raise BadCode(f"line {line_no}: code {code!r} violates the grammar")
        try:
            level = CcLevel(row["cc_level"].strip().upper())
        except ValueError:
            raise ParseError(f"bad cc_level {row['cc_level']!r}", line_no)
        try:  # IcdIndex files the entry under this title's normal form
            normalize_disease_name(row["title"])
        except EmptyName as exc:
            raise ParseError(str(exc), line_no) from None
        entries.append(IcdEntry(code=code, title=row["title"].strip(), cc_level=level))
    return IcdIndex(entries)


# ---------------------------------------------------------------------------
# Lexicons (one entry per line, '#' comments)
# ---------------------------------------------------------------------------


def load_lexicon(path: str | Path, kind: LexiconKind) -> Lexicon:
    """Load a one-entry-per-line lexicon ('#' starts a comment line).

    Entries are kept as make_lexicon keeps them. A stripped line is its own
    normal form unless it holds a full-width character or ends in list
    punctuation, so a text with neither is read without normalizing each
    entry. Otherwise each entry is normalized, and one that normalizes to
    empty is a ParseError naming the file, the lexicon's kind and the line.
    """
    text, error = _read_text(path)
    lines = text.split("\n")
    if kind is LexiconKind.ENUMERATOR_PATTERNS or not (
            _FULL_WIDTH_RE.search(text) or _PUNCT_LINE_END_RE.search(text)):
        entries = (line for raw in lines if (line := raw.strip()) and line[0] != "#")
    else:
        entries = []
        for line_no, raw in enumerate(lines, start=1):
            if (line := raw.strip()) and line[0] != "#":
                try:
                    entries.append(normalize_disease_name(line))
                except EmptyName:
                    raise ParseError(f"{kind.value.replace('_', ' ')} lexicon {path}: "
                                     f"entry {line!r} normalized to empty", line_no) from None
    if error is not None:
        raise error
    return Lexicon(kind=kind, entries=tuple(dict.fromkeys(entries)))


def make_lexicon(entries: Iterable[str], kind: LexiconKind) -> Lexicon:
    """Build a lexicon from entries in order, dropping repeats.

    Word lexicons are normalized; enumerator-pattern lexicons are kept
    verbatim because their entries are regexes.
    """
    if kind is not LexiconKind.ENUMERATOR_PATTERNS:
        entries = map(normalize_disease_name, entries)
    return Lexicon(kind=kind, entries=tuple(dict.fromkeys(entries)))
