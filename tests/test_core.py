"""Domain types, normalization, and corpus/table I/O."""

import os
import random
from decimal import Decimal
import stat
import threading

import numpy as np
import pytest

from dxaudit import core
from dxaudit.core import (
    CcLevel,
    DrgAssignment,
    IcdEntry,
    IcdIndex,
    LexiconKind,
    MedicalRecord,
    Tier,
    normalize_disease_name,
)
from dxaudit.errors import (
    BadCode,
    DuplicateCode,
    DuplicateRecordId,
    DxAuditError,
    EmptyName,
    ParseError,
)

from dxaudit.modelio import save_model

from conftest import make_fixture_icd_entries
from oracles import seed_normalize_disease_name


class TestNormalizeDiseaseName:
    def test_strips_whitespace(self):
        assert normalize_disease_name("肺炎 ") == "肺炎"

    def test_folds_full_width_ascii(self):
        assert normalize_disease_name("糖尿病（２型）") == "糖尿病(2型)"

    def test_whitespace_only_raises(self):
        with pytest.raises(EmptyName):
            normalize_disease_name("  ")

    def test_strips_trailing_list_punctuation(self):
        assert normalize_disease_name("高血压、") == "高血压"
        assert normalize_disease_name("高血压；") == "高血压"
        assert normalize_disease_name("高血压，") == "高血压"

    def test_idempotent_on_random_inputs(self):
        rng = random.Random(42)
        chars = "肺炎高血压（）２ａＺ、;； ，.ABCz"
        for _ in range(2000):
            raw = "".join(rng.choice(chars) for _ in range(rng.randint(1, 12)))
            try:
                once = normalize_disease_name(raw)
            except EmptyName:
                continue
            assert normalize_disease_name(once) == once

    def test_matches_seed_fold_loop_on_every_bmp_character(self):
        mismatches = []
        for code in range(0x20, 0x10000):
            if 0xD800 <= code <= 0xDFFF:
                continue  # surrogates
            raw = "a" + chr(code) + "b" + chr(code)
            if normalize_disease_name(raw) != seed_normalize_disease_name(raw):
                mismatches.append(hex(code))
        assert mismatches == []


def _write_corpus(tmp_path, lines):
    path = tmp_path / "corpus.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


GOOD_LINE = ('{"record_id": "r1", "sections": [{"name": "现病史", "text": "确诊为肺炎。"}],'
             ' "discharge_diagnoses": ["肺炎"]}')
GOOD_LINE_2 = ('{"record_id": "r2", "sections": [{"name": "现病史", "text": "否认高血压。"}],'
               ' "discharge_diagnoses": [], "drg": {"adrg": "GB2", "tier": 5, "avg_cost": 10000}}')


class TestCorpusIO:
    def test_loads_in_file_order(self, tmp_path):
        records = core.load_corpus(_write_corpus(tmp_path, [GOOD_LINE, GOOD_LINE_2]))
        assert [r.record_id for r in records] == ["r1", "r2"]
        assert records[1].drg == DrgAssignment("GB2", Tier.NO_CC, 1000000)

    def test_duplicate_record_id(self, tmp_path):
        with pytest.raises(DuplicateRecordId):
            core.load_corpus(_write_corpus(tmp_path, [GOOD_LINE, GOOD_LINE]))

    def test_truncated_line_reports_line_number(self, tmp_path):
        path = _write_corpus(tmp_path, [GOOD_LINE, '{"record_id": "r2", "sec'])
        with pytest.raises(ParseError) as excinfo:
            core.load_corpus(path)
        assert excinfo.value.line == 2

    def test_empty_section_text_rejected(self, tmp_path):
        bad = ('{"record_id": "r1", "sections": [{"name": "s", "text": ""}],'
               ' "discharge_diagnoses": []}')
        with pytest.raises(ParseError):
            core.load_corpus(_write_corpus(tmp_path, [bad]))

    def test_round_trip(self, tmp_path):
        records = core.load_corpus(_write_corpus(tmp_path, [GOOD_LINE, GOOD_LINE_2]))
        out = tmp_path / "round.jsonl"
        core.save_corpus(records, out)
        assert core.load_corpus(out) == records

    def test_undecodable_line_is_parse_error(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_bytes(GOOD_LINE.encode("utf-8") + b'\n\xff\xfe{"bad": 1}\n')
        with pytest.raises(ParseError, match="invalid UTF-8") as excinfo:
            core.load_corpus(path)
        assert excinfo.value.line == 2

    def test_read_corpus_gives_each_bad_line_and_reads_on(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_bytes(b"\n".join([
            GOOD_LINE.encode("utf-8"), b"\xff", b"{broken", b"",
            GOOD_LINE.encode("utf-8"), GOOD_LINE_2.encode("utf-8")]) + b"\n")
        records, errors = core.read_corpus(path)
        assert [record.record_id for record in records] == ["r1", "r2"]
        assert [(line_no, type(error)) for line_no, error in errors] == [
            (2, ParseError), (3, ParseError), (5, DuplicateRecordId)]

    def test_read_corpus_errors_hold_no_frame(self, tmp_path):
        """A kept error whose chain reached a traceback would hold the
        reader's frame, and with it every line of the file."""
        path = tmp_path / "corpus.jsonl"
        path.write_bytes(b"\n".join([
            GOOD_LINE.encode("utf-8"), b"{broken", b'{"record_id": "r3"}', b"\xff",
            GOOD_LINE.encode("utf-8")]) + b"\n")
        _, errors = core.read_corpus(path)
        assert [line_no for line_no, _ in errors] == [2, 3, 4, 5]
        for _, error in errors:
            chain = []
            while error is not None:
                chain.append(error)
                error = error.__cause__ or error.__context__
            assert [link.__traceback__ for link in chain] == [None] * len(chain)

    @pytest.mark.parametrize("cost, written", [
        ("12.34", True), ("12345678901234.56", True), ("9999999999999999", True),
        ("1234567890123456.78", False), ("9999999999999999.99", False)])
    def test_every_cost_written_is_the_cost_read(self, tmp_path, cost, written):
        """A cost below MAX_COST, given as a string, is read exactly; it is
        written back as the same amount, or refused when no JSON number that
        a float prints is that amount."""
        line = GOOD_LINE_2.replace('"avg_cost": 10000', f'"avg_cost": "{cost}"')
        records = core.load_corpus(_write_corpus(tmp_path, [line]))
        assert records[0].drg.avg_cost == int(Decimal(cost) * 100)
        out = tmp_path / "round.jsonl"
        if written:
            core.save_corpus(records, out)
            assert core.load_corpus(out) == records
        else:
            with pytest.raises(DxAuditError, match=f"amount {cost} cannot be written"):
                core.save_corpus(records, out)
            assert not out.exists()


class TestRecordFieldValidation:
    @pytest.mark.parametrize("line", [
        # a string would otherwise parse as one diagnosis per character
        '{"record_id": "r", "sections": [{"name": "s", "text": "t"}],'
        ' "discharge_diagnoses": "腰椎间盘突出症高脂血症"}',
        '{"record_id": "r", "sections": [{"name": "s", "text": "t"}],'
        ' "discharge_diagnoses": [123]}',
        '{"record_id": "r", "sections": [{"name": 7, "text": "t"}],'
        ' "discharge_diagnoses": []}',
        '{"record_id": "r", "sections": [{"name": "s", "text": "t"}],'
        ' "discharge_diagnoses": [], "drg": {"adrg": "GB2", "tier": true, "avg_cost": 1}}',
        '{"record_id": "r", "sections": [{"name": "s", "text": "t"}],'
        ' "discharge_diagnoses": [], "drg": {"adrg": "GB2", "tier": "3", "avg_cost": 1}}',
        '{"record_id": "r", "sections": [{"name": "s", "text": "t"}],'
        ' "discharge_diagnoses": [], "drg": [3]}',
        '{"record_id": "r\\ud800", "sections": [{"name": "s", "text": "t"}],'
        ' "discharge_diagnoses": []}',
        '{"record_id": "r", "sections": [{"name": "s", "text": "t"}],'
        ' "discharge_diagnoses": ["\\udc00\\ud83d"]}',
    ], ids=["string_diagnoses", "non_string_diagnosis", "non_string_section_name",
            "bool_tier", "string_tier", "drg_not_an_object", "lone_high_surrogate",
            "low_surrogate_before_high"])
    def test_malformed_field_is_parse_error(self, line):
        with pytest.raises(ParseError) as excinfo:
            core.parse_record_line(line, 4)
        assert excinfo.value.line == 4

    @pytest.mark.parametrize("cost", ["1e999", "-1e999", "NaN", "Infinity"])
    def test_non_finite_cost_is_parse_error(self, cost):
        line = ('{"record_id": "r", "sections": [{"name": "s", "text": "t"}],'
                ' "discharge_diagnoses": [],'
                f' "drg": {{"adrg": "GB2", "tier": 1, "avg_cost": {cost}}}}}')
        with pytest.raises(ParseError, match="is not finite") as excinfo:
            core.parse_record_line(line, 4)
        assert excinfo.value.line == 4

    @pytest.mark.parametrize("cost", ['"1e100000"', "1e16", "10000000000000000"])
    def test_cost_at_the_bound_is_parse_error(self, cost):
        line = ('{"record_id": "r", "sections": [{"name": "s", "text": "t"}],'
                ' "discharge_diagnoses": [],'
                f' "drg": {{"adrg": "GB2", "tier": 1, "avg_cost": {cost}}}}}')
        with pytest.raises(ParseError, match="is not below 10000000000000000") as excinfo:
            core.parse_record_line(line, 4)
        assert excinfo.value.line == 4

    def test_integer_past_the_digit_limit_is_parse_error(self):
        line = ('{"record_id": "r", "sections": [{"name": "s", "text": "t"}],'
                f' "discharge_diagnoses": [], "n": {"1" * 5000}}}')
        with pytest.raises(ParseError, match="invalid JSON") as excinfo:
            core.parse_record_line(line, 4)
        assert excinfo.value.line == 4

    def test_paired_surrogate_escape_and_escaped_backslash_parse(self):
        record = core.parse_record_line(
            '{"record_id": "r\\\\ud800", "sections": [{"name": "s", '
            '"text": "\\ud83d\\ude00"}], "discharge_diagnoses": []}')
        assert (record.record_id, record.sections[0][1]) == ("r\\ud800", "\U0001f600")


class TestWriters:
    """Every output appears whole or not at all."""

    def _lines_that_raise(self):
        yield "new"
        raise RuntimeError("interrupted")

    @pytest.mark.parametrize("write", [
        lambda self, path: core.write_lines(path, self._lines_that_raise()),
        lambda self, path: save_model(path, "context", {}, {
            "a": np.zeros(2), "b": np.array(["not a float"])}),
    ], ids=["lines", "model"])
    def test_a_write_that_raises_leaves_the_old_bytes(self, tmp_path, write):
        target = tmp_path / "out"
        target.write_bytes(b"old\n")
        with pytest.raises((RuntimeError, ValueError)):
            write(self, target)
        assert target.read_bytes() == b"old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out"]

    def test_a_name_of_255_bytes_is_written(self, tmp_path):
        """The temporary file's name fits wherever the target's does."""
        target = tmp_path / ("肺" * 84 + "xyz")  # 255 bytes in UTF-8
        assert len(target.name.encode("utf-8")) == 255
        core.write_lines(target, ["new"])
        assert target.read_bytes() == b"new\n"
        with pytest.raises(RuntimeError):
            core.write_lines(target, self._lines_that_raise())
        assert target.read_bytes() == b"new\n"
        assert [p.name for p in tmp_path.iterdir()] == [target.name]

    def test_the_written_file_takes_the_default_mode(self, tmp_path):
        umask = os.umask(0o027)
        try:
            core.write_lines(tmp_path / "out", ["new"])
        finally:
            os.umask(umask)
        assert stat.S_IMODE((tmp_path / "out").stat().st_mode) == 0o640

    def test_a_symlink_stays_a_link_to_the_new_bytes(self, tmp_path):
        real, link = tmp_path / "real", tmp_path / "link"
        real.write_bytes(b"old\n")
        link.symlink_to(real)
        core.write_lines(link, ["new", "肺炎"])
        assert link.is_symlink() and link.resolve() == real
        assert real.read_bytes() == "new\n肺炎\n".encode("utf-8")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link", "real"]

    def test_a_fifo_is_written_in_place(self, tmp_path):
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()),
                                  daemon=True)
        reader.start()
        core.write_rows(fifo, [["a", "b,c"], ["d", "e"]])
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert received == [b'a,"b,c"\nd,e\n']
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_a_link_to_an_open_pipe_is_written_in_place(self, tmp_path):
        # what --out /dev/stdout is when stdout is a pipe
        read_end, write_end = os.pipe()
        link = tmp_path / "out"
        link.symlink_to(f"/proc/self/fd/{write_end}")
        try:
            core.write_lines(link, ["肺炎"])
        finally:
            os.close(write_end)
        with os.fdopen(read_end, "rb") as pipe:
            assert pipe.read() == "肺炎\n".encode("utf-8")
        assert link.is_symlink()

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_a_link_to_an_open_file_is_appended_in_place(self, tmp_path):
        # what --out /dev/stdout is when stdout is appended to a log file
        log, link = tmp_path / "log", tmp_path / "out"
        log.write_bytes(b"old\n")
        inode = log.stat().st_ino
        with open(log, "ab") as handle:
            link.symlink_to(f"/proc/self/fd/{handle.fileno()}")
            core.write_lines(link, ["肺炎"])
        assert log.read_bytes() == "old\n肺炎\n".encode("utf-8")
        assert log.stat().st_ino == inode
        assert sorted(p.name for p in tmp_path.iterdir()) == ["log", "out"]


class TestIcdTable:
    def test_bad_code(self, tmp_path):
        path = tmp_path / "icd.csv"
        path.write_text("code,title,cc_level\nXYZ,坏行,NONE\n", encoding="utf-8")
        with pytest.raises(BadCode):
            core.load_icd_table(path)

    @pytest.mark.parametrize("title", ["、", "", " \u3000"])
    def test_title_that_normalizes_to_empty_names_its_line(self, tmp_path, title):
        path = tmp_path / "icd.csv"
        path.write_text(f"code,title,cc_level\nA01,伤寒,CC\nA02,{title},MCC\n",
                        encoding="utf-8")
        with pytest.raises(ParseError, match="normalized to empty") as excinfo:
            core.load_icd_table(path)
        assert excinfo.value.line == 3

    def test_empty_table(self, tmp_path):
        path = tmp_path / "icd.csv"
        path.write_text("code,title,cc_level\n", encoding="utf-8")
        index = core.load_icd_table(path)
        assert index.codes() == []

    def test_duplicate_code(self):
        entries = make_fixture_icd_entries()
        with pytest.raises(DuplicateCode):
            IcdIndex(entries + [entries[0]])

    def test_title_lookup_uses_normalization(self, fixture_icd):
        assert fixture_icd.by_title("巩膜破裂 ")[0].code == "S05.301"
        for entry in fixture_icd.entries():
            title = normalize_disease_name(entry.title)
            for surface in (title, f" {title}，", entry.title):
                assert entry in fixture_icd.by_title(surface)
        fixture_icd.by_title("巩膜破裂").clear()  # a copy, not the index's list
        assert fixture_icd.by_title("巩膜破裂")
        with pytest.raises(EmptyName):
            fixture_icd.by_title(" ，")

    def test_six_digit_ancestry(self, fixture_icd):
        entry = fixture_icd.get("S05.301")
        assert entry.parent_code == "S05.3"
        assert fixture_icd.get("S05.3").parent_code == "S05"

    @pytest.mark.parametrize("code,depth", [("S05", 3), ("S05.3", 4), ("S05.301", 6)])
    def test_depths(self, fixture_icd, code, depth):
        assert fixture_icd.get(code).depth == depth


def test_icd_titles_distinct_in_code_order():
    entries = make_fixture_icd_entries() + [
        IcdEntry(code="A05", title="角膜裂伤", cc_level=CcLevel.MCC),
        IcdEntry(code="Z98", title="病种B1，", cc_level=CcLevel.MCC),
    ]
    index = IcdIndex(list(reversed(entries)))
    titles = index.titles()
    assert titles[0] == "角膜裂伤"
    assert len(titles) == len(set(titles)) == len(entries) - 2
    assert titles == list(dict.fromkeys(normalize_disease_name(e.title)
                                        for e in index.entries()))
    assert [e.code for e in index.by_title("角膜裂伤")] == ["A05", "S05.302"]


class TestLexicons:
    def test_comments_and_dedup(self, tmp_path):
        path = tmp_path / "lex.txt"
        path.write_text("# comment\n肺炎\n肺炎 \n\n高血压\n", encoding="utf-8")
        lexicon = core.load_lexicon(path, LexiconKind.DISEASE_NAMES)
        assert lexicon.entries == ("肺炎", "高血压")

    def test_pattern_entries_kept_verbatim(self, tmp_path):
        path = tmp_path / "pat.txt"
        path.write_text("[0-9]{1,2}[.、．)）:：]\n", encoding="utf-8")
        lexicon = core.load_lexicon(path, LexiconKind.ENUMERATOR_PATTERNS)
        assert lexicon.entries == ("[0-9]{1,2}[.、．)）:：]",)


class TestDomainTypes:
    def test_record_requires_nonempty_sections(self):
        with pytest.raises(ValueError):
            MedicalRecord(record_id="r", sections=(("s", ""),), discharge_diagnoses=())

    def test_drg_assignment_validates_adrg(self):
        with pytest.raises(ValueError):
            DrgAssignment(adrg="G2", tier=Tier.CC, avg_cost=0)

    def test_tier_severity_ordering(self):
        # the tier digit orders severity: a lower digit is more severe
        assert Tier.MCC < Tier.CC < Tier.NO_CC

    def test_cc_level_values(self):
        assert {level.value for level in CcLevel} == {"NONE", "CC", "MCC"}
