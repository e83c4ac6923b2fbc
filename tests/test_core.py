"""Domain types, normalization, and corpus/table I/O."""

import random

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
    EmptyName,
    ParseError,
)

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

    def test_iter_corpus_yields_each_bad_line_and_reads_on(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_bytes(b"\n".join([
            GOOD_LINE.encode("utf-8"), b"\xff", b"{broken", b"",
            GOOD_LINE.encode("utf-8"), GOOD_LINE_2.encode("utf-8")]) + b"\n")
        seen = [(line_no, record and record.record_id, type(error))
                for line_no, record, error in core.iter_corpus(path)]
        assert seen == [(1, "r1", type(None)), (2, None, ParseError),
                        (3, None, ParseError), (5, None, DuplicateRecordId),
                        (6, "r2", type(None))]


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
    ], ids=["string_diagnoses", "non_string_diagnosis", "non_string_section_name",
            "bool_tier", "string_tier", "drg_not_an_object"])
    def test_malformed_field_is_parse_error(self, line):
        with pytest.raises(ParseError) as excinfo:
            core.parse_record_line(line, 4)
        assert excinfo.value.line == 4


class TestIcdTable:
    def test_children_of(self, tmp_path):
        path = tmp_path / "icd.csv"
        path.write_text("code,title,cc_level\nS05.3,眼球裂伤,NONE\nS05.301,巩膜破裂,NONE\n",
                        encoding="utf-8")
        index = core.load_icd_table(path)
        assert index.children_of("S05.3") == ["S05.301"]

    def test_bad_code(self, tmp_path):
        path = tmp_path / "icd.csv"
        path.write_text("code,title,cc_level\nXYZ,坏行,NONE\n", encoding="utf-8")
        with pytest.raises(BadCode):
            core.load_icd_table(path)

    def test_empty_table(self, tmp_path):
        path = tmp_path / "icd.csv"
        path.write_text("code,title,cc_level\n", encoding="utf-8")
        index = core.load_icd_table(path)
        assert len(index) == 0
        assert index.children_of("S05") == []

    def test_duplicate_code(self):
        entries = make_fixture_icd_entries()
        with pytest.raises(DuplicateCode):
            IcdIndex(entries + [entries[0]])

    def test_title_lookup_uses_normalization(self, fixture_icd):
        assert fixture_icd.by_title("巩膜破裂 ")[0].code == "S05.301"

    def test_prefix_consistency_exhaustive(self, fixture_icd):
        for entry in fixture_icd.entries():
            parent = entry.parent_code
            if parent is not None and parent in fixture_icd:
                assert entry.code in fixture_icd.children_of(parent)
        for code in fixture_icd.codes():
            for child in fixture_icd.children_of(code):
                assert fixture_icd.get(child).parent_code == code

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
        assert "肺炎" in lexicon

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
        assert Tier.MCC.severity > Tier.CC.severity > Tier.NO_CC.severity

    def test_cc_level_values(self):
        assert {level.value for level in CcLevel} == {"NONE", "CC", "MCC"}
