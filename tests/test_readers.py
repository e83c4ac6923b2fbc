"""Every text input is read through core's strict reader and its table reader."""

import codecs

import pytest

from dxaudit import cli, core, drg, pipeline, relation_model, synth
from dxaudit import context_model as cm
from dxaudit.core import LexiconKind
from dxaudit.errors import ParseError
from dxaudit.features import FeatureLexicons
from dxaudit.relation_model import DiseasePair, PairSource

RECORD = ('{"record_id": "r1", "sections": [{"name": "s", "text": "确诊为肺炎。"}], '
          '"discharge_diagnoses": []}')
SAMPLE = '{"disease": "肺炎", "context": "确诊为肺炎。", "label": "confirmed"}'


def _feature_lexicons(data_dir):
    return FeatureLexicons(
        negation=core.load_lexicon(data_dir / "negation_words.txt",
                                   LexiconKind.NEGATION_WORDS),
        enumerators=core.load_lexicon(data_dir / "enumerator_patterns.txt",
                                      LexiconKind.ENUMERATOR_PATTERNS))


# reader id -> (first line, a valid second line, a short row or None, load)
READERS = {
    "corpus": (RECORD, RECORD.replace("r1", "r2"), None,
               lambda path, _: core.load_corpus(path)),
    "lexicon": ("肺炎", "高血压", None,
                lambda path, _: core.load_lexicon(path, LexiconKind.DISEASE_NAMES)),
    "negation-lexicon": ("否认", "未见", None,
                         lambda path, _: core.load_lexicon(path, LexiconKind.NEGATION_WORDS)),
    "icd-table": ("code,title,cc_level", "S05,眼和眶损伤,NONE", "S05.3,眼球裂伤",
                  lambda path, _: core.load_icd_table(path)),
    "report": ('{"record_id": "r1", "findings": []}', '{"summary": {}}', None,
               lambda path, _: pipeline.load_report_findings(path)),
    "samples": (SAMPLE, SAMPLE, None,
                lambda path, data_dir: cm.load_training_samples(
                    path, _feature_lexicons(data_dir))),
    "config": ("seed=1", "synthetic.n=5", None,
               lambda path, _: cli.load_config_file(path)),
    "gold": ('{"findings":', '[["r1", "肺炎"]]}', None,
             lambda path, _: cli.load_gold_findings(path)),
    "pairs": ("肺炎\t肺部感染\tsimilarity\tannotated",
              "心衰\t心力衰竭\tsimilarity\tannotated", "肺炎\t肺部感染",
              lambda path, _: relation_model.load_pairs(path)),
    "back-translation": ("肺炎\t肺部感染", "心衰\t心力衰竭", "肺炎\t",
                         lambda path, _: relation_model.load_back_translation_pairs(path)),
    "variants": ("肺部感染\t肺炎", "心房颤动\t房颤", "脑梗死",
                 lambda path, _: synth.load_variant_pairs(path)),
    "templates": ("filler\t患者一般情况可。", "confirmed\t确诊为{DISEASE}。", None,
                  lambda path, _: synth.Templates.load(path)),
    "drg-groups": ("adrg,tier,avg_cost", "GB2,1,18000", "GB2,3",
                   lambda path, _: drg.DrgGroupTable.load(path)),
}
SHORT_ROW_READERS = [name for name, case in READERS.items() if case[2] is not None]


@pytest.mark.parametrize("reader", list(READERS))
def test_undecodable_line_is_parse_error_naming_it(tmp_path, data_dir, reader):
    first, _, _, load = READERS[reader]
    path = tmp_path / "input"
    path.write_bytes(first.encode("utf-8") + b"\n\xe8\x82\xff\xfe\n")
    with pytest.raises(ParseError, match="invalid UTF-8 at byte 0") as excinfo:
        load(path, data_dir)
    assert excinfo.value.line == 2


@pytest.mark.parametrize("reader", SHORT_ROW_READERS)
def test_short_row_is_parse_error_naming_it(tmp_path, data_dir, reader):
    first, second, short, load = READERS[reader]
    path = tmp_path / "input"
    path.write_text(f"{first}\n{second}\n{short}\n", encoding="utf-8")
    with pytest.raises(ParseError) as excinfo:
        load(path, data_dir)
    assert excinfo.value.line == 3


@pytest.mark.parametrize("reader", ["icd-table", "drg-groups"])
def test_table_line_numbers_count_blank_lines(tmp_path, data_dir, reader):
    first, second, short, load = READERS[reader]
    path = tmp_path / "input"
    path.write_text(f"{first}\n\n{second}\n\n{short}\n", encoding="utf-8")
    with pytest.raises(ParseError) as excinfo:
        load(path, data_dir)
    assert excinfo.value.line == 5


@pytest.mark.parametrize("reader, text", [
    ("icd-table", "title,cc_level\nS05,NONE\n"),
    ("drg-groups", "adrg,avg_cost\nGB2,18000\n"),
    ("icd-table", ""),
], ids=["icd-no-code", "groups-no-tier", "icd-empty-file"])
def test_table_without_required_column_is_parse_error(tmp_path, data_dir,
                                                      reader, text):
    path = tmp_path / "input"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ParseError, match="must carry header"):
        READERS[reader][3](path, data_dir)


def test_lexicon_name_empty_once_normalized_is_parse_error_naming_it(tmp_path):
    path = tmp_path / "input"
    path.write_text("肺炎\n# 注释\n\n、\n高血压\n", encoding="utf-8")
    with pytest.raises(ParseError, match="'、' normalized to empty") as excinfo:
        core.load_lexicon(path, LexiconKind.DISEASE_NAMES)
    assert excinfo.value.line == 4


@pytest.mark.parametrize("reader", ["lexicon", "negation-lexicon"])
def test_lexicon_name_empty_once_normalized_is_reported_before_a_later_bad_byte(
        tmp_path, data_dir, reader):
    first, second, _, load = READERS[reader]
    path = tmp_path / "input"
    path.write_bytes(f"{first}\n、\n{second}\n".encode("utf-8") + b"\xff\n")
    with pytest.raises(ParseError, match="'、' normalized to empty") as excinfo:
        load(path, data_dir)
    assert excinfo.value.line == 2


def test_lines_end_at_cr_lf_and_crlf_only(tmp_path):
    path = tmp_path / "input"
    path.write_bytes("a\rb\r\nc\n\n d \u2028e\x85f\n".encode("utf-8"))
    assert list(core.read_lines(path)) == [
        (1, "a"), (2, "b"), (3, "c"), (5, "d \u2028e\x85f")]


def test_sample_keeps_raw_line_separators(tmp_path, data_dir):
    path = tmp_path / "samples.jsonl"
    path.write_text('{"disease": "肺炎", "context": "确诊为\u2028肺炎\x85。"}\n',
                    encoding="utf-8")
    [sample] = cm.load_training_samples(path, _feature_lexicons(data_dir))
    assert sample.context == "确诊为\u2028肺炎\x85。"


def test_pair_file_keeps_a_quoted_field_across_lines(tmp_path):
    pairs = [DiseasePair(a="肺炎\n伴感染", b='心衰"左"', source=PairSource.ANNOTATED,
                         relation="irrelevance"),
             DiseasePair(a="肺炎", b="肺部感染", source=PairSource.SAME_LIST)]
    path = tmp_path / "pairs.tsv"
    relation_model.save_pairs(pairs, path)
    assert relation_model.load_pairs(path) == pairs


@pytest.mark.parametrize("row, message", [
    ("肺炎\t肺部感染\tsame\tsame_list", "same_list pair label 'same' is neither a relation "
                                    "nor 'dissimilar'"),
    ("高血压\t高血压\tsimilarty\tannotated", "annotated pair label 'similarty' is neither "
                                      "a relation nor empty"),
], ids=["polarity-against-source", "misspelled-relation"])
def test_pair_label_save_pairs_never_writes_is_parse_error_naming_it(tmp_path, row,
                                                                     message):
    path = tmp_path / "pairs.tsv"
    path.write_text(f"{READERS['pairs'][0]}\n{row}\n", encoding="utf-8")
    with pytest.raises(ParseError, match=message) as excinfo:
        relation_model.load_pairs(path)
    assert excinfo.value.line == 2


@pytest.mark.parametrize("reader", ["lexicon", "negation-lexicon", "config", "pairs",
                                    "back-translation", "variants"])
def test_comment_lines_are_skipped(tmp_path, data_dir, reader):
    first, second, _, load = READERS[reader]
    plain, commented = tmp_path / "plain", tmp_path / "commented"
    plain.write_text(f"{first}\n{second}\n", encoding="utf-8")
    commented.write_text(f"# note\n{first}\n  # indented note\n{second}\n",
                         encoding="utf-8")
    assert _comparable(load(commented, data_dir)) == _comparable(load(plain, data_dir))


@pytest.mark.parametrize("reader", ["corpus", "icd-table", "drg-groups", "samples",
                                    "report"])
def test_comment_lines_are_errors(tmp_path, data_dir, reader):
    first, second, _, load = READERS[reader]
    path = tmp_path / "input"
    path.write_text(f"{first}\n# note\n{second}\n", encoding="utf-8")
    with pytest.raises(ParseError) as excinfo:
        load(path, data_dir)
    assert excinfo.value.line == 2


def _comparable(loaded):
    if isinstance(loaded, core.IcdIndex):
        return loaded.entries()
    if isinstance(loaded, drg.DrgGroupTable):
        return loaded.rows
    return loaded.entries if isinstance(loaded, core.Lexicon) else loaded


# Samples and templates load objects that do not compare by value.
@pytest.mark.parametrize("reader", [name for name in READERS
                                    if name not in ("samples", "templates")])
def test_a_leading_byte_order_mark_is_dropped(tmp_path, data_dir, reader):
    """A file that starts with a UTF-8 byte order mark reads as the same
    file without it. Kept, the mark began a lexicon's first entry, a pair's
    first name or a table's first header column, and made the corpus's
    first line invalid JSON."""
    first, second, _, load = READERS[reader]
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    plain.write_text(f"{first}\n{second}\n", encoding="utf-8")
    marked.write_text(f"\ufeff{first}\n{second}\n", encoding="utf-8")
    assert _comparable(load(marked, data_dir)) == _comparable(load(plain, data_dir))


def test_only_a_leading_byte_order_mark_is_dropped(tmp_path):
    """A mark inside the text stays, and a bad byte's offset counts the
    bytes of its line after a leading mark."""
    path = tmp_path / "input"
    path.write_bytes(codecs.BOM_UTF8 + "肺炎\n\ufeff高血压\n".encode("utf-8"))
    assert list(core.read_lines(path)) == [(1, "肺炎"), (2, "\ufeff高血压")]
    path.write_bytes(codecs.BOM_UTF8 + b"ab\xff\n")
    for read in (lambda: list(core.read_lines(path)), lambda: core.load_corpus(path)):
        with pytest.raises(ParseError, match="invalid UTF-8 at byte 2") as excinfo:
            read()
        assert excinfo.value.line == 1
