"""Property tests: the two readers on arbitrary bytes, name normalization,
lexicons built as the per-entry path builds them, and pair files read back
as written."""

import re

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from dxaudit import core, relation_model  # noqa: E402
from dxaudit.core import LexiconKind  # noqa: E402
from dxaudit.errors import DxAuditError, EmptyName, ParseError  # noqa: E402
from dxaudit.relation_model import RELATIONS, DiseasePair, PairSource  # noqa: E402

from oracles import seed_load_lexicon, seed_make_lexicon  # noqa: E402

RECORD = ('{"record_id": "r1", "sections": [{"name": "s", "text": "确诊为肺炎。"}], '
          '"discharge_diagnoses": ["肺炎"]}').encode("utf-8")

# Lines that are records, repeats, blanks, junk and broken UTF-8, joined by
# every line ending, so each outcome of a line is drawn often.
structured_bytes = st.lists(
    st.sampled_from([RECORD, RECORD.replace(b"r1", b"r2"), b"", b" \t", b"{",
                      b"# note", b"\xff", " \x85".encode("utf-8"),
                      b"\xe8\x82"]),
    max_size=8,
).flatmap(lambda lines: st.lists(st.sampled_from([b"\n", b"\r\n", b"\r"]),
                                 min_size=len(lines), max_size=len(lines))
          .map(lambda ends: b"".join(a + b for a, b in zip(lines, ends))))
any_bytes = st.one_of(st.binary(max_size=300), structured_bytes)


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return tmp_path_factory.mktemp("readers") / "input"


def _non_blank(raw: bytes) -> bool:
    try:
        return bool(raw.decode("utf-8").strip())
    except UnicodeDecodeError:
        return True


@settings(max_examples=300, deadline=None, derandomize=True)
@given(any_bytes)
def test_read_corpus_gives_one_outcome_per_non_blank_line(path, data):
    path.write_bytes(data)
    records, errors = core.read_corpus(path)
    expected = [n for n, raw in enumerate(re.split(rb"\r\n|\r|\n", data), start=1)
                if _non_blank(raw)]
    assert len(records) + len(errors) == len(expected)
    error_lines = [line_no for line_no, _ in errors]
    assert error_lines == sorted(set(error_lines))
    assert set(error_lines) <= set(expected)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(any_bytes)
def test_strict_reader_raises_only_parse_error(path, data):
    path.write_bytes(data)
    try:
        lines = list(core.read_lines(path))
    except ParseError as exc:
        assert exc.line is not None
        with pytest.raises(UnicodeDecodeError):
            data.decode("utf-8")
        return
    # Text mode is the line-boundary oracle: \n, \r\n and \r only.
    with open(path, encoding="utf-8") as handle:
        expected = [(n, line.strip()) for n, line in enumerate(handle, start=1)
                    if line.strip()]
    assert lines == expected


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.text(st.characters(codec="utf-8")
               | st.sampled_from("\u3000\uff01\uff21\uff0c、,;；\t\n ")))
def test_normalize_disease_name_is_idempotent(raw):
    try:
        once = core.normalize_disease_name(raw)
    except EmptyName:
        assume(False)
    assert core.normalize_disease_name(once) == once


# Lexicon lines made of what normalizing touches: full-width ASCII and
# U+3000 (a full-width '＃' among them, which folds to '#' yet starts no
# comment), list punctuation interleaved with whitespace at the tail, U+0085
# and U+2028 inside an entry, comments and blanks. Half the files hold only
# plain lines and comments, so they are already normal; the small alphabet
# repeats entries.
_plain = st.text("肺炎a#\x85\u2028 ", max_size=4)
_comments = st.sampled_from(["", " \t", "# 注释"])
lexicon_lines = st.one_of(
    _plain,
    st.tuples(_plain, st.sampled_from("Ａ！＃～\u3000"), _plain).map("".join),
    st.tuples(_plain, st.text("、,;；\t \u3000\x85\u2028", min_size=1, max_size=4)
              ).map("".join),
    _comments | st.sampled_from(["  #、", "＃注释"]),
)


@st.composite
def _files(draw, lines):
    """A file of up to 8 of ``lines``, a quarter of the time with an
    undecodable line among them, each line ended by LF, CRLF or CR."""
    texts = [line.encode("utf-8") for line in draw(st.lists(lines, max_size=8))]
    if draw(st.sampled_from([False, False, False, True])):
        texts.insert(draw(st.integers(0, len(texts))), b"\xe8\x82")
    return b"".join(text + draw(st.sampled_from([b"\n", b"\r\n", b"\r"]))
                    for text in texts)


lexicon_bytes = _files(lexicon_lines) | _files(_plain | _comments)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(lexicon_bytes, st.sampled_from(LexiconKind))
def test_lexicon_loads_as_the_per_entry_path(path, data, kind):
    path.write_bytes(data)
    expected = seed_load_lexicon(data, kind)
    try:
        entries = core.load_lexicon(path, kind).entries
    except ParseError as exc:
        assert expected == ("error", exc.line)
        return
    assert entries == expected


def test_drawn_lexicons_take_both_paths(monkeypatch, path):
    """The drawn word lexicons are read both with and without normalizing
    each entry."""
    normalize, load, normalized, paths = (core.normalize_disease_name,
                                          core.load_lexicon, [], [])
    monkeypatch.setattr(core, "normalize_disease_name",
                        lambda name: normalized.append(name) or normalize(name))

    def counted(file, kind):
        before = len(normalized)
        lexicon = load(file, kind)
        if kind is not LexiconKind.ENUMERATOR_PATTERNS and lexicon.entries:
            paths.append(len(normalized) > before)
        return lexicon

    monkeypatch.setattr(core, "load_lexicon", counted)
    test_lexicon_loads_as_the_per_entry_path(path=path)
    assert paths.count(True) >= 30 and paths.count(False) >= 30


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(lexicon_lines.filter(bool), max_size=8), st.sampled_from(LexiconKind))
def test_make_lexicon_is_the_per_entry_build(entries, kind):
    try:
        expected = seed_make_lexicon(entries, kind)
    except EmptyName:
        with pytest.raises(EmptyName):
            core.make_lexicon(entries, kind)
        return
    assert core.make_lexicon(entries, kind).entries == expected


def _is_normalized(name: str) -> bool:
    try:
        return core.normalize_disease_name(name) == name
    except EmptyName:
        return False


# Names as load_pairs returns them (normalized), drawn with the characters a
# pair file treats specially: line ends, whitespace, quotes, tabs and '#'.
pair_names = st.text(st.characters(codec="utf-8") | st.sampled_from("#\"\t\r\n 肺炎\x85"),
                     min_size=1, max_size=8).filter(_is_normalized)
pairs = st.lists(st.builds(DiseasePair, a=pair_names, b=pair_names,
                           source=st.sampled_from(PairSource),
                           relation=st.none() | st.sampled_from(RELATIONS)), max_size=4)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(pairs)
def test_saved_pairs_are_read_back_or_refused(path, pairs):
    try:
        relation_model.save_pairs(pairs, path)
    except DxAuditError as exc:
        # only the first name's '#' makes a comment row
        assert any(repr(name) in str(exc) and ("\r" in name or "\n" in name or comment)
                   for pair in pairs
                   for name, comment in ((pair.a, pair.a[0] == "#"), (pair.b, False)))
        return
    assert relation_model.load_pairs(path) == pairs
