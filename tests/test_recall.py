"""Disease recall: matcher, overlap resolution, and context windows."""

import random
import time
from dataclasses import replace

import pytest

from dxaudit import recall
from dxaudit.core import MAX_CONTEXT, LexiconKind, MedicalRecord, make_lexicon
from dxaudit.errors import EmptyLexicon, SpanMismatch, WindowOverflow
from dxaudit.recall import (
    DiseaseMatcher,
    DiseaseMention,
    _shrink_window,
    build_context_window,
    build_matcher,
    find_mentions,
    resolve_overlaps,
)

from oracles import brute_force_mentions


def record_of(text: str, record_id: str = "r") -> MedicalRecord:
    return MedicalRecord(record_id=record_id, sections=(("正文", text),),
                         discharge_diagnoses=())


def disease_lexicon(*entries):
    return make_lexicon(entries, LexiconKind.DISEASE_NAMES)


class TestMatcher:
    def test_single_entry_all_occurrences(self):
        matcher = build_matcher(disease_lexicon("肺炎"))
        mentions = find_mentions(matcher, record_of("肺炎待查。复查肺炎。"))
        assert len(mentions) == 1
        assert mentions[0].spans == ((0, 0, 2), (0, 7, 9))

    def test_empty_lexicon(self):
        with pytest.raises(EmptyLexicon):
            build_matcher(make_lexicon([], LexiconKind.DISEASE_NAMES))

    def test_matcher_over_no_entries_names_the_empty_lexicon(self):
        with pytest.raises(EmptyLexicon, match="^disease lexicon is empty$"):
            DiseaseMatcher([])

    def test_longest_match_suppresses_substring(self):
        matcher = build_matcher(disease_lexicon("肺炎", "大叶性肺炎"))
        mentions = find_mentions(matcher, record_of("大叶性肺炎"))
        assert len(mentions) == 1
        assert mentions[0].disease == "大叶性肺炎"
        assert mentions[0].spans == ((0, 0, 5),)

    def test_two_occurrences_one_mention(self):
        matcher = build_matcher(disease_lexicon("肺心病"))
        text = "不能除外肺心病。现确诊为肺心病。"
        mentions = find_mentions(matcher, record_of(text))
        assert len(mentions) == 1
        assert len(mentions[0].spans) == 2

    def test_empty_record_text(self):
        matcher = build_matcher(disease_lexicon("肺炎"))
        assert find_mentions(matcher, record_of("无异常。")) == []

    def test_spans_never_cross_sections(self):
        matcher = build_matcher(disease_lexicon("肺炎"))
        record = MedicalRecord(record_id="r", sections=(("a", "肺"), ("b", "炎")),
                               discharge_diagnoses=())
        assert find_mentions(matcher, record) == []

    def test_oracle_equivalence_random(self):
        rng = random.Random(7)
        alphabet = "甲乙丙丁戊"
        for _ in range(1000):
            entries = {"".join(rng.choice(alphabet) for _ in range(rng.randint(1, 4)))
                       for _ in range(rng.randint(1, 20))}
            text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 200)))
            expected = brute_force_mentions(sorted(entries), text)
            matcher = build_matcher(disease_lexicon(*entries))
            got = sorted(resolve_overlaps(matcher.scan(text)))
            assert got == expected

    def test_head_index_of_a_nested_lexicon_is_every_length_under_each_head(self):
        # Composed names nest: each is a prefix or a suffix of longer ones,
        # and the bare pathologies include one-character entries.
        entries = {modifier + site + pathology + stage
                   for modifier in ("", "急性", "慢性")
                   for site in ("", "肺", "肺部", "左肺上叶", "胃")
                   for pathology in ("炎", "癌", "溃疡")
                   for stage in ("", "I期", "IV期")}
        matcher = build_matcher(disease_lexicon(*entries))
        heads = {e[:2] for e in entries if len(e) > 1}
        assert matcher._heads == {
            head: sorted({len(e) for e in entries if len(e) > 1 and e.startswith(head)},
                         reverse=True)
            for head in heads}
        assert {"炎", "癌"} <= matcher._entries  # one-character entries, under no head

    def test_determinism(self):
        matcher = build_matcher(disease_lexicon("肺炎", "高血压", "大叶性肺炎"))
        record = record_of("大叶性肺炎，高血压。否认肺炎。")
        assert find_mentions(matcher, record) == find_mentions(matcher, record)

    def test_forty_thousand_entry_throughput(self):
        rng = random.Random(3)
        alphabet = "心肝肺肾脑胃胆脾骨血气水火风寒热湿毒瘀虚"
        entries = set()
        while len(entries) < 40000:
            entries.add("".join(rng.choice(alphabet)
                                for _ in range(rng.randint(2, 6))))
        lexicon = disease_lexicon(*sorted(entries))
        matcher = build_matcher(lexicon)
        text = "".join(rng.choice(alphabet) for _ in range(10000))
        started = time.perf_counter()
        hits = matcher.scan(text)
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0  # single pass over a 10k-char record
        assert hits  # dense alphabet: matches are guaranteed


class TestContextWindow:
    def test_single_span_sentence_bounded(self):
        text = "第一句话。患者确诊为肺炎，继续治疗。最后一句。"
        matcher = build_matcher(disease_lexicon("肺炎"))
        record = record_of(text)
        mention = find_mentions(matcher, record)[0]
        windowed = build_context_window(record, mention)
        assert windowed.context == "患者确诊为肺炎，继续治疗。"
        start, end = windowed.context_spans[0]
        assert windowed.context[start:end] == "肺炎"

    def test_two_distant_spans_both_included(self):
        filler = "无特殊。" * 500
        text = "确诊为肺炎。" + filler + "复查肺炎好转。"
        matcher = build_matcher(disease_lexicon("肺炎"))
        record = record_of(text)
        mention = find_mentions(matcher, record)[0]
        windowed = build_context_window(record, mention)
        assert windowed.context == "确诊为肺炎。复查肺炎好转。"
        assert len(windowed.context_spans) == 2
        for start, end in windowed.context_spans:
            assert windowed.context[start:end] == "肺炎"

    def test_overlong_surface_raises(self):
        surface = "病" * 500
        record = record_of(surface)
        matcher = build_matcher(disease_lexicon(surface))
        mention = find_mentions(matcher, record)[0]
        with pytest.raises(WindowOverflow):
            build_context_window(record, mention)

    def test_overlong_sentence_shrunk_around_span(self):
        # one 607-char sentence (commas end no sentence) overflows the cap
        text = "病" * 300 + "，确诊为肺炎，" + "后" * 300
        matcher = build_matcher(disease_lexicon("肺炎"))
        record = record_of(text)
        mention = find_mentions(matcher, record)[0]
        windowed = build_context_window(record, mention)
        assert len(windowed.context) == MAX_CONTEXT
        start, end = windowed.context_spans[0]
        assert windowed.context[start:end] == "肺炎"

    def test_shrunk_window_keeps_later_spans_that_fit(self):
        text = "病" * 300 + "，确诊为肺炎，复查肺炎，" + "后" * 300
        matcher = build_matcher(disease_lexicon("肺炎"))
        record = record_of(text)
        mention = find_mentions(matcher, record)[0]
        windowed = build_context_window(record, mention)
        # The 612-char sentence holds spans [304, 306) and [309, 311); both
        # fit in a 7-char box, which is padded by (450 - 7) // 2 = 221 on
        # the left: the window is [83, 533), so the spans sit at 221 and 226.
        assert len(windowed.context) == MAX_CONTEXT
        assert windowed.context_spans == ((221, 223), (226, 228))

    def test_shrunk_window_drops_a_span_beyond_the_budget(self):
        text = "病" * 300 + "，确诊为肺炎，" + "后" * 500 + "复查肺炎，" + "后" * 300
        matcher = build_matcher(disease_lexicon("肺炎"))
        record = record_of(text)
        mention = find_mentions(matcher, record)[0]
        assert len(mention.spans) == 2
        windowed = build_context_window(record, mention)
        # The spans are [304, 306) and [809, 811): a box holding both spans
        # 507 > 450 chars, so only the first is kept. It is padded by
        # (450 - 2) // 2 = 224 on the left: the window is [80, 530).
        assert len(windowed.context) == MAX_CONTEXT
        assert windowed.context_spans == ((224, 226),)

    def test_spans_in_reverse_order_build_the_in_order_window(self):
        text = "病" * 300 + "，确诊为肺炎，" + "后" * 500 + "复查肺炎，" + "后" * 300
        matcher = build_matcher(disease_lexicon("肺炎"))
        record = record_of(text)
        mention = find_mentions(matcher, record)[0]
        reverse = build_context_window(record, replace(mention, spans=mention.spans[::-1]))
        # The spans are walked in document order, so the shrunk window is
        # cut around the first span, as for the spans in order.
        assert reverse.context_spans == ((224, 226),)
        assert reverse.context == build_context_window(record, mention).context

    def test_budget_prefers_windows_with_more_spans(self):
        single = "肺炎" + "较" * 297 + "。"  # 300 chars, one span
        double = "本句肺炎提到两次，复查肺炎" + "长" * 186 + "。"  # 200 chars, two spans
        text = single + double
        matcher = build_matcher(disease_lexicon("肺炎"))
        record = record_of(text)
        mention = find_mentions(matcher, record)[0]
        windowed = build_context_window(record, mention)
        # 300 + 200 > 450: the two-span sentence wins the budget, though it
        # comes second, and the single-span one no longer fits in 250
        assert windowed.context == double
        assert len(windowed.context_spans) == 2

    def test_multi_section_spans(self):
        record = MedicalRecord(
            record_id="r",
            sections=(("现病史", "患者确诊为肺炎。"), ("诊疗经过", "复查肺炎好转。")),
            discharge_diagnoses=())
        matcher = build_matcher(disease_lexicon("肺炎"))
        mention = find_mentions(matcher, record)[0]
        windowed = build_context_window(record, mention)
        assert windowed.context == "患者确诊为肺炎。复查肺炎好转。"
        for start, end in windowed.context_spans:
            assert windowed.context[start:end] == "肺炎"

    def test_every_context_span_slices_to_surface_random(self, monkeypatch):
        shrunk = []
        monkeypatch.setattr(recall, "_shrink_window",
                            lambda *args: shrunk.append(args) or _shrink_window(*args))
        rng = random.Random(11)
        # short sentences, or sentences of about 330 chars on average
        alphabets = ["甲乙丙。；\n丁戊", "甲乙丙丁戊" * 200 + "。；\n"]
        for _ in range(300):
            disease = "".join(rng.choice("甲乙丙丁戊") for _ in range(rng.randint(1, 3)))
            alphabet = rng.choice(alphabets)
            text = "".join(rng.choice(alphabet) for _ in range(rng.randint(5, 1500)))
            record = record_of(text + disease)  # guarantee one hit
            matcher = build_matcher(disease_lexicon(disease))
            for mention in find_mentions(matcher, record):
                windowed = build_context_window(record, mention)
                assert len(windowed.context) <= MAX_CONTEXT
                for start, end in windowed.context_spans:
                    assert windowed.context[start:end] == mention.disease
        assert len(shrunk) >= 30  # texts long enough to shrink a window

    def test_span_off_its_disease_raises(self):
        record = record_of("患者确诊为肺炎。")
        mention = DiseaseMention(disease="肺炎", spans=((0, 0, 2),))
        with pytest.raises(SpanMismatch):
            build_context_window(record, mention)
