"""Feature tracks: disease positions, negation, enumerated items."""

import random
import re

import numpy as np
import pytest

from dxaudit.core import LexiconKind, make_lexicon
from dxaudit.errors import BadPattern, BadSetting, EmptyContext
from dxaudit.features import (
    TRACKS,
    ContextSample,
    FeatureLexicons,
    assemble_features,
    mark_disease_positions,
    mark_negation,
    mark_serial_numbers,
)


def bits(track) -> str:
    return "".join(str(int(b)) for b in track)


class TestDiseasePositions:
    def test_two_occurrences(self):
        context = "不能除外肺心病，现确诊为肺心病。"
        track = mark_disease_positions("肺心病", context)
        assert bits(track) == "0000111000001110"

    def test_absent_disease_all_zero(self):
        track = mark_disease_positions("肺炎", "无异常发现。")
        assert not track.any()

    def test_context_equals_disease_all_ones(self):
        track = mark_disease_positions("肺炎", "肺炎")
        assert bits(track) == "11"

    def test_overlapping_occurrences_union(self):
        track = mark_disease_positions("aa", "aaa")
        assert bits(track) == "111"

    def test_popcount_property_nonoverlapping(self):
        rng = random.Random(5)
        disease = "肺心病"
        for _ in range(200):
            n = rng.randint(1, 5)
            filler = ["唔" * rng.randint(1, 6) for _ in range(n + 1)]
            context = filler[0]
            for i in range(n):
                context += disease + filler[i + 1]
            track = mark_disease_positions(disease, context)
            assert int(track.sum()) == 3 * n


class TestNegation:
    def test_spec_example(self):
        lexicon = make_lexicon(["否认", "不能除外"], LexiconKind.NEGATION_WORDS)
        track = mark_negation("否认高血压", lexicon)
        assert bits(track) == "11000"

    def test_no_negation_words(self):
        lexicon = make_lexicon(["否认"], LexiconKind.NEGATION_WORDS)
        assert not mark_negation("确诊为肺炎。", lexicon).any()

    def test_overlapping_words_union(self):
        lexicon = make_lexicon(["无明显", "明显异常"], LexiconKind.NEGATION_WORDS)
        track = mark_negation("无明显异常", lexicon)
        assert bits(track) == "11111"

    def test_brute_force_oracle_random(self, negation_lexicon):
        rng = random.Random(9)
        alphabet = "否认无排除未见高血压肺炎。不能外考虑"
        for _ in range(500):
            context = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 60)))
            track = mark_negation(context, negation_lexicon)
            expected = np.zeros(len(context), dtype=np.uint8)
            for word in negation_lexicon.entries:
                for i in range(len(context) - len(word) + 1):
                    if context[i : i + len(word)] == word:
                        expected[i : i + len(word)] = 1
            assert np.array_equal(track, expected)


class TestSerialNumbers:
    def test_arabic_enumerators_whole_items(self, feature_lexicons):
        track = mark_serial_numbers("1.高血压 2.糖尿病", feature_lexicons.patterns)
        assert bits(track) == "1" * 11

    def test_circled_digit(self, feature_lexicons):
        track = mark_serial_numbers("①肺炎", feature_lexicons.patterns)
        assert bits(track) == "111"

    def test_prose_digits_not_marked(self, feature_lexicons):
        track = mark_serial_numbers("随访2周", feature_lexicons.patterns)
        assert not track.any()

    def test_item_stops_at_sentence_terminator(self, feature_lexicons):
        track = mark_serial_numbers("1.高血压。其后正文", feature_lexicons.patterns)
        assert bits(track) == "1111100000"

    def test_bad_pattern_raises_at_load(self, negation_lexicon):
        lexicon = make_lexicon(["[unclosed"], LexiconKind.ENUMERATOR_PATTERNS)
        with pytest.raises(BadPattern, match=re.escape("'[unclosed'")):
            FeatureLexicons(negation=negation_lexicon, enumerators=lexicon)


class TestAssembleFeatures:
    def test_tracks_aligned(self, feature_lexicons):
        sample = assemble_features("肺炎", "否认肺炎。1.高血压。", feature_lexicons)
        n = len(sample.context)
        assert len(sample.pos_track) == len(sample.neg_track) == n
        assert len(sample.order_track) == n

    def test_overlong_context_truncated(self, feature_lexicons):
        sample = assemble_features("肺炎", "肺炎" + "长" * 600, feature_lexicons)
        assert len(sample.context) == 450

    def test_overlong_disease_truncated(self, feature_lexicons):
        sample = assemble_features("病" * 40, "病" * 50, feature_lexicons)
        assert len(sample.disease) == 30

    @pytest.mark.parametrize("disease, context", [("病" * 31, "病"), ("病", "病" * 451)],
                             ids=["disease-31", "context-451"])
    def test_sample_past_a_cap_is_refused(self, disease, context):
        """A sample built by hand cannot reach a model past the caps that
        assemble_features clips to."""
        zeros = np.zeros(len(context), dtype=np.uint8)
        with pytest.raises(ValueError, match="longer than its cap"):
            ContextSample(disease, context, zeros, zeros, zeros)

    def test_misaligned_track_is_refused(self):
        zeros = np.zeros(3, dtype=np.uint8)
        with pytest.raises(ValueError, match="neg_track length 2 != context length 3"):
            ContextSample("病", "病病病", zeros, zeros[:2], zeros)

    @pytest.mark.parametrize("value, dtype", [(256, np.int64), (0.5, np.float64),
                                              (2, np.uint8), (-1, np.int64)],
                             ids=["256", "0.5", "2", "-1"])
    def test_track_value_other_than_0_or_1_is_refused(self, value, dtype):
        """256 and 0.5 would read as 0 once cast to uint8, and 2 or -1 as
        another track code."""
        for bad in TRACKS:
            tracks = {name: np.array([1, 0, 1, 0], dtype=np.uint8) for name in TRACKS}
            tracks[bad] = np.array([1, 0, value, 0], dtype=dtype)
            with pytest.raises(ValueError, match=f"^{bad} holds {value}; "):
                ContextSample("病", "病病病病", **tracks)

    @pytest.mark.parametrize("field", ["negation", "enumerators"])
    def test_lexicon_of_the_wrong_kind_is_refused(self, feature_lexicons, field):
        given = {"negation": feature_lexicons.negation,
                 "enumerators": feature_lexicons.enumerators}
        given[field] = make_lexicon(["肺炎"], LexiconKind.DISEASE_NAMES)
        with pytest.raises(BadSetting, match="disease_names"):
            FeatureLexicons(**given)

    def test_empty_context_raises(self, feature_lexicons):
        with pytest.raises(EmptyContext):
            assemble_features("肺炎", "", feature_lexicons)

    def test_alignment_fuzz(self, feature_lexicons):
        rng = random.Random(13)
        alphabet = "高血压糖尿病否认无1.。；①肺炎 随访周"
        for _ in range(500):
            disease = "".join(rng.choice("高血压糖尿病肺炎") for _ in range(rng.randint(1, 4)))
            context = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 120)))
            sample = assemble_features(disease, context, feature_lexicons)
            n = len(sample.context)
            assert len(sample.pos_track) == len(sample.neg_track) == n
            assert len(sample.order_track) == n

    def test_marking_is_deterministic(self, feature_lexicons):
        a = assemble_features("肺炎", "否认肺炎。1.高血压。", feature_lexicons)
        b = assemble_features("肺炎", "否认肺炎。1.高血压。", feature_lexicons)
        assert np.array_equal(a.pos_track, b.pos_track)
        assert np.array_equal(a.neg_track, b.neg_track)
        assert np.array_equal(a.order_track, b.order_track)
