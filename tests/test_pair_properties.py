"""Property test: the pair enumerator yields what a search over every
position pair of every group finds first."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from dxaudit.relation_model import unordered_pairs  # noqa: E402

# Few names, so names repeat inside a group and recur across groups.
NAMES = st.sampled_from(["肺炎", "高血压", "糖尿病", "房颤"])


def first_seen_pairs(groups, exclude):
    """For each unordered pair of distinct names sharing a group and not
    excluded, its earliest (group, i, j) position with i < j, taken as
    (names[i], names[j]); the pairs in order of those positions."""
    excluded = {frozenset(p) for p in exclude}
    first = {}
    for g, names in enumerate(groups):
        for i in range(len(names)):
            for j in range(len(names)):
                key = frozenset((names[i], names[j]))
                if i < j and len(key) == 2 and key not in excluded:
                    first[key] = min(first.get(key, (g, i, j, names[i], names[j])),
                                     (g, i, j, names[i], names[j]))
    return [(a, b) for *_, a, b in sorted(first.values())]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.lists(NAMES, max_size=6), max_size=5),
       st.lists(st.tuples(NAMES, NAMES), max_size=3))
@example([["肺炎", "高血压", "肺炎"]], [])  # a repeat inside a group
@example([["肺炎", "高血压"], ["高血压", "肺炎"]], [])  # one pair in two groups
@example([["肺炎", "高血压", "房颤"]], [("高血压", "肺炎")])  # an excluded pair
def test_unordered_pairs_match_the_position_search(groups, exclude):
    assert list(unordered_pairs(groups, exclude)) == first_seen_pairs(groups, exclude)
