"""Property check: unranked level frequencies equal the materialized level."""
import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from usdlab.frequencies import dyadic_block, level_size, unrank_level


def materialized_level(j, d):
    out = []
    for s in itertools.product(range(j + 1), repeat=d):
        if sum(s) == j:
            out.extend(dyadic_block(s).indices)
    return sorted(out)


@st.composite
def level_and_ranks(draw):
    d = draw(st.integers(1, 3))
    j = draw(st.integers(0, {1: 14, 2: 9, 3: 6}[d]))
    size = level_size(j, d)
    ranks = draw(st.sets(st.integers(0, size - 1), max_size=min(size, 40)))
    return j, d, sorted(ranks)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(case=level_and_ranks())
def test_unranked_frequencies_equal_the_materialized_level(case):
    j, d, ranks = case
    ref = materialized_level(j, d)
    assert level_size(j, d) == len(ref)
    got = unrank_level(j, d, np.array(ranks, dtype=np.int64))
    assert list(map(tuple, got.tolist())) == [ref[r] for r in ranks]
