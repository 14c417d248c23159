"""Property checks: the pruned traversal equals the unpruned reference; profiles round-trip."""
import json
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import usdlab.entropy as entropy
from usdlab import jsonio
from test_entropy import unpruned_radii


@st.composite
def traversals(draw):
    count = draw(st.integers(1, 40))
    first = draw(st.integers(1, count))
    return (count, draw(st.integers(1, 200)), draw(st.integers(0, 3)), first,
            draw(st.integers(first, count)))


# Small integer entries make many exact ties.  Ladders of one to three
# widths, in any order, put the grid width below the first level, between
# levels and above the last, with strides that need not divide the width or
# nest; small refine chunks cross chunk edges.
@settings(max_examples=300, derandomize=True, deadline=None)
@given(case=traversals(),
       ladder=st.one_of(st.just(entropy._LADDER_POINTS),
                        st.lists(st.integers(1, 96), min_size=1,
                                 max_size=3).map(tuple)),
       refine_elems=st.integers(1, 1 << 10), seed=st.integers(0, 2 ** 32 - 1))
def test_pruned_radii_equal_the_unpruned_reference(case, ladder, refine_elems,
                                                   seed):
    count, width, spread, first, t_max = case
    rng = np.random.default_rng(seed)
    values = (rng.integers(-spread, spread + 1, size=(count, width))
              + 1j * rng.integers(-spread, spread + 1, size=(count, width)))
    ref = unpruned_radii(values, t_max)
    sampled = entropy.SampledClass(values)
    with mock.patch.object(entropy, "_REFINE_ELEMS", refine_elems), \
            mock.patch.object(entropy, "_LADDER_POINTS", ladder):
        assert np.array_equal(entropy.farthest_point_radii(sampled, first),
                              ref[:first])
        assert np.array_equal(entropy.farthest_point_radii(sampled, t_max), ref)


@settings(max_examples=50, derandomize=True, deadline=None)
@given(count=st.integers(1, 40), n_max=st.integers(0, 8),
       seed=st.integers(0, 2 ** 32 - 1))
def test_entropy_profile_round_trips_through_json_text(count, n_max, seed):
    rng = np.random.default_rng(seed)
    sampled = entropy.SampledClass(rng.normal(size=(count, 6)),
                                   metadata={"seed": seed, "caveats": ["finite"]})
    profile = entropy.entropy_numbers(sampled, n_max)
    obj = json.loads(jsonio.dumps(profile.to_json()))
    again = entropy.EntropyProfile.from_values(obj["eps"], obj["zero_from"],
                                               obj["metadata"])
    assert np.array_equal(again.eps, profile.eps)
    assert again.zero_from == profile.zero_from
    assert again.metadata == profile.metadata
    assert again.e_sequence() == obj["e_k"] == profile.e_sequence()
    assert jsonio.dumps(again.to_json()) == jsonio.dumps(profile.to_json())
