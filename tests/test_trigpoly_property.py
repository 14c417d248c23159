"""Property check: the array consumers of TrigPolynomial against per-term loops.

Each reference below is the loop over ``.coeffs.items()`` that the array
code replaced.  Where the arithmetic is unchanged (sums in the same order,
real-times-complex or unit products) the results must be equal; where a
complex-times-complex product now runs in numpy, whose rounding can differ
from Python's in the last bit, the tolerance is a few ulps of the summed
product moduli.
"""
import cmath
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from usdlab.dictionary import Dictionary
from usdlab.frequencies import FrequencySet, level_of
from usdlab.recovery import block_greedy_approximant
from usdlab.smoothness import (dyadic_blocks, kernel_coefficient,
                               level_a_norms, mixed_difference_seminorm,
                               mixed_smoothness_element)
from usdlab.trigpoly import TrigPolynomial, _union_coefficients, lp_norm

EPS = np.finfo(float).eps
finite = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)


@st.composite
def polys(draw, d, max_terms=12, max_freq=9):
    keys = draw(st.sets(st.tuples(*[st.integers(-max_freq, max_freq)] * d),
                        max_size=max_terms))
    return TrigPolynomial({k: complex(draw(finite), draw(finite)) for k in keys}, d)


dims = st.integers(1, 3)


def close(got, ref, scale):
    """Entrywise ``|got - ref| <= 16 eps * scale`` over the union of keys."""
    keys = set(got) | set(ref)
    return all(abs(got.get(k, 0j) - ref.get(k, 0j)) <= 16 * EPS * scale.get(k, 0.0)
               for k in keys)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(data=st.data(), d=dims)
def test_sum_difference_scale_and_restrict_equal_the_term_loops(data, d):
    f, g = data.draw(polys(d)), data.draw(polys(d))
    total = dict(f.coeffs)
    for k, c in g.coeffs.items():
        total[k] = total.get(k, 0.0) + c
    assert (f + g).coeffs == total
    diff = dict(f.coeffs)
    for k, c in g.coeffs.items():
        diff[k] = diff.get(k, 0.0) + complex(-1.0 * c)
    assert (f - g).coeffs == diff
    factor = data.draw(finite)
    assert f.scale(factor).coeffs == {k: complex(factor * c)
                                      for k, c in f.coeffs.items()}
    keep = data.draw(st.lists(st.sampled_from(list(f.coeffs) or [(0,) * d]),
                              unique=True))
    assert f.restrict(keep).coeffs == {k: c for k, c in f.coeffs.items()
                                       if k in set(keep)}


@settings(max_examples=60, derandomize=True, deadline=None)
@given(data=st.data(), d=dims)
def test_union_and_level_blocks_equal_the_term_loops(data, d):
    fs = data.draw(st.lists(polys(d), min_size=1, max_size=4))
    freqs = sorted({k for f in fs for k in f.coeffs})
    ref = np.zeros((len(freqs), len(fs)), dtype=complex)
    for j, f in enumerate(fs):
        for k, c in f.coeffs.items():
            ref[freqs.index(k), j] = c
    karr, coeff = _union_coefficients(fs, d)
    assert list(map(tuple, karr.tolist())) == freqs
    assert np.array_equal(coeff, ref)
    f = fs[0]
    norms, blocks = {}, {}
    for k, c in f.coeffs.items():
        norms[level_of(k)] = norms.get(level_of(k), 0.0) + abs(c)
        blocks.setdefault(level_of(k), {})[k] = c
    assert level_a_norms(f) == dict(sorted(norms.items()))
    got = dyadic_blocks(f)
    assert list(got) == sorted(blocks)
    assert all(got[j].coeffs == blocks[j] for j in blocks)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(data=st.data(), d=dims, n=st.integers(1, 4), beta=st.sampled_from([0.5, 1.0]))
def test_block_greedy_selection_equals_the_sorted_term_loop(data, d, n, beta):
    f = data.draw(polys(d, max_terms=40, max_freq=20))
    result = block_greedy_approximant(f, n, beta)
    keep, blocks = {}, {}
    for k, c in f.coeffs.items():
        if level_of(k) < n:
            keep[k] = c
        else:
            blocks.setdefault(level_of(k), []).append((k, c))
    for j, count in result.schedule:
        for k, c in sorted(blocks.get(j, []), key=lambda kc: (-abs(kc[1]), kc[0]))[:count]:
            keep[k] = c
    assert list(result.approximant.coeffs.items()) == sorted(keep.items())
    assert result.total_terms == len(keep)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(data=st.data(), d=dims)
def test_combine_and_projection_against_the_term_loops(data, d):
    elements = data.draw(st.lists(polys(d, max_terms=4).filter(lambda e: e.coeffs),
                                  min_size=1, max_size=5))
    dictionary = Dictionary(elements, uniform_bound=1.0, check_bound=False)
    c = [complex(data.draw(finite), data.draw(finite)) for _ in elements]
    ref, scale = {}, {}
    for ci, e in zip(c, elements):
        for k, a in e.coeffs.items():
            ref[k] = ref.get(k, 0.0) + ci * a
            scale[k] = scale.get(k, 0.0) + abs(ci) * abs(a)
    assert close(dictionary.combine(c).coeffs, ref, scale)
    # unit monomials: every product is exact, so the sum is the loop's own
    ks = sorted({k for e in elements for k in e.coeffs})
    monomials = Dictionary.exponentials(FrequencySet.from_indices(ks, d))
    c = [complex(data.draw(finite), data.draw(finite)) for _ in ks]
    assert monomials.combine(c).coeffs == {k: 0.0 + ci for k, ci in zip(ks, c)}
    f = data.draw(polys(d))
    idx = list(range(0, len(ks), 2))
    rhs = [f.coeffs.get(ks[i], 0.0) for i in idx]   # projection onto e^{i<k,x>}
    assert np.array_equal(monomials.l2_project(f, idx), np.array(rhs, dtype=complex))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(data=st.data(), d=dims, r=st.sampled_from([0.5, 1.5, 2.0]),
       l=st.integers(1, 3))
def test_mixed_smoothness_and_differences_against_the_term_loops(data, d, r, l):
    phi = data.draw(polys(d))
    phi = phi.scale(0.5 / max(lp_norm(phi, 2.0), 1.0)) if phi.coeffs else phi
    ref, diff = {}, {}
    step = np.array([0.3, -0.7, 1.1][:d])
    for k, c in phi.coeffs.items():
        factor = 1.0 + 0.0j
        for kj in k:
            factor *= kernel_coefficient(kj, r)
        ref[k] = c * factor
        factor = 1.0 + 0.0j
        for j in range(d):
            factor *= (cmath.exp(1j * k[j] * step[j]) - 1.0) ** l
        diff[k] = c * factor
    got = mixed_smoothness_element(phi, r, 2.0)
    assert close(got.coeffs, ref, {k: abs(v) for k, v in ref.items()})
    quotient = lp_norm(TrigPolynomial(diff, d), 2.0) / math.prod(abs(step) ** r)
    assert math.isclose(mixed_difference_seminorm(phi, r, l, step, range(d), 2.0),
                        quotient, rel_tol=1e-13)
