"""Property check: the array consumers of TrigPolynomial against per-term loops.

Each reference below is the loop over ``.coeffs.items()`` that the array
code replaced.  Where the arithmetic is unchanged (sums in the same order,
real-times-complex or unit products) the results must be equal; where a
complex-times-complex product now runs in numpy, whose rounding can differ
from Python's in the last bit, the tolerance is a few ulps of the summed
product moduli.
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from usdlab.dictionary import Dictionary
from usdlab.frequencies import FrequencySet, level_of
from usdlab.points import PointSet, tensor_grid_points
from usdlab.recovery import block_greedy_approximant
from usdlab.smoothness import level_a_norms
from usdlab.trigpoly import (_EVAL_CHUNK, TrigPolynomial, _union_coefficients,
                             _unique_rows, _values_on, sup_norm_info)

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
def test_sum_difference_and_scale_equal_the_term_loops(data, d):
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
    norms = {}
    for k, c in fs[0].coeffs.items():
        norms[level_of(k)] = norms.get(level_of(k), 0.0) + abs(c)
    assert level_a_norms(fs[0]) == dict(sorted(norms.items()))


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


def l1_bound(elements):
    """An honest uniform bound: the largest coefficient l1 norm, at least 1."""
    return max([1.0] + [sum(map(abs, e.coeffs.values())) for e in elements])


@settings(max_examples=60, derandomize=True, deadline=None)
@given(data=st.data(), d=dims)
def test_combine_and_projection_against_the_term_loops(data, d):
    elements = data.draw(st.lists(polys(d, max_terms=4).filter(lambda e: e.coeffs),
                                  min_size=1, max_size=5))
    dictionary = Dictionary(elements, uniform_bound=l1_bound(elements))
    idx = data.draw(st.one_of(st.none(), st.lists(
        st.integers(0, len(elements) - 1), min_size=1, max_size=6)))
    chosen = elements if idx is None else [elements[i] for i in idx]
    c = [complex(data.draw(finite), data.draw(finite)) for _ in chosen]
    ref, scale = {}, {}
    for ci, e in zip(c, chosen):
        for k, a in e.coeffs.items():
            ref[k] = ref.get(k, 0.0) + ci * a
            scale[k] = scale.get(k, 0.0) + abs(ci) * abs(a)
    got = dictionary.combine(c, idx).coeffs
    assert set(got) == set(ref) and close(got, ref, scale)
    # unit monomials: every product is exact, so the sum is the loop's own
    ks = sorted({k for e in elements for k in e.coeffs})
    monomials = Dictionary.exponentials(FrequencySet.from_indices(ks, d))
    c = [complex(data.draw(finite), data.draw(finite)) for _ in ks]
    assert monomials.combine(c).coeffs == {k: 0.0 + ci for k, ci in zip(ks, c)}
    sub = list(range(0, len(ks), 2))
    assert monomials.combine([c[i] for i in sub], sub).coeffs == {
        ks[i]: 0.0 + c[i] for i in sub}


@settings(max_examples=80, derandomize=True, deadline=None)
@given(data=st.data(), d=st.integers(1, 2), general=st.booleans(),
       m=st.integers(1, 40), seed=st.integers(0, 2 ** 32 - 1))
def test_dictionary_matrix_against_the_element_list(data, d, general, m, seed):
    if general:
        elements = data.draw(st.lists(polys(d, max_terms=4), min_size=1, max_size=6))
    else:
        keys = data.draw(st.lists(st.tuples(*[st.integers(-9, 9)] * d),
                                  min_size=1, max_size=8, unique=True))
        elements = [TrigPolynomial({k: 1.0}, d) for k in keys]
    dictionary = Dictionary(elements, uniform_bound=l1_bound(elements))
    rng = np.random.default_rng(seed)
    for x in (rng.uniform(0.0, 2.0 * np.pi, size=(m, d)),
              PointSet.equispaced(m, d).points):
        got = dictionary.values_at(x)
        ref = np.stack([e.evaluate(x) for e in elements], axis=1)
        if not general:
            assert np.array_equal(got, ref)
        else:
            # the exponentials agree bitwise; a column of B with several
            # terms sums them in another order
            l1 = np.array([sum(map(abs, e.coeffs.values())) for e in elements])
            assert (np.abs(got - ref) <= 8 * EPS * l1).all()
    idx = data.draw(st.lists(st.integers(0, len(elements) - 1), min_size=1, max_size=5))
    freqs, b = _union_coefficients([elements[i] for i in idx], d)
    got_freqs, got_b = dictionary._block(idx)
    assert np.array_equal(got_freqs, freqs) and np.array_equal(got_b, b)
    assert np.array_equal(dictionary.continuous_gram(idx), b.conj().T @ b)


def coordinate_phases(x, k):
    """The phases <x, k>: the plain product x @ k.T at d = 1, and for d > 1
    the sum over coordinates in order, whatever the other rows of k."""
    if k.shape[1] == 1:
        return x @ k.T.astype(float)
    phase = x[:, 0:1] * k[:, 0].astype(float)
    for j in range(1, k.shape[1]):
        phase = phase + x[:, j:j + 1] * k[:, j].astype(float)
    return phase


@st.composite
def frequency_arrays(draw, d):
    """Distinct rows of [-4, 4]^d: closed under k -> -k, as drawn (partly
    closed) or a single row; with or without k = 0; sorted or shuffled."""
    zero = (0,) * d
    rows = draw(st.sets(st.tuples(*[st.integers(-4, 4)] * d), min_size=1, max_size=24))
    shape = draw(st.sampled_from(["closed", "partial", "single"]))
    if shape == "single":
        rows = [draw(st.sampled_from(sorted(rows | {zero})))]
    else:
        if shape == "closed":
            rows |= {tuple(-v for v in k) for k in rows}
        rows = sorted(rows | {zero} if draw(st.booleans()) else rows - {zero}) or [zero]
        rows = draw(st.permutations(rows)) if draw(st.booleans()) else rows
    return np.array(rows, dtype=np.int64).reshape(len(rows), d)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(data=st.data(), d=dims)
def test_values_on_is_byte_equal_to_the_per_chunk_exponential(data, d):
    k = data.draw(frequency_arrays(d))
    m = data.draw(st.sampled_from([1, 2, 7, 64, _EVAL_CHUNK - 1, _EVAL_CHUNK + 3]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    nodes = data.draw(st.sampled_from(["uniform", "with zero", "equispaced"]))
    if nodes == "equispaced":   # x = 0 and phases at multiples of pi / 2
        x = np.repeat(np.arange(m)[:, None] * (2 * np.pi / m), d, axis=1)
    else:
        x = rng.uniform(0, 2 * np.pi, (m, d))
        if nodes == "with zero":
            x[data.draw(st.integers(0, m - 1))] = 0.0
    shape = (len(k),) + data.draw(st.sampled_from([(), (1,), (3,)]))
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    ref = np.concatenate([
        np.exp(1j * coordinate_phases(x[lo:lo + _EVAL_CHUNK], k)) @ c
        for lo in range(0, m, _EVAL_CHUNK)])
    got = _values_on(x, k, c)
    assert got.shape == ref.shape
    # int64 views: signed zeros and every last bit count
    assert np.array_equal(got.view(np.int64), ref.view(np.int64))


@settings(max_examples=80, derandomize=True, deadline=None)
@given(data=st.data(), d=st.integers(1, 2), grid_level=st.integers(0, 3))
def test_a_denser_grid_maximum_lies_in_the_sup_bracket(data, d, grid_level):
    f = data.draw(polys(d, max_terms=6, max_freq=3))
    info = sup_norm_info(f, grid_level)
    # a grid value may round above sum |c_k| by an ulp or so
    assert info.value <= info.upper * (1 + 1e-12)
    assert info.upper <= float(np.abs(f.as_arrays()[1]).sum())
    dense = tensor_grid_points(16 * info.points_per_dim, d)
    top = float(np.abs(f.evaluate(dense)).max()) if len(f.support) else 0.0
    assert info.value * (1 - 1e-12) <= top <= info.upper * (1 + 1e-12)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(data=st.data(), width=st.integers(0, 3))
def test_unique_rows_equals_np_unique(data, width):
    # width 0 stands for 1-d values; rows mix signs, so the order is signed
    shape = (data.draw(st.integers(0, 40)),) + ((width,) if width else ())
    values = np.array(data.draw(st.lists(st.integers(-6, 6), min_size=int(np.prod(shape)),
                                         max_size=int(np.prod(shape)))),
                      dtype=np.int64).reshape(shape)
    got, at = _unique_rows(values)
    if width:
        ref, inverse = np.unique(values, axis=0, return_inverse=True)
    else:
        ref, inverse = np.unique(values, return_inverse=True)
    assert got.shape == ref.shape and np.array_equal(got, ref)
    assert np.array_equal(at, inverse.reshape(-1))
    assert np.array_equal(got[at], values)
