import itertools
import math

import numpy as np
import pytest
import scipy.integrate

from usdlab.discretization import discretization_error_trials
from usdlab.errors import DimensionMismatchError, GridTooCoarseError
from usdlab.jsonio import dumps
from usdlab.points import PointSet
from usdlab.trigpoly import (_PLAIN, TrigPolynomial, _half_spectrum,
                             _quadrature_lp_norm, _values_on, lp_norm, sup_norm,
                             sup_norm_info)


def bits(a):
    return np.ascontiguousarray(a).view(np.int64)


def random_poly(rng, max_freq=12, terms=8, d=1):
    freqs = set()
    while len(freqs) < terms:
        freqs.add(tuple(int(v) for v in rng.integers(-max_freq, max_freq + 1, size=d)))
    coeffs = {k: complex(rng.standard_normal(), rng.standard_normal())
              for k in freqs}
    return TrigPolynomial(coeffs, d)


def quad_lp_oracle(f, p):
    """Adaptive-quadrature oracle for the d=1 Lp norm."""
    def integrand(x):
        return abs(f.evaluate(np.array([x]))[0]) ** p
    val, _ = scipy.integrate.quad(integrand, 0.0, 2.0 * np.pi, limit=400)
    return (val / (2.0 * np.pi)) ** (1.0 / p)


def test_evaluate_constant_and_single_exponential():
    c = TrigPolynomial({(0,): 2.5 - 1j})
    assert c.evaluate(np.array([0.3]))[0] == pytest.approx(2.5 - 1j)
    e = TrigPolynomial({(3,): 1.0})
    assert e.evaluate(np.array([0.0]))[0] == pytest.approx(1.0)


def test_evaluate_cosine_pair_hand_value():
    # coefficients {1: 1, -1: 1} give 2 cos x; at pi/3 that is 1
    f = TrigPolynomial({1: 1.0, -1: 1.0})
    assert f.evaluate(np.array([np.pi / 3]))[0] == pytest.approx(1.0, abs=1e-14)


def test_evaluate_dimension_mismatch():
    f = TrigPolynomial({(1, 0): 1.0})
    with pytest.raises(DimensionMismatchError):
        f.evaluate(np.array([[0.1]]))


def test_evaluate_matches_direct_summation():
    rng = np.random.default_rng(5)
    f = random_poly(rng, terms=6)
    pts = rng.uniform(0, 2 * np.pi, size=7)
    direct = [sum(c * np.exp(1j * k[0] * x) for k, c in f.coeffs.items())
              for x in pts]
    assert np.allclose(f.evaluate(pts), direct, atol=1e-12)


def test_parseval_invariant_200_random():
    rng = np.random.default_rng(0)
    for _ in range(200):
        f = random_poly(rng, max_freq=20, terms=int(rng.integers(1, 12)))
        l2 = f.coefficient_l2()
        assert abs(lp_norm(f, 2) - l2) <= 1e-10 * l2


def test_quadrature_path_reproduces_parseval():
    # the p = 2 norm through the grid quadrature agrees with the exact one
    rng = np.random.default_rng(1)
    for _ in range(20):
        f = random_poly(rng, max_freq=15, terms=6)
        assert _quadrature_lp_norm(f, 2) == pytest.approx(f.coefficient_l2(),
                                                          rel=1e-12)


@pytest.mark.parametrize("p", [1.0, 3.0, 4.0])
def test_lp_norm_against_adaptive_quadrature(p):
    rng = np.random.default_rng(2)
    f = random_poly(rng, max_freq=6, terms=5)
    assert lp_norm(f, p) == pytest.approx(quad_lp_oracle(f, p), rel=1e-8)


def test_lp_norm_trivial_values():
    one = TrigPolynomial({(0,): 1.0})
    wave = TrigPolynomial({(4,): 1.0})
    for p in (1.0, 2.0, 3.5, 6.0):
        assert lp_norm(one, p) == pytest.approx(1.0, rel=1e-12)
        assert lp_norm(wave, p) == pytest.approx(1.0, rel=1e-12)


def test_lp_norm_scaled_cosine_parseval():
    f = TrigPolynomial({1: math.sqrt(2) / 2, -1: math.sqrt(2) / 2})
    assert lp_norm(f, 2) == pytest.approx(1.0, rel=1e-12)


def test_lp_norm_rejects_small_p():
    with pytest.raises(ValueError):
        lp_norm(TrigPolynomial({(0,): 1.0}), 0.5)


def test_grid_cap_refuses_rather_than_under_resolving():
    f = TrigPolynomial({(700, 700, 700): 1.0})
    with pytest.raises(GridTooCoarseError):
        lp_norm(f, 4.0)


def test_sup_norm_cases():
    assert sup_norm(TrigPolynomial({(0,): -3.0})) == pytest.approx(3.0)
    dirichlet = TrigPolynomial({(k,): 1.0 for k in range(-4, 5)})
    assert sup_norm(dirichlet) == pytest.approx(9.0, rel=1e-12)
    two_cos = TrigPolynomial({1: 1.0, -1: 1.0, 2: 1.0, -2: 1.0})
    # 2cos(x) + 2cos(2x)... rescale: cos x + cos 2x peaks at 2 at x = 0
    f = two_cos.scale(0.5)
    assert sup_norm(f) == pytest.approx(2.0, rel=1e-12)


def test_sup_norm_info_records_oversampling():
    f = TrigPolynomial({(5,): 1.0})
    info = sup_norm_info(f, grid_level=3)
    assert info.points_per_dim == 40  # 8 * maxfreq dominates 2^3
    assert info.oversampling == pytest.approx(8.0)


def test_sup_dominates_lp_on_shared_grids():
    rng = np.random.default_rng(3)
    for _ in range(50):
        f = random_poly(rng, max_freq=32, terms=7)
        s = sup_norm(f)
        for p in (1.0, 2.0, 4.0):
            assert s >= lp_norm(f, p) - 1e-8


def test_algebra_and_restrict():
    f = TrigPolynomial({1: 1.0, 2: 2.0})
    g = TrigPolynomial({1: -1.0, 3: 1.0})
    h = f + g
    assert h.coeffs[(2,)] == 2.0 and h.coeffs[(3,)] == 1.0
    assert h.coeffs[(1,)] == 0.0
    r = h.restrict([(2,), (3,)])
    assert set(r.support) == {(2,), (3,)}
    assert (f - f).coefficient_l2() == 0.0


def test_json_roundtrip_and_17_digit_floats():
    f = TrigPolynomial({(1,): complex(math.pi, -math.e), (0,): 0.25})
    again = TrigPolynomial.from_json(f.to_json())
    assert again.coeffs == f.coeffs
    text = dumps(f.to_json())
    assert "3.1415926535897931" in text   # 17 significant digits of pi
    assert "-2.7182818284590451" in text


def test_pointset_reduction_and_equispaced():
    ps = PointSet.explicit(np.array([-0.5, 7.0]))
    assert np.all(ps.points >= 0) and np.all(ps.points < 2 * np.pi)
    eq = PointSet.equispaced(4, 2)
    assert eq.size == 16 and eq.dimension == 2
    assert eq.provenance["kind"] == "equispaced"
    seeded = PointSet.random_uniform(5, 1, seed=42, draw_index=3)
    again = PointSet.random_uniform(5, 1, seed=42, draw_index=3)
    assert np.array_equal(seeded.points, again.points)
    other = PointSet.random_uniform(5, 1, seed=42, draw_index=4)
    assert not np.array_equal(seeded.points, other.points)


def test_evaluate_chunking_consistency_on_large_point_sets():
    # more points than one evaluation chunk; values must match slice-wise
    rng = np.random.default_rng(33)
    f = TrigPolynomial({int(k): complex(a, b) for k, a, b in
                        zip(rng.integers(-9, 10, 5), rng.normal(size=5),
                            rng.normal(size=5))})
    pts = rng.uniform(0, 2 * np.pi, size=20000)
    whole = f.evaluate(pts)
    parts = np.concatenate([f.evaluate(pts[:7000]), f.evaluate(pts[7000:])])
    assert np.allclose(whole, parts, atol=0, rtol=0)
    direct = [complex(sum(c * np.exp(1j * k[0] * x) for k, c in f.coeffs.items()))
              for x in pts[:3]]
    assert np.allclose(whole[:3], direct, atol=1e-12)


def test_values_on_takes_a_coefficient_matrix():
    # a 2-D coefficient array gives one value column per coefficient column,
    # bit-equal to the unchunked product across the chunk boundary
    rng = np.random.default_rng(34)
    k = np.array([[-2], [0], [3]])
    coeff = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    pts = rng.uniform(0, 2 * np.pi, size=(9000, 1))  # more than one chunk
    both = _values_on(pts, k, coeff)
    assert np.array_equal(both, np.exp(1j * (pts @ k.T.astype(float))) @ coeff)
    for j in range(4):
        assert np.allclose(both[:, j], _values_on(pts, k, coeff[:, j]),
                           rtol=0, atol=1e-13)
    assert np.array_equal(_values_on(pts, k[:0], coeff[:0]),
                          np.zeros((9000, 4), dtype=complex))


def test_symmetries_behind_the_half_spectrum_kernel_hold_bit_for_bit():
    # _values_on fills each mirror column from its partner's exponential;
    # a platform where one of these fails shows here, not as changed bytes
    rng = np.random.default_rng(35)
    y = np.concatenate([[0.0, -0.0, 5e-324, -5e-324, np.pi, -np.pi, 1e15],
                        rng.uniform(-200, 200, 20000),
                        1e-8 * rng.standard_normal(2000)])
    assert np.array_equal(bits(np.exp(1j * y)), bits(np.cos(y) + 1j * np.sin(y)))
    assert np.array_equal(bits(np.cos(-y)), bits(np.cos(y)))
    nonzero = y != 0
    assert np.array_equal(bits(0.0 - np.sin(y[nonzero])), bits(np.sin(-y[nonzero])))
    # sin(-0.0) is -0.0, but exp returns +0.0 at phase +0.0 and -0.0 alike,
    # and 0.0 - (+0.0) is +0.0 again
    assert np.array_equal(bits(np.exp(1j * np.array([0.0, -0.0]))),
                          bits(np.array([1.0, 1.0], dtype=complex)))
    e, flipped = np.exp(1j * y), np.exp(1j * -y)
    assert np.array_equal(bits(flipped.real), bits(e.real))
    assert np.array_equal(bits(flipped.imag), bits(0.0 - e.imag))
    # d = 1: every phase is one rounded product, which negates exactly, and
    # the direct columns alone give the same products as the full matrix
    x = rng.uniform(0, 2 * np.pi, (3000, 1))
    k = np.arange(1, 65)[None, :].astype(float)
    assert np.array_equal(bits(x @ -k), bits(-(x @ k)))
    kt = np.arange(-40, 25)[None, :].astype(float)
    direct = _half_spectrum(kt.T.astype(np.int64)).direct
    assert np.array_equal(bits(x @ kt[:, direct]), bits((x @ kt)[:, direct]))


def test_er_rate_band_exponentiates_its_positive_half_only(monkeypatch):
    # the +-16 band of er-rate: k = 0 is set to 1 and k < 0 mirrors k > 0
    k = np.arange(-16, 17)[:, None]
    halves = _half_spectrum(k)
    assert k[halves.direct, 0].tolist() == list(range(1, 17))
    assert k[halves.mirror, 0].tolist() == list(range(-16, 0))
    assert k[halves.direct][halves.source, 0].tolist() == list(range(16, 0, -1))
    assert k[halves.zero, 0].tolist() == [0]
    rng = np.random.default_rng(36)
    fs = [TrigPolynomial({(j,): complex(*rng.standard_normal(2)) for j in range(-16, 17)})
          for _ in range(20)]
    shapes, exp = [], np.exp
    monkeypatch.setattr(np, "exp", lambda a, **kw: shapes.append(a.shape) or exp(a, **kw))
    discretization_error_trials(fs, 2.0, 300, 3, rng_seed=5)
    assert shapes == [(300, 16)] * 3


def test_values_on_takes_the_plain_product_for_several_dimensions():
    # d = 3 with 343 rows: a phase summed over three components need not
    # round as the negated partner phase, so no column is mirrored
    rng = np.random.default_rng(37)
    k = np.array(list(itertools.product(range(-3, 4), repeat=3)))
    assert _half_spectrum(k) is _PLAIN
    c = rng.standard_normal(len(k)) + 1j * rng.standard_normal(len(k))
    for m in (100, 1000):
        x = rng.uniform(0, 2 * np.pi, (m, 3))
        # the phase is summed coordinate by coordinate, in order
        phase = x[:, 0:1] * k[:, 0].astype(float)
        for j in (1, 2):
            phase = phase + x[:, j:j + 1] * k[:, j].astype(float)
        assert np.array_equal(bits(_values_on(x, k, c)), bits(np.exp(1j * phase) @ c))


def test_single_row_polynomials_skip_the_sort_and_stay_copies():
    k, c = np.array([[4, -1]]), np.array([2.0 + 1j])
    f = TrigPolynomial.from_arrays(k, c, 2)
    assert f.coeffs == {(4, -1): 2.0 + 1j}
    assert k.flags.writeable and c.flags.writeable
    assert not np.shares_memory(f.as_arrays()[0], k)
    assert TrigPolynomial({(0,): 3.0}).evaluate(np.array([0.5, 1.0])).tolist() == [3, 3]
    with pytest.raises(DimensionMismatchError):
        TrigPolynomial({(): 1.0})


def test_one_term_evaluation_builds_no_map(monkeypatch):
    import usdlab.trigpoly as trigpoly

    def refuse(freqs):
        raise AssertionError("map built for one row")

    monkeypatch.setattr(trigpoly, "_half_spectrum", refuse)
    x = np.linspace(0, 2 * np.pi, 50)
    for f in (TrigPolynomial({(5,): 2.0}), TrigPolynomial({(0,): 1j})):
        assert np.array_equal(bits(f.evaluate(x)),
                              bits(np.exp(1j * (x[:, None] @ f.as_arrays()[0].T.astype(float)))
                                   @ f.as_arrays()[1]))


def test_from_arrays_sorts_rows_and_validates():
    f = TrigPolynomial.from_arrays([[2, 0], [-1, 5], [-1, 3]], [1.0, 2.0, 3j], 2)
    k, c = f.as_arrays()
    assert k.dtype == np.int64 and c.dtype == complex
    assert k.tolist() == [[-1, 3], [-1, 5], [2, 0]] and c.tolist() == [3j, 2, 1]
    assert f.coeffs == TrigPolynomial({(2, 0): 1.0, (-1, 5): 2.0, (-1, 3): 3j}).coeffs
    assert TrigPolynomial.from_arrays(np.zeros((0, 3)), [], 3).support == ()
    with pytest.raises(ValueError, match="duplicate"):
        TrigPolynomial.from_arrays([[1], [0], [1]], [1.0, 2.0, 3.0], 1)
    with pytest.raises(ValueError, match="duplicate"):
        TrigPolynomial({1: 1.0, (1,): 2.0})
    with pytest.raises(ValueError, match="one coefficient"):
        TrigPolynomial.from_arrays([[1], [2]], [1.0], 1)
    with pytest.raises(DimensionMismatchError):
        TrigPolynomial.from_arrays([[1, 2]], [1.0], 1)
    with pytest.raises(DimensionMismatchError):
        TrigPolynomial({(1,): 1.0, (1, 2): 1.0})
    with pytest.raises(DimensionMismatchError):
        TrigPolynomial({(1,): 1.0}).restrict([(1, 0)])


def test_storage_is_a_read_only_copy_and_the_mapping_a_view():
    k, c = np.array([[3], [1]]), np.array([1.0, 2j])
    f = TrigPolynomial.from_arrays(k, c, 1)
    k[0, 0], c[0] = 7, 5.0
    assert f.coeffs == {(1,): 2j, (3,): 1.0}
    fk, fc = f.as_arrays()
    with pytest.raises(ValueError):
        fc[0] = 0.0
    with pytest.raises(ValueError):
        fk[0, 0] = 0
    with pytest.raises(TypeError):
        f.coeffs[(1,)] = 0.0
    assert f.coeffs is f.coeffs
