"""Gap trials: the p = 2 moment path against a direct reference and, bit for
bit, against its trials run one at a time; other paths pinned."""
import hashlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from usdlab import discretization
from usdlab.discretization import (_difference_correlations, _node_chunk,
                                   _power_sums, discretization_error_trials)
from usdlab.experiments import run
from usdlab.trigpoly import TrigPolynomial, _union_coefficients, lp_norm

U = 2.0 ** -53

UNIONS = st.one_of(
    st.builds(lambda lo, n: list(range(lo, lo + n)),              # bands
              st.integers(-40, 20), st.integers(1, 40)),
    st.sets(st.integers(-60, 60), min_size=2, max_size=10).map(sorted),   # gapped
    st.integers(-3000, 3000).map(lambda k: [k]),                  # one frequency
    st.just([0]),
    st.sets(st.integers(-90, -1), min_size=1, max_size=8).map(sorted),
    # wide spreads: a few nodes per chunk of the power buffer
    st.sampled_from([[0, 3000], [-3000, 0], [-1200, 5, 1800]]),
)


def moment_trials(*args, **kwargs):
    """The p = 2 gap trials on the moment path whatever the union's spread,
    so the kernel stays tested on spreads the path rule sends elsewhere."""
    with mock.patch.object(discretization, "_MOMENT_SPREAD_PER_FREQUENCY", math.inf):
        return discretization_error_trials(*args, **kwargs)


def functions_on(freqs, count, seed, zeros=0.0):
    """``count`` random polynomials on the (n, d) frequencies, each
    coefficient zero with probability ``zeros``."""
    rng = np.random.default_rng(seed)
    k = np.array(freqs, dtype=np.int64).reshape(len(freqs), -1)
    out = []
    for _ in range(count):
        c = rng.standard_normal(len(k)) + 1j * rng.standard_normal(len(k))
        if zeros:
            c[rng.random(len(k)) < zeros] = 0.0
        out.append(TrigPolynomial.from_arrays(k, c, k.shape[1]))
    return out


def direct_gaps(functions, freqs, m, trials, seed):
    """Each trial's worst gap from ``exp(1j * x @ k.T) @ C`` at its nodes,
    with correctly rounded sums, and the largest coefficient l1 norm."""
    k = np.array(freqs, dtype=float)[None, :]
    coeffs = np.array([[f.coeffs.get((j,), 0.0) for f in functions] for j in freqs])
    cont = [math.fsum(col) for col in (np.abs(coeffs) ** 2).T]
    out = []
    for t in range(trials):
        x = np.random.default_rng(seed + [t]).uniform(0.0, 2.0 * np.pi, size=(m, 1))
        vals = np.exp(1j * (x @ k)) @ coeffs
        out.append(max(abs(math.fsum(col) / m - c)
                       for col, c in zip((np.abs(vals) ** 2).T, cont)))
    return np.array(out), np.abs(coeffs).sum(axis=0).max()


# The moment path's bound from the docstring of discretization_error_trials,
# plus the direct reference's own: its phase x k is rounded, which puts e^{ikx}
# within (2 pi |k| + 1) u, its product sums F terms, and |.|^2 and the final
# divide and subtract round a few times more.
@settings(max_examples=150, derandomize=True, deadline=None)
@given(freqs=UNIONS, count=st.integers(1, 4), zeros=st.sampled_from([0.0, 0.5]),
       m=st.one_of(st.integers(1, 40), st.sampled_from([300, 1000, 2500])),
       seed=st.integers(0, 2 ** 32 - 1))
def test_moment_gaps_match_the_direct_values_within_the_stated_bound(
        freqs, count, zeros, m, seed):
    fs = functions_on([[j] for j in freqs], count, seed, zeros)
    got = moment_trials(fs, 2, m, 2, rng_seed=[seed, 1])
    ref, l1 = direct_gaps(fs, freqs, m, 2, [seed, 1])
    spread = max(freqs) - min(freqs)
    width, step = _node_chunk(spread, m)
    moments = 8 * spread + 3 * width + 2 * math.log2(m) + 2 * math.ceil(m / step) + 40
    direct = 4 * math.pi * max(abs(j) for j in freqs) + 4 * len(freqs) + 16
    assert np.all(np.abs(got - ref) <= (moments + direct) * U * l1 ** 2)


def one_trial_power_sums(theta, powers):
    """``sum_x z^j`` over the nodes ``theta`` of one trial, for each of the
    sorted distinct positive ``powers``: one call of the moment kernel on
    that trial alone."""
    return _power_sums(theta[None], powers)[0]


def one_trial_gaps(functions, m, trials, seed):
    """The p = 2 gaps with one kernel call per trial."""
    karr, coeff = _union_coefficients(functions, 1)
    diffs, corr = _difference_correlations(karr[:, 0], coeff)
    parts = np.stack([corr.real, -corr.imag], axis=1).reshape(-1, corr.shape[1])
    errs = np.empty(trials)
    for t in range(trials):
        x = np.random.default_rng(seed + [t]).uniform(0.0, 2.0 * np.pi, size=(m, 1))
        sums = one_trial_power_sums(x[:, 0], diffs)
        gaps = (sums.view(float) @ parts) * (2.0 / m)
        errs[t] = np.max(np.abs(gaps))
    return errs


@st.composite
def block_shapes(draw):
    """A union, with m at 1, 2 or a chunk boundary +-1 of its spread (up to
    5000 nodes) or small, and a trial count that is rarely a whole number of
    blocks."""
    freqs = draw(UNIONS)
    step = _node_chunk(max(freqs) - min(freqs), 5000)[1]
    edges = [1, 2] + [e for c in (step, 2 * step) for e in (c - 1, c, c + 1) if e <= 5000]
    m = draw(st.one_of(st.sampled_from(edges), st.integers(1, 70)))
    trials = draw(st.integers(1, 300 if m <= 70 else 12))
    return freqs, m, trials


@settings(max_examples=200, derandomize=True, deadline=None)
@given(shape=block_shapes(), count=st.integers(1, 4), zeros=st.sampled_from([0.0, 0.5]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_blocked_moment_gaps_keep_the_bits_of_trials_run_one_at_a_time(
        shape, count, zeros, seed):
    freqs, m, trials = shape
    fs = functions_on([[j] for j in freqs], count, seed, zeros)
    got = moment_trials(fs, 2, m, trials, rng_seed=[seed, 2])
    ref = one_trial_gaps(fs, m, trials, [seed, 2])
    assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("freqs, moments", [
    ([[0], [30000]], False),                       # J / F = 15000
    ([[-40], [0], [40]], False),                   # J / F = 26.7
    ([[-20], [0], [20]], False),                   # J / F = 13.3
    ([[0], [17]], False),                          # J = 8 F + 1
    ([[0], [16]], True),                           # J = 8 F
    ([[-10], [0], [10]], True),                    # J / F = 6.7
    ([[j] for j in range(-16, 17)], True),         # profile's band: J = 32, F = 33
])
def test_moment_path_runs_only_while_the_spread_is_at_most_8_f(freqs, moments, monkeypatch):
    calls = []
    power_sums = discretization._power_sums

    def recording(theta, powers):
        calls.append(len(powers))
        return power_sums(theta, powers)

    monkeypatch.setattr(discretization, "_power_sums", recording)
    discretization_error_trials(functions_on(freqs, 2, 0), 2, 64, 2)
    assert bool(calls) == moments


BAND = [[j] for j in range(-6, 7)]
GRID_2D = [[a, b] for a in range(-2, 3) for b in range(-1, 2)]


# digests of the values path, which every (d, p) but p = 2, d = 1 takes,
# recorded once each function's node mean summed pairwise
@pytest.mark.parametrize("freqs, seed, p, digest", [
    (BAND, 1, 3.0, "e22958d34695a1c2b10fec602351388d45d7df0dc7f549b05380ea566abaf3f7"),
    ([[-9], [-2], [0], [5], [11]], 2, 4.0,
     "c5cfc46baa98316ed7263c377d7eaddd69258d46c04414f44df873b08b050f97"),
    ([[j] for j in range(-3, 5)], 3, 2.5,
     "d32fc857276ffee802d4faa2b6057b05079fea2be4151830fbd7ae5d87270b09"),
    (GRID_2D, 4, 2.0, "dd4ad56c9b750fe9590d5a5b205f2ea62cdd5644967a666845955de5afbf6b5b"),
    (GRID_2D, 5, 3.0, "4ba2f6a35b316a1fc76455382c127cdead531baaed9c9340440791a6aee28208"),
], ids=["p3_band", "p4_gapped", "p2.5_band", "p2_d2", "p3_d2"])
def test_gap_trials_off_the_moment_path_keep_their_bits(freqs, seed, p, digest):
    count = 4 if freqs is BAND else 3
    errs = discretization_error_trials(functions_on(freqs, count, seed), p, 37, 4,
                                       rng_seed=[7, 1])
    assert hashlib.sha256(errs.tobytes()).hexdigest() == digest


@pytest.mark.parametrize("m", [997, 1000, 1024])
@pytest.mark.parametrize("p", [2.5, 3.0, 4.0])
def test_values_path_means_sum_the_nodes_pairwise(m, p):
    # a constant takes one value at every node; adding m equal values one
    # node at a time rounds at every partial sum (about 370 u at m = 1000),
    # a pairwise sum stays within (log2 m + 16) u of the correctly rounded
    # math.fsum mean
    coeffs = [0.7, 1.3j, 0.9 + 0.2j]
    fs = [TrigPolynomial({(0,): c}) for c in coeffs]
    got = discretization_error_trials(fs, p, m, 2, rng_seed=[4, 2])
    powers = [float(np.abs(np.complex128(c)) ** p) for c in coeffs]
    ref = max(abs(math.fsum([x] * m) / m - lp_norm(f, p) ** p)
              for x, f in zip(powers, fs))
    assert np.all(np.abs(got - ref) <= (math.log2(m) + 16) * U * max(powers))


def test_odd_p_er_rate_output_keeps_its_bits(tmp_path):
    run({"kind": "er_rate", "seed": 5, "out": str(tmp_path),
         "params": {"max_abs_freq": 4, "n_functions": 4, "p": 3,
                    "m_sweep": [16, 32, 64], "mc_trials": 4},
         "assertions": {"slope_range": [-100, 100]}})
    assert hashlib.sha256((tmp_path / "er_rate.csv").read_bytes()).hexdigest() == (
        "9c74ce800b2770b2d0a67d716d98e436c80e170afe388b15e0a6a68883af3345")
