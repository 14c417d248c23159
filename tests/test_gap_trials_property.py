"""Gap trials: the p = 2 moment path against a direct reference; other paths pinned."""
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from usdlab.discretization import _MOMENT_CHUNK_VALUES, discretization_error_trials
from usdlab.experiments import run
from usdlab.trigpoly import TrigPolynomial

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
    got = discretization_error_trials(fs, 2, m, 2, rng_seed=[seed, 1])
    ref, l1 = direct_gaps(fs, freqs, m, 2, [seed, 1])
    spread = max(freqs) - min(freqs)
    chunks = math.ceil(m / max(1, _MOMENT_CHUNK_VALUES // spread)) if spread else 0
    moments = 6 * spread + 2 * math.log2(m) + 2 * chunks + 40
    direct = 4 * math.pi * max(abs(j) for j in freqs) + 4 * len(freqs) + 16
    assert np.all(np.abs(got - ref) <= (moments + direct) * U * l1 ** 2)


BAND = [[j] for j in range(-6, 7)]
GRID_2D = [[a, b] for a in range(-2, 3) for b in range(-1, 2)]


# digests of the trial outputs before p = 2, d = 1 moved to the moment path:
# every other (d, p) keeps the values path, bit for bit
@pytest.mark.parametrize("freqs, seed, p, digest", [
    (BAND, 1, 3.0, "1af89c382c664d432238e2594189a5655e61dd82f9a347df9ea979bbe836b3b5"),
    ([[-9], [-2], [0], [5], [11]], 2, 4.0,
     "22c91855a7a4a358b4d46d264322981f9bef507f92a441a2ebe7e619da83105c"),
    ([[j] for j in range(-3, 5)], 3, 2.5,
     "d32fc857276ffee802d4faa2b6057b05079fea2be4151830fbd7ae5d87270b09"),
    (GRID_2D, 4, 2.0, "dc79114084489f98d2328e6e4f67895e060398a91bfa45e5df2e39e2754b3e5b"),
    (GRID_2D, 5, 3.0, "97bbb8312c0ae17cf381c7bee30b7a6504b6da02780448026b31a4203a820f1d"),
], ids=["p3_band", "p4_gapped", "p2.5_band", "p2_d2", "p3_d2"])
def test_gap_trials_off_the_moment_path_keep_their_bits(freqs, seed, p, digest):
    count = 4 if freqs is BAND else 3
    errs = discretization_error_trials(functions_on(freqs, count, seed), p, 37, 4,
                                       rng_seed=[7, 1])
    assert hashlib.sha256(errs.tobytes()).hexdigest() == digest


def test_odd_p_er_rate_output_keeps_its_bits(tmp_path):
    run({"kind": "er_rate", "seed": 5, "out": str(tmp_path),
         "params": {"max_abs_freq": 4, "n_functions": 4, "p": 3,
                    "m_sweep": [16, 32, 64], "mc_trials": 4},
         "assertions": {"slope_range": [-100, 100]}})
    assert hashlib.sha256((tmp_path / "er_rate.csv").read_bytes()).hexdigest() == (
        "2b0e92987a8a14fbba506c70edf7f973a5de703c22199f2cfd049d5ed11e0d2b")
