"""Correctness checks that hold on any seed, recomputed without usdlab.

Every check reads a job's outputs (CSV, JSON artifacts, or returned
values) and recomputes the quantity from first principles with numpy:
the dictionaries are orthonormal exponentials ``e^{ikx}``, so the
continuous Gram is the identity and every ratio, norm and sample can be
rebuilt from the node coordinates and the seeds alone.  A check returns a
list of failure messages; an empty list means the job is correct.
"""

from __future__ import annotations

import csv
import itertools
import json
import math

import numpy as np

RATIO_TOL = 1e-10
IRLS_RESIDUAL_TOL = 1e-6


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def read_csv(path):
    with open(path, encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def exponential_values(x, freqs):
    """Values of ``e^{ikx}`` at 1-d nodes x, one column per frequency."""
    return np.exp(1j * np.outer(np.asarray(x, dtype=float), np.asarray(freqs)))


def subset_extremes(values, subsets):
    """Exact p = 2 ratio extremes per subset via one batched eigen solve."""
    gram = values.conj().T @ values / values.shape[0]
    idx = np.asarray(subsets)
    blocks = gram[idx[:, :, None], idx[:, None, :]]
    w = np.linalg.eigvalsh(blocks)
    return w[:, 0], w[:, -1]


def _verdict_failures(cert, rows, header, mins, maxs, window=(0.5, 1.5)):
    fails = []
    lo, hi = window
    inside = [lo <= a and b <= hi for a, b in zip(mins, maxs)]
    if bool(cert["passed"]) != all(inside):
        fails.append(f"certificate verdict {cert['passed']} != recomputed {all(inside)}")
    col = header.index("within_window")
    if [r[col] == "true" for r in rows] != inside:
        fails.append("CSV within_window column disagrees with recomputed ratios")
    return fails


def check_p2_certificate(out_dir, freqs, v):
    """Ratios recomputed from points.json agree to 1e-10, same verdict."""
    x = [row[0] for row in read_json(f"{out_dir}/points.json")["points"]]
    cert = read_json(f"{out_dir}/certificate.json")
    header, rows = read_csv(f"{out_dir}/usd_verify.csv")
    subsets = list(itertools.combinations(range(len(freqs)), v))
    if [tuple(s) for s in cert["subsets"]] != subsets:
        return ["certificate subsets differ from all v-subsets"]
    mins, maxs = subset_extremes(exponential_values(x, freqs), subsets)
    fails = []
    err = max(np.max(np.abs(mins - cert["min_ratios"])),
              np.max(np.abs(maxs - cert["max_ratios"])))
    if not err <= RATIO_TOL:
        fails.append(f"p=2 ratios differ from the eigen recomputation by {err:.3e}")
    return fails + _verdict_failures(cert, rows, header, mins, maxs)


def lp_power_ratio(values_nodes, values_grid, c, p):
    """Empirical over continuous p-th power mean of one span element."""
    num = np.mean(np.abs(values_nodes @ c) ** p)
    den = np.mean(np.abs(values_grid @ c) ** p)
    return num / den


def check_p4_certificate(out_dir, freqs):
    """Each subset's [min, max] brackets the ratio at the p = 2 extremals.

    The multistart search is warm-started from the p = 2 extremal vectors
    and only accepts improvements, so their p = 4 ratios must lie inside
    the reported window.  The quadrature grid holds more than 4 * maxfreq
    points, which makes the rectangle rule exact for |f|^4.
    """
    x = [row[0] for row in read_json(f"{out_dir}/points.json")["points"]]
    cert = read_json(f"{out_dir}/certificate.json")
    header, rows = read_csv(f"{out_dir}/usd_verify.csv")
    vals = exponential_values(x, freqs)
    n_grid = 4 * int(np.max(np.abs(freqs))) + 1
    grid = exponential_values(np.arange(n_grid) * (2 * np.pi / n_grid), freqs)
    fails = []
    for s, lo, hi in zip(cert["subsets"], cert["min_ratios"], cert["max_ratios"]):
        sub = vals[:, list(s)]
        _, vecs = np.linalg.eigh(sub.conj().T @ sub / sub.shape[0])
        for c in (vecs[:, 0], vecs[:, -1]):
            r = lp_power_ratio(sub, grid[:, list(s)], c, 4)
            tol = 1e-9 * max(1.0, abs(r))
            if not lo - tol <= r <= hi + tol:
                fails.append(f"subset {s}: p=2 extremal ratio {r} outside [{lo}, {hi}]")
    return fails + _verdict_failures(cert, rows, header, cert["min_ratios"],
                                     cert["max_ratios"])


def l1_ball_coefficients(n, count, seed, first_zero):
    """The seeded l1-ball draws of usdlab's samplers, one column each."""
    rng = np.random.default_rng([int(seed), 0])
    coeff = np.zeros((n, count), dtype=complex)
    for j in range(1 if first_zero else 0, count):
        size = int(rng.integers(1, n + 1))
        support = np.sort(rng.choice(n, size=size, replace=False))
        weights = rng.dirichlet(np.ones(size))
        phases = np.exp(2j * np.pi * rng.random(size))
        coeff[support, j] = weights * phases
    return coeff


def check_entropy_profile(out_dir, freqs, n_representatives, grid_level, seed):
    """eps_n is nonincreasing and eps_0 is the largest grid sup of the sample."""
    header, rows = read_csv(f"{out_dir}/entropy_profile.csv")
    eps = np.array([float(r[1]) for r in rows])
    fails = []
    if np.any(np.diff(eps) > 0):
        fails.append("profile eps_n increases somewhere")
    coeff = l1_ball_coefficients(len(freqs), n_representatives, seed, True)
    n_grid = 2 ** grid_level
    basis = exponential_values(np.arange(n_grid) * (2 * np.pi / n_grid), freqs)
    sup = 0.0
    for lo in range(0, n_representatives, 256):
        sup = max(sup, float(np.abs(basis @ coeff[:, lo:lo + 256]).max()))
    # the traversal squares moduli in float32
    if not abs(eps[0] - sup) <= 1e-6 * sup:
        fails.append(f"eps_0 = {eps[0]} but the largest grid sup is {sup}")
    return fails


def check_er_rate(out_dir, freqs, n_functions, m_sweep, mc_trials, seed):
    """Gap trials recomputed from the seeds: all of the first m, trial 0 of each."""
    header, rows = read_csv(f"{out_dir}/er_rate.csv")
    if len(rows) != len(m_sweep) * mc_trials:
        return [f"er_rate.csv holds {len(rows)} rows"]
    coeff = l1_ball_coefficients(len(freqs), n_functions, seed, False)
    cont = np.linalg.norm(coeff, axis=0) ** 2
    kt = np.asarray(freqs, dtype=float)[None, :]
    table = {(int(r[0]), int(r[1])): float(r[2]) for r in rows}
    picks = [(0, t) for t in range(mc_trials)] + [(i, 0) for i in range(1, len(m_sweep))]
    worst = 0.0
    for i, t in picks:
        m = m_sweep[i]
        x = np.random.default_rng([int(seed), i, t]).uniform(0.0, 2 * np.pi, size=(m, 1))
        disc = np.mean(np.abs(np.exp(1j * (x @ kt)) @ coeff) ** 2, axis=0)
        worst = max(worst, abs(float(np.max(np.abs(disc - cont))) - table[(m, t)]))
    return [] if worst <= 1e-9 else [f"gap trials differ by {worst:.3e}"]


def check_recovery_rate(out_dir, n_sweep):
    """At p = 2 a larger cut keeps a superset: terms grow, errors shrink."""
    header, rows = read_csv(f"{out_dir}/recovery_rate.csv")
    terms = [int(r[header.index("terms")]) for r in rows]
    errs = [float(r[header.index("continuous_error")]) for r in rows]
    fails = []
    if len(rows) != len(n_sweep):
        fails.append(f"recovery_rate.csv holds {len(rows)} rows")
    if any(b < a for a, b in zip(terms, terms[1:])):
        fails.append("term counts decrease with the cut")
    if any(b > a for a, b in zip(errs, errs[1:])) or not all(
            math.isfinite(e) and e > 0 for e in errs):
        fails.append("continuous errors are not positive and nonincreasing")
    return fails


def check_search(result, freqs, v):
    """A passing search certificate re-verifies by the eigen recomputation."""
    cert = result.certificate
    x = result.points.points[:, 0]
    subsets = list(itertools.combinations(range(len(freqs)), v))
    mins, maxs = subset_extremes(exponential_values(x, freqs), subsets)
    err = max(np.max(np.abs(mins - cert.min_ratios)),
              np.max(np.abs(maxs - cert.max_ratios)))
    fails = []
    if not err <= RATIO_TOL:
        fails.append(f"search certificate differs by {err:.3e}")
    if result.passed != bool(np.all((mins >= 0.5) & (maxs <= 1.5))):
        fails.append("search verdict differs from the recomputation")
    return fails


def check_oracle_vs_greedy(oracle, greedy, v):
    """The exhaustive v-term residual is at most WCGA's after v iterations.

    Both sides are IRLS solutions that stop on a relative step change of
    1e-10, so on a slowly converging subset the oracle's cold start can end
    a few parts in 1e8 above WCGA's warm start; IRLS_RESIDUAL_TOL allows
    for that and still catches a wrong subset or a wrong projection.
    """
    if len(oracle.support) != v:
        return [f"oracle support has {len(oracle.support)} elements"]
    steps = greedy.trace[:v]
    wcga_v = steps[-1]["residual_norm"] if steps else greedy.residual_norm
    if not oracle.residual_norm <= wcga_v * (1 + IRLS_RESIDUAL_TOL):
        return [f"oracle residual {oracle.residual_norm} > WCGA({v}) {wcga_v}"]
    return []


def check_pipeline(report):
    """With method=oracle the discrete residual is sigma_v on the same nodes."""
    fails = []
    sigma = report.sigma_discrete
    if sigma is None or not abs(report.discrete_residual - sigma) <= 1e-12 * max(sigma, 1.0):
        fails.append(f"discrete residual {report.discrete_residual} != sigma {sigma}")
    if "certificate_failed" in report.flags or not math.isfinite(report.continuous_error):
        fails.append(f"pipeline flags {report.flags}, error {report.continuous_error}")
    return fails
