"""Discrete Lp norms, universal-discretization search, and certification.

The central object is the ratio of the empirical p-th power mean
``(1/m) sum |f(xi_j)|^p`` to the continuous ``||f||_p^p`` over the unit
sphere of a subspace.  At p = 2 both sides are quadratic forms and the
extreme ratios are generalized eigenvalues of the pencil (empirical Gram,
continuous Gram), which we solve exactly.  For other p the sphere problem
is nonconvex and the extremes are estimated by multistart projected
gradient ascent/descent; those certificates are flagged heuristic.

A point set certifies a collection when every subspace ratio lies in
``[1 - eps, 1 + eps]`` with the default eps = 1/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .dictionary import Dictionary, SubspaceCollection
from .errors import CapExceededError, RankDeficiencyError
from .points import PointSet, tensor_grid_points
from .trigpoly import (DEFAULT_GRID_LEVEL, TrigPolynomial, _check_exponent,
                       _quadrature_grid_size, _union_coefficients, _values_on,
                       lp_norm)

DEFAULT_SUBSET_CAP = 10**6


def discrete_lp_norm(values, p: float) -> float:
    """``((1/m) sum |v_j|^p)^(1/p)`` over a nonempty value list."""
    values = np.asarray(values)
    if values.size == 0:
        raise ValueError("discrete norm of an empty value list")
    _check_exponent(p)
    return float(np.mean(np.abs(values) ** p) ** (1.0 / p))


def blended_lp_norm(f: TrigPolynomial, xi: PointSet, p: float,
                    grid_level: int = DEFAULT_GRID_LEVEL) -> float:
    """Lp norm under the half-continuous, half-empirical measure on xi."""
    cont = lp_norm(f, p, grid_level) ** p
    disc = discrete_lp_norm(f.evaluate(xi), p) ** p
    return float((0.5 * cont + 0.5 * disc) ** (1.0 / p))


@dataclass(frozen=True)
class RatioOptions:
    """Knobs for the p != 2 multistart sphere optimization.

    The quadrature grid for the continuous norm holds
    ``max(ceil(p) * maxfreq + 1, 2**grid_level)`` points per dimension,
    which makes the rectangle rule exact for even integer p.
    """

    starts: int = 64
    grad_tol: float = 1e-9
    max_iters: int = 500
    backtracks: int = 30
    grid_level: int = 6
    seed: int = 0


@dataclass
class SubspaceRatios:
    min_ratio: float
    max_ratio: float
    method: dict
    heuristic: bool
    converged: bool
    min_vector: np.ndarray | None = None
    max_vector: np.ndarray | None = None


def _continuous_gram_checked(dictionary: Dictionary, subset):
    """The subset's L2 Gram after a rank check; None when it is the identity."""
    if dictionary.has_identity_gram(subset):
        return None
    gram = dictionary.continuous_gram(subset)
    gram = 0.5 * (gram + gram.conj().T)
    w = np.linalg.eigvalsh(gram)
    if w[0] <= 1e-12 * max(w[-1], 1.0):
        raise RankDeficiencyError(
            f"subset {tuple(subset)} is numerically dependent in L2 "
            f"(smallest Gram eigenvalue {w[0]:.3e})")
    return gram


def _pencil_extremes(g_emp, g_cont):
    """Eigen extremes of c^H g_emp c / c^H g_cont c via Cholesky reduction.

    ``g_cont`` None stands for the identity and skips the reduction.
    """
    if g_cont is None:
        w, u = np.linalg.eigh(0.5 * (g_emp + g_emp.conj().T))
        return float(w[0]), float(w[-1]), u[:, 0], u[:, -1]
    chol = np.linalg.cholesky(g_cont)
    half = scipy.linalg.solve_triangular(chol, g_emp, lower=True)
    mid = scipy.linalg.solve_triangular(chol, half.conj().T, lower=True).conj().T
    mid = 0.5 * (mid + mid.conj().T)
    w, u = np.linalg.eigh(mid)
    back = scipy.linalg.solve_triangular(chol.conj().T, u, lower=False)
    return float(w[0]), float(w[-1]), back[:, 0], back[:, -1]


def _normalize_columns(c):
    norms = np.linalg.norm(c, axis=0)
    norms[norms == 0.0] = 1.0
    return c / norms


def _abs_pow(u, p):
    """|u|^p columnwise without complex abs; even p avoids pow entirely."""
    a2 = u.real * u.real + u.imag * u.imag
    if p == 2:
        return a2
    if p == 4:
        return a2 * a2
    return a2 ** (p / 2.0)


def _power_mean(u, p):
    return np.mean(_abs_pow(u, p), axis=0)


def _dual_power(u, p):
    """|u|^(p-2) * u with the removable singularity at u = 0 set to 0."""
    a2 = u.real * u.real + u.imag * u.imag
    if p == 2:
        return u
    if p == 4:
        return a2 * u
    if p > 2:
        return a2 ** ((p - 2.0) / 2.0) * u
    with np.errstate(divide="ignore", invalid="ignore"):
        w = np.where(a2 > 0.0, a2 ** ((p - 2.0) / 2.0), 0.0)
    return w * u


def _ratio_only(v_emp, v_cont, c, p):
    num = _power_mean(v_emp @ c, p)
    den = _power_mean(v_cont @ c, p)
    return num / den


def _ratio_grad(v_emp, v_cont, c, p):
    u = v_emp @ c
    g = v_cont @ c
    num = np.mean(_abs_pow(u, p), axis=0)
    den = np.mean(_abs_pow(g, p), axis=0)
    rho = num / den
    gnum = (p / (2.0 * v_emp.shape[0])) * (v_emp.conj().T @ _dual_power(u, p))
    gden = (p / (2.0 * v_cont.shape[0])) * (v_cont.conj().T @ _dual_power(g, p))
    grad = (gnum - gden * rho) / den
    return rho, grad


def _multistart_extreme(v_emp, v_cont, p, sign, starts, warm, seed_key, opts):
    """Projected-gradient ascent (sign=+1) or descent (sign=-1) on the sphere."""
    v = v_emp.shape[1]
    rng = np.random.default_rng(list(seed_key))
    c0 = rng.standard_normal((v, starts)) + 1j * rng.standard_normal((v, starts))
    if warm:
        c0 = np.concatenate([c0] + [w.reshape(-1, 1) for w in warm], axis=1)
    c = _normalize_columns(c0.astype(complex))
    n_cols = c.shape[1]
    rho = _ratio_only(v_emp, v_cont, c, p)
    active = np.ones(n_cols, dtype=bool)
    alpha_mem = np.ones(n_cols)  # per-column step memory across iterations
    hit_iter_limit = False
    for _ in range(opts.max_iters):
        if not active.any():
            break
        _, grad = _ratio_grad(v_emp, v_cont, c, p)
        inner = np.sum(np.conj(c) * grad, axis=0)
        tang = grad - c * inner
        tnorm = np.linalg.norm(tang, axis=0)
        done = active & (tnorm <= opts.grad_tol)
        active &= ~done
        if not active.any():
            break
        idx = np.where(active)[0]
        sub_c = c[:, idx]
        sub_t = tang[:, idx]
        sub_r = rho[idx]
        alpha = np.minimum(alpha_mem[idx] * 2.0, 1e3)
        accepted = np.zeros(len(idx), dtype=bool)
        for _ in range(opts.backtracks):
            todo = ~accepted
            cand = _normalize_columns(sub_c[:, todo] + sign * alpha[todo] * sub_t[:, todo])
            rho_c = _ratio_only(v_emp, v_cont, cand, p)
            improve = (rho_c > sub_r[todo]) if sign > 0 else (rho_c < sub_r[todo])
            where_todo = np.where(todo)[0]
            fresh = where_todo[improve]
            sub_c[:, fresh] = cand[:, improve]
            sub_r[fresh] = rho_c[improve]
            accepted[fresh] = True
            if accepted.all():
                break
            alpha[~accepted] *= 0.5
        c[:, idx] = sub_c
        rho[idx] = sub_r
        alpha_mem[idx] = alpha
        # a column that cannot improve within the backtracking budget sits
        # at a numerical stationary point; freeze it
        active[idx[~accepted]] = False
    else:
        hit_iter_limit = active.any()
    best = int(np.argmax(sign * rho))
    return float(rho[best]), c[:, best], not hit_iter_limit


def _method(p, opts: RatioOptions) -> dict:
    """How the ratios are bounded: exact eigenvalues at p = 2, else multistart."""
    if p == 2:
        return {"kind": "eigen_exact"}
    return {"kind": "multistart", "starts": opts.starts,
            "grad_tol": opts.grad_tol, "max_iters": opts.max_iters}


def _subset_ratios(values, subset, dictionary: Dictionary, p: float,
                   opts: RatioOptions, seed_key) -> SubspaceRatios:
    """Ratio extremes over one subspace, given its (m, v) values at the nodes."""
    m = values.shape[0]
    g_emp = values.conj().T @ values / m
    g_cont = _continuous_gram_checked(dictionary, subset)
    lo2, hi2, vec_lo, vec_hi = _pencil_extremes(g_emp, g_cont)
    if p == 2:
        return SubspaceRatios(lo2, hi2, _method(p, opts), False, True,
                              vec_lo, vec_hi)

    max_freq = max(dictionary.elements[i].max_component_frequency() for i in subset)
    n_grid = _quadrature_grid_size(max_freq, opts.grid_level, math.ceil(p), 1)
    grid = tensor_grid_points(n_grid, dictionary.dimension)
    v_cont = dictionary.values_at(grid)[:, subset]
    warm = [vec_lo, vec_hi]
    hi, vec_hi_p, conv_hi = _multistart_extreme(
        values, v_cont, p, +1.0, opts.starts, warm, seed_key + [1], opts)
    lo, vec_lo_p, conv_lo = _multistart_extreme(
        values, v_cont, p, -1.0, opts.starts, warm, seed_key + [2], opts)
    return SubspaceRatios(lo, hi, _method(p, opts), True, conv_hi and conv_lo,
                          vec_lo_p, vec_hi_p)


def subspace_ratio_bounds(subset, dictionary: Dictionary, xi: PointSet,
                          p: float, opts: RatioOptions | None = None,
                          seed_key=None) -> SubspaceRatios:
    """Extreme discrete-to-continuous p-th power ratios over one subspace.

    Exact (eigenvalue) at p = 2; multistart projected gradient otherwise,
    warm-started from the p = 2 extremal coefficient vectors and flagged
    heuristic.
    """
    _check_exponent(p)
    opts = opts or RatioOptions()
    subset = tuple(int(i) for i in subset)
    key = list(seed_key) if seed_key is not None else [opts.seed, 0]
    return _subset_ratios(dictionary.values_at(xi)[:, subset], subset,
                          dictionary, p, opts, key)


@dataclass
class UsdCertificate:
    """Per-subspace ratio window check for one point set and one exponent."""

    p: float
    epsilon: float
    subsets: list
    min_ratios: list
    max_ratios: list
    method: dict
    heuristic: bool
    passed: bool
    one_sided_constant: float
    converged: bool = True
    notes: list = field(default_factory=list)

    @property
    def window(self):
        return (1.0 - self.epsilon, 1.0 + self.epsilon)

    def worst_violation(self) -> float:
        lo, hi = self.window
        worst = 0.0
        for a, b in zip(self.min_ratios, self.max_ratios):
            worst = max(worst, lo - a, b - hi)
        return max(worst, 0.0)

    def to_json(self):
        return {
            "p": float(self.p),
            "epsilon": float(self.epsilon),
            "passed": bool(self.passed),
            "heuristic": bool(self.heuristic),
            "converged": bool(self.converged),
            "method": self.method,
            "one_sided_constant": float(self.one_sided_constant),
            "subsets": [list(s) for s in self.subsets],
            "min_ratios": [float(v) for v in self.min_ratios],
            "max_ratios": [float(v) for v in self.max_ratios],
            "notes": list(self.notes),
        }

    @classmethod
    def from_json(cls, obj):
        return cls(
            p=obj["p"], epsilon=obj["epsilon"],
            subsets=[tuple(s) for s in obj["subsets"]],
            min_ratios=list(obj["min_ratios"]),
            max_ratios=list(obj["max_ratios"]),
            method=dict(obj["method"]), heuristic=obj["heuristic"],
            passed=obj["passed"],
            one_sided_constant=(math.inf if obj["one_sided_constant"] == "inf"
                                else float(obj["one_sided_constant"])),
            converged=obj.get("converged", True),
            notes=list(obj.get("notes", [])))


def check_usd(xi: PointSet, coll: SubspaceCollection, p: float,
              opts: RatioOptions | None = None, epsilon: float = 0.5,
              subset_cap: int = DEFAULT_SUBSET_CAP,
              _seed_prefix=None) -> UsdCertificate:
    """Certify the ratio window over every subspace in the collection.

    The certificate passes when every subspace ratio pair lies inside
    ``[1 - epsilon, 1 + epsilon]``.  It also records the one-sided
    constant ``max_J min_ratio(J)^(-1/p)`` that converts the lower window
    side into a norm domination statement.
    """
    _check_exponent(p)
    if not 0 < epsilon < 1:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    opts = opts or RatioOptions()
    count = coll.count()
    if count > subset_cap:
        raise CapExceededError(
            f"collection holds {count} subspaces, above the cap {subset_cap}",
            predicted=count, cap=subset_cap)
    prefix = list(_seed_prefix) if _seed_prefix is not None else [opts.seed]
    values = coll.dictionary.values_at(xi)
    subsets, mins, maxs = [], [], []
    converged = True
    for i, subset in enumerate(coll.iter_subsets()):
        res = _subset_ratios(values[:, subset], subset, coll.dictionary, p,
                             opts, prefix + [i])
        subsets.append(subset)
        mins.append(res.min_ratio)
        maxs.append(res.max_ratio)
        converged = converged and res.converged
    lo, hi = 1.0 - epsilon, 1.0 + epsilon
    passed = all(lo <= a and b <= hi for a, b in zip(mins, maxs))
    worst_min = min(mins)
    one_sided = math.inf if worst_min <= 0.0 else worst_min ** (-1.0 / p)
    notes = [] if converged else ["some sphere optimizations hit the iteration limit"]
    return UsdCertificate(p, epsilon, subsets, mins, maxs, _method(p, opts),
                          p != 2, passed, one_sided, converged, notes)


@dataclass
class UsdSearchResult:
    """Outcome of the random search; failure is a value, not an exception.

    ``draws`` holds every draw's certificate in draw order; it is not
    serialized.
    """

    passed: bool
    points: PointSet
    certificate: UsdCertificate
    draw_index: int
    trials_run: int
    reference_budget: float
    draws: list

    def to_json(self):
        return {
            "passed": bool(self.passed),
            "draw_index": int(self.draw_index),
            "trials_run": int(self.trials_run),
            "reference_budget": float(self.reference_budget),
            "points": self.points.to_json(),
            "certificate": self.certificate.to_json(),
        }


def usd_sample_budget(v: int, n_dict: int, constant: float = 1.0) -> float:
    """Reference point budget ``c v (log 2v + loglog 2N)^2 (log N)^2``.

    Logs are base 2.  The absolute constant is unknown, so this is logged
    for comparison against the empirically sufficient m, never asserted.
    """
    log_n = math.log2(max(n_dict, 2))
    inner = math.log2(2 * v) + math.log2(math.log2(2 * n_dict))
    return constant * v * inner ** 2 * log_n ** 2


def find_usd_points(coll: SubspaceCollection, p: float, m: int,
                    max_trials: int = 20, rng_seed: int = 0,
                    opts: RatioOptions | None = None,
                    epsilon: float = 0.5,
                    subset_cap: int = DEFAULT_SUBSET_CAP) -> UsdSearchResult:
    """Draw i.i.d. uniform m-point sets until one certifies, or report the best.

    Each draw is derived from ``(rng_seed, draw_index)`` so the search is
    reproducible and individual draws can be regenerated from the result.
    """
    if m < 1:
        raise ValueError("need at least one sample point")
    if max_trials < 1:
        raise ValueError("need at least one trial")
    opts = opts or RatioOptions()
    d = coll.dictionary.dimension
    draws, best = [], None
    for draw in range(max_trials):
        xi = PointSet.random_uniform(m, d, rng_seed, draw_index=draw)
        cert = check_usd(xi, coll, p, opts, epsilon, subset_cap,
                         _seed_prefix=[opts.seed, draw])
        draws.append(cert)
        if (best is None or cert.passed
                or cert.worst_violation() < best[1].worst_violation()):
            best = (xi, cert, draw)
        if cert.passed:
            break
    xi, cert, draw = best
    return UsdSearchResult(cert.passed, xi, cert, draw, len(draws),
                           usd_sample_budget(coll.v, coll.dictionary.size),
                           draws)


def discretization_error_finite(functions, xi: PointSet, p: float,
                                grid_level: int = DEFAULT_GRID_LEVEL) -> float:
    """``max_f | ||f||_p^p - (1/m) sum_j |f(xi_j)|^p |`` over a finite list."""
    if not functions:
        raise ValueError("need at least one function")
    worst = 0.0
    for f in functions:
        cont = lp_norm(f, p, grid_level) ** p
        disc = float(np.mean(np.abs(f.evaluate(xi)) ** p))
        worst = max(worst, abs(cont - disc))
    return worst


def discretization_error_trials(functions, p: float, m: int, mc_trials: int,
                                rng_seed: int = 0,
                                grid_level: int = DEFAULT_GRID_LEVEL) -> np.ndarray:
    """Per-trial worst discretization gaps over i.i.d. uniform draws."""
    if mc_trials < 1:
        raise ValueError("need at least one trial")
    if not functions:
        raise ValueError("need at least one function")
    d = functions[0].dimension
    karr, coeff = _union_coefficients(functions, d)
    cont = np.array([lp_norm(f, p, grid_level) ** p for f in functions])
    base = (list(int(s) for s in rng_seed)
            if isinstance(rng_seed, (list, tuple)) else [int(rng_seed)])
    errs = np.empty(mc_trials)
    for t in range(mc_trials):
        rng = np.random.default_rng(base + [t])
        x = rng.uniform(0.0, 2.0 * np.pi, size=(m, d))
        # kept bound until the next trial rebinds it: the inlined form
        # measured up to 15 % slower at m = 4096 (memory is reused differently)
        vals = _values_on(x, karr, coeff)
        disc = np.mean(np.abs(vals) ** p, axis=0)
        errs[t] = np.max(np.abs(disc - cont))
    return errs


def expected_sup_estimate(functions, p: float, m: int, mc_trials: int,
                          rng_seed: int = 0,
                          grid_level: int = DEFAULT_GRID_LEVEL):
    """Monte-Carlo mean and standard error of the worst discretization gap."""
    if mc_trials < 2:
        raise ValueError("need at least two trials for a standard error")
    errs = discretization_error_trials(functions, p, m, mc_trials, rng_seed,
                                       grid_level)
    mean = float(errs.mean())
    stderr = float(errs.std(ddof=1) / math.sqrt(mc_trials))
    return mean, stderr
