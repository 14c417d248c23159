"""Discrete Lp norms, universal-discretization search, and certification.

The central object is the ratio of the empirical p-th power mean
``(1/m) sum |f(xi_j)|^p`` to the continuous ``||f||_p^p`` over the unit
sphere of a subspace.  At p = 2 both sides are quadratic forms and the
extreme ratios are generalized eigenvalues of the pencil (empirical Gram,
continuous Gram), which we solve exactly.  For other p the sphere problem
is nonconvex and the extremes are estimated by multistart projected
gradient ascent/descent; those certificates are flagged heuristic.

At even p = 2r the ratio of f is the p = 2 ratio of f^r, which lies in the
span of the exponentials of the merged r-fold sumset of the subspace's
frequencies; their continuous Gram is the identity.  The multistart then
runs in those lifted coordinates, O(L^2) per start for L sumset
frequencies, with no quadrature grid, and the eigen extremes of the lifted
empirical Gram give a rigorous outer window around each subspace's ratios
(``outer_min_ratios``, ``outer_max_ratios``, ``rigorous_pass``).  Odd and
non-integer p have no such lift and keep the quadrature multistart alone.

A point set certifies a collection when every subspace ratio lies in
``[1 - eps, 1 + eps]`` with the default eps = 1/2.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .dictionary import Dictionary, SubspaceCollection
from .errors import CapExceededError, RankDeficiencyError
from .points import PointSet, tensor_grid_points
from .trigpoly import (DEFAULT_GRID_LEVEL, TrigPolynomial, _check_exponent,
                       _half_spectrum, _phases, _quadrature_grid_size,
                       _union_coefficients, _values_on, lp_norm)

DEFAULT_SUBSET_CAP = 10**6
MULTISTART_GRAD_TOL = 1e-9
MULTISTART_BACKTRACKS = 30
MULTISTART_GRID_LEVEL = 6
LIFT_CAP_BYTES = 1 << 28   # one array of the even-p lift; larger raises CapExceededError


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
    """Start count, iteration budget and seed of the p != 2 multistart.

    A start stops once its tangent gradient is at most
    ``MULTISTART_GRAD_TOL`` or no step within ``MULTISTART_BACKTRACKS``
    halvings improves it.  At odd and non-integer p the quadrature grid for
    the continuous norm holds ``max(ceil(p) * maxfreq + 1,
    2**MULTISTART_GRID_LEVEL)`` points per dimension; even p needs no grid
    (the lifted norm is exact).
    """

    starts: int = 64
    max_iters: int = 500
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
    outer_min_ratio: float | None = None   # rigorous bounds, even p > 2 only
    outer_max_ratio: float | None = None


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
    import scipy.linalg  # only here, so importing the package skips scipy
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
    """|u|^p columnwise without complex abs."""
    a2 = u.real * u.real + u.imag * u.imag
    return a2 ** (p / 2.0)


def _dual_power(u, p):
    """|u|^(p-2) * u with the removable singularity at u = 0 set to 0."""
    a2 = u.real * u.real + u.imag * u.imag
    if p > 2:
        return a2 ** ((p - 2.0) / 2.0) * u
    with np.errstate(divide="ignore", invalid="ignore"):
        w = np.where(a2 > 0.0, a2 ** ((p - 2.0) / 2.0), 0.0)
    return w * u


def _ratio_only(v_emp, v_cont, c, p):
    return (np.mean(_abs_pow(v_emp @ c, p), axis=0)
            / np.mean(_abs_pow(v_cont @ c, p), axis=0))


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


def _even_half(p):
    """r with p = 2r for an even integer p > 2, else None."""
    if p > 2 and float(p).is_integer() and int(p) % 2 == 0:
        return int(p) // 2
    return None


def _sum_map(left, right):
    """The distinct row sums of two frequency arrays, in lexicographic order,
    and the (len(left), len(right)) map of each pair to the row of its sum."""
    sums = (left[:, None, :] + right[None, :, :]).reshape(-1, left.shape[1])
    rows, at = np.unique(sums, axis=0, return_inverse=True)
    return rows, at.reshape(len(left), len(right))


def _check_lift_bytes(predicted):
    """Refuse a lifted-Gram array of more than ``LIFT_CAP_BYTES`` bytes."""
    if predicted > LIFT_CAP_BYTES:
        raise CapExceededError(
            f"the lifted Gram needs a {predicted}-byte array, above the cap "
            f"{LIFT_CAP_BYTES}", predicted=predicted, cap=LIFT_CAP_BYTES)


class _LiftedRatio:
    """The p = 2r ratio of a subspace in the coefficients of f^r.

    A span element ``f = sum_k a_k e^{i<k,x>}`` with ``a = B c`` (B the
    subset's union coefficient matrix) has ``|f|^p = |f^r|^2``, and
    ``f^r = sum_s g_s e^{i<s,x>}`` over the merged r-fold sumset S of the
    union frequencies.  Distinct exponentials are orthonormal, so
    ``||f||_p^p = ||g||^2`` exactly and ``(1/m) sum_j |f(xi_j)|^p`` is
    ``g^H G g`` with ``G = E^H E / m``, E the exponentials of S at the
    nodes.  A ratio costs O(L^2) per column for L = len(S), and the eigen
    extremes of G bound every ratio of the subspace.
    """

    def __init__(self, freqs, coeffs, points, r):
        self.coeffs, self.r = coeffs, r
        self.steps = []   # degrees 2..r: the pair map and its 0/1 scatter matrix
        level = freqs
        for _ in range(r - 1):
            _check_lift_bytes(8 * len(level) * freqs.size)   # the int64 pair sums
            level, at = _sum_map(level, freqs)
            _check_lift_bytes(8 * len(level) * at.size)      # the float64 scatter
            scatter = np.zeros((len(level), at.size))
            scatter[at.ravel(), np.arange(at.size)] = 1.0
            self.steps.append((at, scatter))
        e = np.exp(1j * _phases(points, level.T.astype(float)))
        gram = e.conj().T @ e / len(points)
        self.gram = 0.5 * (gram + gram.conj().T)
        # rounding allowance of the outer window, see outer_window
        phase = points.shape[1] * float(np.abs(points).max(initial=0.0)) \
            * float(np.abs(level).sum(axis=1).max())
        size = len(level)
        self.margin = np.finfo(float).eps * size * (
            2.0 * phase + len(points) + 8.0 + 4.0 * size * size)

    def _lift(self, c):
        """Coefficients of f^(r-1) and of f^r, one column per column of c."""
        a = self.coeffs @ c
        prev = h = a
        for _, scatter in self.steps:
            prev = h
            h = scatter @ (prev[:, None, :] * a[None, :, :]).reshape(-1, a.shape[1])
        return prev, h

    def _quotient(self, g):
        """The Rayleigh quotients g^H G g / ||g||^2, G g and ||g||^2."""
        gg = self.gram @ g
        den = np.sum(g.real * g.real + g.imag * g.imag, axis=0)
        return np.sum(g.conj() * gg, axis=0).real / den, gg, den

    def ratio(self, c):
        return self._quotient(self._lift(c)[1])[0]

    def ratio_grad(self, c):
        h, g = self._lift(c)
        rho, gg, den = self._quotient(g)
        # d g_s / d a_l = r h_t for the sumset row s = row t + k_l
        y = (gg - rho * g)[self.steps[-1][0]]
        back = self.r * np.sum(h.conj()[:, None, :] * y, axis=0)
        return rho, self.coeffs.conj().T @ back / den

    def outer_window(self):
        """Rigorous bounds on every ratio of the subspace.

        The eigen extremes of G, widened by ``margin`` = eps * L *
        (2 P + m + 8 + 4 L^2), with P = d * max|x| * max_s ||s||_1 bounding
        the phases: each exponential is off by at most eps * (P + 2), each
        entry of G by twice that plus m * eps from its sum, the spectral
        norm of that error by L times the entry bound, and the eigensolver
        by 4 L^2 eps (||G|| <= L since |G_st| <= 1).
        """
        w = np.linalg.eigvalsh(self.gram)
        return float(w[0] - self.margin), float(w[-1] + self.margin)


def _multistart_extreme(ratio, ratio_grad, warm, sign, seed_key, opts):
    """Projected-gradient ascent (sign=+1) or descent (sign=-1) on the sphere.

    ``ratio(c)`` and ``ratio_grad(c)`` evaluate the ratio of each column
    of c, and the ratio with its conjugate Wirtinger gradient; ``warm``
    holds the vectors started from besides ``opts.starts`` random ones.
    Returns the best ratio, its vector, and whether that vector stopped as
    stationary before the iteration limit, whatever the other starts do.
    """
    v, starts = warm[0].shape[0], opts.starts
    rng = np.random.default_rng(list(seed_key))
    c0 = rng.standard_normal((v, starts)) + 1j * rng.standard_normal((v, starts))
    c0 = np.concatenate([c0] + [w.reshape(-1, 1) for w in warm], axis=1)
    c = _normalize_columns(c0.astype(complex))
    n_cols = c.shape[1]
    rho = ratio(c)
    active = np.ones(n_cols, dtype=bool)
    alpha_mem = np.ones(n_cols)  # per-column step memory across iterations
    for _ in range(opts.max_iters):
        if not active.any():
            break
        _, grad = ratio_grad(c)
        inner = np.sum(np.conj(c) * grad, axis=0)
        tang = grad - c * inner
        tnorm = np.linalg.norm(tang, axis=0)
        done = active & (tnorm <= MULTISTART_GRAD_TOL)
        active &= ~done
        if not active.any():
            break
        idx = np.where(active)[0]
        sub_c = c[:, idx]
        sub_t = tang[:, idx]
        sub_r = rho[idx]
        alpha = np.minimum(alpha_mem[idx] * 2.0, 1e3)
        accepted = np.zeros(len(idx), dtype=bool)
        for _ in range(MULTISTART_BACKTRACKS):
            todo = ~accepted
            cand = _normalize_columns(sub_c[:, todo] + sign * alpha[todo] * sub_t[:, todo])
            rho_c = ratio(cand)
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
    best = int(np.argmax(sign * rho))
    return float(rho[best]), c[:, best], not active[best]


def _method(p, opts: RatioOptions) -> dict:
    """How the ratios are bounded: exact eigenvalues at p = 2, else multistart."""
    if p == 2:
        return {"kind": "eigen_exact"}
    return {"kind": "multistart", "starts": opts.starts,
            "grad_tol": MULTISTART_GRAD_TOL, "max_iters": opts.max_iters}


def _subset_ratios(values, points, subset, dictionary: Dictionary, p: float,
                   opts: RatioOptions, seed_key, grids) -> SubspaceRatios:
    """Ratio extremes over one subspace, given its (m, v) values at the nodes.

    ``grids`` caches the dictionary's values on each quadrature grid size
    used at odd or non-integer p, so one certificate evaluates each once.
    """
    m = values.shape[0]
    g_emp = values.conj().T @ values / m
    g_cont = _continuous_gram_checked(dictionary, subset)
    lo2, hi2, vec_lo, vec_hi = _pencil_extremes(g_emp, g_cont)
    if p == 2:
        return SubspaceRatios(lo2, hi2, _method(p, opts), False, True,
                              vec_lo, vec_hi)

    r = _even_half(p)
    outer = (None, None)
    freqs, coeffs = dictionary._block(subset)
    if r is not None:
        lifted = _LiftedRatio(freqs, coeffs, points, r)
        ratio, ratio_grad = lifted.ratio, lifted.ratio_grad
        outer = lifted.outer_window()
    else:
        max_freq = int(np.abs(freqs).max(initial=0))
        n_grid = _quadrature_grid_size(max_freq, MULTISTART_GRID_LEVEL, math.ceil(p), 1)
        if n_grid not in grids:
            grids[n_grid] = dictionary.values_at(
                tensor_grid_points(n_grid, dictionary.dimension))
        v_cont = grids[n_grid][:, subset]
        ratio = functools.partial(_ratio_only, values, v_cont, p=p)
        ratio_grad = functools.partial(_ratio_grad, values, v_cont, p=p)
    warm = [vec_lo, vec_hi]
    hi, vec_hi_p, conv_hi = _multistart_extreme(
        ratio, ratio_grad, warm, +1.0, seed_key + [1], opts)
    lo, vec_lo_p, conv_lo = _multistart_extreme(
        ratio, ratio_grad, warm, -1.0, seed_key + [2], opts)
    return SubspaceRatios(lo, hi, _method(p, opts), True, conv_hi and conv_lo,
                          vec_lo_p, vec_hi_p, *outer)


def subspace_ratio_bounds(subset, dictionary: Dictionary, xi: PointSet,
                          p: float, opts: RatioOptions | None = None,
                          seed_key=None) -> SubspaceRatios:
    """Extreme discrete-to-continuous p-th power ratios over one subspace.

    Exact (eigenvalue) at p = 2; multistart projected gradient otherwise,
    warm-started from the p = 2 extremal coefficient vectors and flagged
    heuristic.  At even p > 2 the result also carries the rigorous outer
    window ``outer_min_ratio``/``outer_max_ratio`` of the lifted Gram.
    """
    _check_exponent(p)
    opts = opts or RatioOptions()
    subset = tuple(dictionary._checked_indices(subset))
    key = list(seed_key) if seed_key is not None else [opts.seed, 0]
    return _subset_ratios(dictionary.values_at(xi)[:, subset], xi.points, subset,
                          dictionary, p, opts, key, {})


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
    # even p > 2 only: rigorous per-subset bounds enclosing the ratio
    # windows, and whether every one lies inside the window
    outer_min_ratios: list | None = None
    outer_max_ratios: list | None = None
    rigorous_pass: bool | None = None

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
        obj = {
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
        if self.outer_min_ratios is not None:
            obj["outer_min_ratios"] = [float(v) for v in self.outer_min_ratios]
            obj["outer_max_ratios"] = [float(v) for v in self.outer_max_ratios]
            obj["rigorous_pass"] = bool(self.rigorous_pass)
        return obj

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
            notes=list(obj.get("notes", [])),
            outer_min_ratios=obj.get("outer_min_ratios"),
            outer_max_ratios=obj.get("outer_max_ratios"),
            rigorous_pass=obj.get("rigorous_pass"))


def _one_sided_constant(min_ratios, p: float) -> float:
    """``max_J min_ratio(J)^(-1/p)``, infinite when a minimum is not positive."""
    worst_min = min(min_ratios)
    return math.inf if worst_min <= 0.0 else worst_min ** (-1.0 / p)


def check_usd(xi: PointSet, coll: SubspaceCollection, p: float,
              opts: RatioOptions | None = None, epsilon: float = 0.5,
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
    if count > DEFAULT_SUBSET_CAP:
        raise CapExceededError(
            f"collection holds {count} subspaces, above the cap {DEFAULT_SUBSET_CAP}",
            predicted=count, cap=DEFAULT_SUBSET_CAP)
    prefix = list(_seed_prefix) if _seed_prefix is not None else [opts.seed]
    values = coll.dictionary.values_at(xi)
    subsets, mins, maxs, outer_mins, outer_maxs = [], [], [], [], []
    converged = True
    grids = {}
    for i, subset in enumerate(coll.iter_subsets()):
        res = _subset_ratios(values[:, subset], xi.points, subset, coll.dictionary,
                             p, opts, prefix + [i], grids)
        subsets.append(subset)
        mins.append(res.min_ratio)
        maxs.append(res.max_ratio)
        outer_mins.append(res.outer_min_ratio)
        outer_maxs.append(res.outer_max_ratio)
        converged = converged and res.converged
    lo, hi = 1.0 - epsilon, 1.0 + epsilon
    passed = all(lo <= a and b <= hi for a, b in zip(mins, maxs))
    one_sided = _one_sided_constant(mins, p)
    notes = [] if converged else ["some sphere optimizations hit the iteration limit"]
    cert = UsdCertificate(p, epsilon, subsets, mins, maxs, _method(p, opts),
                          p != 2, passed, one_sided, converged, notes)
    if _even_half(p) is not None:
        cert.outer_min_ratios, cert.outer_max_ratios = outer_mins, outer_maxs
        cert.rigorous_pass = all(lo <= a and b <= hi
                                 for a, b in zip(outer_mins, outer_maxs))
    return cert


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
                    epsilon: float = 0.5) -> UsdSearchResult:
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
        cert = check_usd(xi, coll, p, opts, epsilon, _seed_prefix=[opts.seed, draw])
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
    if m < 1:
        raise ValueError(f"need at least one sample point, got m = {m}")
    if not functions:
        raise ValueError("need at least one function")
    d = functions[0].dimension
    karr, coeff = _union_coefficients(functions, d)
    halves = _half_spectrum(karr)
    cont = np.array([lp_norm(f, p, grid_level) ** p for f in functions])
    base = (list(int(s) for s in rng_seed)
            if isinstance(rng_seed, (list, tuple)) else [int(rng_seed)])
    errs = np.empty(mc_trials)
    for t in range(mc_trials):
        rng = np.random.default_rng(base + [t])
        x = rng.uniform(0.0, 2.0 * np.pi, size=(m, d))
        # kept bound until the next trial rebinds it: the inlined form
        # measured about 25 % slower at m = 4096 (memory is reused differently)
        vals = _values_on(x, karr, coeff, halves)
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
