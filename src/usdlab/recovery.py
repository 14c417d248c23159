"""Sparse approximation and sampling recovery in weighted discrete Lp norms.

All solvers act on a common instance shape: a value matrix of dictionary
elements at a finite node list, target values, node weights summing to one,
and an exponent p.  The plain sampled norm uses uniform weights 1/m; the
half-continuous norm used in recovery bounds mixes a dense quadrature grid
(weight 1/2) with the sample nodes (weight 1/2).

Solvers: the Lp projection onto a few columns, the weak Chebyshev greedy
algorithm (near-maximal norming-functional selection plus full
re-projection), the best-v-term oracle, and the block greedy method that
keeps a full low-level partial sum and thresholds each higher dyadic level
to a scheduled term count.

The projection is one weighted least-squares solve at p = 2.  At p > 2 it
takes Newton steps on ``F(c) = sum_i w_i |r_i|^p``, which is twice
differentiable there; at 1 < p < 2, where ``|u|^p`` is not twice
differentiable at 0, it takes damped IRLS steps (one weighted
least-squares solve each).  The Newton system is the 2v x 2v complex
Hessian of the Wirtinger calculus, positive semidefinite and singular
where residuals vanish; its minimum-norm solution comes from one ``eigh``,
a LAPACK routine the p = 2 pencils already load, so no new code is paged
in.  On the recover benchmark's p = 4 projections Newton stops after 3.7
steps on average, where IRLS took 10.5.

The oracle is an exact pruned search over all C(N, v) subsets.  A subset's
weighted least-squares residual r2 is w-orthogonal to its columns, so by
Hoelder's inequality (1/p + 1/p' = 1) every residual from that subset has
norm at least ``||r2||_{2,w}^2 / ||r2||_{p',w}``.  Subsets are projected in
order of this bound until it exceeds the best residual found; the result is
the one projecting every subset gives, ties going to the lexicographically
first subset.  The bounds come from one thin QR of the scaled instance, so
each subset's SVD runs on at most N rows instead of m; a subset too close to
lstsq's rank threshold for the reduced SVD to decide takes its full column
SVD, so rank errors name the same subset.  Only the bounds' validity, not
their values, reaches the result.

Instances must hold finite values and finite non-negative weights, and a
subset's indices must lie in [0, N); anything else raises ``ValueError``.

Best-term errors are always reported for the concrete node set at hand;
the supremum of those errors over all possible node sets is not a
computable quantity and is deliberately out of scope.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .dictionary import Dictionary
from .discretization import UsdCertificate, _one_sided_constant
from .errors import CapExceededError, RankDeficiencyError, ZeroResidualError
from .frequencies import frequency_levels
from .points import PointSet, _integer_argument, tensor_grid_points
from .trigpoly import (DEFAULT_GRID_LEVEL, TrigPolynomial, _quadrature_grid_size,
                       lp_norm)

ORACLE_SUBSET_CAP = 10**6
IRLS_WEIGHT_FLOOR = 1e-12
IRLS_REL_TOL = 1e-10
IRLS_MAX_ITERS = 200
_BOUND_CHUNK_VALUES = 1 << 18


@dataclass
class DiscreteInstance:
    """Dictionary values, target values, and node weights for one problem."""

    dict_values: np.ndarray
    f_values: np.ndarray
    weights: np.ndarray
    p: float

    def __post_init__(self):
        self.dict_values = np.asarray(self.dict_values, dtype=complex)
        self.f_values = np.asarray(self.f_values, dtype=complex)
        self.weights = np.asarray(self.weights, dtype=float)
        if self.dict_values.ndim != 2:
            raise ValueError("dict_values must be a (nodes, elements) matrix")
        n = self.dict_values.shape[0]
        if self.f_values.shape != (n,) or self.weights.shape != (n,):
            raise ValueError("value and weight lengths must match the node count")
        for name in ("dict_values", "f_values"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} must be finite")
        if not (np.isfinite(self.weights).all() and (self.weights >= 0).all()):
            raise ValueError("weights must be finite and non-negative")
        if not (math.isfinite(self.p) and self.p > 1):
            raise ValueError(
                f"p must be finite and > 1 for the projection machinery, got {self.p}")

    @property
    def n_elements(self) -> int:
        return self.dict_values.shape[1]

    def norm(self, values) -> float:
        return float((self.weights @ np.abs(values) ** self.p) ** (1.0 / self.p))

    @classmethod
    def from_function(cls, f: TrigPolynomial, dictionary: Dictionary,
                      xi: PointSet, p: float) -> "DiscreteInstance":
        m = xi.size
        return cls(dictionary.values_at(xi), f.evaluate(xi),
                   np.full(m, 1.0 / m), p)

    @classmethod
    def blended(cls, f: TrigPolynomial, dictionary: Dictionary, xi: PointSet,
                p: float, grid_level: int = DEFAULT_GRID_LEVEL) -> "DiscreteInstance":
        """Nodes = dense grid (weight 1/2) plus the samples (weight 1/2)."""
        max_freq = max(f.max_component_frequency(),
                       dictionary.max_component_frequency())
        grid = tensor_grid_points(_quadrature_grid_size(max_freq, grid_level, 2, 1),
                                  dictionary.dimension)
        a = np.concatenate([dictionary.values_at(grid),
                            dictionary.values_at(xi)], axis=0)
        b = np.concatenate([f.evaluate(grid), f.evaluate(xi)])
        w = np.concatenate([np.full(grid.shape[0], 0.5 / grid.shape[0]),
                            np.full(xi.size, 0.5 / xi.size)])
        return cls(a, b, w, p)


@dataclass
class ProjectionResult:
    coefficients: np.ndarray
    residual: np.ndarray
    residual_norm: float
    converged: bool
    iterations: int


def _weighted_lstsq(a, b, w):
    sw = np.sqrt(w)
    sol, _, rank, _ = np.linalg.lstsq(sw[:, None] * a, sw * b, rcond=None)
    return sol, rank


def chebyshev_projection(inst: DiscreteInstance, subset, init=None,
                         max_iters: int = IRLS_MAX_ITERS) -> ProjectionResult:
    """Best approximation from the selected columns in the instance norm.

    p = 2 solves the weighted normal equations directly, which also gives
    the rank check and the cold start of the other p.  From there (or from
    ``init``; at p > 2 from whichever of the two has the smaller residual),
    each step takes a direction: at p > 2 the minimum-norm Newton step of
    ``_newton_direction``, at p < 2 the iteratively reweighted
    least-squares step.  The step is halved until the residual norm does
    not grow, and the loop stops when successive residual norms change by
    at most ``IRLS_REL_TOL`` relatively, or after ``max_iters`` steps.

    At p > 2 the residual follows each step as ``r - A (c_new - c)``, so
    the norms being compared differ by the step alone, not by the rounding
    of ``b - A c``, which near an exact fit is larger than the step's gain;
    the returned residual differs from ``b - A c`` by the rounding of those
    updates only.  The start choice matters for exact fits: F is
    homogeneous of degree p about a zero residual, where Newton gains only
    the factor ``1 - 1/(p-1)`` per step, while the least-squares start
    already fits.
    """
    subset = tuple(_integer_argument("subset index", i) for i in subset)
    max_iters = _integer_argument("max_iters", max_iters, 0)
    for i in subset:
        if not 0 <= i < inst.n_elements:
            raise ValueError(f"subset index {i} is outside [0, {inst.n_elements})")
    b = inst.f_values
    if not subset:
        return ProjectionResult(np.zeros(0, dtype=complex), b.copy(),
                                inst.norm(b), True, 0)
    a = inst.dict_values[:, subset]
    coeffs, rank = _weighted_lstsq(a, b, inst.weights)
    if rank < len(subset):
        raise _rank_deficiency(subset)
    if inst.p == 2:
        r = b - a @ coeffs
        return ProjectionResult(coeffs, r, inst.norm(r), True, 1)

    c = coeffs if init is None else np.asarray(init, dtype=complex)
    r = b - a @ c
    phi = inst.norm(r)
    if inst.p > 2 and init is not None:
        r_fit = b - a @ coeffs
        phi_fit = inst.norm(r_fit)
        if phi_fit < phi:
            c, r, phi = coeffs, r_fit, phi_fit
    converged = False
    iterations = 0
    for iterations in range(1, max_iters + 1):
        if phi == 0.0:
            converged = True
            break
        if inst.p > 2:
            direction = _newton_direction(a, r, inst.weights, inst.p, phi)
        else:
            omega = np.maximum(np.abs(r), IRLS_WEIGHT_FLOOR) ** (inst.p - 2.0)
            direction = _weighted_lstsq(a, b, inst.weights * omega)[0] - c
        step = 1.0
        cand, phi_cand = c, phi
        improved = False
        for _ in range(50):
            trial = c + step * direction
            r_trial = b - a @ trial if inst.p < 2 else r - a @ (trial - c)
            phi_trial = inst.norm(r_trial)
            if phi_trial <= phi * (1.0 + 1e-15):
                cand, r, phi_cand = trial, r_trial, phi_trial
                improved = True
                break
            step *= 0.5
        if not improved:
            converged = True  # stationary within floating precision
            break
        change = (phi - phi_cand) / max(phi, 1e-300)
        c, phi = cand, phi_cand
        if change <= IRLS_REL_TOL:
            converged = True
            break
    return ProjectionResult(c, r, phi, converged, iterations)


def _newton_direction(a, r, weights, p, phi):
    """Minimum-norm Newton step d for ``F(c) = sum_i w_i |r_i|^p`` at p > 2.

    With ``r = b - A c`` and ``s = w |r|^(p-2)``, the Wirtinger gradient is
    ``g = -(p/2) A^H (s r)`` and the Hessian blocks are ``H = (p^2/4) A^H
    diag(s) A`` and ``K = (p/2)(p/2 - 1) A^H diag(s r^2 / |r|^2) conj(A)``;
    the step solves ``[[H, K], [conj K, conj H]] [d; conj d] = -[g; conj
    g]``.  All three come from one stacked product, divided by ``(p^2/4)
    phi^(p-2)`` (the step is unchanged, and s stays bounded by w^(2/p)).
    The system is Hermitian and positive semidefinite, singular where
    residuals vanish, so it is solved by an eigendecomposition, dropping
    eigenvalues at or below ``2v eps lambda_max`` (lstsq's default cutoff).
    """
    mod = np.abs(r)
    s = weights * (mod / phi) ** (p - 2.0)
    unit = np.divide(r, mod, out=np.zeros_like(r), where=mod > 0)
    v = a.shape[1]
    prod = (a.conj().T * s) @ np.concatenate(
        [a, ((1.0 - 2.0 / p) * unit * unit)[:, None] * a.conj(), (2.0 / p) * r[:, None]],
        axis=1)                                                # [H, K, -g]
    system = np.empty((2 * v, 2 * v), dtype=complex)
    system[:v, :v] = prod[:, :v]
    system[:v, v:] = prod[:, v:-1]
    system[v:, :v] = prod[:, v:-1].conj()
    system[v:, v:] = prod[:, :v].conj()
    rhs = np.concatenate([prod[:, -1], prod[:, -1].conj()])
    lam, u = np.linalg.eigh(system)
    keep = lam > 2 * v * np.finfo(float).eps * lam[-1]
    return u[:v, keep] @ ((u[:, keep].conj().T @ rhs) / lam[keep])


def _dual_vector(residual, p, weights):
    a = np.abs(residual)
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.where(a > 0.0, a ** (p - 2.0), 0.0)
    return weights * scale * np.conj(residual)


def norming_functional_action(residual, g, p: float, weights=None) -> complex:
    """Action of the residual's norming functional on one value vector.

    ``F(g) = ||r||^(1-p) sum_i w_i |r_i|^(p-1) sign*(r_i) g_i`` with
    ``sign*(z) = conj(z)/|z|`` (0 at z = 0), so F(r) equals ||r|| and
    |F(g)| <= ||g|| by Hoelder.  Uniform weights 1/m by default.
    """
    residual = np.asarray(residual, dtype=complex)
    g = np.asarray(g, dtype=complex)
    if weights is None:
        weights = np.full(residual.size, 1.0 / residual.size)
    norm = float((weights @ np.abs(residual) ** p) ** (1.0 / p))
    if norm == 0.0:
        raise ZeroResidualError("norming functional of a zero residual")
    return complex(norm ** (1.0 - p) * (_dual_vector(residual, p, weights) @ g))


_NON_FINITE = ("inf", "-inf", "nan")   # jsonio's text for non-finite floats


@dataclass
class SparseApproximant:
    """Support, coefficients, and the per-iteration trace of a sparse fit."""

    support: tuple
    coefficients: np.ndarray
    residual_norm: float
    trace: list = field(default_factory=list)
    converged: bool = True
    method: str = ""

    def to_json(self):
        return {
            "method": self.method,
            "support": list(self.support),
            "coefficients": [[float(c.real), float(c.imag)]
                             for c in np.asarray(self.coefficients)],
            "residual_norm": float(self.residual_norm),
            "converged": bool(self.converged),
            "trace": self.trace,
        }

    @classmethod
    def from_json(cls, obj):
        """Inverse of ``to_json``, also after ``jsonio`` text, which writes
        non-finite floats as the strings "inf", "-inf" and "nan"; those
        strings are read back as floats, trace values included."""
        return cls(support=tuple(obj["support"]),
                   coefficients=np.array([complex(float(re), float(im))
                                          for re, im in obj["coefficients"]],
                                         dtype=complex),
                   residual_norm=float(obj["residual_norm"]),
                   trace=[{key: float(v) if v in _NON_FINITE else v
                           for key, v in step.items()} for step in obj["trace"]],
                   converged=obj["converged"], method=obj["method"])


def weak_chebyshev_greedy(inst: DiscreteInstance, max_iter: int = 100,
                          stop_tol: float = 1e-12) -> SparseApproximant:
    """Greedy selection by norming-functional action with full re-projection.

    Each iteration scores every unselected element by |F(g_i)| for the
    current residual's norming functional, takes the exact maximizer (the
    weakness parameter t = 1; ties go to the lowest index), and re-projects
    onto everything selected so far.
    """
    max_iter = _integer_argument("max_iter", max_iter, 0)
    if not (math.isfinite(stop_tol) and stop_tol >= 0):
        raise ValueError(f"stop_tol must be finite and non-negative, got {stop_tol}")
    b = inst.f_values
    weights = inst.weights
    support: list = []
    coeffs = np.zeros(0, dtype=complex)
    residual = b.copy()
    res_norm = inst.norm(residual)
    trace = []
    for it in range(1, max_iter + 1):
        if res_norm <= stop_tol:
            break
        scores = np.abs(res_norm ** (1.0 - inst.p)
                        * (_dual_vector(residual, inst.p, weights) @ inst.dict_values))
        if support:
            scores[np.asarray(support)] = -1.0
        pick = int(np.argmax(scores))
        if scores[pick] <= 1e-15 * max(1.0, res_norm):
            break  # residual is orthogonal to the remaining dictionary
        support.append(pick)
        init = np.append(coeffs, 0.0) if inst.p != 2 else None
        proj = chebyshev_projection(inst, support, init=init)
        coeffs = proj.coefficients
        residual = proj.residual
        res_norm = proj.residual_norm
        trace.append({"iteration": it, "index": pick,
                      "functional": float(scores[pick]),
                      "residual_norm": float(res_norm)})
    return SparseApproximant(tuple(support), coeffs, res_norm, trace,
                             converged=res_norm <= stop_tol,
                             method="wcga(t=1.0)")


def wcga_iteration_budget(v: int, one_sided_constant: float,
                          riesz_constant: float) -> float:
    """Reference iteration count ``V^2 ln(V v) * v`` with V = D sqrt(K).

    The absolute constant in front is unknown; the value is logged for
    comparison against empirically sufficient iteration counts, never
    asserted.
    """
    big_v = one_sided_constant * math.sqrt(riesz_constant)
    return big_v ** 2 * math.log(max(big_v * v, 2.0)) * v


def _rank_deficiency(subset) -> RankDeficiencyError:
    return RankDeficiencyError(
        f"columns {tuple(subset)} are rank deficient at the given nodes")


def _subset_lower_bounds(inst: DiscreteInstance, subsets) -> np.ndarray:
    """Hoelder-duality lower bounds on every subset's best residual norm.

    For the weighted least-squares residual r2 of a subset S, which is
    w-orthogonal to the columns of A_S, every c satisfies
    ``||b - A_S c||_{p,w} >= <b - A_S c, r2>_w / ||r2||_{p',w}
    = ||r2||_{2,w}^2 / ||r2||_{p',w}`` with 1/p + 1/p' = 1 (0 when r2 = 0).
    Each bound is returned less a rounding slack, so it stays below the
    subset's projection residual.

    The scaled instance is factored once, ``sw A = Q R`` (thin Householder
    QR, k = min(m, N)), with ``y = Q^H (sw b)``.  Since ``(sw A)[:, S] =
    Q R[:, S]``, a subset's SVD ``R[:, S] = U s V^H`` runs on k rows instead
    of m, and its scaled residual is ``sw b - Q (U (U^H y))``, one matvec
    per subset, so every subset's bits are the same in any chunk of
    ``_BOUND_CHUNK_VALUES // (m v)`` subsets.

    Rank: ``RankDeficiencyError`` names the lexicographically first subset
    that fails the rank rule of ``np.linalg.lstsq``: fewer than v singular
    values of the scaled columns ``(sw A)[:, S]`` above ``tol = eps *
    max(m, v) * s_max``, so every subset fails when m < v.  Householder QR
    is backward stable (Higham 2002, Thm 19.4): ``Q R = sw A + E`` with
    ``||E[:, j]|| <= c m k u ||(sw A)[:, j]||`` for a small constant c that
    the theorem leaves unstated.  By Weyl's inequality, with both SVDs' own
    backward errors, each singular value of R[:, S] is within a constant
    times ``eps (m + v)(k + v) sqrt(v) s_max`` of the full column SVD's.
    The margin takes that constant as 8, which is empirical: over 3000
    random and near-deficient instances (m up to 300) the two differed by
    at most 0.062 of the margin, and the tests hold the rank decisions to
    the full column SVD's at the recover benchmark's shapes (m = 256 and
    its blended m = 1280, N = 12, v = 3).  A subset whose smallest reduced
    singular value is not above ``tol`` by that margin takes the full
    (m, v) column SVD, which decides its rank as before; a well-conditioned
    instance takes none.

    Slack: rounding moves a computed bound by a few ulps relative to it,
    which the oracle's relative 1e-9 covers, and by the leakage of the
    computed r2 into the span.  That leakage is the residual's error under
    the QR's and the SVDs' backward errors, a multiple of ``eps ||b|| s_max
    / s_min`` with again no stated constant; against the full column SVD
    path it measured below 3 of those units on the same instances.  The
    absolute slack ``1e-12 ||b|| s_max / s_min`` (about 4500 units) covers
    that with room, and the tests hold every bound below its projection
    residual at the same shapes.
    """
    m = inst.dict_values.shape[0]
    v = subsets.shape[1]
    sw = np.sqrt(inst.weights)
    scaled = sw[:, None] * inst.dict_values
    sb = sw * inst.f_values
    q_mat, r_mat = np.linalg.qr(scaled)                       # (m, k), (k, N)
    k = r_mat.shape[0]
    y = np.matmul(sb, q_mat.conj())
    q = inst.p / (inst.p - 1.0)
    b_norm = inst.norm(inst.f_values)
    eps = np.finfo(float).eps
    tol = eps * max(m, v)
    sure = tol + 8.0 * eps * (m + v) * (k + v) * math.sqrt(v)
    out = np.empty(subsets.shape[0])
    step = max(1, _BOUND_CHUNK_VALUES // (m * v))
    for lo in range(0, subsets.shape[0], step):
        chunk = subsets[lo:lo + step]
        u, s, _ = np.linalg.svd(np.moveaxis(r_mat[:, chunk], 0, 1),
                                full_matrices=False)          # (S, k, v)
        unsure = (np.arange(len(chunk)) if k < v
                  else np.flatnonzero(~(s[:, -1] > sure * s[:, 0])))
        if unsure.size:
            _, s_full, _ = np.linalg.svd(np.moveaxis(scaled[:, chunk[unsure]], 0, 1),
                                         full_matrices=False)  # (U, m, v)
            bad = unsure[(s_full > tol * s_full[:, :1]).sum(axis=1) < v]
            if bad.size:
                raise _rank_deficiency(chunk[bad[0]].tolist())
            s[unsure] = s_full
        coef = np.matmul(u, np.matmul(y, u.conj())[:, :, None])  # (S, k, 1)
        ars = np.abs(sb - np.matmul(q_mat, coef)[:, :, 0])
        r2 = np.divide(ars, sw, out=np.zeros(ars.shape), where=sw > 0)
        top = r2.max(axis=1)
        top[top == 0] = 1.0
        dual = top * ((inst.weights * (r2 / top[:, None]) ** q).sum(axis=1)) ** (1.0 / q)
        bound = np.divide((ars * ars).sum(axis=1), dual,
                          out=np.zeros(len(chunk)), where=dual > 0)
        out[lo:lo + step] = bound - 1e-12 * b_norm * (s[:, 0] / s[:, -1])
    return out


def best_v_term_oracle(inst: DiscreteInstance, v: int) -> SparseApproximant:
    """Best v-term approximation in the instance norm by exact pruned search.

    Every subset gets a Hoelder-duality lower bound on its residual norm
    from its weighted least-squares residual r2 (one batched pass, no
    IRLS): ``||r2||_{2,w}^2 / ||r2||_{p',w}``.  Subsets are projected in
    order of increasing bound, and the search stops at the first bound
    above the best residual found (with a rounding slack), since no later
    subset can then tie it.  The result is that of projecting every
    subset: the smallest residual, ties to the lexicographically first
    subset.  A rank-deficient subset raises ``RankDeficiencyError`` for
    the lexicographically first one, whether or not it could win.
    Refuses when the subset count C(N, v) exceeds ``ORACLE_SUBSET_CAP``.
    """
    n, v = inst.n_elements, _integer_argument("v", v)
    if v < 0 or v > n:
        raise ValueError("sparsity v must satisfy 0 <= v <= N")
    if v == 0:
        return SparseApproximant((), np.zeros(0, dtype=complex),
                                 inst.norm(inst.f_values), [], True,
                                 "exhaustive(v=0)")
    count = math.comb(n, v)
    if count > ORACLE_SUBSET_CAP:
        raise CapExceededError(
            f"exhaustive search over {count} subsets exceeds the cap {ORACLE_SUBSET_CAP}",
            predicted=count, cap=ORACLE_SUBSET_CAP)
    subsets = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(n), v)),
        dtype=np.intp, count=count * v).reshape(count, v)
    bounds = _subset_lower_bounds(inst, subsets)
    best, best_index = None, count
    # a stable sort keeps equal bounds in lexicographic order; the relative
    # 1e-9 dominates the bounds' relative rounding error (their absolute
    # slack is already subtracted), so no subset past the stop can tie
    for i in np.argsort(bounds, kind="stable"):
        if best is not None and bounds[i] > best.residual_norm * (1.0 + 1e-9):
            break
        res = chebyshev_projection(inst, subsets[i])
        if best is None or res.residual_norm < best.residual_norm or (
                res.residual_norm == best.residual_norm and i < best_index):
            best, best_index = res, i
    return SparseApproximant(tuple(subsets[best_index].tolist()),
                             best.coefficients, best.residual_norm, [],
                             best.converged, f"exhaustive(v={v})")


def best_v_term_error_blended(f: TrigPolynomial, dictionary: Dictionary,
                              xi: PointSet, v: int, p: float,
                              grid_level: int = DEFAULT_GRID_LEVEL) -> float:
    """Best v-term error in the half-continuous half-empirical norm."""
    inst = DiscreteInstance.blended(f, dictionary, xi, p, grid_level)
    return best_v_term_oracle(inst, v).residual_norm


def block_term_schedule(n: int, beta: float, d: int) -> list:
    """Pairs (level j, term count) from level n until the counts vanish.

    The count at level j is ``floor(2^{n - beta (j - n)} max(j,1)^{d-1})``.
    """
    if not (math.isfinite(beta) and beta > 0):
        raise ValueError(f"beta must be finite and positive, got {beta}")
    out = []
    j = n
    prev = math.inf
    while True:
        x = 2.0 ** (n - beta * (j - n)) * max(j, 1) ** (d - 1)
        count = int(math.floor(x))
        if count >= 1:
            out.append((j, count))
        elif x < 1.0 and x < prev:
            break  # geometric decay has won over the polynomial factor
        prev = x
        j += 1
    return out


@dataclass
class BlockGreedyResult:
    approximant: TrigPolynomial
    total_terms: int
    schedule: list
    level_cut: int
    beta: float
    sparsity_reference: float  # the 2^n n^(d-1) scale the schedule targets

    def to_json(self):
        return {
            "total_terms": int(self.total_terms),
            "level_cut": int(self.level_cut),
            "beta": float(self.beta),
            "schedule": [[int(j), int(v)] for j, v in self.schedule],
            "sparsity_reference": float(self.sparsity_reference),
            "approximant": self.approximant.to_json(),
        }


def block_greedy_approximant(f: TrigPolynomial, n: int,
                             beta: float) -> BlockGreedyResult:
    """Keep all levels below n, then threshold each level j >= n.

    Level j keeps its scheduled number of largest-modulus coefficients
    (ties to the lexicographically smaller frequency).  With per-level
    Wiener budgets this realizes the square-root gain of l1-budget greedy
    approximation while keeping the total term count of order
    ``2^n n^(d-1)``.  The dyadic decomposition is derived exactly from the
    coefficient support.
    """
    n = _integer_argument("n", n, 1)
    d = f.dimension
    freqs, coeffs = f.as_arrays()
    levels = frequency_levels(freqs)
    modulus = np.hypot(coeffs.real, coeffs.imag)  # bit-equal to abs(complex)
    kept = [(freqs[levels < n], coeffs[levels < n])]
    schedule = block_term_schedule(n, beta, d)
    for j, count in schedule:
        rows = np.flatnonzero(levels == j)
        if not rows.size:
            continue
        # rows are in lexicographic order, so a stable sort breaks ties by k
        top = rows[np.argsort(-modulus[rows], kind="stable")[:count]]
        kept.append((freqs[top], coeffs[top]))
    approx = TrigPolynomial.from_arrays(*map(np.concatenate, zip(*kept)), d)
    reference = 2.0 ** n * max(n, 1) ** (d - 1)
    return BlockGreedyResult(approx, len(approx.as_arrays()[1]), schedule, n, beta,
                             reference)


@dataclass
class RecoveryReport:
    """Everything measured in one sample-then-approximate run."""

    method: str
    sparsity: int
    discrete_residual: float
    continuous_error: float
    sigma_discrete: float | None
    sigma_blended: float | None
    one_sided_constant: float | None
    flags: list
    trace: list
    certificate: dict | None
    iteration_budget_reference: float | None = None

    def to_json(self):
        return {
            "method": self.method,
            "sparsity": int(self.sparsity),
            "discrete_residual": float(self.discrete_residual),
            "continuous_error": float(self.continuous_error),
            "sigma_discrete": None if self.sigma_discrete is None else float(self.sigma_discrete),
            "sigma_blended": None if self.sigma_blended is None else float(self.sigma_blended),
            "one_sided_constant": (None if self.one_sided_constant is None
                                   else float(self.one_sided_constant)),
            "iteration_budget_reference": (
                None if self.iteration_budget_reference is None
                else float(self.iteration_budget_reference)),
            "flags": list(self.flags),
            "trace": self.trace,
            "certificate": self.certificate,
        }


# the parameters each recovery_pipeline method takes
_PIPELINE_PARAMS = {"wcga": {"max_iter", "stop_tol"}, "oracle": set()}


def recovery_pipeline(f: TrigPolynomial, dictionary: Dictionary, xi: PointSet,
                      v: int, p: float, method=("oracle", {}),
                      grid_level: int = DEFAULT_GRID_LEVEL,
                      certificate: UsdCertificate | None = None,
                      compute_sigma_blended: bool = False) -> RecoveryReport:
    """Sample f at xi, approximate in the sampled norm, measure everything.

    Reports the discrete residual, the continuous Lp recovery error, the
    one-sided constant of the certificate (when given; a missing or
    heuristic certificate is flagged, not fatal), and the exact
    best-v-term errors in the sampled and half-continuous norms when the
    subset count is affordable.  A certificate whose rigorous outer window
    passes (even p > 2) is not flagged, and its constant is the rigorous
    ``max_J outer_min(J)^(-1/p)``.
    """
    kind, params = method
    if kind not in _PIPELINE_PARAMS:
        raise ValueError(f"unknown recovery method {kind!r}")
    unknown = sorted(set(params) - _PIPELINE_PARAMS[kind])
    if unknown:
        takes = ", ".join(sorted(_PIPELINE_PARAMS[kind])) or "none"
        raise ValueError(f"unknown {kind} parameter {unknown[0]!r} "
                         f"({kind} takes {takes})")
    inst = DiscreteInstance.from_function(f, dictionary, xi, p)
    if kind == "wcga":
        appr = weak_chebyshev_greedy(inst, max_iter=params.get("max_iter", max(v, 1)),
                                     stop_tol=params.get("stop_tol", 1e-12))
    else:
        appr = best_v_term_oracle(inst, v)
    approx_poly = dictionary.combine(appr.coefficients, appr.support)
    continuous_error = lp_norm(f - approx_poly, p, grid_level)
    sigma_discrete = None
    if kind == "oracle":
        sigma_discrete = appr.residual_norm  # the oracle above is sigma_v itself
    elif math.comb(inst.n_elements, v) <= ORACLE_SUBSET_CAP:
        sigma_discrete = best_v_term_oracle(inst, v).residual_norm
    sigma_blended = None
    if compute_sigma_blended:
        sigma_blended = best_v_term_error_blended(f, dictionary, xi, v, p,
                                                  grid_level)
    flags = []
    one_sided = None
    cert_json = None
    budget_ref = None
    if certificate is None:
        flags.append("uncertified_points")
    else:
        cert_json = certificate.to_json()
        if certificate.rigorous_pass:
            one_sided = _one_sided_constant(certificate.outer_min_ratios,
                                            certificate.p)
        else:
            one_sided = certificate.one_sided_constant
            if certificate.heuristic:
                flags.append("heuristic_certificate")
        if not certificate.passed:
            flags.append("certificate_failed")
        if dictionary.riesz_constant is not None and v >= 1 \
                and math.isfinite(one_sided):
            budget_ref = wcga_iteration_budget(v, one_sided,
                                               dictionary.riesz_constant)
    return RecoveryReport(appr.method, len(appr.support), float(appr.residual_norm),
                          float(continuous_error), sigma_discrete,
                          sigma_blended, one_sided, flags, appr.trace, cert_json,
                          budget_ref)
