"""Empirical Lp ratios, universal-discretization search, and certification.

The central object is the ratio of the empirical p-th power mean
``(1/m) sum |f(xi_j)|^p`` to the continuous ``||f||_p^p`` over the unit
sphere of a subspace.  At p = 2 both sides are quadratic forms and the
extreme ratios are generalized eigenvalues of the pencil (empirical Gram,
continuous Gram), solved for a whole subset family at once (``pencils``).
For distinct unit monomials a subset's Gram is a gather of the node moments
``s_delta = (1/m) sum_x e^{i<delta,x>}``, so subsets that are translates of
each other share it and each translation class takes one eigensolve; the
ratios are exact up to a stated rounding, within ``(v - 1) (d P + 2 log2 m
+ 32) u + 4 v^2 u`` for u = 2^-53 and the largest phase P.  Other
dictionaries take Cholesky-reduced pencils of their node values, in chunks
of stacked Gram products and eigensolves.  For other p the sphere problem
is nonconvex and the extremes are estimated by multistart projected
gradient ascent/descent, every start of every subspace of one shape and
both directions in one stacked loop; those certificates are flagged
heuristic.

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

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .dictionary import Dictionary, SubspaceCollection
from .errors import CapExceededError, DimensionMismatchError
from .pencils import _adjoint, _moment_family, _pencil_family
from .points import PointSet, _integer_argument, tensor_grid_points
from .trigpoly import (DEFAULT_GRID_LEVEL, _check_exponent, _phases,
                       _quadrature_grid_size, _union_coefficients, _values_on,
                       lp_norm)

DEFAULT_SUBSET_CAP = 10**6
MULTISTART_GRAD_TOL = 1e-9
MULTISTART_BACKTRACKS = 30
MULTISTART_GRID_LEVEL = 6
LIFT_CAP_BYTES = 1 << 28   # one array of the even-p lift; larger raises CapExceededError
_MULTISTART_CHUNK_VALUES = 1 << 18   # complex values per array of one multistart evaluation
# step halvings tried per evaluation: a cheap lifted row prefers few calls,
# a quadrature row (m node values) few wasted candidates
_HALVING_BLOCKS = ((0, 2), (2, 6), (6, MULTISTART_BACKTRACKS))
_MOMENT_CHUNK_VALUES = 1 << 16   # complex node powers held per chunk of p = 2 gap-trial nodes


@dataclass(frozen=True)
class RatioOptions:
    """Start count, iteration budget and seed of the p != 2 multistart.

    ``starts`` and ``max_iters`` are integers >= 1 and ``seed`` is an
    integer >= 0, stored as int; anything else, a bool included, raises
    ``ValueError``.

    Each subspace and direction (ascent, descent) starts from ``starts``
    seeded random vectors and the subspace's two p = 2 extreme vectors.
    One stacked loop runs every start of every subspace of one shape in a
    certificate, both directions included.  A start stops once its tangent
    gradient is at most ``MULTISTART_GRAD_TOL`` or no step within
    ``MULTISTART_BACKTRACKS`` halvings improves it; the halvings are tried
    in blocks, one evaluation per block.  At odd and non-integer p the
    quadrature grid for the continuous norm holds ``max(ceil(p) * maxfreq
    + 1, 2**MULTISTART_GRID_LEVEL)`` points per dimension; even p needs no
    grid (the lifted norm is exact).
    """

    starts: int = 64
    max_iters: int = 500
    seed: int = 0

    def __post_init__(self):
        for name, least in (("starts", 1), ("max_iters", 1), ("seed", 0)):
            object.__setattr__(self, name, _integer_argument(name, getattr(self, name), least))


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


def _dot(a, b):
    """``sum_j conj(a_j) b_j`` along the last axis.

    ``einsum`` without ``optimize`` accumulates each output in order in its
    own loop, so a row's bits do not depend on the other rows of the call
    (a BLAS product's do), and on short axes it runs several times faster
    than a product and a reduction.
    """
    return np.einsum("...j,...j->...", a.conj(), b)


def _normalize_rows(c):
    """c scaled to unit norm along its last axis; a zero row stays zero."""
    norms = np.sqrt(_dot(c, c).real)[..., None]
    norms[norms == 0.0] = 1.0
    return c / norms


def _abs_pow(u, p):
    """|u|^p elementwise without complex abs."""
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


def _apply(stack, owner, c):
    """``stack[owner[k]] @ c[k]`` for every row k of c, as a gather and an
    ``einsum`` (see ``_dot``)."""
    return np.einsum("kij,kj->ki", stack[owner], c)


def _even_half(p):
    """r with p = 2r for an even integer p > 2, else None."""
    if p > 2 and float(p).is_integer() and int(p) % 2 == 0:
        return int(p) // 2
    return None


def _check_lift_bytes(predicted):
    """Refuse an array of the even-p lift of more than ``LIFT_CAP_BYTES`` bytes."""
    if predicted > LIFT_CAP_BYTES:
        raise CapExceededError(
            f"the lifted ratio needs a {predicted}-byte array, above the cap "
            f"{LIFT_CAP_BYTES}", predicted=predicted, cap=LIFT_CAP_BYTES)


def _lifted_shapes(freqs, r):
    """Split subsets with (S, F, d) union frequencies into groups of one
    lifted shape: the sizes of their merged j-fold sumsets, j = 2..r, and
    the maps of each (row of level j - 1, frequency) pair to the row of
    its sum in level j.  Returns (members, (S_g, L, d) r-fold sumsets in
    lexicographic order, pair maps) per group."""
    groups = [(np.arange(len(freqs)), freqs, [])]
    for _ in range(r - 1):
        split = []
        for members, level, maps in groups:
            n, width, d = level.shape
            _check_lift_bytes(8 * width * freqs[0].size)   # one subset's pair sums
            sums = (level[:, :, None, :] + freqs[members][:, None, :, :]).reshape(-1, d)
            member = np.repeat(np.arange(n), len(sums) // n)
            rows, at = np.unique(np.column_stack([member, sums]), axis=0,
                                 return_inverse=True)
            first = np.searchsorted(rows[:, 0], np.arange(n + 1))
            at = at.reshape(n, -1) - first[:n, None]
            keys, kind = np.unique(np.column_stack([np.diff(first), at]), axis=0,
                                   return_inverse=True)
            for j, key in enumerate(keys):
                sub = np.flatnonzero(kind.reshape(-1) == j)
                level_j = rows[first[sub][:, None] + np.arange(key[0]), 1:]
                split.append((members[sub], level_j, maps + [key[1:].reshape(width, -1)]))
        groups = split
    return groups


class _LiftedFamily:
    """The p = 2r ratios of a group of subspaces of one lifted shape, in the
    coefficients of f^r.

    A span element ``f = sum_k a_k e^{i<k,x>}`` with ``a = B c`` (B the
    subset's union coefficient block) has ``|f|^p = |f^r|^2``, and
    ``f^r = sum_s g_s e^{i<s,x>}`` over the merged r-fold sumset S of the
    union frequencies.  Distinct exponentials are orthonormal, so
    ``||f||_p^p = ||g||^2`` exactly and ``(1/m) sum_j |f(xi_j)|^p`` is
    ``g^H G g`` with ``G = E^H E / m``, E the exponentials of S at the
    nodes.  A ratio costs O(L^2) per row for L = len(S), and the eigen
    extremes of G bound every ratio of the subspace.  The group's blocks
    B and Grams G are stacked; row k of a call is evaluated in subspace
    ``owner[k]``, and each pair-sum scatter adds its pairs in a fixed order.
    """

    def __init__(self, coeffs, level, maps, points, r):
        self.coeffs, self.r = np.ascontiguousarray(coeffs), r
        self.coeffs_h = np.ascontiguousarray(_adjoint(coeffs))
        self.at = maps[-1]
        size = level.shape[1]
        self.rows = self.row_values(coeffs, size, maps)
        self.scatters = []   # per degree 2..r: pairs sorted by sum row, each row's first
        for at in maps:
            order = np.argsort(at.ravel(), kind="stable")
            self.scatters.append((order, np.flatnonzero(np.diff(at.ravel()[order],
                                                                prepend=-1))))
        kt = level.transpose(2, 0, 1)[:, :, None, :].astype(float)   # (d, S, 1, L)
        e = np.exp(1j * _phases(points, kt))
        gram = np.matmul(_adjoint(e), e) / len(points)
        self.gram = np.ascontiguousarray(0.5 * (gram + _adjoint(gram)))
        # rounding allowance of the outer window, see outer_windows
        phase = points.shape[1] * float(np.abs(points).max(initial=0.0)) \
            * np.abs(level).sum(axis=2).max(axis=1)
        self.margin = np.finfo(float).eps * size * (
            2.0 * phase + len(points) + 8.0 + 4.0 * size * size)

    @staticmethod
    def row_values(coeffs, size, maps):
        """The most values one row of an evaluation holds: its gathered
        block of B or Gram, or its pair products."""
        return max(coeffs[0].size, size * size, *(at.size for at in maps))

    def _lift(self, c, owner):
        """Coefficients of f^(r-1) and of f^r, one row per row of c."""
        a = _apply(self.coeffs, owner, c)
        prev = h = a
        for order, first in self.scatters:
            prev = h
            pairs = (prev[:, :, None] * a[:, None, :]).reshape(len(a), -1)
            h = np.add.reduceat(np.take(pairs, order, axis=1), first, axis=1)
        return prev, h

    def _quotient(self, g, owner):
        """The Rayleigh quotients g^H G g / ||g||^2, G g and ||g||^2."""
        gg = _apply(self.gram, owner, g)
        den = _dot(g, g).real
        return _dot(g, gg).real / den, gg, den

    def ratio(self, c, owner):
        return self._quotient(self._lift(c, owner)[1], owner)[0]

    def gradient(self, c, owner):
        """The conjugate Wirtinger gradient of each row's ratio."""
        h, g = self._lift(c, owner)
        rho, gg, den = self._quotient(g, owner)
        # d g_s / d a_l = r h_t for the sumset row s = row t + k_l
        y = np.take(gg - rho[:, None] * g, self.at.T, axis=1)
        back = self.r * _dot(h[:, None, :], y)
        return _apply(self.coeffs_h, owner, back) / den[:, None]

    def outer_windows(self):
        """Rigorous bounds on every ratio of each subspace.

        The eigen extremes of G, widened by ``margin`` = eps * L *
        (2 P + m + 8 + 4 L^2), with P = d * max|x| * max_s ||s||_1 bounding
        the phases: each exponential is off by at most eps * (P + 2), each
        entry of G by twice that plus m * eps from its sum, the spectral
        norm of that error by L times the entry bound, and the eigensolver
        by 4 L^2 eps (||G|| <= L since |G_st| <= 1).
        """
        w = np.linalg.eigvalsh(self.gram)
        return w[:, 0] - self.margin, w[:, -1] + self.margin


class _QuadratureFamily:
    """The p-th power ratios of a group of subspaces on one quadrature grid:
    ``mean_nodes |V_emp c|^p / mean_grid |V_cont c|^p``, with the (S, m, v)
    node values and (S, n, v) grid values of the (S, v) index array
    ``subsets`` stacked from the dictionary's (m, N) ``values`` and (n, N)
    ``grid`` values; row k of a call is evaluated in subspace ``owner[k]``.
    """

    def __init__(self, subsets, values, grid, p):
        self.p = p
        stacks = [a[:, subsets].transpose(1, 0, 2) for a in (values, grid)]
        self.stacks = [tuple(map(np.ascontiguousarray, (a, _adjoint(a)))) for a in stacks]
        self.rows = subsets.shape[1] * max(len(values), len(grid))

    def _values(self, c, owner):
        return [_apply(v, owner, c) for v, _ in self.stacks]

    def ratio(self, c, owner):
        u, g = self._values(c, owner)
        return (np.mean(_abs_pow(u, self.p), axis=1)
                / np.mean(_abs_pow(g, self.p), axis=1))

    def gradient(self, c, owner):
        """The conjugate Wirtinger gradient of each row's ratio."""
        p = self.p
        (num, gnum), (den, gden) = [
            (np.mean(_abs_pow(u, p), axis=1),
             (p / (2.0 * u.shape[1])) * _apply(v_h, owner, _dual_power(u, p)))
            for u, (_, v_h) in zip(self._values(c, owner), self.stacks)]
        return (gnum - gden * (num / den)[:, None]) / den[:, None]


def _families(dictionary: Dictionary, values, points, subsets, p, columns, grids):
    """The stacked ratio problems of the (S, v) index array ``subsets``.

    Subsets are grouped by shape: at even p by lifted shape, else by
    quadrature grid size ``max(ceil(p) * maxfreq + 1,
    2**MULTISTART_GRID_LEVEL)`` (``grids`` caches the dictionary's values
    on each grid size, so a certificate evaluates each once).  Each group
    is cut into chunks whose evaluation over ``columns`` rows per subset
    holds at most ``_MULTISTART_CHUNK_VALUES`` values per array, or one
    subset's.  Yields (member rows, family) per chunk.
    """
    r = _even_half(p)
    # (members, values held per subset, family class, stacks cut along the
    # members, fixed arguments)
    groups = []
    if r is not None:
        for members, freqs, coeffs in dictionary._blocks(subsets):
            for sub, level, maps in _lifted_shapes(freqs, r):
                size = level.shape[1]
                rows = _LiftedFamily.row_values(coeffs, size, maps)
                held = max(columns * rows, len(points) * size)   # evaluations, E
                _check_lift_bytes(16 * held)   # one subset's largest array
                groups.append((members[sub], held, _LiftedFamily,
                               (coeffs[sub], level), (maps, points, r)))
    else:
        mask = dictionary._union_mask(subsets)
        max_freq = np.where(mask, np.abs(dictionary.frequencies).max(axis=1), 0).max(axis=1)
        sizes, kind = np.unique([_quadrature_grid_size(int(k), MULTISTART_GRID_LEVEL,
                                                       math.ceil(p), 1) for k in max_freq],
                                return_inverse=True)
        for j, n_grid in enumerate(sizes.tolist()):
            if n_grid not in grids:
                grids[n_grid] = dictionary.values_at(
                    tensor_grid_points(n_grid, dictionary.dimension))
            members = np.flatnonzero(kind == j)
            held = columns * subsets.shape[1] * max(len(points), n_grid)
            groups.append((members, held, _QuadratureFamily, (subsets[members],),
                           (values, grids[n_grid], p)))
    for members, held, family, stacks, fixed in groups:
        step = max(1, _MULTISTART_CHUNK_VALUES // held)
        for lo in range(0, len(members), step):
            yield members[lo:lo + step], family(*(a[lo:lo + step] for a in stacks), *fixed)


def _evaluate(fn, c, owner, width):
    """``fn(c, owner)`` over slices of at most ``width`` rows."""
    if len(c) <= width:
        return fn(c, owner)
    return np.concatenate([fn(c[lo:lo + width], owner[lo:lo + width])
                           for lo in range(0, len(c), width)])


def _multistart_extreme(family, starts, opts):
    """Projected-gradient ascent and descent on the sphere, every subspace
    of ``family`` and both directions in one loop.

    ``starts`` holds the (S, 2, n, v) unit starting vectors: n for the
    ascent of subspace i, then n for its descent.  Each start is one row
    of the stacked problem.  An iteration takes the gradient of every
    moving row; a row whose tangent gradient is at most
    ``MULTISTART_GRAD_TOL`` stops.  The others try the steps
    ``alpha * 2^-k``, k < ``MULTISTART_BACKTRACKS``, alpha being twice the
    row's last accepted step (at most 1e3), with one evaluation per block
    of halvings in ``_HALVING_BLOCKS``; a row takes the largest step that
    strictly improves its ratio, and stops when none does.

    Returns the (S, 2) best ratio of each subspace and direction, its
    (S, 2, v) vector, whether every one of those vectors stopped as
    stationary before the iteration limit (whatever the other starts do),
    and the (S, 2) flag of each.
    """
    n_sub, _, n, v = starts.shape
    c = starts.reshape(-1, v).copy()
    owner = np.repeat(np.arange(n_sub), 2 * n)
    sign = np.tile(np.repeat([1.0, -1.0], n), n_sub)
    width = max(2 * n, _MULTISTART_CHUNK_VALUES // family.rows)
    rho = _evaluate(family.ratio, c, owner, width)
    active = np.ones(len(c), dtype=bool)
    alpha = np.ones(len(c))   # per-row step memory across iterations
    for _ in range(opts.max_iters):
        idx = np.flatnonzero(active)
        if not idx.size:
            break
        cur, own = c[idx], owner[idx]
        grad = family.gradient(cur, own)
        tang = grad - cur * _dot(cur, grad)[:, None]
        done = np.sqrt(_dot(tang, tang).real) <= MULTISTART_GRAD_TOL
        active[idx[done]] = False
        keep = ~done
        idx, cur, tang, own = idx[keep], cur[keep], tang[keep], own[keep]
        step = np.minimum(alpha[idx] * 2.0, 1e3)
        for lo, hi in _HALVING_BLOCKS:
            if not idx.size:
                break
            ks = np.arange(lo, hi)
            trial = np.ldexp(step[:, None], -ks) * sign[idx, None]   # exact halvings
            cand = _normalize_rows(cur[:, None, :] + trial[:, :, None] * tang[:, None, :])
            got = _evaluate(family.ratio, cand.reshape(-1, v),
                            np.repeat(own, len(ks)), width).reshape(len(idx), -1)
            toward = sign[idx, None]
            better = toward * got > toward * rho[idx, None]
            first = np.argmax(better, axis=1)
            hit = better[np.arange(len(idx)), first]
            take = idx[hit]
            c[take] = cand[hit, first[hit]]
            rho[take] = got[hit, first[hit]]
            alpha[take] = np.ldexp(step[hit], -ks[first[hit]])
            miss = ~hit
            idx, cur, tang, own, step = idx[miss], cur[miss], tang[miss], own[miss], step[miss]
        # a row that cannot improve within the backtracking budget sits at
        # a numerical stationary point; freeze it
        active[idx] = False
    best = np.argmax((sign * rho).reshape(2 * n_sub, n), axis=1) + n * np.arange(2 * n_sub)
    converged = ~active[best].reshape(n_sub, 2)
    return (rho[best].reshape(n_sub, 2), c[best].reshape(n_sub, 2, v),
            bool(converged.all()), converged)


def _method(p, opts: RatioOptions) -> dict:
    """How the ratios are bounded: exact eigenvalues at p = 2, else multistart."""
    if p == 2:
        return {"kind": "eigen_exact"}
    return {"kind": "multistart", "starts": opts.starts,
            "grad_tol": MULTISTART_GRAD_TOL, "max_iters": opts.max_iters}


def _starts(keys, warm, starts):
    """The (S, 2, starts + 2, v) unit starting vectors of each subset and
    direction: ``starts`` complex Gaussian draws from the seed
    ``key + [1]`` (ascent) or ``key + [2]`` (descent), then the subset's
    two (S, 2, v) warm vectors."""
    n_sub, _, v = warm.shape
    out = np.empty((n_sub, 2, starts + 2, v), dtype=complex)
    for i, key in enumerate(keys):
        for j in (0, 1):
            rng = np.random.default_rng(list(key) + [j + 1])
            draw = rng.standard_normal((v, starts)) + 1j * rng.standard_normal((v, starts))
            out[i, j, :starts] = draw.T
    out[:, :, starts:] = warm[:, None]
    return _normalize_rows(out)


def _subset_ratios(values, points, subsets, dictionary: Dictionary, p: float,
                   opts: RatioOptions, keys, warm):
    """Multistart ratio extremes at p != 2 over every subspace of a family.

    ``values`` holds the dictionary's (m, N) values at the nodes (only the
    quadrature families of odd and non-integer p read them), ``subsets``
    the (S, v) element indices, ``keys`` one seed key per subset and
    ``warm`` the (S, 2, v) p = 2 extreme vectors (lowest, highest), which
    both directions also start from.  The subsets of one shape run in one
    loop (``_multistart_extreme``), halvings in blocks; see ``_families``
    for the shapes and chunks.  Returns the (S, 2) lowest and highest
    ratios, their (S, 2, v) vectors, the (S,) converged flags and, at even
    p > 2, the (2, S) rigorous outer windows (else None).
    """
    n_sub, v = subsets.shape
    columns = 2 * (opts.starts + 2)
    ratios = np.empty((n_sub, 2))
    vectors = np.empty((n_sub, 2, v), dtype=complex)
    converged = np.empty(n_sub, dtype=bool)
    outer = np.empty((2, n_sub)) if _even_half(p) is not None else None
    grids = {}
    # the starting vectors of one chunk of subsets at a time
    step = max(1, _MULTISTART_CHUNK_VALUES // (columns * v))
    for lo in range(0, n_sub, step):
        starts = _starts(keys[lo:lo + step], warm[lo:lo + step], opts.starts)
        for members, family in _families(dictionary, values, points,
                                         subsets[lo:lo + step], p, columns, grids):
            best, vecs, _, flags = _multistart_extreme(family, starts[members], opts)
            at = lo + members
            # the descent's best is the lowest ratio, the ascent's the highest
            ratios[at], vectors[at] = best[:, ::-1], vecs[:, ::-1]
            converged[at] = flags.all(axis=1)
            if outer is not None:
                outer[:, at] = family.outer_windows()
    return ratios, vectors, converged, outer


def _p2_family(dictionary: Dictionary, xi: PointSet, index, p, vectors):
    """The p = 2 extremes of each row of the (S, v) index array ``index``
    (as ``_pencil_family`` returns them) and the (m, N) node values, or None
    where neither they nor the multistart at p need them.

    Distinct unit monomials take the moment kernel (``_moment_family``),
    any other dictionary, or a subset that repeats an element, the
    Cholesky-reduced pencils of the values.
    """
    sorted_index = np.sort(index, axis=1)
    if (dictionary.orthonormal_monomials
            and (sorted_index[:, 1:] != sorted_index[:, :-1]).all()):
        values = None
        if p != 2 and _even_half(p) is None:   # the quadrature multistart
            values = dictionary.values_at(xi)
        # each element's frequency is the union row it holds
        freqs = dictionary.frequencies[np.argmax(dictionary._held, axis=0)]
        return values, _moment_family(xi.points, freqs, index, vectors)
    values = dictionary.values_at(xi)
    return values, _pencil_family(values, index, dictionary.continuous_gram(), vectors)


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
    if not subset:
        raise ValueError("a subset needs at least one index")
    key = list(seed_key) if seed_key is not None else [opts.seed, 0]
    index = np.array([subset], dtype=np.intp)
    values, (lo, hi, vec_lo, vec_hi) = _p2_family(dictionary, xi, index, p, True)
    if p == 2:
        return SubspaceRatios(float(lo[0]), float(hi[0]), _method(p, opts), False,
                              True, vec_lo[0], vec_hi[0])
    ratios, vectors, converged, outer = _subset_ratios(
        values, xi.points, index, dictionary, p, opts, [key],
        np.stack([vec_lo, vec_hi], axis=1))
    return SubspaceRatios(float(ratios[0, 0]), float(ratios[0, 1]), _method(p, opts),
                          True, bool(converged[0]), vectors[0, 0], vectors[0, 1],
                          *((None, None) if outer is None else outer[:, 0].tolist()))


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
    dictionary = coll.dictionary
    subsets = list(coll.iter_subsets())
    index = np.fromiter(itertools.chain.from_iterable(subsets), dtype=np.intp,
                        count=count * coll.v).reshape(count, coll.v)
    values, (lo2, hi2, vec_lo, vec_hi) = _p2_family(dictionary, xi, index, p, p != 2)
    converged, outer = True, None
    if p == 2:
        mins, maxs = lo2.tolist(), hi2.tolist()
    else:
        ratios, _, flags, outer = _subset_ratios(
            values, xi.points, index, dictionary, p, opts,
            [prefix + [i] for i in range(count)], np.stack([vec_lo, vec_hi], axis=1))
        mins, maxs = ratios[:, 0].tolist(), ratios[:, 1].tolist()
        converged = bool(flags.all())
    lo, hi = 1.0 - epsilon, 1.0 + epsilon
    passed = all(lo <= a and b <= hi for a, b in zip(mins, maxs))
    one_sided = _one_sided_constant(mins, p)
    notes = [] if converged else ["some sphere optimizations hit the iteration limit"]
    cert = UsdCertificate(p, epsilon, subsets, mins, maxs, _method(p, opts),
                          p != 2, passed, one_sided, converged, notes)
    if outer is not None:
        outer_mins, outer_maxs = outer.tolist()
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
    m = _integer_argument("m", m)
    max_trials = _integer_argument("max_trials", max_trials)
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


def _difference_correlations(k, coeffs):
    """The sorted positive differences D of the ascending distinct
    frequencies ``k`` and the (len(D), n) array whose row for j in D holds,
    per column c of ``coeffs``, ``R_j = sum conj(c_a) c_b`` over the pairs
    a < b with ``k_b - k_a = j``, accumulated in increasing a."""
    diffs = np.subtract.outer(k, k)
    # with an inverse, np.unique skips the numpy.ma check (a 25 ms import)
    diffs = np.unique(diffs[diffs > 0], return_inverse=True)[0]
    corr = np.zeros((len(diffs), coeffs.shape[1]), dtype=complex)
    for a in range(len(k) - 1):   # the differences from one k_a are distinct
        corr[np.searchsorted(diffs, k[a + 1:] - k[a])] += coeffs[a].conj() * coeffs[a + 1:]
    return diffs, corr


def _run(idx):
    """``idx`` as a slice when it steps by +1 or -1 throughout, else as is."""
    if len(idx) > 1:
        step = int(idx[1] - idx[0])
        if abs(step) == 1 and (np.diff(idx) == step).all():
            stop = int(idx[-1]) + step
            return slice(int(idx[0]), stop if stop >= 0 else None, step)
    return idx


def _power_sums(theta, powers):
    """``sum_x z^j`` with ``z = exp(1j * x)`` over the nodes ``x`` of each
    row of ``theta`` (one trial's nodes per row), for each j of the sorted
    distinct positive ``powers``: a (len(theta), len(powers)) array.

    One ``exp`` per node; row n + i of the power buffer is row i times row
    n for n = 1, 2, 4, ..., so ``z^j`` is a product of j rounded factors.
    Each trial's nodes go in chunks of ``_MOMENT_CHUNK_VALUES // max(powers)``
    and the trials' chunks run together through one (max(powers), trials,
    width) buffer, which the caller keeps within ``_MOMENT_CHUNK_VALUES``
    values; each power is summed pairwise along one trial's chunk, as a 1-D
    row would be, and the chunk sums are added in order.
    """
    trials, m = theta.shape
    sums = np.zeros((trials, len(powers)), dtype=complex)
    if not len(powers):
        return sums
    order = int(powers[-1])
    rows = _run(powers - 1)
    step = _node_chunk(order)
    buf = np.empty((order, trials, min(step, m)), dtype=complex)
    for lo in range(0, m, step):
        z = buf[:, :, :min(step, m - lo)]
        np.exp(1j * theta[:, lo:lo + step], out=z[0])
        n = 1
        while n < order:
            take = min(n, order - n)
            np.multiply(z[:take], z[n - 1], out=z[n:n + take])
            n += take
        sums += z[rows].sum(axis=-1).T
    return sums


def _node_chunk(order):
    """Nodes per chunk of the p = 2 power buffer for powers up to ``order``."""
    return max(1, _MOMENT_CHUNK_VALUES // max(1, order))


def discretization_error_trials(functions, p: float, m: int, mc_trials: int,
                                rng_seed: int = 0,
                                grid_level: int = DEFAULT_GRID_LEVEL) -> np.ndarray:
    """Per-trial worst discretization gaps over i.i.d. uniform draws.

    Trial t draws m nodes uniformly on [0, 2 pi)^d from the seed
    ``rng_seed + [t]`` and records ``max_f |(1/m) sum_x |f(x)|^p -
    ||f||_p^p|`` over the functions.

    At p = 2 and d = 1 no node values are formed.  With the empirical
    moments ``s_j = (1/m) sum_x e^{ijx}`` (from ``_power_sums``), the
    discrete norm is the quadratic form ``c^H T c`` with the Toeplitz matrix
    ``T[a, b] = s_{k_b - k_a}``; its diagonal is ``s_0 = 1``, so the gap is
    ``2 Re sum_j s_j R_j`` summed along the diagonals of T, with the
    correlations ``R_j`` of ``_difference_correlations`` computed once per
    call.  A trial costs J m complex products for J = max k - min k, and
    |D| n more for the |D| distinct differences and n functions.

    The trials run in blocks.  Each trial draws its nodes from its own seed
    and keeps its own chunks of ``_MOMENT_CHUNK_VALUES // J`` nodes; a block
    of trials runs the ``exp``, the power products and the node sums
    together on one (J, trials, chunk) buffer, then reduces the gaps over
    the differences in one pass.  A block holds as many trials as keep that
    buffer and the (trials, |D|, n) gap products within
    ``_MOMENT_CHUNK_VALUES`` values, and one trial when a chunk is one node.
    A trial still costs J m products; the fixed cost of the numpy calls is
    paid once per block.  Each trial's sums and gaps have the bits of the
    trial run alone, so the bound below holds whatever the blocks.

    Rounding on that path, with u = 2^-53: ``exp`` is within u of
    ``e^{ix}`` per component and a complex product adds a relative error of
    at most 2 sqrt(2) u, so ``z^j`` is within 4 j u of ``e^{ijx}``.  The
    phase error of ``e^{ix}`` grows j-fold in ``z^j``, as the rounded phase
    ``j x`` does in a direct ``exp``.  With the node sums (pairwise within
    each of the c node chunks), every gap is within ``(6 J + 2 log2 m +
    2 c + 40) u ||c||_1^2`` of the exact gap at the drawn nodes, where
    ``||c||_1`` is the l1 norm of the function's coefficients.

    Other (d, p) evaluate every function at the nodes (``_values_on``) one
    trial at a time and take the continuous norm from ``lp_norm``.
    """
    mc_trials = _integer_argument("mc_trials", mc_trials)
    m = _integer_argument("m", m)
    if mc_trials < 1:
        raise ValueError("need at least one trial")
    if m < 1:
        raise ValueError(f"need at least one sample point, got m = {m}")
    if not functions:
        raise ValueError("need at least one function")
    d = functions[0].dimension
    if any(f.dimension != d for f in functions):
        raise DimensionMismatchError(
            f"functions of dimensions {sorted({f.dimension for f in functions})}")
    _check_exponent(p)
    base = [_integer_argument("rng_seed", s, 0) for s in
            (rng_seed if isinstance(rng_seed, (list, tuple)) else [rng_seed])]
    karr, coeff = _union_coefficients(functions, d)
    moments = p == 2 and d == 1
    block = 1
    if moments:
        diffs, corr = _difference_correlations(karr[:, 0], coeff)
        step = _node_chunk(int(diffs[-1]) if len(diffs) else 0)
        # one-node chunks keep one trial per block: a lone trial's first
        # power product is then one broadcast element, which numpy rounds
        # otherwise than the same product along a row of trials
        if m > 1:
            block = max(1, min(step // m, _MOMENT_CHUNK_VALUES // max(1, corr.size),
                               mc_trials))
    else:
        cont = np.array([lp_norm(f, p, grid_level) ** p for f in functions])
    errs = np.empty(mc_trials)
    x = np.empty((block, m, d))
    for t0 in range(0, mc_trials, block):
        xs = x[:min(block, mc_trials - t0)]
        for i in range(len(xs)):
            rng = np.random.default_rng(base + [t0 + i])
            xs[i] = rng.uniform(0.0, 2.0 * np.pi, size=(m, d))
        if moments:
            sums = _power_sums(xs[:, :, 0], diffs)[:, :, None]
            # corr[None] matches the shapes, so a block of one trial, one
            # difference and one function takes numpy's same-shape loop, as
            # a lone trial did; the broadcasting loop rounds one element
            # otherwise
            gaps = (corr[None] * sums).real.sum(axis=1) * (2.0 / m)
        else:
            # one contiguous row per function, so each mean sums its nodes
            # pairwise (down the columns of the (m, n) values it would add
            # them one node at a time)
            vals = np.ascontiguousarray(_values_on(xs[0], karr, coeff).T)
            gaps = (np.mean(np.abs(vals) ** p, axis=1) - cont)[None]
        errs[t0:t0 + len(xs)] = np.abs(gaps).max(axis=1)
    return errs


def expected_sup_estimate(functions, p: float, m: int, mc_trials: int,
                          rng_seed: int = 0,
                          grid_level: int = DEFAULT_GRID_LEVEL):
    """Monte-Carlo mean and standard error of the worst discretization gap."""
    mc_trials = _integer_argument("mc_trials", mc_trials)
    if mc_trials < 2:
        raise ValueError("need at least two trials for a standard error")
    errs = discretization_error_trials(functions, p, m, mc_trials, rng_seed,
                                       grid_level)
    mean = float(errs.mean())
    stderr = float(errs.std(ddof=1) / math.sqrt(mc_trials))
    return mean, stderr
