"""The p != 2 sphere problem: multistart extremes of the Lp ratio.

For p != 2 the extremes of the ratio of the empirical p-th power mean
``(1/m) sum |f(xi_j)|^p`` to ``||f||_p^p`` over the unit sphere of a
subspace are estimated by a multistart on the sphere of C^v modulo phase:
every start of every subspace of one shape and both directions (ascent,
descent) run as rows of one stacked loop.  A row takes projected gradient
steps until its step memory stalls, then projected Newton steps wherever
the Hessian on the tangent space has the curvature sign its direction
needs; every step is kept only if it strictly improves the ratio.

At even p = 2r the ratio of f is the p = 2 ratio of f^r, which lies in the
span of the exponentials of the merged r-fold sumset of the subspace's
frequencies; their continuous Gram is the identity.  The multistart then
runs in those lifted coordinates, O(L^2) per start for L sumset
frequencies, with no quadrature grid, and the eigen extremes of the lifted
empirical Gram give a rigorous outer window around each subspace's ratios.
Odd and non-integer p have no such lift and keep a quadrature grid for the
continuous norm.  Below p = 2, |u|^p is not twice differentiable at 0 and
the rows keep gradient steps throughout.
"""

from __future__ import annotations

import math

import numpy as np

from .dictionary import Dictionary
from .errors import CapExceededError
from .pencils import _adjoint
from .points import tensor_grid_points
from .trigpoly import _phases, _quadrature_grid_size, _unique_rows

MULTISTART_GRAD_TOL = 1e-9
MULTISTART_BACKTRACKS = 30
MULTISTART_GRID_LEVEL = 6
LIFT_CAP_BYTES = 1 << 28   # one array of the even-p lift; larger raises CapExceededError
_MULTISTART_CHUNK_VALUES = 1 << 18   # complex values per array of one multistart evaluation
# step halvings tried per evaluation: a cheap lifted row prefers few calls,
# a quadrature row (m node values) few wasted candidates
_HALVING_BLOCKS = ((0, 2), (2, 6), (6, MULTISTART_BACKTRACKS))


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


def _apply_each(stack, owner, xi):
    """``_apply`` to each of the (k, q, .) directions ``xi`` of row k."""
    return np.einsum("kij,kqj->kqi", stack[owner], xi)


def _re_dot(a, xi):
    """``Re(a[k]^H xi[k, j])`` for the (k, n) rows a and (k, q, n) directions xi."""
    return np.einsum("kn,kqn->kq", a.conj(), xi).real


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
            rows, at = _unique_rows(np.column_stack([member, sums]))
            first = np.searchsorted(rows[:, 0], np.arange(n + 1))
            at = at.reshape(n, -1) - first[:n, None]
            keys, kind = _unique_rows(np.column_stack([np.diff(first), at]))
            for j, key in enumerate(keys):
                sub = np.flatnonzero(kind == j)
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

    second_order = True

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

    def compare(self, c, owner, cand):
        """The ratios of the (k, j, v) candidates ``cand`` and a gain of the
        sign of ``ratio(cand[k, i]) - ratio(c[k])``, from differences.

        With g and g' = g + delta the lifts of c[k] and a candidate, rho the
        ratio of g and y = G g - rho g, the sign is that of ``2 Re(y^H
        delta) + delta^H (G - rho) delta`` (times ||g||^2 > 0); near an
        extreme every term is small, so it is decided far below the
        rounding of the two ratios.
        """
        k, j, v = cand.shape
        g = self._lift(c, owner)[1]
        rho, gg, _ = self._quotient(g, owner)
        g2 = self._lift(cand.reshape(-1, v), np.repeat(owner, j))[1]
        got, gg2, _ = self._quotient(g2, np.repeat(owner, j))
        delta = g2.reshape(k, j, -1) - g[:, None]
        gdelta = gg2.reshape(k, j, -1) - gg[:, None]
        y = gg - rho[:, None] * g
        gain = (2.0 * _re_dot(y, delta) + _dot(delta, gdelta).real
                - rho[:, None] * _dot(delta, delta).real)
        return got.reshape(k, j), gain

    def hessian(self, c, owner, xi):
        """The derivative of ``gradient`` at each row c[k] along each of its
        (k, q, v) directions xi[k], by the product rule through the lift."""
        a, da = _apply(self.coeffs, owner, c), _apply_each(self.coeffs, owner, xi)
        h, dh = g, dg = a, da
        for order, first in self.scatters:
            h, dh = g, dg
            pairs = (h[:, :, None] * a[:, None, :]).reshape(len(a), -1)
            dpairs = (dh[..., :, None] * a[:, None, None, :]
                      + h[:, None, :, None] * da[:, :, None, :]).reshape(*dh.shape[:2], -1)
            g = np.add.reduceat(np.take(pairs, order, axis=1), first, axis=1)
            dg = np.add.reduceat(np.take(dpairs, order, axis=2), first, axis=2)
        rho, gg, den = self._quotient(g, owner)
        y = gg - rho[:, None] * g
        dden = 2.0 * _re_dot(g, dg)
        drho = 2.0 * _re_dot(y, dg) / den[:, None]
        dy = (_apply_each(self.gram, owner, dg) - drho[..., None] * g[:, None]
              - rho[:, None, None] * dg)
        ys, dys = np.take(y, self.at.T, axis=1), np.take(dy, self.at.T, axis=2)
        back = self.r * _dot(h[:, None, :], ys)
        dback = self.r * (np.einsum("kqt,klt->kql", dh.conj(), ys)
                          + np.einsum("kt,kqlt->kql", h.conj(), dys))
        grad = _apply(self.coeffs_h, owner, back) / den[:, None]
        return (_apply_each(self.coeffs_h, owner, dback)
                - grad[:, None, :] * dden[..., None]) / den[:, None, None]

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
        self.second_order = p > 2   # |u|^p is not twice differentiable at 0 below
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

    def compare(self, c, owner, cand):
        """The ratios of the (k, j, v) candidates ``cand`` and a gain of the
        sign of ``ratio(cand[k, i]) - ratio(c[k])``, from differences.

        With means N, D of c[k] and N', D' of a candidate, the sign is that
        of ``D (N' - N) - N (D' - D)``.  Per value, ``|u'|^p - |u|^p`` is
        ``|u|^p expm1((p/2) log1p(e / |u|^2))`` with ``e = 2 Re(conj(u)
        delta) + |delta|^2`` for delta = u' - u, so near an extreme the sign
        is decided far below the rounding of the two ratios.
        """
        k, j, v = cand.shape
        rows = np.repeat(owner, j)
        parts = []
        for vals, _ in self.stacks:
            u = _apply(vals, owner, c)
            u2 = _apply(vals, rows, cand.reshape(-1, v))
            powers = _abs_pow(u, self.p)
            delta = u2.reshape(k, j, -1) - u[:, None]
            a2 = (u.real * u.real + u.imag * u.imag)[:, None]
            step = 2.0 * (u.conj()[:, None] * delta).real + (delta.real * delta.real
                                                              + delta.imag * delta.imag)
            with np.errstate(divide="ignore", invalid="ignore"):
                diff = np.where(a2 > 0.0, powers[:, None] * np.expm1(
                    (self.p / 2.0) * np.log1p(np.maximum(step / a2, -1.0))),
                    _abs_pow(delta, self.p))
            parts.append((np.mean(powers, axis=1), np.mean(_abs_pow(u2, self.p), axis=1),
                          np.mean(diff, axis=2)))
        (num, num2, dnum), (den, den2, dden) = parts
        return (num2 / den2).reshape(k, j), den[:, None] * dnum - num[:, None] * dden

    def hessian(self, c, owner, xi):
        """The derivative of ``gradient`` at each row c[k] along each of its
        (k, q, v) directions xi[k]; for p > 2 only."""
        p, parts = self.p, []
        for vals, vals_h in self.stacks:
            u, du = _apply(vals, owner, c), _apply_each(vals, owner, xi)
            a2 = u.real * u.real + u.imag * u.imag
            with np.errstate(divide="ignore", invalid="ignore"):
                w4 = np.where(a2 > 0.0, a2 ** ((p - 4.0) / 2.0), 0.0)
            # d(|u|^(p-2) u) = |u|^(p-2) du + (p - 2) |u|^(p-4) Re(conj(u) du) u
            dual = (a2 ** ((p - 2.0) / 2.0))[:, None] * du + (p - 2.0) * (
                (w4 * u)[:, None] * (u.conj()[:, None] * du).real)
            scale = p / (2.0 * u.shape[1])
            grad = scale * _apply(vals_h, owner, _dual_power(u, p))
            parts.append((np.mean(_abs_pow(u, p), axis=1), grad, 2.0 * _re_dot(grad, xi),
                          scale * _apply_each(vals_h, owner, dual)))
        (num, gnum, dnum, dgnum), (den, gden, dden, dgden) = parts
        q = num / den
        dq = (dnum - q[:, None] * dden) / den[:, None]
        grad = (gnum - gden * q[:, None]) / den[:, None]
        return ((dgnum - dgden * q[:, None, None] - gden[:, None, :] * dq[..., None])
                / den[:, None, None] - grad[:, None, :] * (dden / den[:, None])[..., None])


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
        sizes, kind = _unique_rows([_quadrature_grid_size(int(k), MULTISTART_GRID_LEVEL,
                                                          math.ceil(p), 1) for k in max_freq])
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


def _evaluate(fn, width, *rows):
    """``fn(*rows)`` over slices of at most ``width`` rows of each array;
    a tuple result is joined item by item."""
    if len(rows[0]) <= width:
        return fn(*rows)
    parts = [fn(*(a[lo:lo + width] for a in rows)) for lo in range(0, len(rows[0]), width)]
    if isinstance(parts[0], tuple):
        return tuple(map(np.concatenate, zip(*parts)))
    return np.concatenate(parts)


def _newton_directions(family, c, owner, tang, sign, width):
    """Projected Newton directions of the unit rows c, whose tangent
    gradients are ``tang``, and whether each exists.

    The ratio is invariant under scale and phase, so it lives on the sphere
    modulo phase, whose tangent space at c is the complement of c and ic:
    it has the real orthonormal basis b = (U, iU), U the last v - 1 columns
    of a complete QR factor of c.  There the Hessian of the ratio is
    ``M[a, e] = Re(b_a^H H b_e)`` for the family's Hessian action H (the
    curvature term of the sphere vanishes with the radial derivative), and
    its gradient ``g[a] = Re(b_a^H tang)``.  For the row's sign s (1 ascent,
    -1 descent) the Newton step is s d with ``d = sum_a (S^-1 g)_a b_a`` and
    ``S = -s M``, which must be positive definite for s d to move toward
    the extreme.  Returns d and that flag per row.
    """
    basis = np.linalg.qr(c[:, :, None], mode="complete")[0][:, :, 1:].swapaxes(1, 2)
    basis = np.concatenate([basis, 1j * basis], axis=1)   # (k, 2v - 2, v)
    moved = _evaluate(family.hessian, max(1, width // basis.shape[1]), c, owner, basis)
    curv = -sign[:, None, None] * np.einsum("kaj,kej->kae", basis.conj(), moved).real
    w, vecs = np.linalg.eigh(0.5 * (curv + curv.swapaxes(1, 2)))
    ok = w[:, 0] > 0.0
    w[~ok] = 1.0
    g = np.einsum("kaj,kj->ka", basis.conj(), tang).real
    y = np.einsum("kae,ke->ka", vecs, np.einsum("kae,ka->ke", vecs, g) / w)   # S^-1 g
    return np.einsum("ka,kaj->kj", y, basis), ok


def _trial_gains(family, cur, own, cand, rho, curved, width):
    """The ratios of the (k, j, v) candidates ``cand`` of the rows ``cur``
    and their gains over the rows' ratios ``rho``: differences of the
    rounded ratios for a gradient step, ``family.compare`` for a Newton
    step (``curved``), which lands where the gain is below that rounding."""
    k, j, v = cand.shape
    got, gain = np.empty((k, j)), np.empty((k, j))
    plain = np.flatnonzero(~curved)
    if plain.size:
        got[plain] = _evaluate(family.ratio, width, cand[plain].reshape(-1, v),
                               np.repeat(own[plain], j)).reshape(len(plain), j)
        gain[plain] = got[plain] - rho[plain, None]
    if plain.size < k:
        got[curved], gain[curved] = _evaluate(family.compare, max(1, width // j),
                                              cur[curved], own[curved], cand[curved])
    return got, gain


def _multistart_rows(family, starts, opts):
    """Ascent and descent on the sphere modulo phase, every subspace of
    ``family`` and both directions in one loop.

    ``starts`` holds the (S, 2, n, v) unit starting vectors: n for the
    ascent of subspace i, then n for its descent.  Each start is one row
    of the stacked problem.  An iteration takes the gradient of every
    moving row; a row whose tangent gradient is at most
    ``MULTISTART_GRAD_TOL`` stops.  The others try steps of one of two
    kinds, each in one direction along its halvings ``2^-k``, k <
    ``MULTISTART_BACKTRACKS``, with one evaluation per block of halvings in
    ``_HALVING_BLOCKS``; a row takes the largest step that strictly
    improves its ratio, and stops when none does.
    - A gradient step moves along the tangent gradient, from twice the
      row's last accepted gradient step (at most 1e3).
    - Once a gradient step is accepted that is no longer than the row's
      last one (its step memory stalls), a family with a Hessian action
      (``second_order``) switches the row to Newton steps: from a full step
      along ``_newton_directions``, in each iteration where the Hessian
      has the curvature sign the direction needs, else again a gradient
      step.  Whether a Newton step improves the ratio is decided by
      ``family.compare``: it lands where the gain is below the rounding of
      the ratios, and every start then stops as stationary.
    Every row's bits depend on its own start alone.

    Returns the final (R, v) rows, their (R,) ratios and signs (1 ascent,
    -1 descent), which rows were still moving at the iteration limit, and
    how many iterations each row began after its switch to Newton steps.
    """
    n_sub, _, n, v = starts.shape
    c = starts.reshape(-1, v).copy()
    owner = np.repeat(np.arange(n_sub), 2 * n)
    sign = np.tile(np.repeat([1.0, -1.0], n), n_sub)
    width = max(2 * n, _MULTISTART_CHUNK_VALUES // family.rows)
    rho = _evaluate(family.ratio, width, c, owner)
    active = np.ones(len(c), dtype=bool)
    alpha = np.ones(len(c))   # per-row gradient step memory across iterations
    second = family.second_order and v > 1
    newton = np.zeros(len(c), dtype=bool)   # rows switched to Newton steps
    after = np.zeros(len(c), dtype=np.intp)
    for _ in range(opts.max_iters):
        idx = np.flatnonzero(active)
        if not idx.size:
            break
        after[idx] += newton[idx]
        cur, own = c[idx], owner[idx]
        grad = family.gradient(cur, own)
        tang = grad - cur * _dot(cur, grad)[:, None]
        done = np.sqrt(_dot(tang, tang).real) <= MULTISTART_GRAD_TOL
        active[idx[done]] = False
        keep = ~done
        idx, cur, tang, own = idx[keep], cur[keep], tang[keep], own[keep]
        step = np.minimum(alpha[idx] * 2.0, 1e3)
        curved = np.zeros(len(idx), dtype=bool)   # rows taking a Newton step
        at = np.flatnonzero(newton[idx])
        if at.size:
            d, ok = _newton_directions(family, cur[at], own[at], tang[at], sign[idx[at]],
                                       width)
            at = at[ok]
            tang[at], step[at], curved[at] = d[ok], 1.0, True
        for lo, hi in _HALVING_BLOCKS:
            if not idx.size:
                break
            ks = np.arange(lo, hi)
            trial = np.ldexp(step[:, None], -ks) * sign[idx, None]   # exact halvings
            cand = _normalize_rows(cur[:, None, :] + trial[:, :, None] * tang[:, None, :])
            got, gain = _trial_gains(family, cur, own, cand, rho[idx], curved, width)
            toward = sign[idx, None]
            better = toward * gain > 0.0
            first = np.argmax(better, axis=1)
            hit = better[np.arange(len(idx)), first]
            take = idx[hit]
            c[take] = cand[hit, first[hit]]
            rho[take] = got[hit, first[hit]]
            plain = hit & ~curved
            taken = np.ldexp(step[plain], -ks[first[plain]])
            if second:
                newton[idx[plain]] |= taken <= alpha[idx[plain]]
            alpha[idx[plain]] = taken
            miss = ~hit
            idx, cur, tang, own, step, curved = (
                idx[miss], cur[miss], tang[miss], own[miss], step[miss], curved[miss])
        # a row that cannot improve within the backtracking budget sits at
        # a numerical stationary point; freeze it
        active[idx] = False
    return c, rho, sign, active, after


def _multistart_extreme(family, starts, opts):
    """The extremes of ``_multistart_rows``: the (S, 2) best ratio of each
    subspace and direction (ascent, descent), its (S, 2, v) vector, whether
    every one of those vectors stopped as stationary before the iteration
    limit (whatever the other starts do), and the (S, 2) flag of each.
    """
    n_sub, _, n, v = starts.shape
    c, rho, sign, active, _ = _multistart_rows(family, starts, opts)
    best = np.argmax((sign * rho).reshape(2 * n_sub, n), axis=1) + n * np.arange(2 * n_sub)
    converged = ~active[best].reshape(n_sub, 2)
    return (rho[best].reshape(n_sub, 2), c[best].reshape(n_sub, 2, v),
            bool(converged.all()), converged)


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
