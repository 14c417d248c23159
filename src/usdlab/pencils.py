"""The p = 2 pencils of a subset family: every subset's extreme ratios of
empirical to continuous L2 norm, as the extreme generalized eigenvalues of
(empirical Gram, continuous Gram).

Distinct unit monomials ``e^{i<k,x>}`` take the moment kernel
(``_moment_family``): the continuous Gram is the identity and the empirical
Gram of a subset J is ``G[a, b] = s_{k_{J_b} - k_{J_a}}`` in the node
moments ``s_delta = (1/m) sum_x e^{i<delta,x>}``, so translates share one
Gram and each translation class takes one eigensolve.  Any other dictionary
takes the Cholesky-reduced pencils of its node values (``_pencil_family``).

Rounding of the moment route, with u = 2^-53 and P the largest phase
``sum_c |delta_c x_c|`` of a needed difference: a phase is within d P u and
``exp`` within 2 u; numpy's pairwise sum puts at most log2 m + 19 additions
on each of the m terms, so a moment's sum and its division by m are within
sqrt(2) (log2 m + 20) u, and every Gram entry is within ``e = (d P +
2 log2 m + 32) u`` of the exact moment at the drawn nodes (the diagonal
``s_0 = 1`` is exact).  By Weyl's inequality each eigenvalue of the gathered
Gram is within ``(v - 1) e`` of the exact one (the error matrix is Hermitian
with a zero diagonal, so its norm is at most its largest row sum), and the
eigensolver adds ``4 v^2 u`` more (``||G|| <= v``).
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import RankDeficiencyError
from .trigpoly import _phases, _unique_rows

_PENCIL_CHUNK_VALUES = 1 << 16   # complex values gathered per chunk of subsets or moments


def _adjoint(a):
    """The conjugate transpose of each matrix in a stack."""
    return a.conj().swapaxes(-1, -2)


def _reduced_eigh(g_emp, g_cont, chunk):
    """Eigenpairs of each pencil (g_emp, g_cont) via Cholesky reduction.

    The continuous Grams are rank-checked first; the eigenvectors are
    mapped back to coefficients of the subset's elements.
    """
    g_cont = 0.5 * (g_cont + _adjoint(g_cont))
    w = np.linalg.eigvalsh(g_cont)
    bad = np.flatnonzero(w[:, 0] <= 1e-12 * np.maximum(w[:, -1], 1.0))
    if bad.size:
        raise RankDeficiencyError(
            f"subset {tuple(chunk[bad[0]].tolist())} is numerically dependent in L2 "
            f"(smallest Gram eigenvalue {w[bad[0], 0]:.3e})")
    chol = np.linalg.cholesky(g_cont)
    half = np.linalg.solve(chol, g_emp)
    mid = _adjoint(np.linalg.solve(chol, _adjoint(half)))
    w, u = np.linalg.eigh(0.5 * (mid + _adjoint(mid)))
    return w, np.linalg.solve(_adjoint(chol), u)


def _pencil_family(values, subsets, gram, vectors=True):
    """Extremes of ``c^H G_emp c / c^H G_cont c`` for every subset of a family.

    ``values`` holds the (m, N) element values at the nodes, ``subsets`` the
    (S, v) element indices and ``gram`` the (N, N) continuous Gram.  Each
    chunk of at most ``_PENCIL_CHUNK_VALUES`` gathered values takes one
    stacked Gram product and one stacked Cholesky-reduced ``eigh``, so every
    subset gets the bits of its own (v, v) problem.  Returns the (S,)
    smallest and largest eigenvalues and, when ``vectors``, their (S, v)
    coefficient vectors (else None).  Raises ``RankDeficiencyError`` for the
    first subset, in order, whose continuous Gram is numerically singular.
    """
    m = values.shape[0]
    n_sub, v = subsets.shape
    cols = np.ascontiguousarray(values.T)
    lo, hi = np.empty(n_sub), np.empty(n_sub)
    vec_lo = vec_hi = None
    if vectors:
        vec_lo, vec_hi = np.empty((2, n_sub, v), dtype=complex)
    step = max(1, _PENCIL_CHUNK_VALUES // (m * v))
    for start in range(0, n_sub, step):
        chunk = subsets[start:start + step]
        rows = cols[chunk]                                          # (c, v, m)
        g_emp = np.matmul(rows.conj(), rows.transpose(0, 2, 1)) / m
        w, u = _reduced_eigh(g_emp, gram[chunk[:, :, None], chunk[:, None, :]], chunk)
        lo[start:start + step], hi[start:start + step] = w[:, 0], w[:, -1]
        if vectors:
            vec_lo[start:start + step] = u[:, :, 0]
            vec_hi[start:start + step] = u[:, :, -1]
    return lo, hi, vec_lo, vec_hi


def _moments(points, deltas):
    """``s = (1/m) sum_x e^{i<delta, x>}`` over the (m, d) nodes for each row
    of the (D, d) integer ``deltas``.

    Each moment is a pairwise sum along its own contiguous row of m node
    terms, taken in chunks of rows within ``_PENCIL_CHUNK_VALUES`` values
    (one row when m is larger), so its bits do not depend on which other
    rows share the call.
    """
    m = len(points)
    out = np.empty(len(deltas), dtype=complex)
    step = max(1, _PENCIL_CHUNK_VALUES // m)
    for lo in range(0, len(deltas), step):
        # <delta, x> coordinate by coordinate, delta in the role of the nodes
        terms = 1j * _phases(deltas[lo:lo + step].astype(float), points.T)
        np.exp(terms, out=terms)
        out[lo:lo + step] = terms.sum(axis=1) / m
    return out


def _moment_family(points, freqs, subsets, vectors=True):
    """``_pencil_family`` for distinct unit monomials, one ``eigh`` per
    translation class.

    ``freqs`` holds each element's (N, d) frequency and ``subsets`` the
    (S, v) element indices, none repeated within a row.  The continuous Gram
    is the identity and the empirical Gram of a subset J is ``G[a, b] =
    s_{k_{J_b} - k_{J_a}}`` in the node moments ``s``, so subsets with the
    same offsets ``k_{J_a} - k_{J_0}`` (translates, in element order) share
    one Gram.  Only the distinct differences of the classes' offsets are
    exponentiated (``_moments``); ``s_{-delta}`` is the
    conjugate of ``s_delta`` and ``s_0 = 1``, so each Gram is exactly
    Hermitian.  Chunks of classes take one stacked ``eigh`` each, every
    class the bits of its own (v, v) problem, and the class results are
    scattered to their members.  Returns as ``_pencil_family``.
    """
    n_sub, v = subsets.shape
    d = freqs.shape[1]
    offsets, kind = _unique_rows(
        (freqs[subsets] - freqs[subsets[:, :1]]).reshape(n_sub, v * d))
    offsets = offsets.reshape(-1, v, d)                            # one per class
    n_class = len(offsets)
    # above the diagonal G[a, b] = s_{o_b - o_a}; one moment per difference
    # up to sign, its leading coordinate made positive (flip marks the
    # entries that take the conjugate)
    a, b = np.array(list(itertools.combinations(range(v), 2)),
                    dtype=np.intp).reshape(-1, 2).T
    delta = (offsets[:, b] - offsets[:, a]).reshape(-1, d)
    flip = delta[np.arange(len(delta)), np.argmax(delta != 0, axis=1)] < 0
    delta[flip] *= -1
    distinct, at = _unique_rows(delta)
    above = _moments(points, distinct)
    at, flip = at.reshape(n_class, -1), flip.reshape(n_class, -1)
    lo_c, hi_c = np.empty((2, n_class))
    vec_c = np.empty((n_class, v, 2), dtype=complex) if vectors else None
    step = max(1, _PENCIL_CHUNK_VALUES // (v * v))
    for start in range(0, n_class, step):
        s = above[at[start:start + step]]
        s = np.where(flip[start:start + step], s.conj(), s)
        g = np.ones((len(s), v, v), dtype=complex)
        g[:, a, b] = s
        g[:, b, a] = s.conj()
        w, u = np.linalg.eigh(g)
        lo_c[start:start + step], hi_c[start:start + step] = w[:, 0], w[:, -1]
        if vectors:
            vec_c[start:start + step] = u[:, :, [0, -1]]
    if not vectors:
        return lo_c[kind], hi_c[kind], None, None
    return lo_c[kind], hi_c[kind], vec_c[kind, :, 0], vec_c[kind, :, 1]
