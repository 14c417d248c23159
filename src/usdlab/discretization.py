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
is nonconvex and the extremes are estimated by a stacked multistart
(``multistart``), warm-started from the p = 2 extreme vectors; those
certificates are flagged heuristic.  At even p > 2 the eigen extremes of
the lifted empirical Gram also give a rigorous outer window around each
subspace's ratios (``outer_min_ratios``, ``outer_max_ratios``,
``rigorous_pass``).

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
from .pencils import _moment_family, _pencil_family
from .points import PointSet, _integer_argument, _real_argument
from .trigpoly import (DEFAULT_GRID_LEVEL, _union_coefficients,
                       _unique_rows, _values_on, lp_norm)

DEFAULT_SUBSET_CAP = 10**6
_MOMENT_CHUNK_VALUES = 1 << 16   # complex node powers held per chunk of p = 2 gap-trial nodes
_MOMENT_SPREAD_PER_FREQUENCY = 8    # p = 2 gap trials take the moments while J <= this * F


def __getattr__(name):
    # the p != 2 multistart module loads on first use; its loop stays
    # resolvable here, where the benchmark's tracer finds it
    if name == "_multistart_extreme":
        from .multistart import _multistart_extreme
        return _multistart_extreme
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class RatioOptions:
    """Start count, iteration budget and seed of the p != 2 multistart.

    ``starts`` and ``max_iters`` are integers >= 1 and ``seed`` is an
    integer >= 0, stored as int; anything else, a bool included, raises
    ``ValueError``.

    Each subspace and direction (ascent, descent) starts from ``starts``
    seeded random vectors and the subspace's two p = 2 extreme vectors.
    One stacked loop runs every start of every subspace of one shape in a
    certificate, both directions included.  A start takes projected
    gradient steps until its step memory stalls, then projected Newton
    steps on the sphere modulo phase wherever the Hessian has the
    curvature sign its direction needs (p > 2 only; below, |u|^p has no
    second derivative at 0).  It stops once its tangent gradient is at
    most ``MULTISTART_GRAD_TOL`` or no step within
    ``MULTISTART_BACKTRACKS`` halvings strictly improves it; the halvings
    are tried in blocks, one evaluation per block, and ``max_iters`` caps
    all of a start's iterations.  At odd and non-integer p the
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


def _method(p, opts: RatioOptions) -> dict:
    """How the ratios are bounded: exact eigenvalues at p = 2, else multistart."""
    if p == 2:
        return {"kind": "eigen_exact"}
    from .multistart import MULTISTART_GRAD_TOL
    return {"kind": "multistart", "starts": opts.starts,
            "grad_tol": MULTISTART_GRAD_TOL, "max_iters": opts.max_iters}


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
        if p != 2:
            from .multistart import _even_half
            if _even_half(p) is None:   # the quadrature multistart
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

    Exact (eigenvalue) at p = 2; otherwise a multistart of projected
    gradient, then Newton, steps on the sphere (``multistart``),
    warm-started from the p = 2 extremal coefficient vectors and flagged
    heuristic.  At even p > 2 the result also carries the rigorous outer
    window ``outer_min_ratio``/``outer_max_ratio`` of the lifted Gram.
    """
    p = _real_argument("p", p, 1)
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
    from .multistart import _subset_ratios
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
            "subsets": list(map(list, self.subsets)),
            "min_ratios": list(self.min_ratios),
            "max_ratios": list(self.max_ratios),
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
    p = _real_argument("p", p, 1)
    epsilon = _real_argument("epsilon", epsilon, 0, strict=True)
    if epsilon >= 1:
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
        from .multistart import _subset_ratios
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


def usd_sample_budget(v: int, n_dict: int) -> float:
    """Reference point budget ``v (log 2v + loglog 2N)^2 (log N)^2``.

    Logs are base 2.  The absolute constant is unknown (taken as 1), so this
    is logged for comparison against the empirically sufficient m, never asserted.
    ``v`` and ``n_dict`` must be integers >= 1 (else ``ValueError``).
    """
    v, n_dict = _integer_argument("v", v, 1), _integer_argument("n_dict", n_dict, 1)
    log_n = math.log2(max(n_dict, 2))
    inner = math.log2(2 * v) + math.log2(math.log2(2 * n_dict))
    return v * inner ** 2 * log_n ** 2


def find_usd_points(coll: SubspaceCollection, p: float, m: int,
                    max_trials: int = 20, rng_seed: int = 0,
                    opts: RatioOptions | None = None,
                    epsilon: float = 0.5) -> UsdSearchResult:
    """Draw i.i.d. uniform m-point sets until one certifies, or report the best.

    Each draw is derived from ``(rng_seed, draw_index)`` so the search is
    reproducible and individual draws can be regenerated from the result.
    """
    p = _real_argument("p", p, 1)
    m = _integer_argument("m", m, 1)
    max_trials = _integer_argument("max_trials", max_trials, 1)
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
    diffs = _unique_rows(diffs[diffs > 0])[0]
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

    Path rule: the trials take the moment path below, and its bits, exactly
    when p = 2, d = 1 and the spread J = max k - min k of the union's F
    frequencies satisfies J <= ``_MOMENT_SPREAD_PER_FREQUENCY`` F (8 F);
    every other call takes the values path and its bits.  The moment path
    costs J m products a trial, the values path F m exponentials.  Over m
    in {256, 1024, 4096} and F in {2, 8, 32, 128}, in two in-process runs,
    the moment path took less time per trial in 11 of the 12 cases at
    J/F = 8, in 6 at J/F = 12, in 7 at J/F = 16 and in none at J/F = 32.
    The rule sits at the largest ratio where it clearly won; between 8 and
    16 either path may be faster, and a wide sparse union such as
    {0, 30000} takes the values path.

    On the moment path no node values are formed.  With the empirical
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

    The values path evaluates every function at the nodes (``_values_on``)
    one trial at a time and takes the continuous norm from ``lp_norm``.
    """
    mc_trials = _integer_argument("mc_trials", mc_trials, 1)
    m = _integer_argument("m", m, 1)
    if not functions:
        raise ValueError("need at least one function")
    d = functions[0].dimension
    if any(f.dimension != d for f in functions):
        raise DimensionMismatchError(
            f"functions of dimensions {sorted({f.dimension for f in functions})}")
    p = _real_argument("p", p, 1)
    base = [_integer_argument("rng_seed", s, 0) for s in
            (rng_seed if isinstance(rng_seed, (list, tuple)) else [rng_seed])]
    karr, coeff = _union_coefficients(functions, d)
    spread = int(np.ptp(karr[:, 0])) if d == 1 and len(karr) else 0
    moments = p == 2 and d == 1 and spread <= _MOMENT_SPREAD_PER_FREQUENCY * len(karr)
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
    mc_trials = _integer_argument("mc_trials", mc_trials, 2)  # for a standard error
    errs = discretization_error_trials(functions, p, m, mc_trials, rng_seed,
                                       grid_level)
    mean = float(errs.mean())
    stderr = float(errs.std(ddof=1) / math.sqrt(mc_trials))
    return mean, stderr
