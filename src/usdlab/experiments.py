"""Configuration-driven experiment runner with deterministic outputs.

Each experiment kind composes library operations, writes one CSV (one row
per sweep point per trial), and writes a summary JSON whose assertions are
recomputed purely from the CSV rows plus the configuration, so re-running
the summarizer on an existing CSV reproduces the verdict byte for byte.
Seeds split per trial by counter-based derivation from the master seed, so
changing a trial count never perturbs earlier trials.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import functools
import itertools
import json
import math
import os
from dataclasses import dataclass, field
from importlib import resources
from typing import Callable, NamedTuple

import numpy as np

from . import jsonio
from .csvio import read_csv, write_csv
from .dictionary import Dictionary
from .discretization import (RatioOptions, SubspaceCollection,
                             _one_sided_constant, check_usd,
                             discretization_error_trials, expected_sup_estimate,
                             find_usd_points)
from .entropy import (SampledClass, chaining_bound, entropy_numbers,
                      l1_ball_draws)
from .errors import ConfigError
from .points import PointSet
from .recovery import block_greedy_approximant
from .schema import Schema
from .smoothness import SmoothnessBudget, level_budget_element
from .trigpoly import lp_norm

@dataclass
class ExperimentConfig:
    kind: str
    seed: int
    out: str
    params: dict
    assertions: dict = field(default_factory=dict)
    svg: bool = False
    threads: int = 1


@functools.cache
def _schema():
    """The shipped config schema, loaded and checked once per process.

    Also returns each kind's sweep params, those whose schema is
    ``$defs/sweep``: that a sweep strictly increases is the one rule JSON
    Schema cannot state.
    """
    schema = json.loads(resources.files(__package__).joinpath(
        "config_schema.json").read_text(encoding="utf-8"))
    sweeps = {}
    for block in schema["allOf"]:
        params = block["then"]["properties"]["params"]["properties"]
        sweeps[block["if"]["properties"]["kind"]["const"]] = [
            name for name, spec in params.items()
            if spec.get("$ref") == "#/$defs/sweep"]
    return Schema(schema), sweeps


def _non_finite_path(obj, path=()):
    """Path to the first NaN or infinite number in ``obj``, or None."""
    if isinstance(obj, float):
        return None if math.isfinite(obj) else path
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return None
    for key, value in items:
        found = _non_finite_path(value, path + (key,))
        if found is not None:
            return found
    return None


def validate_config(obj) -> ExperimentConfig:
    """Validate against ``config_schema.json``; errors carry field paths.

    Numbers must be finite anywhere in the config: JSON Schema bounds
    compare false against NaN, so the schema alone would let it through.
    """
    bad = _non_finite_path(obj)
    if bad is not None:
        path = ".".join(str(p) for p in bad)
        raise ConfigError(f"{path or '<root>'}: must be a finite number", path=path)
    schema, sweeps = _schema()
    error = schema.first_error(obj)
    if error is not None:
        path = ".".join(str(p) for p in error[0])
        raise ConfigError(f"{path or '<root>'}: {error[1]}", path=path)
    for name in sweeps[obj["kind"]]:
        sweep = obj["params"].get(name, [])
        if any(b <= a for a, b in zip(sweep, sweep[1:])):
            raise ConfigError(f"params.{name}: sweep must be strictly increasing",
                              path=f"params.{name}")
    return ExperimentConfig(
        kind=obj["kind"], seed=int(obj["seed"]), out=obj["out"],
        params=dict(obj["params"]), assertions=dict(obj.get("assertions", {})),
        svg=bool(obj.get("svg", False)), threads=int(obj.get("threads", 1)))


@contextlib.contextmanager
def _building(name):
    """Report a ValueError raised while building ``params.<name>`` as a ConfigError."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"params.{name}: {exc}", path=f"params.{name}") from None


def _band_dictionary(params) -> Dictionary:
    band = params.get("band")
    if band is not None:
        with _building("band"):
            return Dictionary.exponential_band(int(band[0]), int(band[1]))
    max_abs = int(params.get("max_abs_freq", 4))
    return Dictionary.exponential_band(-max_abs, max_abs)


def _ratio_options(cfg) -> RatioOptions:
    return RatioOptions(seed=cfg.seed, **cfg.params.get("opts", {}))


# -- rate fitting -----------------------------------------------------------

@dataclass
class RateFit:
    """Least-squares line through (log2 x, log2 y) with a 95% slope interval."""

    slope: float
    intercept: float
    residual_rms: float
    half_width: float
    n_points: int

    def to_json(self):
        return {"slope": float(self.slope), "intercept": float(self.intercept),
                "residual_rms": float(self.residual_rms),
                "half_width": float(self.half_width),
                "n_points": int(self.n_points)}


def _t_quantile_975(nu: int) -> float:
    """The 0.975 quantile of Student's t with an integer ``nu >= 1`` degrees of freedom.

    With ``x = nu / (nu + t^2)`` the two-sided tail beyond t is a finite sum
    (Abramowitz & Stegun 26.7.3-4): ``1 - sqrt(1 - x) S`` for even nu and
    ``(2 / pi) (asin(sqrt(x)) - sqrt(x (1 - x)) S)`` for odd nu, where S is the
    degree ``(nu - 2) // 2`` partial sum (empty at nu = 1) of the power series
    of ``(1 - x)^(-1/2)`` (even) or ``asin(sqrt(x)) / sqrt(x (1 - x))`` (odd).
    Newton steps on that tail start at the normal quantile, below every t
    quantile, and rise monotonically because the tail is convex in t.  Each
    step starts from the t that the rounded x stands for, so rounding x
    costs no accuracy (stepping from the previous t instead left results up
    to 94 ulp off for nu <= 200).  The result is within 22 ulp of the exact
    quantile for nu <= 200, and within 5 ulp for nu <= 50.
    """
    target = 2.0 * (1.0 - 0.975)
    odd = nu % 2
    density = (math.exp(math.lgamma((nu + 1) / 2) - math.lgamma(nu / 2))
               / math.sqrt(nu * math.pi))  # of the t law at t = 0
    t = 1.959963984540054  # the normal 0.975 quantile
    for _ in range(100):
        x = nu / (nu + t * t)
        y = 1.0 - x
        s = 0.0
        for k in range(nu // 2, 0, -1):  # Horner over the partial sum S
            s = 1.0 + (2 * k - 1 + odd) / (2 * k + odd) * x * s
        if odd:
            angle = math.atan2(math.sqrt(x), math.sqrt(y))
            tail = (angle - math.sqrt(x * y) * s) * (2 / math.pi)
        else:
            tail = 1.0 - math.sqrt(y) * s
        step = (tail - target) / (2.0 * density * x ** ((nu + 1) / 2))
        t = math.sqrt(nu * y / x) + step
        if abs(step) < 1e-12 * t:  # the next step would be below rounding
            break
    return t


def fit_rate(points) -> RateFit:
    """Fit ``log2 y = slope * log2 x + intercept`` by ordinary least squares."""
    pts = [(float(x), float(y)) for x, y in points]
    if len(pts) < 3:
        raise ValueError("need at least 3 points for a rate fit")
    if any(x <= 0 or y <= 0 for x, y in pts):
        raise ValueError("rate fits need strictly positive coordinates")
    lx = np.log2([x for x, _ in pts])
    ly = np.log2([y for _, y in pts])
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    n = len(pts)
    rms = float(np.sqrt(np.mean(resid ** 2)))
    sxx = float(np.sum((lx - lx.mean()) ** 2))
    s2 = float(np.sum(resid ** 2) / (n - 2))
    se = math.sqrt(s2 / sxx) if sxx > 0 else math.inf
    return RateFit(float(slope), float(intercept), rms, _t_quantile_975(n - 2) * se, n)


# -- shared helpers ---------------------------------------------------------

def random_l1_ball_elements(dictionary: Dictionary, count: int, seed: int):
    """Random expansions with unit coefficient l1 mass, as polynomials."""
    return [dictionary.combine(c, support)
            for support, c in l1_ball_draws(dictionary.size, count, seed)]


def _l1_ball_profile(cfg, dictionary):
    """Entropy profile of a seeded sample of the l1 ball of ``dictionary``."""
    p = cfg.params
    sampled = SampledClass.from_l1_ball(
        dictionary, int(p.get("n_representatives", 1024)),
        int(p.get("grid_level", 10)), seed=cfg.seed)
    return entropy_numbers(sampled, int(p.get("n_max", 16)))


def _l1_ball_sweep(cfg, dictionary, seed, estimate):
    """``estimate(functions, p, m, mc_trials, ...)`` of ``n_functions`` l1-ball
    elements drawn from ``seed``, at each m_sweep point i from ``[cfg.seed, i]``."""
    p = cfg.params
    functions = random_l1_ball_elements(dictionary, int(p["n_functions"]), seed)

    def one_sweep(i_m):
        i, m = i_m
        return estimate(functions, float(p["p"]), m, int(p["mc_trials"]),
                        rng_seed=[cfg.seed, i], grid_level=int(p.get("grid_level", 10)))

    return _maybe_parallel(one_sweep, list(enumerate(p["m_sweep"])), cfg.threads)


def write_svg_loglog(path, xs, ys, fit: RateFit | None = None, title=""):
    """Minimal static SVG line chart in log2-log2 coordinates."""
    lx = [math.log2(x) for x in xs]
    ly = [math.log2(max(y, 1e-300)) for y in ys]
    w, h, pad = 640, 480, 60
    x0, x1 = min(lx), max(lx)
    y0, y1 = min(ly), max(ly)
    if x1 == x0:
        x1 = x0 + 1
    if y1 == y0:
        y1 = y0 + 1

    def sx(v):
        return pad + (v - x0) / (x1 - x0) * (w - 2 * pad)

    def sy(v):
        return h - pad - (v - y0) / (y1 - y0) * (h - 2 * pad)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}">',
             f'<rect width="{w}" height="{h}" fill="white"/>',
             f'<text x="{w // 2}" y="24" text-anchor="middle" '
             f'font-family="monospace" font-size="14">{title}</text>']
    pts = " ".join(f"{sx(a):.3f},{sy(b):.3f}" for a, b in zip(lx, ly))
    parts.append(f'<polyline points="{pts}" fill="none" stroke="steelblue" stroke-width="2"/>')
    for a, b in zip(lx, ly):
        parts.append(f'<circle cx="{sx(a):.3f}" cy="{sy(b):.3f}" r="3" fill="steelblue"/>')
    if fit is not None:
        fy0 = fit.slope * x0 + fit.intercept
        fy1 = fit.slope * x1 + fit.intercept
        parts.append(f'<line x1="{sx(x0):.3f}" y1="{sy(fy0):.3f}" '
                     f'x2="{sx(x1):.3f}" y2="{sy(fy1):.3f}" '
                     f'stroke="firebrick" stroke-dasharray="6,4" stroke-width="1.5"/>')
        parts.append(f'<text x="{w - pad}" y="{h - 16}" text-anchor="end" '
                     f'font-family="monospace" font-size="12">slope {fit.slope:.4f}</text>')
    parts.append(f'<line x1="{pad}" y1="{h - pad}" x2="{w - pad}" y2="{h - pad}" stroke="black"/>')
    parts.append(f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{h - pad}" stroke="black"/>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")


def _assertion(name, passed, detail):
    return {"name": name, "passed": bool(passed), "detail": detail}


def _strict_checks(strict, results):
    """The failing ``strict_no_heuristic`` check when strict meets a heuristic
    certificate that its rigorous outer window does not pass."""
    if not (strict and results["heuristic"]) or results.get("rigorous_pass"):
        return []
    return [_assertion("strict_no_heuristic", False,
                       {"reason": "certificate is heuristic at p != 2"})]


def _slope_fit(cfg, pts, name, results):
    """Fit ``results["fit"]`` on at least 3 points; check ``slope_range`` if set."""
    fit = fit_rate(pts) if len(pts) >= 3 else None
    results["fit"] = None if fit is None else fit.to_json()
    rng = cfg.assertions.get("slope_range")
    if rng is None:
        return []
    if fit is None:
        return [_assertion(name, False, {"reason": "fewer than 3 positive points"})]
    return [_assertion(name, rng[0] <= fit.slope <= rng[1],
                       {"slope": fit.slope, "range": rng})]


def _column(header, rows, name):
    idx = header.index(name)
    return [row[idx] for row in rows]


# -- kind runners (produce rows) and summarizers (pure in the rows) ---------

def _run_usd_search(cfg: ExperimentConfig):
    p = cfg.params
    dictionary = _band_dictionary(p)
    with _building("v"):
        coll = SubspaceCollection.all_subsets(dictionary, int(p["v"]))
    res = find_usd_points(coll, float(p["p"]), int(p["m"]), int(p["max_trials"]),
                          cfg.seed, _ratio_options(cfg),
                          float(p.get("epsilon", 0.5)))
    header = ["trial", "passed", "worst_min_ratio", "worst_max_ratio", "violation"]
    rows = [(draw, cert.passed, min(cert.min_ratios), max(cert.max_ratios),
             cert.worst_violation()) for draw, cert in enumerate(res.draws)]
    if res.certificate.rigorous_pass is not None:   # even p > 2
        header.append("rigorous_pass")
        rows = [row + (cert.rigorous_pass,) for row, cert in zip(rows, res.draws)]
    artifacts = {}
    if res.passed:
        artifacts["points.json"] = res.points.to_json()
        artifacts["certificate.json"] = res.certificate.to_json()
    artifacts["reference_budget.json"] = {
        "reference_budget": res.reference_budget, "m": int(p["m"])}
    return header, rows, artifacts


def _summarize_usd_search(cfg, header, rows, strict):
    passed_col = _column(header, rows, "passed")
    found = any(passed_col)
    first = next((row[0] for row, ok in zip(rows, passed_col) if ok), None)
    results = {"found": found, "passing_draw_index": first,
               "trials_run": len(rows),
               "heuristic": float(cfg.params["p"]) != 2.0}
    if "rigorous_pass" in header:
        results["rigorous_pass"] = first is not None and bool(
            _column(header, rows, "rigorous_pass")[first])
    checks = []
    if cfg.assertions.get("must_pass", True):
        checks.append(_assertion("search_found_certified_points", found,
                                 {"trials_run": len(rows)}))
    checks += _strict_checks(strict, results)
    return results, checks


def _points_from_config(spec, dimension, seed):
    if "equispaced" in spec:
        return PointSet.equispaced(int(spec["equispaced"]), dimension)
    if "seeded" in spec:
        s = spec["seeded"]
        return PointSet.random_uniform(int(s["m"]), dimension,
                                       int(s.get("seed", seed)),
                                       int(s.get("draw_index", 0)))
    try:
        return PointSet.load(spec["file"])
    except FileNotFoundError:
        raise ConfigError(f"params.points.file: no such file {spec['file']}",
                          path="params.points.file") from None
    except (KeyError, TypeError):
        raise ConfigError(f"params.points.file: {spec['file']} is not an object "
                          'with a "points" list', path="params.points.file") from None


def _run_usd_verify(cfg: ExperimentConfig):
    p = cfg.params
    dictionary = _band_dictionary(p)
    if "subsets" in p:
        with _building("subsets"):
            coll = SubspaceCollection.from_subsets(dictionary, p["subsets"])
    else:
        with _building("v"):
            coll = SubspaceCollection.all_subsets(dictionary, int(p["v"]))
    with _building("points"):
        xi = _points_from_config(p["points"], dictionary.dimension, cfg.seed)
    cert = check_usd(xi, coll, float(p["p"]), _ratio_options(cfg),
                     float(p.get("epsilon", 0.5)))
    header = ["subset_index", "subset", "min_ratio", "max_ratio", "within_window"]
    lo, hi = cert.window
    within = [lo <= a and b <= hi for a, b in zip(cert.min_ratios, cert.max_ratios)]
    # each ratio is formatted once, for its CSV cell and the certificate
    mins, maxs = jsonio.pinned(cert.min_ratios), jsonio.pinned(cert.max_ratios)
    # every subset has coll.v indices: one "%" formats them all
    subset_texts = ("|".join(["%d"] * coll.v) + "\0") * len(cert.subsets) % tuple(
        itertools.chain.from_iterable(cert.subsets))
    columns = [range(len(cert.subsets)), subset_texts.split("\0")[:-1],
               mins, maxs, within]
    if cert.outer_min_ratios is not None:   # even p > 2
        header += ["outer_min_ratio", "outer_max_ratio"]
        columns += [cert.outer_min_ratios, cert.outer_max_ratios]
    rows = list(zip(*columns))
    certificate = cert.to_json()
    certificate["min_ratios"], certificate["max_ratios"] = mins, maxs
    artifacts = {"certificate.json": certificate, "points.json": xi.to_json()}
    return header, rows, artifacts


def _summarize_usd_verify(cfg, header, rows, strict):
    mins = _column(header, rows, "min_ratio")
    maxs = _column(header, rows, "max_ratio")
    within = _column(header, rows, "within_window")
    p = float(cfg.params["p"])
    results = {"passed": all(within), "subsets": len(rows),
               "one_sided_constant": _one_sided_constant(mins, p),
               "heuristic": p != 2.0}
    if "outer_min_ratio" in header:
        eps = float(cfg.params.get("epsilon", 0.5))
        outer = [[float(v) for v in _column(header, rows, name)]
                 for name in ("outer_min_ratio", "outer_max_ratio")]
        results["outer_min_ratios"], results["outer_max_ratios"] = outer
        results["rigorous_pass"] = all(1.0 - eps <= a and b <= 1.0 + eps
                                       for a, b in zip(*outer))
    checks = []
    if cfg.assertions.get("must_pass", True):
        checks.append(_assertion("all_ratios_within_window", all(within),
                                 {"subsets": len(rows)}))
    dev = cfg.assertions.get("max_ratio_deviation")
    if dev is not None:
        worst = max(max(abs(a - 1.0) for a in mins), max(abs(b - 1.0) for b in maxs))
        checks.append(_assertion("ratio_deviation_bounded", worst <= dev,
                                 {"worst_deviation": worst, "allowed": dev}))
    checks += _strict_checks(strict, results)
    return results, checks


def _run_entropy(cfg: ExperimentConfig):
    profile = _l1_ball_profile(cfg, _band_dictionary(cfg.params))
    return ["n", "eps_n"], profile.to_csv_rows(), {"profile.json": profile.to_json()}


def _summarize_entropy(cfg, header, rows, strict):
    window = cfg.params.get("fit_window", [4, 64])
    pts = [(n, e) for n, e in rows if window[0] <= n <= window[1] and e > 0]
    results = {"profile_points": len(rows),
               "fit_points": len(pts)}
    return results, _slope_fit(cfg, pts, "entropy_slope_in_range", results)


def _run_er_rate(cfg: ExperimentConfig):
    results = _l1_ball_sweep(cfg, _band_dictionary(cfg.params), cfg.seed,
                             discretization_error_trials)
    rows = [(m, t, float(e)) for m, errs in zip(cfg.params["m_sweep"], results)
            for t, e in enumerate(errs)]
    return ["m", "trial", "error"], rows, {}


def _summarize_er_rate(cfg, header, rows, strict):
    by_m: dict = {}
    for m, _, err in rows:
        by_m.setdefault(m, []).append(err)
    means = [(m, float(np.mean(v))) for m, v in sorted(by_m.items())]
    results = {"means": [{"m": m, "mean": e} for m, e in means]}
    checks = []
    if len(means) >= 3 and all(e > 0 for _, e in means):
        fit = fit_rate(means)
        results["fit"] = fit.to_json()
        rng = cfg.assertions.get("slope_range", [-0.65, -0.35])
        checks.append(_assertion("er_slope_in_range",
                                 rng[0] <= fit.slope <= rng[1],
                                 {"slope": fit.slope, "range": rng}))
    else:
        results["fit"] = None
    return results, checks


def _run_recovery_rate(cfg: ExperimentConfig):
    p = cfg.params
    d = int(p.get("d", 1))
    b = float(p.get("b", 0.0))
    max_level = int(p.get("max_level", 18))
    support_cap = p.get("support_cap", 4096)
    exponent = float(p.get("p", 2.0))
    grid_level = int(p.get("grid_level", 10))
    header = ["a", "b", "level_cut", "terms", "continuous_error"]
    rows = []
    for ia, a in enumerate(p["a_values"]):
        budget = SmoothnessBudget(float(a), b, d, max_level)
        f = level_budget_element(budget, support_rule=support_cap,
                                 rng_seed=cfg.seed + ia)
        beta = float(p.get("beta", float(a) / 2.0))
        for n in p["n_sweep"]:
            result = block_greedy_approximant(f, int(n), beta)
            err = lp_norm(f - result.approximant, exponent, grid_level)
            rows.append((float(a), b, int(n), result.total_terms, float(err)))
    return header, rows, {}


def _summarize_recovery_rate(cfg, header, rows, strict):
    tol = float(cfg.assertions.get("slope_tolerance", 0.2))
    by_a: dict = {}
    for a, _, _, terms, err in rows:
        by_a.setdefault(a, []).append((terms, err))
    results = {"per_a": []}
    checks = []
    for a, pts in sorted(by_a.items()):
        pts = [(t, e) for t, e in pts if e > 0]
        entry = {"a": a, "target_slope": -(a + 0.5)}
        if len(pts) >= 3:
            fit = fit_rate(pts)
            entry["fit"] = fit.to_json()
            ok = abs(fit.slope - (-(a + 0.5))) <= tol
            checks.append(_assertion(f"recovery_slope_a_{a}", ok,
                                     {"slope": fit.slope,
                                      "target": -(a + 0.5), "tolerance": tol}))
        else:
            entry["fit"] = None
            checks.append(_assertion(f"recovery_slope_a_{a}", False,
                                     {"reason": "fewer than 3 positive points"}))
        results["per_a"].append(entry)
    return results, checks


def _run_chaining_compare(cfg: ExperimentConfig):
    p = cfg.params
    dictionary = _band_dictionary(p)
    profile = _l1_ball_profile(cfg, dictionary)
    estimates = _l1_ball_sweep(cfg, dictionary, cfg.seed + 1, expected_sup_estimate)
    exponent, sup_bound = float(p["p"]), float(p.get("sup_bound", 1.0))
    rows = [(m, mean, stderr, chaining_bound(profile, exponent, sup_bound, m))
            for m, (mean, stderr) in zip(p["m_sweep"], estimates)]
    header = ["m", "measured_mean", "measured_stderr", "entropy_bound"]
    return header, rows, {"profile.json": profile.to_json()}


def _summarize_chaining_compare(cfg, header, rows, strict):
    ratios = [mean / bound for _, mean, _, bound in rows if bound > 0]
    results = {
        "implied_constants": ratios,
        "max_implied_constant": max(ratios) if ratios else None,
        "note": "the absolute constant in the entropy-sum bound is unknown; "
                "values are reported, never asserted",
    }
    checks = []
    cap = cfg.assertions.get("bound_dominates_with_constant")
    if cap is not None and ratios:
        checks.append(_assertion("measured_below_scaled_bound",
                                 max(ratios) <= cap,
                                 {"max_implied_constant": max(ratios),
                                  "allowed": cap}))
    return results, checks


def _run_fit(cfg: ExperimentConfig):
    p = cfg.params
    try:
        header_in, rows_in = read_csv(p["input_csv"])
    except FileNotFoundError:
        raise ConfigError(f"params.input_csv: no such file {p['input_csv']}",
                          path="params.input_csv") from None
    except StopIteration:
        raise ConfigError(f"params.input_csv: {p['input_csv']} has no header row",
                          path="params.input_csv") from None
    for line, row in enumerate(rows_in, start=2):
        if len(row) < len(header_in):
            raise ConfigError(
                f"params.input_csv: line {line} of {p['input_csv']} has "
                f"{len(row)} of the header's {len(header_in)} fields: {list(row)}",
                path="params.input_csv")
    columns = []
    for axis in ("x_column", "y_column"):
        if p[axis] not in header_in:
            raise ConfigError(
                f"params.{axis}: column {p[axis]!r} not in {header_in}",
                path=f"params.{axis}")
        with _building(axis):
            columns.append([float(v) for v in _column(header_in, rows_in, p[axis])])
    xs, ys = columns
    if p.get("aggregate", "none") == "mean_by_x":
        groups: dict = {}
        for x, y in zip(xs, ys):
            groups.setdefault(x, []).append(y)
        pairs = [(x, float(np.mean(v))) for x, v in sorted(groups.items())]
    else:
        pairs = list(zip(xs, ys))
    return ["x", "y"], pairs, {}


def _summarize_fit(cfg, header, rows, strict):
    pts = [(x, y) for x, y in rows if x > 0 and y > 0]
    results = {"points_used": len(pts)}
    return results, _slope_fit(cfg, pts, "fit_slope_in_range", results)


def _maybe_parallel(fn, items, threads):
    if threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def _svg_mean_by_m(rows, summary):
    means = summary["results"].get("means") or []
    return ([e["m"] for e in means], [e["mean"] for e in means])


def _svg_positive_pairs(rows, summary):
    pts = [(x, y) for x, y in rows if x > 0 and y > 0]
    return ([x for x, _ in pts], [y for _, y in pts])


class Kind(NamedTuple):
    """One experiment kind: CLI subcommand, runner, summarizer, SVG series.

    The runner produces CSV rows and artifacts, the summarizer is pure in
    the rows, and the optional series maps (rows, summary) to the (xs, ys)
    of the SVG chart.
    """

    subcommand: str
    run: Callable
    summarize: Callable
    svg_series: Callable | None = None


KINDS = {
    "usd_search": Kind("usd-search", _run_usd_search, _summarize_usd_search),
    "usd_verify": Kind("usd-verify", _run_usd_verify, _summarize_usd_verify),
    "entropy_profile": Kind("entropy", _run_entropy, _summarize_entropy,
                            _svg_positive_pairs),
    "er_rate": Kind("er-rate", _run_er_rate, _summarize_er_rate, _svg_mean_by_m),
    "recovery_rate": Kind("recover", _run_recovery_rate, _summarize_recovery_rate),
    "chaining_compare": Kind("chaining-compare", _run_chaining_compare,
                             _summarize_chaining_compare),
    "fit": Kind("fit", _run_fit, _summarize_fit, _svg_positive_pairs),
}


@dataclass
class RunOutcome:
    config: ExperimentConfig
    header: list
    rows: list
    summary: dict
    passed: bool
    csv_path: str
    summary_path: str


def _summary(config: ExperimentConfig, header, rows, strict) -> dict:
    results, checks = KINDS[config.kind].summarize(config, header, rows, strict)
    return {
        "kind": config.kind,
        "seed": config.seed,
        "params": config.params,
        "results": results,
        "assertions": checks,
        "passed": all(c["passed"] for c in checks),
    }


def run(config, strict: bool = False) -> RunOutcome:
    """Execute one experiment: CSV rows, artifacts, summary, verdict."""
    if not isinstance(config, ExperimentConfig):
        config = validate_config(config)
    spec = KINDS[config.kind]
    header, rows, artifacts = spec.run(config)
    summary = _summary(config, header, rows, strict)
    os.makedirs(config.out, exist_ok=True)
    csv_path = os.path.join(config.out, f"{config.kind}.csv")
    write_csv(csv_path, header, rows)
    for name, payload in artifacts.items():
        jsonio.dump_path(payload, os.path.join(config.out, name))
    summary_path = os.path.join(config.out, "summary.json")
    jsonio.dump_path(summary, summary_path)
    if config.svg and spec.svg_series is not None:
        series = spec.svg_series(rows, summary)
        if len(series[0]) >= 2:
            fit_json = summary["results"].get("fit")
            fit = RateFit(**fit_json) if isinstance(fit_json, dict) else None
            write_svg_loglog(os.path.join(config.out, f"{config.kind}.svg"),
                             series[0], series[1], fit, title=config.kind)
    return RunOutcome(config, header, rows, summary, summary["passed"], csv_path,
                      summary_path)


def resummarize(csv_path, config, strict: bool = False) -> dict:
    """Recompute the summary verdict from an existing CSV; pure in the rows."""
    if not isinstance(config, ExperimentConfig):
        config = validate_config(config)
    return _summary(config, *read_csv(csv_path), strict)
