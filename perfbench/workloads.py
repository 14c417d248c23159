"""The three benchmark workloads, as passes of jobs over generated inputs.

A pass is one closed-loop unit of work: its jobs run back to back, each
on inputs derived from ``(--seed, pass index, job index)``.  CLI jobs go
through ``usdlab.cli.main`` with configs written at set-up; library jobs
call the package's public functions.  Every job returns a ``Job`` whose
``check`` runs after the timed region and whose ``files``/``values`` let a
traced pass be compared with an untraced one.

* certify (questions 1-2): one node set reused across thousands of
  subsets -- dictionary evaluation, Gram/eigen work, the p = 4 multistart.
  No traversal, no IRLS.
* profile (question 3): the farthest-point traversal over a 16 MiB float32
  sample and the Monte-Carlo gap sweep, which draws fresh nodes every
  trial (node evaluation with no reuse).  No Gram/eigen, multistart, IRLS.
* recover (question 4): search, IRLS projections, the exhaustive oracle,
  WCGA, the oracle pipeline and block greedy over level-budget elements
  (the only workload that loads ``smoothness``/``frequencies``).  No
  traversal, no multistart.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
from dataclasses import dataclass, field

import numpy as np

import checks

MAX_PASSES = 32


def derive_seed(*key):
    """A 32-bit config seed derived from the run seed and a job key."""
    return int(np.random.SeedSequence([int(k) for k in key]).generate_state(1)[0])


@dataclass
class Job:
    name: str
    ok: bool
    error: str | None = None
    files: list = field(default_factory=list)
    values: tuple = ()
    check: object = None

    def failures(self):
        if not self.ok:
            return [f"{self.name}: {self.error}"]
        if self.check is None:
            return []
        try:
            found = self.check()
        except Exception as exc:  # unreadable or malformed output
            found = [f"check raised {type(exc).__name__}: {exc}"]
        return [f"{self.name}: {msg}" for msg in found]


def write_config(path, kind, seed, params, assertions=None):
    # the schema requires "out"; every job passes --out on the command line
    cfg = {"kind": kind, "seed": seed, "out": "unused", "threads": 1,
           "params": params}
    if assertions is not None:
        cfg["assertions"] = assertions
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh)


# per-layer metrics every workload reports (see tracer.layer_metrics)
COMMON_TRACED = (
    "dictionary.values_at.calls", "dictionary.values_at.self_s",
    "trigpoly.TrigPolynomial.evaluate.calls",
    "trigpoly.TrigPolynomial.evaluate.self_s",
    "experiments.run.self_s", "jsonio.dump_path.bytes", "jsonio.dump_path.self_s",
    "cli.main.self_s", "process.cpu_s", "trace.overhead_s", "trace.spans",
)


class Workload:
    """Inputs for up to MAX_PASSES passes are generated in ``prepare``.

    ``traced_metrics`` lists the per-layer metrics of the layers the
    workload calls; the traced run reports them as ``<name>.<metric>``.
    ``ref_units`` is the number of reference units timed before each job
    in a timed pass (see ``pace.py``), about 5 % of the pass time.
    """

    name = ""
    traced_metrics = COMMON_TRACED
    ref_units = 1

    def __init__(self, seed, work_dir):
        self.seed = int(seed)
        self.work_dir = work_dir
        self.config_dir = os.path.join(work_dir, "configs")
        self.tracer = None
        self.pacer = None

    def pace(self):
        """Time reference units before a job, outside the job's own time."""
        if self.pacer is not None:
            self.pacer.slot()

    def job_span(self, name):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(f"bench.job.{name}")

    def run_cli(self, name, subcommand, config_path, out_dir, check, files):
        """One CLI job; stdout is captured so it never mixes with the result."""
        import usdlab.cli
        self.pace()
        buf = io.StringIO()
        try:
            with self.job_span(name), contextlib.redirect_stdout(buf):
                code = usdlab.cli.main([subcommand, "--config", config_path,
                                        "--out", out_dir])
        except Exception as exc:  # a job that raises counts as failed
            return Job(name, False, f"{type(exc).__name__}: {exc}")
        if code != 0:
            return Job(name, False, f"exit code {code}: {buf.getvalue()[-300:]}")
        return Job(name, True, files=[os.path.join(out_dir, f) for f in files],
                   check=check)

    def run_lib(self, name, fn, check, values):
        """One library job; returns the job record and the result (or None)."""
        self.pace()
        try:
            with self.job_span(name):
                result = fn()
        except Exception as exc:
            return Job(name, False, f"{type(exc).__name__}: {exc}"), None
        return Job(name, True, values=values(result),
                   check=lambda: check(result)), result

    def config(self, label):
        return os.path.join(self.config_dir, f"{label}.json")

    def prepare(self):
        os.makedirs(self.config_dir, exist_ok=True)
        for k in range(MAX_PASSES):
            self.prepare_pass(k)

    def prepare_pass(self, k):
        raise NotImplementedError

    def warmup(self):
        """Tiny jobs on every code path, so lazy first-use costs land in set-up."""
        raise NotImplementedError

    def run_pass(self, k, out_dir):
        raise NotImplementedError


# -- certify ----------------------------------------------------------------

P2_BAND, P2_V, P2_M, P2_CERTS = (-8, 8), 4, 256, 3
# three p = 4 certificates of one seeded pair each, each on its own node set:
# the multistart's cost depends on the node set, so three of them per pass
# average out that part of the input-to-input variation
P4_BAND, P4_M, P4_STARTS, P4_CERTS = (-3, 3), 512, 64, 3


class Certify(Workload):
    name = "certify"
    ref_units = 2
    traced_metrics = COMMON_TRACED + (
        "dictionary.continuous_gram.calls", "dictionary.continuous_gram.self_s",
        "discretization.check_usd.subsets",
        "discretization.check_usd.p2.values_at_per_certificate",
        "discretization.check_usd.p2.ratio_calls_per_certificate",
        "discretization.subspace_ratio_bounds.p2.self_s",
        "discretization.subspace_ratio_bounds.p4.self_s",
        "discretization.subspace_ratio_bounds.nonconverged",
        "discretization.multistart.converged_ratio",
        "points.PointSet.random_uniform.calls",
        "points.PointSet.random_uniform.self_s",
    )

    def prepare_pass(self, k):
        for j in range(P2_CERTS):
            s = derive_seed(self.seed, k, j)
            write_config(self.config(f"p2-{k}-{j}"), "usd_verify", s, {
                "band": list(P2_BAND), "v": P2_V, "p": 2,
                "points": {"seeded": {"m": P2_M, "seed": s}}},
                {"must_pass": False})
        pairs = list(itertools.combinations(range(P4_BAND[1] - P4_BAND[0] + 1), 2))
        for j in range(P4_CERTS):
            s = derive_seed(self.seed, k, P2_CERTS + j)
            pick = np.random.default_rng(s).integers(len(pairs))
            write_config(self.config(f"p4-{k}-{j}"), "usd_verify", s, {
                "band": list(P4_BAND), "v": 2, "p": 4,
                "subsets": [list(pairs[pick])],
                "points": {"seeded": {"m": P4_M, "seed": s}},
                "opts": {"starts": P4_STARTS}},
                {"must_pass": False})

    def warmup(self):
        out = os.path.join(self.work_dir, "warmup")
        write_config(self.config("warm-p2"), "usd_verify", 1, {
            "band": [-1, 1], "v": 1, "p": 2, "points": {"seeded": {"m": 8}}})
        write_config(self.config("warm-p4"), "usd_verify", 1, {
            "band": [-1, 1], "v": 1, "p": 4, "points": {"seeded": {"m": 8}},
            "opts": {"starts": 2, "max_iters": 3}}, {"must_pass": False})
        self.run_cli("warm", "usd-verify", self.config("warm-p2"), out, None, [])
        self.run_cli("warm", "usd-verify", self.config("warm-p4"), out, None, [])

    def run_pass(self, k, out_dir):
        jobs = []
        freqs2 = np.arange(P2_BAND[0], P2_BAND[1] + 1)
        for j in range(P2_CERTS):
            d = os.path.join(out_dir, f"p2-{j}")
            jobs.append(self.run_cli(
                "usd-verify.p2", "usd-verify", self.config(f"p2-{k}-{j}"), d,
                lambda d=d: checks.check_p2_certificate(d, freqs2, P2_V),
                ["usd_verify.csv", "summary.json", "certificate.json"]))
        freqs4 = np.arange(P4_BAND[0], P4_BAND[1] + 1)
        for j in range(P4_CERTS):
            d = os.path.join(out_dir, f"p4-{j}")
            jobs.append(self.run_cli(
                "usd-verify.p4", "usd-verify", self.config(f"p4-{k}-{j}"), d,
                lambda d=d: checks.check_p4_certificate(d, freqs4),
                ["usd_verify.csv", "summary.json", "certificate.json"]))
        return jobs


# -- profile ----------------------------------------------------------------

ENTROPY_BAND, ENTROPY_REPS, ENTROPY_GRID, ENTROPY_NMAX = (-32, 31), 2048, 10, 10
ER_FREQ, ER_FUNCTIONS, ER_TRIALS = 16, 20, 200
ER_SWEEP = [16, 32, 64, 128, 256, 512, 1024, 2048, 4096]


class Profile(Workload):
    name = "profile"
    ref_units = 8
    traced_metrics = COMMON_TRACED + (
        "discretization.discretization_error_trials.self_s",
        "discretization.discretization_error_trials.trials",
        "entropy.SampledClass.from_l1_ball.self_s",
        "entropy.farthest_point_radii.self_s",
        "entropy.farthest_point_radii.centers",
        "entropy.farthest_point_radii.bytes_computed",
        "entropy.farthest_point_radii.gbps_computed",
        "entropy.entropy_numbers.self_s",
        "trigpoly.lp_norm.calls", "trigpoly.lp_norm.self_s",
    )

    def prepare_pass(self, k):
        write_config(self.config(f"entropy-{k}"), "entropy_profile",
                     derive_seed(self.seed, k, 0), {
                         "band": list(ENTROPY_BAND),
                         "n_representatives": ENTROPY_REPS,
                         "grid_level": ENTROPY_GRID, "n_max": ENTROPY_NMAX})
        write_config(self.config(f"er-{k}"), "er_rate",
                     derive_seed(self.seed, k, 1), {
                         "max_abs_freq": ER_FREQ, "n_functions": ER_FUNCTIONS,
                         "p": 2, "m_sweep": ER_SWEEP, "mc_trials": ER_TRIALS})

    def warmup(self):
        out = os.path.join(self.work_dir, "warmup")
        write_config(self.config("warm-entropy"), "entropy_profile", 1, {
            "band": [-2, 2], "n_representatives": 8, "grid_level": 4, "n_max": 2})
        write_config(self.config("warm-er"), "er_rate", 1, {
            "max_abs_freq": 2, "n_functions": 2, "p": 2, "m_sweep": [4, 8, 16],
            "mc_trials": 2}, {"slope_range": [-100, 100]})
        self.run_cli("warm", "entropy", self.config("warm-entropy"), out, None, [])
        self.run_cli("warm", "er-rate", self.config("warm-er"), out, None, [])

    def run_pass(self, k, out_dir):
        d_ent = os.path.join(out_dir, "entropy")
        d_er = os.path.join(out_dir, "er-rate")
        ent_seed = derive_seed(self.seed, k, 0)
        er_seed = derive_seed(self.seed, k, 1)
        freqs_ent = np.arange(ENTROPY_BAND[0], ENTROPY_BAND[1] + 1)
        freqs_er = np.arange(-ER_FREQ, ER_FREQ + 1)
        return [
            self.run_cli("entropy", "entropy", self.config(f"entropy-{k}"), d_ent,
                         lambda: checks.check_entropy_profile(
                             d_ent, freqs_ent, ENTROPY_REPS, ENTROPY_GRID, ent_seed),
                         ["entropy_profile.csv", "summary.json", "profile.json"]),
            self.run_cli("er-rate", "er-rate", self.config(f"er-{k}"), d_er,
                         lambda: checks.check_er_rate(d_er, freqs_er, ER_FUNCTIONS,
                                                      ER_SWEEP, ER_TRIALS, er_seed),
                         ["er_rate.csv", "summary.json"]),
        ]


# -- recover ----------------------------------------------------------------

REC_FREQS = [k for k in range(-6, 7) if k != 0]
REC_SEARCH_V, REC_M, REC_P, REC_V = 6, 256, 4, 3
REC_INSTANCES, REC_PIPELINES = 6, 2
REC_N_SWEEP = [3, 4, 5, 6, 7, 8]
REC_TAIL = (-8, 8, 0, 7, -7)


class Recover(Workload):
    name = "recover"
    ref_units = 1
    traced_metrics = COMMON_TRACED + (
        "dictionary.continuous_gram.calls", "dictionary.continuous_gram.self_s",
        "discretization.check_usd.subsets",
        "discretization.subspace_ratio_bounds.p2.self_s",
        "discretization.find_usd_points.draws",
        "discretization.find_usd_points.pass_ratio",
        "recovery.chebyshev_projection.calls",
        "recovery.chebyshev_projection.self_s",
        "recovery.chebyshev_projection.irls_iters",
        "recovery.chebyshev_projection.nonconverged",
        "recovery.best_v_term_oracle.calls", "recovery.best_v_term_oracle.self_s",
        "recovery.best_v_term_oracle.subsets",
        "recovery.best_v_term_oracle.projections_per_call",
        "recovery.weak_chebyshev_greedy.self_s",
        "recovery.weak_chebyshev_greedy.iters",
        "recovery.recovery_pipeline.calls", "recovery.recovery_pipeline.oracle_calls",
        "recovery.recovery_pipeline.oracle_per_call",
        "recovery.block_greedy_approximant.self_s",
        "smoothness.level_budget_element.self_s",
        "frequencies.level_frequencies.calls", "frequencies.level_frequencies.self_s",
        "trigpoly.lp_norm.calls", "trigpoly.lp_norm.self_s",
        "points.PointSet.random_uniform.calls",
        "points.PointSet.random_uniform.self_s",
    )

    def prepare(self):
        import usdlab
        self.dictionary = usdlab.Dictionary.exponentials(
            usdlab.FrequencySet.from_indices([(k,) for k in REC_FREQS]))
        self.collection = usdlab.SubspaceCollection.all_subsets(
            self.dictionary, REC_SEARCH_V)
        self.targets = {}
        super().prepare()

    def prepare_pass(self, k):
        import usdlab
        rng = np.random.default_rng(derive_seed(self.seed, k, 0))
        targets = []
        for _ in range(REC_INSTANCES + REC_PIPELINES):
            a = rng.standard_normal(len(REC_FREQS)) + 1j * rng.standard_normal(len(REC_FREQS))
            a = a / np.abs(a).sum() * 3.0
            tail = 0.1 * (rng.standard_normal(len(REC_TAIL))
                          + 1j * rng.standard_normal(len(REC_TAIL)))
            coeffs = {(f,): c for f, c in zip(REC_FREQS, a)}
            coeffs.update({(f,): c for f, c in zip(REC_TAIL, tail)})
            targets.append(usdlab.TrigPolynomial(coeffs))
        self.targets[k] = targets
        write_config(self.config(f"recover-{k}"), "recovery_rate",
                     derive_seed(self.seed, k, 1), {
                         "a_values": [1.0], "b": 0.0, "max_level": 20,
                         "support_cap": 4096, "n_sweep": REC_N_SWEEP})

    def warmup(self):
        import usdlab
        out = os.path.join(self.work_dir, "warmup")
        write_config(self.config("warm-recover"), "recovery_rate", 1, {
            "a_values": [1.0], "max_level": 4, "support_cap": 4,
            "n_sweep": [1, 2, 3]}, {"slope_tolerance": 100.0})
        self.run_cli("warm", "recover", self.config("warm-recover"), out, None, [])
        d = usdlab.Dictionary.exponential_band(-2, 2)
        coll = usdlab.SubspaceCollection.all_subsets(d, 2)
        found = usdlab.find_usd_points(coll, 2, m=32, max_trials=2, rng_seed=1)
        f = usdlab.TrigPolynomial({(1,): 1.0, (3,): 0.5j})
        inst = usdlab.DiscreteInstance.from_function(f, d, found.points, REC_P)
        usdlab.weak_chebyshev_greedy(inst, max_iter=2)
        usdlab.recovery_pipeline(f, d, found.points, 1, REC_P, ("oracle", {}),
                                 certificate=found.certificate)

    def run_pass(self, k, out_dir):
        import usdlab
        d = self.dictionary
        seed = derive_seed(self.seed, k, 2)
        job, search = self.run_lib(
            "find_usd_points",
            lambda: usdlab.find_usd_points(self.collection, 2, m=REC_M,
                                           max_trials=20, rng_seed=seed),
            lambda r: checks.check_search(r, REC_FREQS, REC_SEARCH_V),
            lambda r: (r.draw_index, *r.certificate.min_ratios,
                       *r.certificate.max_ratios))
        if search is None:
            return [job]
        jobs = [job]
        xi = search.points
        targets = self.targets[k]
        for f in targets[:REC_INSTANCES]:
            def both(f=f):
                inst = usdlab.DiscreteInstance.from_function(f, d, xi, REC_P)
                greedy = usdlab.weak_chebyshev_greedy(inst, max_iter=3 * REC_V)
                return greedy, usdlab.best_v_term_oracle(inst, REC_V)
            jobs.append(self.run_lib(
                "wcga+oracle", both,
                lambda r: checks.check_oracle_vs_greedy(r[1], r[0], REC_V),
                lambda r: (r[0].residual_norm, r[1].residual_norm, *r[1].support))[0])
        for f in targets[REC_INSTANCES:]:
            jobs.append(self.run_lib(
                "recovery_pipeline",
                lambda f=f: usdlab.recovery_pipeline(
                    f, d, xi, REC_V, REC_P, ("oracle", {}),
                    certificate=search.certificate),
                checks.check_pipeline,
                lambda r: (r.discrete_residual, r.continuous_error,
                           r.sigma_discrete))[0])
        d_rec = os.path.join(out_dir, "recover")
        jobs.append(self.run_cli(
            "recover", "recover", self.config(f"recover-{k}"), d_rec,
            lambda: checks.check_recovery_rate(d_rec, REC_N_SWEEP),
            ["recovery_rate.csv", "summary.json"]))
        return jobs


WORKLOADS = {w.name: w for w in (Certify, Profile, Recover)}
