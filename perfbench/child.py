"""One workload process: set-up, then timed passes or a traced comparison.

Started by ``run.py`` with the checkout's ``src`` first on PYTHONPATH.  It
prints one ``READY {...}`` line when set-up is done (interpreter, ``import
usdlab``, generated inputs and configs, and a warm-up that pulls in every
lazily imported module), and one JSON result line at the end.  Everything
the package prints goes to a captured buffer, never to this stdout.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import statistics
import sys
import time


def blas_info():
    """BLAS name and thread count as the loaded library reports them."""
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"name": blas.get("name"), "version": blas.get("version"),
            "config": blas.get("openblas configuration"),
            "threads": threads,
            "env": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}}


def check_jobs(jobs):
    """Run every job's check once: (failed job count, messages)."""
    per_job = [job.failures() for job in jobs]
    return sum(1 for f in per_job if f), [msg for f in per_job for msg in f]


def timed_passes(wl, seconds, work_dir):
    """Closed loop: passes back to back while another one fits in ``seconds``.

    At least two passes run; after that a pass starts while half the
    median pass so far still fits in ``seconds``, so the timed region ends
    on average at ``seconds`` whatever the pass length.  Reference units
    run before every job (``pace.Pacer``); a pass's time excludes them.
    """
    from pace import Pacer
    from workloads import MAX_PASSES
    pacer = Pacer(wl.ref_units)
    wl.pacer = pacer
    pass_s, whole_s, cpu_s, jobs = [], [], [], []
    start = time.perf_counter()
    for k in range(MAX_PASSES):
        elapsed = time.perf_counter() - start
        if k >= 2 and elapsed + statistics.median(whole_s) / 2 > seconds:
            break
        c0 = os.times()
        paced = pacer.total_s
        t0 = time.perf_counter()
        done = wl.run_pass(k, os.path.join(work_dir, f"pass-{k}"))
        t1 = time.perf_counter()
        c1 = os.times()
        whole_s.append(t1 - t0)
        pass_s.append(t1 - t0 - (pacer.total_s - paced))
        cpu_s.append((c1.user - c0.user) + (c1.system - c0.system))
        jobs.extend(done)
    wl.pacer = None
    failed, failures = check_jobs(jobs)
    return {"pass_s": pass_s, "cpu_s": cpu_s, "attempted": len(jobs),
            "ref_units": pacer.count, "ref_unit_s": pacer.mean_unit_s(),
            "ref_scale": pacer.scale(),
            "failed": failed, "failures": failures[:20]}


def mark_traced_differences(plain, traced):
    """Fail every traced job whose files or returned values differ."""
    if [j.name for j in plain] != [j.name for j in traced]:
        for b in traced:
            if b.ok:
                b.ok, b.error = False, "the traced pass ran different jobs"
        return
    for a, b in zip(plain, traced):
        differ = [os.path.basename(fa) for fa, fb in zip(a.files, b.files)
                  if _read(fa) != _read(fb)]
        if a.values != b.values:
            differ.append("returned values")
        if differ and b.ok:
            b.ok, b.error = False, f"differs when traced: {', '.join(differ)}"


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def traced_comparison(workloads, work_dir):
    """Per workload: pass 0 untraced, then the same pass traced.

    Every workload is traced in every traced run, so each per-layer metric
    is measured on the workloads that call that layer.
    """
    import tracer as tr
    metrics, jobs, passes = {}, [], {}
    for wl in workloads:
        base = os.path.join(work_dir, wl.name)
        c0 = os.times()
        t0 = time.perf_counter()
        plain = wl.run_pass(0, os.path.join(base, "untraced"))
        t1 = time.perf_counter()
        c1 = os.times()
        rec = tr.Tracer()
        tr.install(rec)
        wl.tracer = rec
        try:
            t2 = time.perf_counter()
            with rec.span("bench.pass"):
                traced = wl.run_pass(0, os.path.join(base, "traced"))
            t3 = time.perf_counter()
        finally:
            wl.tracer = None
            rec.uninstall()
        rec.write(os.path.join(work_dir, f"trace-{wl.name}.json"))
        mark_traced_differences(plain, traced)
        layer = tr.layer_metrics(rec)
        layer["process.cpu_s"] = (c1.user - c0.user) + (c1.system - c0.system)
        layer["trace.overhead_s"] = (t3 - t2) - (t1 - t0)
        metrics.update({f"{wl.name}.{k}": layer[k] for k in wl.traced_metrics})
        jobs += plain + traced
        passes[wl.name] = {"untraced_s": t1 - t0, "traced_s": t3 - t2}
    failed, failures = check_jobs(jobs)
    return {"passes": passes, "metrics": metrics, "attempted": len(jobs),
            "failed": failed, "failures": failures[:20]}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--src", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    import usdlab
    import_s = time.perf_counter() - t0
    src = os.path.realpath(args.src)
    if not os.path.realpath(usdlab.__file__).startswith(src + os.sep):
        print(f"usdlab imported from {usdlab.__file__}, not from {src}",
              file=sys.stderr)
        return 3
    from workloads import WORKLOADS
    os.makedirs(args.work_dir, exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, args.work_dir)
    t1 = time.perf_counter()
    wl.prepare()
    inputs_s = time.perf_counter() - t1
    wl.warmup()
    ready = {"import_s": import_s, "inputs_s": inputs_s}
    print("READY " + json.dumps(ready), flush=True)
    if args.setup_only:
        return 0
    if args.trace:
        traced = [wl if name == args.workload
                  else cls(args.seed, os.path.join(args.work_dir, name))
                  for name, cls in WORKLOADS.items()]
        for other in traced:
            if other is not wl:
                other.prepare()
                other.warmup()
        result = traced_comparison(traced, args.work_dir)
    else:
        result = timed_passes(wl, args.seconds, args.work_dir)
    import numpy as np
    import scipy
    result["machine"] = {
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "blas": blas_info(),
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
