"""usdlab benchmark entry point: one workload run, one JSON result line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0

Load generator: a closed loop with one client.  This process starts child
processes (``child.py``) with the checkout's ``src`` first on PYTHONPATH;
the work child runs passes of jobs back to back within ``--seconds`` and
checks every job's output after the timed region.  Generated configs set
``threads: 1``; BLAS keeps its default thread count, which is recorded.

``--trace 0`` reports the end-to-end metrics: ``norm_pass_s`` (mean pass
time) and ``setup_s`` (median spawn-to-ready time over SETUP_SAMPLES
set-up-only children), both rescaled to the reference speed by reference
units timed in the same process and phase (``pace.py``), and
``peak_rss_mib`` (the work child's own peak RSS from ``os.wait4``).  The raw
times are printed beside them.  ``--trace 1`` runs, for every workload, one
pass untraced and the same pass traced, requires byte-identical outputs,
and reports per-layer metrics named ``<workload>.<layer metric>``.
The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 5
SETUP_REF_UNITS = 3
RUN_LIMIT_S = 170.0
CACHE_INDEX = "/sys/devices/system/cpu/cpu0/cache"


class ChildError(RuntimeError):
    pass


def spawn(args, root, work_dir, deadline, setup_only=False):
    """Start one child; return (setup seconds, result dict, rusage)."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, os.path.join(BENCH_DIR, "child.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir, "--src", src]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                            text=True)
    timer = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
    timer.start()
    setup_s, lines = None, []
    try:
        for line in proc.stdout:
            if setup_s is None and line.startswith("READY "):
                setup_s = time.perf_counter() - start
                ready = json.loads(line[len("READY "):])
            else:
                lines.append(line)
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
    if proc.returncode != 0 or setup_s is None:
        raise ChildError(f"child exited with code {proc.returncode}")
    result = json.loads(lines[-1]) if lines else {}
    result.update(ready)
    return setup_s, result, usage


def cache_sizes():
    """Cache level/type/size as the kernel lists them for cpu0."""
    out = []
    if not os.path.isdir(CACHE_INDEX):
        return out
    for entry in sorted(os.listdir(CACHE_INDEX)):
        base = os.path.join(CACHE_INDEX, entry)
        if not entry.startswith("index"):
            continue
        fields = {}
        for key in ("level", "type", "size", "shared_cpu_list"):
            with open(os.path.join(base, key), encoding="utf-8") as fh:
                fields[key] = fh.read().strip()
        out.append(fields)
    return out


def machine_record(child_machine):
    import workloads
    traversal = workloads.ENTROPY_REPS * 2 ** workloads.ENTROPY_GRID * 4 * 2
    rec = dict(child_machine)
    rec["config_threads"] = 1
    rec["caches"] = cache_sizes()
    rec["traversal_sample_bytes"] = traversal
    return rec


def percentile_with_tail(values, tail=10):
    """Highest percentile with at least ``tail`` samples beyond it, or None."""
    n = len(values)
    if n <= tail:
        return None
    q = 100.0 * (n - tail) / n
    return q, sorted(values)[n - tail - 1]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    sys.path.insert(0, BENCH_DIR)
    import pace
    import tracer
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "usdlab", "__init__.py")):
        print("run from the root of a usdlab checkout: src/usdlab is missing",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    out_root = os.path.join(root, ".perfbench_out",
                            f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(out_root, ignore_errors=True)
    os.makedirs(out_root)

    # set-up-only children, each between two slots of reference units
    setups, pacer = [], pace.Pacer(SETUP_REF_UNITS)
    try:
        if not args.trace:
            pacer.slot()
            for i in range(SETUP_SAMPLES):
                s, _, _ = spawn(args, root, os.path.join(out_root, f"setup-{i}"),
                                deadline, setup_only=True)
                setups.append(s)
                pacer.slot()
        work_setup_s, result, usage = spawn(args, root, os.path.join(out_root, "work"),
                                            deadline)
    except (ChildError, ValueError) as exc:
        print(f"benchmark child failed: {exc}", file=sys.stderr)
        return 1

    # job outputs were checked in the child; keep only the run's records
    for entry in os.listdir(out_root):
        if entry != "work":
            shutil.rmtree(os.path.join(out_root, entry))
    work = os.path.join(out_root, "work")
    for entry in os.listdir(work):
        if entry.startswith("trace-"):
            os.replace(os.path.join(work, entry), os.path.join(out_root, entry))
    shutil.rmtree(work)

    machine = machine_record(result["machine"])
    with open(os.path.join(out_root, "machine.json"), "w", encoding="utf-8") as fh:
        json.dump(machine, fh, indent=2)
    print(f"machine: {json.dumps(machine)}")
    for msg in result["failures"]:
        print(f"FAILED {msg}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"fail_ratio: {failed / attempted:.6g} (1), {failed} of {attempted} jobs")

    if args.trace:
        metrics = dict(result["metrics"])
        metrics["usdlab.import_s"] = result["import_s"]
        metrics["bench.inputs_s"] = result["inputs_s"]
        units = {name: tracer.unit_of(name) for name in metrics}
        for name, p in result["passes"].items():
            print(f"{name}: traced pass {p['traced_s']:.4f} s, untraced "
                  f"{p['untraced_s']:.4f} s; outputs compared byte for byte")
    else:
        passes = result["pass_s"]
        metrics = {"norm_pass_s": statistics.mean(passes) * result["ref_scale"],
                   "setup_s": statistics.median(setups) * pacer.scale(),
                   "peak_rss_mib": usage.ru_maxrss / 1024.0}
        units = {"norm_pass_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}
        tail = percentile_with_tail(passes)
        tail_txt = (f"p{tail[0]:.0f} {tail[1]:.4f} s" if tail else
                    f"no percentile has 10 passes beyond it (max {max(passes):.4f} s)")
        print(f"wall_s: median {statistics.median(passes):.4f} s over {len(passes)} "
              f"passes, mean {statistics.mean(passes):.4f} s, {tail_txt}; cpu "
              f"{sum(result['cpu_s']):.4f} s with the reference units; passes "
              f"{' '.join(f'{p:.3f}' for p in passes)}")
        print(f"norm_pass_s: {metrics['norm_pass_s']:.4f} s, the mean pass at the "
              f"reference speed; reference unit {1e3 * result['ref_unit_s']:.2f} ms "
              f"over {result['ref_units']} units, {1e3 * pace.REF_UNIT_S:.0f} ms "
              f"at the reference speed")
        print(f"setup_s: {metrics['setup_s']:.4f} s at the reference speed; raw "
              f"median {statistics.median(setups):.4f} s of {len(setups)} children, "
              f"reference unit {1e3 * pacer.mean_unit_s():.2f} ms; work child "
              f"{work_setup_s:.4f} s, import usdlab {result['import_s']:.4f} s, "
              f"inputs {result['inputs_s']:.4f} s")
        print(f"peak_rss_mib: {metrics['peak_rss_mib']:.2f} MiB")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
