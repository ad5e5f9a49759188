"""Benchmark of the multiewens package: four workloads, end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload exact-desk --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1        # every workload

Each workload runs in its own child process (perfbench/worker.py) with
BLAS/OpenMP threads pinned to 1: a single caller in a closed loop, one library
call in flight.  With ``--trace 0`` the last stdout line is a JSON object with
the end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics of
a traced run.  Times are seconds at a fixed reference speed: each is scaled
by how fast a package-independent reference computation ran next to it (see
reference.py), which removes most of the host's CPU speed drift; the raw
seconds are kept in the result file.  Every run also writes a result file with its provenance under
``--out`` (default perfbench/out).  The workloads and their checks are in
workloads.py, the span tracer in spans.py, and compare.py compares two sets
of result files.
"""

from __future__ import annotations

import argparse
import glob
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("exact-desk", "mc-desk", "large-n", "wf-stationary")
SETUP_RUNS = 5  # set-ups per run; setup_s is their median
RUN_LIMIT_S = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

END_TO_END = {
    "wall_s": "s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}


class RunFailed(Exception):
    pass


def spawn(args: list[str], deadline: float) -> dict:
    """Run the worker to completion and return its JSON result."""
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PERFBENCH_T0"] = repr(time.monotonic())
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), *args],
            env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise RunFailed(f"worker exceeded {timeout:.0f}s") from exc
    if proc.returncode != 0:
        raise RunFailed(f"worker exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def provenance(seed: int, run_index: int) -> dict:
    cpu_model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), "")
    except OSError:
        pass
    versions = {}
    for pkg in ("numpy", "scipy", "click"):
        try:
            versions[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            versions[pkg] = None
    commit, dirty = None, None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        def git(*cmd):
            return subprocess.run(["git", *cmd], cwd=ROOT, capture_output=True, text=True,
                                  timeout=30).stdout.strip()
        commit = git("rev-parse", "HEAD") or None
        dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    src_lines = 0
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "multiewens", "*.py"))):
        with open(path) as fh:
            src_lines += sum(1 for line in fh if line.strip())
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        **versions,
        "git_commit": commit,
        "git_dirty": dirty,
        "seed": seed,
        "run_index": run_index,
        "threads": {var: "1" for var in THREAD_VARS},
        "src_nonblank_lines": src_lines,
    }


def run_workload(name: str, args) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    tmp = os.path.join(args.out, f"tmp-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    common = ["--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
              "--tmp", tmp] + (["--tiny"] if args.tiny else [])
    setups = []
    try:
        if not args.trace:
            for _ in range(SETUP_RUNS - 1):
                setups.append(spawn(common + ["--setup-only"], deadline))
        child = spawn(common + ["--trace", str(args.trace)], deadline)
    finally:
        for leftover in glob.glob(os.path.join(tmp, "*")):
            os.remove(leftover)
        os.rmdir(tmp)
    setups.append({key: child[key] for key in ("setup_s", "setup_raw_s")})
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    if args.trace:
        values, units = child["layer"], spans.PER_LAYER
    else:
        values = dict(
            child["metrics"],
            setup_s=statistics.median(s["setup_s"] for s in setups),
            peak_rss_mb=peak_rss_mb,
        )
        units = END_TO_END
    missing = set(units) - set(values)
    if missing:
        raise RunFailed(f"worker did not report {sorted(missing)}")
    metrics = {m: {"value": values[m], "unit": u} for m, u in units.items()}
    for kind, count in child["detail"]["known_defects"].items():
        print(f"perfbench: {name}: known defect: {count} {kind} output(s) per pass "
              "below zero by a rounding error; tallied, not failed", file=sys.stderr)
    summary = {
        "correct": child["failed"] == 0,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": metrics,
    }
    outdir = os.path.join(args.out, name)
    os.makedirs(outdir, exist_ok=True)
    stem = f"seed{args.seed}-trace{args.trace}"
    run_index = len(glob.glob(os.path.join(outdir, f"{stem}-run*.json")))
    record = {
        "workload": name,
        "trace": args.trace,
        "seconds": args.seconds,
        "tiny": args.tiny,
        "provenance": provenance(args.seed, run_index),
        **summary,
        "setups_s": setups,
        "detail": child["detail"],
    }
    with open(os.path.join(outdir, f"{stem}-run{run_index}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    return summary


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=os.path.join(HERE, "out"))
    ap.add_argument("--tiny", action="store_true", help="smallest instances, for the benchmark's tests")
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "multiewens")):
        print(f"perfbench: no package source at {ROOT}/src/multiewens", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    lines = []
    for name in names:
        try:
            summary = run_workload(name, args)
        except RunFailed as exc:
            print(f"perfbench: {name}: {exc}", file=sys.stderr)
            return 1
        for metric, rec in summary["metrics"].items():
            print(f"{name} {metric} {rec['value']:.6g} {rec['unit']}")
        print(f"{name} attempted {summary['attempted']} failed {summary['failed']}")
        lines.append(json.dumps(summary))
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
