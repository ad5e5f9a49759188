"""One workload in one child process: set up, time passes, check outputs.

Started by run.py; prints one JSON object on its last stdout line.  Set-up
runs from process start (``PERFBENCH_T0``, a CLOCK_MONOTONIC reading taken by
the parent just before the spawn) through ``import multiewens``, input
generation and one untimed warm-up pass over the tiny-scale job list, which
holds the smallest instance of every job kind.  The reference is timed at
both ends of set-up, and its first timing is not counted as set-up.

Timed passes repeat the identical job list with identical inputs, single
caller, closed loop.  The pass count is --seconds over the workload's nominal
pass time, a fixed number for a given --seconds.  With ``--trace`` the
passes alternate untraced and traced, so the traced run also measures its
own overhead.  Every time is scaled to the reference speed (see reference.py); the raw
seconds go to the result file too.  Outputs of the first pass are checked; every later pass must
reproduce them bit for bit (the package's seeding contract), traced passes
included, which also shows that the wrappers return the original results.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import pickle
import statistics
import sys
import time
from dataclasses import dataclass
from time import perf_counter

import reference

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SEGMENT_S = 0.1  # job time between two timings of the reference


@dataclass(frozen=True)
class JobError:
    message: str


@dataclass
class Pass:
    traced: bool
    times: list  # raw seconds per job
    scales: list  # per job: reference.REFERENCE_S over the reference time around it
    digests: list
    layer: dict | None = None
    functions: dict | None = None  # per wrapped function: calls, inclusive and self time

    @property
    def wall(self) -> float:
        """The pass's time in seconds at the reference speed."""
        return sum(t * s for t, s in zip(self.times, self.scales))

    @property
    def raw_wall(self) -> float:
        return sum(self.times)


def import_package():
    """Import multiewens from this checkout's src/ and nowhere else."""
    sys.path.insert(0, SRC)
    import multiewens

    if not os.path.realpath(multiewens.__file__).startswith(os.path.realpath(SRC) + os.sep):
        raise ImportError(f"multiewens resolved outside {SRC}: {multiewens.__file__}")
    return multiewens


def digest(obj) -> str:
    return hashlib.blake2b(pickle.dumps(obj, protocol=5), digest_size=16).hexdigest()


def run_pass(jobs) -> tuple[list, list, list, float]:
    """Run the job list once; returns job times, their scales, outputs and
    the time spent timing the reference.

    The reference is timed before the first job and again whenever
    SEGMENT_S of job time has passed.  Single timings of it have outliers,
    so each segment is scaled by the median of the four nearest ones: the
    two around it and one more on each side.
    """
    ctx: dict = {}
    times, outs = [], []
    refs, ends = [], []  # reference timings; job index where each segment ends
    ref_time = 0.0
    segment = 0.0
    t = perf_counter()
    refs.append(reference.reference_s())
    ref_time += perf_counter() - t
    for index, job in enumerate(jobs):
        t = perf_counter()
        try:
            out = job.run(ctx)
        except Exception as exc:  # a job that raises is counted as failed
            out = JobError(f"{type(exc).__name__}: {exc}")
        times.append(perf_counter() - t)
        outs.append(out)
        segment += times[-1]
        if segment >= SEGMENT_S or index == len(jobs) - 1:
            t = perf_counter()
            refs.append(reference.reference_s())
            ref_time += perf_counter() - t
            ends.append(index + 1)
            segment = 0.0
    scales = []
    for i, end in enumerate(ends):
        scale = reference.REFERENCE_S / statistics.median(refs[max(0, i - 1): i + 3])
        scales.extend([scale] * (end - len(scales)))
    return times, scales, outs, ref_time


def check_outputs(workload, outs) -> list[bool]:
    """Per-job verdicts from each job's own check and its pool's check."""
    ok = []
    for job, out in zip(workload.jobs, outs):
        try:
            ok.append(not isinstance(out, JobError) and bool(job.check(out)))
        except Exception:
            ok.append(False)
    for pool, fn in workload.pools.items():
        idx = [i for i, job in enumerate(workload.jobs) if job.pool == pool]
        members = [outs[i] for i in idx]
        try:
            pool_ok = not any(isinstance(o, JobError) for o in members) and bool(fn(members))
        except Exception:
            pool_ok = False
        if not pool_ok:
            for i in idx:
                ok[i] = False
    return ok


def known_defects(workload, outs) -> dict[str, int]:
    """Per job kind, how many outputs of one pass show a known library defect."""
    tally: dict[str, int] = {}
    for job, out in zip(workload.jobs, outs):
        if job.known_defect is not None and not isinstance(out, JobError) and job.known_defect(out):
            tally[job.kind] = tally.get(job.kind, 0) + 1
    return tally


def tail(times: list[float]) -> tuple[float, float]:
    """Time at the highest percentile with at least ten jobs beyond it."""
    ordered = sorted(times)
    if len(ordered) <= 10:
        return ordered[-1], 100.0
    return ordered[-11], 100.0 * (len(ordered) - 10) / len(ordered)


def timed_passes(workload, count: int, tracer):
    """Timed passes; returns the passes and the first pass's outputs."""
    passes: list[Pass] = []
    first_outs = None
    for index in range(count):
        traced = tracer is not None and index % 2 == 1
        gc.collect()
        if traced:
            tracer.install()
            tracer.reset()
        start = perf_counter()
        times, scales, outs, ref_time = run_pass(workload.jobs)
        elapsed = perf_counter() - start - ref_time
        if traced:
            tracer.uninstall()
        rec = Pass(traced, times, scales, [digest(o) for o in outs])
        if traced:
            problems = tracer.sanity(elapsed)
            if problems:
                raise RuntimeError("trace sanity check failed: " + "; ".join(problems))
            scale = rec.wall / rec.raw_wall
            rec.layer = tracer.snapshot(elapsed, scale)
            rec.functions = {
                key: {"calls": calls, "incl_s": incl * scale, "self_s": self_time * scale}
                for key, (calls, incl, self_time) in sorted(tracer.fn.items(), key=lambda kv: -kv[1][2])
            }
        if first_outs is None:
            first_outs = outs
        passes.append(rec)
    return passes, first_outs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--tmp", required=True)
    args = ap.parse_args(argv)
    t0 = float(os.environ["PERFBENCH_T0"])
    start = perf_counter()
    ref_start = reference.reference_s(3)
    ref_cost = perf_counter() - start

    try:
        import_package()
    except ImportError as exc:
        print(f"perfbench: cannot import multiewens from {SRC}: {exc}", file=sys.stderr)
        return 2
    import spans
    import workloads

    tracer = spans.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    workload = workloads.build(args.workload, args.seed, args.tmp, tiny=args.tiny)
    warmup = workloads.build(args.workload, args.seed, args.tmp, tiny=True)
    group_build_s = 0.0
    if tracer is not None:
        group_build_s = tracer.group_build_s()
        tracer.uninstall()
    run_pass(warmup.jobs)
    setup_raw_s = time.monotonic() - t0 - ref_cost
    setup_scale = reference.REFERENCE_S / ((ref_start + reference.reference_s(3)) / 2)
    setup = {"setup_s": setup_raw_s * setup_scale, "setup_raw_s": setup_raw_s}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    count = max(1, round(args.seconds / workload.pass_s))
    if tracer is not None:
        count = max(2, count + count % 2)  # untraced and traced passes in pairs
    passes, first_outs = timed_passes(workload, count, tracer)
    result = summarize(workload, passes, first_outs)
    result.update(setup)
    if tracer is not None:
        result["layer"]["wreath.group_build_s"] = group_build_s * setup_scale
    print(json.dumps(result))
    return 0


def summarize(workload, passes: list[Pass], first_outs: list) -> dict:
    """Check the outputs and reduce the passes to the reported numbers.

    A job fails in a pass when it raised, when its output or its pool failed
    a check, or when its output differs from the first pass's.
    """
    ok = check_outputs(workload, first_outs)
    ref = passes[0].digests
    jobs = workload.jobs
    attempted = len(jobs) * len(passes)
    failed = sum(1 for p in passes for i, d in enumerate(p.digests) if not ok[i] or d != ref[i])
    plain = [p for p in passes if not p.traced]
    times = [t * s for p in plain for t, s in zip(p.times, p.scales)]
    tail_s, tail_pct = tail(times)
    result = {
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "wall_s": statistics.median(p.wall for p in plain),
            # the median over passes of each pass's median job, so the value
            # never averages the edges of two job kinds
            "job_p50_s": statistics.median(
                statistics.median(t * s for t, s in zip(p.times, p.scales)) for p in plain
            ),
            "job_tail_s": tail_s,
            "ok_frac": 1.0 - failed / attempted,
        },
        "detail": {
            "failed_frac": failed / attempted,
            "passes": len(plain),
            "pass_walls_s": [p.wall for p in plain],
            "pass_raw_walls_s": [p.raw_wall for p in plain],
            "raw_wall_s": statistics.median(p.raw_wall for p in plain),
            "pass_scales": [p.wall / p.raw_wall for p in plain],
            "jobs_per_pass": len(jobs),
            "job_count": len(times),
            "job_tail_percentile": tail_pct,
            "kind_median_s": {
                kind: statistics.median(
                    t * s for p in plain for j, t, s in zip(jobs, p.times, p.scales) if j.kind == kind
                )
                for kind in dict.fromkeys(j.kind for j in jobs)
            },
            "failed_jobs": sorted({jobs[i].kind for i in range(len(jobs)) if not ok[i]}),
            "nondeterministic_jobs": sorted({
                jobs[i].kind for p in passes for i, d in enumerate(p.digests) if d != ref[i]
            }),
            "known_defects": known_defects(workload, first_outs),
        },
    }
    traced = [p for p in passes if p.traced]
    if traced:
        layer = {
            name: statistics.median(p.layer[name] for p in traced) for name in traced[0].layer
        }
        first_traced = passes.index(traced[0])
        layer["cli.failed"] = sum(
            1 for i, d in enumerate(passes[first_traced].digests)
            if jobs[i].kind.startswith("cli-") and (not ok[i] or d != ref[i])
        )
        layer["wf_sim.alleles_alive"] = 0
        try:
            layer.update(workload.layer_extras(first_outs))
        except Exception:
            pass  # a failed job leaves the extra at 0; the failure is already counted
        layer["trace.overhead_frac"] = (
            statistics.median(p.wall for p in traced) / result["metrics"]["wall_s"] - 1.0
        )
        result["layer"] = layer
        result["detail"]["traced_passes"] = len(traced)
        result["detail"]["traced_pass_walls_s"] = [p.wall for p in traced]
        result["detail"]["functions"] = traced[0].functions
    return result


if __name__ == "__main__":
    sys.exit(main())
