"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import worker  # noqa: E402

worker.import_package()

import compare  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from multiewens import measure, poisson  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _run(tmp_path, *args):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args, "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_metric_with_its_unit(tmp_path, workload, trace):
    proc = _run(tmp_path, "--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    specs = SPEC["end_to_end"] if trace == 0 else SPEC["per_layer"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in specs
    }
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
    (record_path,) = (tmp_path / workload).iterdir()
    record = json.loads(record_path.read_text())
    for key in ("nproc", "affinity", "cpu_model", "python", "numpy", "scipy", "click",
                "git_commit", "git_dirty", "seed", "run_index", "threads", "src_nonblank_lines"):
        assert key in record["provenance"]


def test_run_fails_without_package_source(tmp_path):
    bare = tmp_path / "bare"
    (bare / "perfbench").mkdir(parents=True)
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            (bare / "perfbench" / name).write_text(open(os.path.join(HERE, name)).read())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact-desk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def _tiny(name, tmp_path):
    return workloads.build(name, 5, str(tmp_path), tiny=True)


def test_corrupted_output_is_counted_in_failed_frac(tmp_path):
    wl = _tiny("exact-desk", tmp_path)
    result = worker.summarize(wl, *worker.timed_passes(wl, 2, None))
    assert result["failed"] == 0
    original = wl.jobs[0].run
    wl.jobs[0].run = lambda ctx: original(ctx) + Fraction(1, 10**9)
    result = worker.summarize(wl, *worker.timed_passes(wl, 2, None))
    assert result["failed"] == 2
    assert result["detail"]["failed_frac"] == pytest.approx(1 / len(wl.jobs))
    assert result["metrics"]["ok_frac"] == pytest.approx(1 - 1 / len(wl.jobs))


def test_corrupted_pool_member_fails_the_pool(tmp_path):
    wl = _tiny("mc-desk", tmp_path)
    (index,) = [i for i, job in enumerate(wl.jobs) if job.pool == "urn-counts"]
    original = wl.jobs[index].run

    def all_in_one_state(ctx):
        counts = original(ctx)
        return Counter({next(iter(counts)): sum(counts.values())})

    wl.jobs[index].run = all_in_one_state
    result = worker.summarize(wl, *worker.timed_passes(wl, 1, None))
    assert result["detail"]["failed_jobs"] == ["urn-counts"]


def test_rounding_negative_pmf_is_a_known_defect_and_larger_one_fails(tmp_path):
    wl = _tiny("mc-desk", tmp_path)
    (index,) = [i for i, job in enumerate(wl.jobs) if job.kind == "paintbox-pmf-10"]
    wl.jobs[index].run = lambda ctx: -1e-20
    result = worker.summarize(wl, *worker.timed_passes(wl, 1, None))
    assert result["failed"] == 0
    assert result["detail"]["known_defects"] == {"paintbox-pmf-10": 1}
    wl.jobs[index].run = lambda ctx: -1e-6
    result = worker.summarize(wl, *worker.timed_passes(wl, 1, None))
    assert result["detail"]["failed_jobs"] == ["paintbox-pmf-10"]


def test_raising_job_counts_as_failed(tmp_path):
    wl = _tiny("large-n", tmp_path)
    wl.jobs[0].run = lambda ctx: 1 / 0
    result = worker.summarize(wl, *worker.timed_passes(wl, 1, None))
    # the urn draw and the jobs that read it (its log-pmf, the CLI pmf) fail
    assert result["failed"] == 3


def test_tracer_returns_original_results_and_restores_bindings():
    original = measure.refined_esf_pmf
    expected = poisson.conditional_identity_check(4, 2, (1, Fraction(3, 7)))
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert poisson.refined_esf_pmf is not original
        start = worker.perf_counter()
        got = poisson.conditional_identity_check(4, 2, (1, Fraction(3, 7)))
        wall = worker.perf_counter() - start
    finally:
        tracer.uninstall()
    assert got == expected
    assert measure.refined_esf_pmf is original and poisson.refined_esf_pmf is original
    assert tracer.sanity(wall) == []
    # cross-module calls nest under their caller; generators count states
    assert tracer.fn["measure.refined_esf_pmf"][0] == 20
    assert tracer.counts["partitions.states"] == 20
    assert tracer.counts["measure.exact_calls"] == 20
    layers = tracer.self_by_layer()
    assert layers["poisson"] > 0 and layers["measure"] > 0 and layers["partitions"] > 0
    assert sum(layers.values()) == pytest.approx(tracer.top_incl)


def _record(workload, seed, value):
    return {"workload": workload, "trace": 0, "tiny": False,
            "provenance": {"seed": seed, "run_index": 0},
            "metrics": {m["name"]: {"value": value, "unit": m["unit"]} for m in SPEC["end_to_end"]}}


def test_compare_verdicts(tmp_path):
    for side, values in (("parent", [10.0 + 0.01 * i for i in range(10)]),
                         ("change", [8.0 + 0.01 * i for i in range(10)])):
        for seed, value in enumerate(values):
            path = tmp_path / side / f"{seed}.json"
            path.parent.mkdir(exist_ok=True)
            path.write_text(json.dumps(_record("exact-desk", seed, value)))
    report = compare.compare(str(tmp_path / "parent"), str(tmp_path / "change"), SPEC)
    verdicts = {name: r["verdict"] for name, r in report["exact-desk"].items()}
    lower = {m["name"] for m in SPEC["end_to_end"] if m["better"] == "lower"}
    for name, v in verdicts.items():
        assert v == ("improved" if name in lower else "worse"), name


def test_compare_reports_wide_spread_as_unresolved():
    parent = [1.0, 2.0, 1.0, 2.0]
    change = [2.1, 1.0, 2.0, 1.0]
    r = compare.verdict(parent, change, list(zip(parent, change)), "lower", 0.1)
    assert r["verdict"] == "unresolved"
    tight = compare.verdict([1.0] * 4, [1.05] * 4, [(1.0, 1.05)] * 4, "lower", 0.1)
    assert tight["verdict"] == "no-worse"
