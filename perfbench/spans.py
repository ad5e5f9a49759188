"""Span tracer that wraps the public functions of every multiewens module.

Spans are recorded from outside the package: each function named in a
module's ``__all__`` (and the CLI group's ``main``) is replaced, at every
binding in every package module, by a wrapper that opens a span around the
call.  Cross-module calls such as ``poisson -> measure.refined_esf_pmf``
therefore nest under their caller.  Generator functions get one span per
``next()``, so enumeration time is counted when it happens, nested under
whatever span consumes the items.

A span's self time is its duration minus the time of its child spans.  A
recursive call of the function already on top of the stack runs unwrapped,
which keeps ``partitions_of`` from opening one span per recursion level.
Spans are aggregated per function as they close; counters derived from call
arguments and results are collected by small per-function hooks.
"""

from __future__ import annotations

import importlib
import inspect
import math
from collections import defaultdict
from fractions import Fraction
from time import perf_counter

LAYERS = (
    "partitions",
    "measure",
    "samplers",
    "wreath",
    "allele_stats",
    "poisson",
    "wf_sim",
    "cli",
)
CLI_COMMANDS = ("verify", "sample-urn", "sample-crp", "sample-pd", "stats-k", "pmf", "wf-sim")

_PMF = {
    "refined_esf_pmf",
    "refined_esf_log_pmf",
    "refined_esf_pmf_factorized",
    "classical_ewens_pmf",
    "classical_ewens_log_pmf",
    "labeled_set_partition_pmf",
}
_MEASURE_CHECKS = ("check_consistency", "union_marginal_check", "vandermonde_check")
_GROUP_CONSTRUCTORS = ("trivial_group", "cyclic_group", "symmetric_group_3")


def _rows(part) -> int:
    return sum(len(c.rows) for c in part.components)


def _arg(fn_sig, args, kwargs, name):
    return fn_sig.bind(*args, **kwargs).arguments[name]


def _per_layer_units() -> dict[str, str]:
    """Unit of every metric :meth:`Tracer.snapshot` reports, and of the
    values the worker adds from set-up and outputs."""
    units = {
        "partitions.states": "count", "partitions.self_s": "s", "partitions.us_per_state": "us",
        "measure.exact_calls": "count", "measure.exact_us_per_call": "us",
        "measure.float_calls": "count", "measure.float_us_per_call": "us",
        "measure.check_self_s": "s", "measure.max_rational_bits": "bits", "measure.self_s": "s",
        "samplers.urn_steps": "count", "samplers.urn_colours": "count",
        "samplers.urn_ns_per_step": "ns", "samplers.pd_sticks": "count",
        "samplers.pd_ns_per_stick": "ns", "samplers.paintbox_sample_us": "us",
        "samplers.paintbox_pmf_calls": "count", "samplers.paintbox_pmf_ms": "ms",
        "samplers.paintbox_pmf_negative": "count", "samplers.self_s": "s",
        "wreath.crp_steps": "count", "wreath.crp_ns_per_step": "ns",
        "wreath.pewens_calls": "count", "wreath.pewens_us_per_call": "us",
        "wreath.group_build_s": "s", "wreath.self_s": "s",
        "allele_stats.joint_k_calls": "count", "allele_stats.joint_k_us_per_call": "us",
        "allele_stats.moment_ms_float": "ms", "allele_stats.moment_ms_exact": "ms",
        "allele_stats.bernoulli_rep_steps": "count",
        "allele_stats.bernoulli_ns_per_rep_step": "ns", "allele_stats.self_s": "s",
        "poisson.tv_cells": "count", "poisson.tv_us_per_cell": "us",
        "poisson.check_self_s": "s", "poisson.sample_us": "us", "poisson.self_s": "s",
        "wf_sim.generations": "count", "wf_sim.us_per_generation": "us",
        "wf_sim.samples": "count", "wf_sim.us_per_sample": "us",
        "wf_sim.alleles_alive": "count", "wf_sim.self_s": "s",
        "cli.calls": "count", "cli.failed": "count", "cli.self_s": "s",
    }
    for cmd in CLI_COMMANDS:
        units[f"cli.{cmd}_ms"] = "ms"
    units["trace.overhead_frac"] = "frac"
    units["trace.coverage"] = "frac"
    return units


PER_LAYER = _per_layer_units()


class Tracer:
    """Install with :meth:`install`, read one pass with :meth:`snapshot`."""

    def __init__(self):
        self._patched: list[tuple[object, str, object]] = []
        self._cli_group = None
        self.reset()

    # ----------------------------------------------------------------- state
    def reset(self):
        self.stack: list[list] = []
        self.fn: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.top_incl = 0.0
        self.counts: dict[str, float] = defaultdict(float)
        self.depth: dict[str, int] = defaultdict(int)
        self.cli_ms: dict[str, list[float]] = defaultdict(list)
        self.violations: list[str] = []

    def _close(self, frame, end):
        popped = self.stack.pop()
        if popped is not frame:
            self.violations.append(f"span {frame[0]} closed out of order")
        dur = end - frame[1]
        self_time = dur - frame[2]
        if self_time < -1e-7:
            self.violations.append(f"span {frame[0]} children exceed it by {-self_time:.3g}s")
        rec = self.fn[frame[0]]
        rec[0] += 1
        rec[1] += dur
        rec[2] += self_time
        if self.stack:
            self.stack[-1][2] += dur
        else:
            self.top_incl += dur
        return dur

    # -------------------------------------------------------------- wrappers
    def _wrap_function(self, key, layer, fn, hook, group):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            if stack and stack[-1][0] == key:
                return fn(*args, **kwargs)
            outer = group is None or tracer.depth[group] == 0
            if group is not None:
                tracer.depth[group] += 1
            frame = [key, perf_counter(), 0.0, layer]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = tracer._close(frame, perf_counter())
                if group is not None:
                    tracer.depth[group] -= 1
            if hook is not None and outer:
                hook(tracer, args, kwargs, result, dur)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_generator(self, key, layer, fn):
        tracer = self

        def traced(gen, counted):
            while True:
                frame = [key, perf_counter(), 0.0, layer]
                tracer.stack.append(frame)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    tracer._close(frame, perf_counter())
                if counted:
                    tracer.counts["partitions.states"] += 1
                yield item

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            if stack and stack[-1][0] == key:
                return fn(*args, **kwargs)
            counted = layer == "partitions" and (not stack or stack[-1][3] != "partitions")
            return traced(fn(*args, **kwargs), counted)

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_cli_main(self, bound_main):
        tracer = self

        def wrapper(*args, **kwargs):
            argv = list(kwargs.get("args") or (args[0] if args else ()))
            frame = ["cli.main", perf_counter(), 0.0, "cli"]
            tracer.stack.append(frame)
            try:
                return bound_main(*args, **kwargs)
            finally:
                dur = tracer._close(frame, perf_counter())
                tracer.cli_ms[argv[0] if argv else "?"].append(dur * 1e3)

        return wrapper

    # --------------------------------------------------------------- install
    def install(self):
        """Patch every binding of every public function in the package."""
        import multiewens

        modules = {"": multiewens}
        for layer in LAYERS:
            modules[layer] = importlib.import_module(f"multiewens.{layer}")
        wrappers: dict[int, object] = {}
        for layer, mod in modules.items():
            for name in getattr(mod, "__all__", ()) if layer else ():
                fn = getattr(mod, name)
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                key = f"{layer}.{name}"
                if inspect.isgeneratorfunction(fn):
                    wrappers[id(fn)] = self._wrap_generator(key, layer, fn)
                else:
                    hook, group = _hook_for(key, fn)
                    wrappers[id(fn)] = self._wrap_function(key, layer, fn, hook, group)
        for mod in modules.values():
            for name, value in list(vars(mod).items()):
                wrapped = wrappers.get(id(value))
                if wrapped is not None:
                    self._patched.append((mod, name, value))
                    setattr(mod, name, wrapped)
        group = modules["cli"].main
        group.main = self._wrap_cli_main(group.main)
        self._cli_group = group

    def uninstall(self):
        for mod, name, value in reversed(self._patched):
            setattr(mod, name, value)
        self._patched.clear()
        if self._cli_group is not None:
            del self._cli_group.main
            self._cli_group = None

    # ------------------------------------------------------------- read-out
    def self_by_layer(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for key, (_, _, self_time) in self.fn.items():
            out[key.split(".", 1)[0]] += self_time
        return out

    def sanity(self, wall: float) -> list[str]:
        """Self times plus uncovered glue must add up to the traced wall."""
        problems = list(self.violations)
        if self.stack:
            problems.append(f"{len(self.stack)} spans left open")
        total_self = sum(rec[2] for rec in self.fn.values())
        glue = wall - self.top_incl
        if glue < -1e-6:
            problems.append(f"top-level spans ({self.top_incl:.6f}s) exceed wall {wall:.6f}s")
        if abs(total_self + glue - wall) > 1e-6 * max(1.0, wall):
            problems.append(
                f"self times {total_self:.6f}s + glue {glue:.6f}s != wall {wall:.6f}s"
            )
        return problems

    def snapshot(self, wall: float, scale: float = 1.0) -> dict[str, float]:
        """Per-layer metrics of the pass just traced (see BENCHMARK.json);
        times are multiplied by ``scale`` (see reference.py)."""
        fn, c = self.fn, self.counts

        def incl(*keys):
            return sum(fn[k][1] for k in keys if k in fn)

        def calls(*keys):
            return sum(fn[k][0] for k in keys if k in fn)

        def ratio(num, den, scale=1.0):
            return num * scale / den if den else 0.0

        selfs = self.self_by_layer()
        m: dict[str, float] = {}
        m["partitions.states"] = c["partitions.states"]
        m["partitions.self_s"] = selfs["partitions"]
        m["partitions.us_per_state"] = ratio(selfs["partitions"], c["partitions.states"], 1e6)

        m["measure.exact_calls"] = c["measure.exact_calls"]
        m["measure.exact_us_per_call"] = ratio(c["measure.exact_s"], c["measure.exact_calls"], 1e6)
        m["measure.float_calls"] = c["measure.float_calls"]
        m["measure.float_us_per_call"] = ratio(c["measure.float_s"], c["measure.float_calls"], 1e6)
        m["measure.check_self_s"] = sum(fn[f"measure.{k}"][2] for k in _MEASURE_CHECKS if f"measure.{k}" in fn)
        m["measure.max_rational_bits"] = c["measure.max_rational_bits"]
        m["measure.self_s"] = selfs["measure"]

        urn = ("samplers.hoppe_urn_sample", "samplers.hoppe_urn_partition_counts")
        m["samplers.urn_steps"] = c["samplers.urn_steps"]
        m["samplers.urn_colours"] = c["samplers.urn_colours"]
        m["samplers.urn_ns_per_step"] = ratio(incl(*urn), c["samplers.urn_steps"], 1e9)
        m["samplers.pd_sticks"] = c["samplers.pd_sticks"]
        m["samplers.pd_ns_per_stick"] = ratio(incl("samplers.pd_sample"), c["samplers.pd_sticks"], 1e9)
        m["samplers.paintbox_sample_us"] = ratio(
            incl("samplers.paintbox_sample"), calls("samplers.paintbox_sample"), 1e6
        )
        m["samplers.paintbox_pmf_calls"] = calls("samplers.paintbox_pmf")
        m["samplers.paintbox_pmf_ms"] = ratio(
            incl("samplers.paintbox_pmf"), calls("samplers.paintbox_pmf"), 1e3
        )
        m["samplers.paintbox_pmf_negative"] = c["samplers.paintbox_pmf_negative"]
        m["samplers.self_s"] = selfs["samplers"]

        crp = ("wreath.crp_wreath_sample", "wreath.crp_element_counts")
        m["wreath.crp_steps"] = c["wreath.crp_steps"]
        m["wreath.crp_ns_per_step"] = ratio(incl(*crp), c["wreath.crp_steps"], 1e9)
        m["wreath.pewens_calls"] = calls("wreath.pewens_pmf")
        m["wreath.pewens_us_per_call"] = ratio(incl("wreath.pewens_pmf"), calls("wreath.pewens_pmf"), 1e6)
        m["wreath.self_s"] = selfs["wreath"]

        m["allele_stats.joint_k_calls"] = calls("allele_stats.joint_k_pmf")
        m["allele_stats.joint_k_us_per_call"] = ratio(
            incl("allele_stats.joint_k_pmf"), calls("allele_stats.joint_k_pmf"), 1e6
        )
        m["allele_stats.moment_ms_float"] = ratio(c["moment.float_s"], c["moment.float_calls"], 1e3)
        m["allele_stats.moment_ms_exact"] = ratio(c["moment.exact_s"], c["moment.exact_calls"], 1e3)
        m["allele_stats.bernoulli_rep_steps"] = c["allele_stats.bernoulli_rep_steps"]
        m["allele_stats.bernoulli_ns_per_rep_step"] = ratio(
            incl("allele_stats.bernoulli_k_samples"), c["allele_stats.bernoulli_rep_steps"], 1e9
        )
        m["allele_stats.self_s"] = selfs["allele_stats"]

        m["poisson.tv_cells"] = c["poisson.tv_cells"]
        m["poisson.tv_us_per_cell"] = ratio(
            incl("poisson.truncated_tv_distance"), c["poisson.tv_cells"], 1e6
        )
        m["poisson.check_self_s"] = fn["poisson.conditional_identity_check"][2] if "poisson.conditional_identity_check" in fn else 0.0
        m["poisson.sample_us"] = ratio(
            incl("poisson.poisson_matrix_sample"), calls("poisson.poisson_matrix_sample"), 1e6
        )
        m["poisson.self_s"] = selfs["poisson"]

        m["wf_sim.generations"] = calls("wf_sim.wf_step")
        m["wf_sim.us_per_generation"] = ratio(incl("wf_sim.wf_step"), calls("wf_sim.wf_step"), 1e6)
        m["wf_sim.samples"] = calls("wf_sim.sample_composition")
        m["wf_sim.us_per_sample"] = ratio(
            incl("wf_sim.sample_composition"), calls("wf_sim.sample_composition"), 1e6
        )
        m["wf_sim.self_s"] = selfs["wf_sim"]

        m["cli.calls"] = calls("cli.main")
        m["cli.self_s"] = selfs["cli"]
        for cmd in CLI_COMMANDS:
            times = self.cli_ms.get(cmd, ())
            m[f"cli.{cmd}_ms"] = sum(times) / len(times) if times else 0.0

        m["trace.coverage"] = ratio(self.top_incl, wall)
        for name in m:
            if PER_LAYER[name] in ("s", "ms", "us", "ns"):
                m[name] *= scale
        return m

    def group_build_s(self) -> float:
        return sum(self.fn[f"wreath.{k}"][1] for k in _GROUP_CONSTRUCTORS if f"wreath.{k}" in self.fn)


# ------------------------------------------------------------------- hooks
def _hook_for(key, fn):
    """(hook, group) for a wrapped function; hooks see only outermost calls
    within their group, so nested evaluations are not counted twice."""
    layer, name = key.split(".", 1)
    sig = inspect.signature(fn)

    if layer == "measure":
        if name in _PMF:
            return _pmf_hook, "pmf"
        return _bits_hook, None
    if name in ("hoppe_urn_sample", "hoppe_urn_partition_counts"):
        def urn(t, args, kwargs, result, dur):
            n = _arg(sig, args, kwargs, "n")
            if name == "hoppe_urn_sample":
                t.counts["samplers.urn_steps"] += n
                t.counts["samplers.urn_colours"] += _rows(result[0])
            else:
                t.counts["samplers.urn_steps"] += n * _arg(sig, args, kwargs, "reps")
                t.counts["samplers.urn_colours"] += sum(_rows(p) * c for p, c in result.items())
        return urn, "urn"
    if name == "pd_sample":
        def pd(t, args, kwargs, result, dur):
            t.counts["samplers.pd_sticks"] += sum(len(seq) for seq in result.freqs)
        return pd, None
    if name == "paintbox_pmf":
        def pb(t, args, kwargs, result, dur):
            if not (math.isfinite(result) and result >= 0):
                t.counts["samplers.paintbox_pmf_negative"] += 1
        return pb, None
    if name in ("crp_wreath_sample", "crp_element_counts"):
        def crp(t, args, kwargs, result, dur):
            n = _arg(sig, args, kwargs, "n")
            reps = _arg(sig, args, kwargs, "reps") if name == "crp_element_counts" else 1
            t.counts["wreath.crp_steps"] += n * reps
        return crp, "crp"
    if name in ("expected_k", "var_k"):
        return _moment_hook, "moment"
    if name == "bernoulli_k_samples":
        def bern(t, args, kwargs, result, dur):
            t.counts["allele_stats.bernoulli_rep_steps"] += (
                _arg(sig, args, kwargs, "n") * _arg(sig, args, kwargs, "reps")
            )
        return bern, None
    if name == "truncated_tv_distance":
        def tv(t, args, kwargs, result, dur):
            bound = sig.bind(*args, **kwargs).arguments
            n, m, k = bound["n"], bound["m"], len(tuple(_thetas(bound["theta"])))
            cells = 1
            for j in range(1, m + 1):
                cells *= (n // j + 1) ** k
            t.counts["poisson.tv_cells"] += cells
        return tv, None
    return None, None


def _thetas(theta):
    return getattr(theta, "thetas", theta)


def _bits(value) -> int:
    return max(value.numerator.bit_length(), value.denominator.bit_length())


def _bits_hook(t, args, kwargs, result, dur):
    if isinstance(result, Fraction):
        bits = _bits(result)
        if bits > t.counts["measure.max_rational_bits"]:
            t.counts["measure.max_rational_bits"] = bits


def _pmf_hook(t, args, kwargs, result, dur):
    kind = "exact" if isinstance(result, Fraction) else "float"
    t.counts[f"measure.{kind}_calls"] += 1
    t.counts[f"measure.{kind}_s"] += dur
    _bits_hook(t, args, kwargs, result, dur)


def _moment_hook(t, args, kwargs, result, dur):
    kind = "exact" if isinstance(result, Fraction) else "float"
    t.counts[f"moment.{kind}_calls"] += 1
    t.counts[f"moment.{kind}_s"] += dur
