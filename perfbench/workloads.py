"""The four benchmark workloads: inputs from a seed, job lists, checks.

A workload is a fixed list of jobs.  Each job is one public library call, a
sweep of public calls over one enumerator, or one CLI command run through
``click.testing.CliRunner``.  Every job has a correctness check on its
output, and jobs whose outputs are only meaningful together (samplers drawn
against an exact law) also belong to a pool that is checked as a whole.
Checks run after the timed section.

Statistical tolerances for i.i.d. samples are set per check from the exact
law: TV <= E-bound + sqrt(ln(1e9) / 2R), where the first term bounds the
expected total variation of R samples (1/2 sum min(sqrt(p(1-p)/R), 2p)) and
the second is McDiarmid's deviation at failure probability 1e-9.  Moment checks allow
six standard deviations.

Library functions are always looked up through their module at call time
(``measure.refined_esf_pmf``), so an installed tracer sees every call.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable

import numpy as np
from scipy.special import digamma, polygamma

from multiewens import allele_stats, cli, measure, partitions, poisson, samplers, wf_sim, wreath
from click.testing import CliRunner

_FAIL_PROB = 1e-9
# Wright-Fisher samples thinned by N generations are correlated and finite 2N
# biases the law, so the i.i.d. bound does not apply.  The tolerances are
# calibrated on 200 seeds: the pooled TV against the right law had mean 0.20,
# largest 0.37, at the low masses and mean 0.14, largest 0.22, at the high
# ones.  Against the law with the two classes swapped, the high-mass pool
# fails on every seed (TV >= 0.42); at the low masses the two laws are only
# 0.40 apart, so that pool catches a grossly wrong law, not a swap.
_WF_TV_TOLERANCE = {"low": 0.5, "high": 0.3}
# A float probability is correct to within this absolute rounding error.
_PMF_ROUNDING = 1e-9


@dataclass
class Job:
    kind: str
    run: Callable[[dict], Any]
    check: Callable[[Any], bool]
    pool: str | None = None
    # flags an output that passes the check but shows a known library defect;
    # such outputs are tallied per job kind in the result, not counted as failed
    known_defect: Callable[[Any], bool] | None = None


@dataclass
class Workload:
    name: str
    jobs: list[Job]
    # nominal pass time at the seed commit; fixes the pass count for a given
    # --seconds, so job counts and the tail percentile do not move with speed
    pass_s: float
    pools: dict[str, Callable[[list], bool]] = field(default_factory=dict)
    # derives per-layer values that come from outputs rather than spans
    layer_extras: Callable[[list], dict] = lambda outs: {}


@dataclass(frozen=True)
class CliOut:
    exit_code: int
    stdout: str


def run_cli(args: list[str]) -> CliOut:
    result = CliRunner().invoke(cli.main, args)
    if result.exception is not None and not isinstance(result.exception, SystemExit):
        raise result.exception
    return CliOut(result.exit_code, result.stdout)


def build(name: str, seed: int, tmpdir: str, tiny: bool = False) -> Workload:
    rng = random.Random(f"{name}/{seed}")
    make = {
        "exact-desk": _exact_desk,
        "mc-desk": _mc_desk,
        "large-n": _large_n,
        "wf-stationary": _wf_stationary,
    }[name]
    return make(rng, tmpdir, tiny)


# ------------------------------------------------------------------ helpers
def _pq(rng: random.Random) -> Fraction:
    """A p/q mass in (1/2, 2) with 12-bit numerator and denominator, so the
    rational bit length, which drives exact cost, is the same for any seed."""
    return Fraction(rng.randrange(2**11, 2**12), rng.randrange(2**11, 2**12) | 1)


def _text(values) -> str:
    return ",".join(str(v) for v in values)


def _seed(rng: random.Random) -> int:
    return rng.getrandbits(32)


def exact_law(n: int, k: int, thetas) -> dict:
    thetas = tuple(Fraction(t) for t in thetas)
    return {
        p: float(measure.refined_esf_pmf(p, thetas))
        for p in partitions.enumerate_multipartitions(n, k)
    }


def tv_distance(counts: Counter, law: dict) -> float:
    reps = sum(counts.values())
    if reps == 0:
        return 1.0
    tv = 0.5 * sum(abs(counts.get(p, 0) / reps - q) for p, q in law.items())
    return tv + 0.5 * sum(c for p, c in counts.items() if p not in law) / reps


def tv_check(counts: Counter, law: dict) -> bool:
    """TV of i.i.d. samples against the exact law, tolerance from the law."""
    reps = sum(counts.values())
    expected = 0.5 * sum(min(math.sqrt(q * (1 - q) / max(reps, 1)), 2 * q) for q in law.values())
    tolerance = expected + math.sqrt(math.log(1 / _FAIL_PROB) / (2 * max(reps, 1)))
    return tv_distance(counts, law) <= tolerance


def k_moments(n: int, thetas, l: int) -> tuple[float, float]:
    """E and Var of K_n^(l) from digamma closed forms, independent of the
    library's harmonic sums."""
    th = float(thetas[l - 1])
    w = float(sum(thetas))
    h1 = digamma(w + n) - digamma(w)
    h2 = polygamma(1, w) - polygamma(1, w + n)
    return th * h1, th * h1 - th * th * h2


def _close(a: float, b: float, rel: float) -> bool:
    return math.isfinite(a) and abs(a - b) <= rel * abs(b)


def _k_within(part, n: int, thetas) -> bool:
    if part.n != n:
        return False
    for l, comp in enumerate(part.components, start=1):
        mean, var = k_moments(n, thetas, l)
        if abs(len(comp.rows) - mean) > 6 * math.sqrt(var):
            return False
    return True


def _cli_lines(out: CliOut) -> list:
    if out.exit_code != 0:
        return []
    return [json.loads(line) for line in out.stdout.splitlines() if line.strip()]


def _partition_lines(out: CliOut, n: int, k: int) -> Counter:
    counts: Counter = Counter()
    for obj in _cli_lines(out):
        p = partitions.multipartition_from_lists(obj)
        if p.n != n or p.k != k:
            return Counter()
        counts[p] += 1
    return counts


# --------------------------------------------------------------- exact-desk
def _exact_desk(rng, tmpdir, tiny):
    """Exact-Fraction oracle sweeps; no sampler is touched."""
    a, b = _pq(rng), _pq(rng)
    th = {1: (a,), 2: (2, a), 3: (1, a, b)}
    sweeps = [(4, 2), (3, 3)] if tiny else [(10, 1), (10, 2), (8, 3)]
    cons = [(3, 2)] if tiny else [(8, 2), (6, 3)]
    union_vand = [(3, 2)] if tiny else [(8, 2), (8, 3)]
    cond_ns = [3, 4] if tiny else [6, 9, 12]
    joint = [(3, 2)] if tiny else [(6, 2), (8, 2)]
    lsp = (3, 2) if tiny else (6, 2)
    z2, s3 = wreath.cyclic_group(2), wreath.symmetric_group_3()
    groups = [(z2, 2, (1, a)), (s3, 2, (1, 2, b))] if tiny else [(z2, 4, (1, a)), (s3, 3, (1, 2, b))]
    verify_n = 3 if tiny else 8

    jobs: list[Job] = []
    for n, k in sweeps:
        t = th[k]
        jobs.append(Job(
            "normalization",
            lambda ctx, n=n, k=k, t=t: sum(
                measure.refined_esf_pmf(p, t) for p in partitions.enumerate_multipartitions(n, k)
            ),
            lambda out: out == 1,
        ))

        def factorized(ctx, n=n, k=k, t=t):
            mismatches, total = 0, Fraction(0)
            for p in partitions.enumerate_multipartitions(n, k):
                value = measure.refined_esf_pmf_factorized(p, t)
                mismatches += value != measure.refined_esf_pmf(p, t)
                total += value
            return mismatches, total

        jobs.append(Job("factorization", factorized, lambda out: out == (0, 1)))
    for n, k in cons:
        jobs.append(Job(
            "consistency", lambda ctx, n=n, k=k: measure.check_consistency(n, k, th[k]),
            lambda out: out.ok,
        ))
    for n, k in union_vand:
        jobs.append(Job(
            "union", lambda ctx, n=n, k=k: measure.union_marginal_check(n, k, th[k]),
            lambda out: out.ok,
        ))
        jobs.append(Job(
            "vandermonde", lambda ctx, n=n, k=k: measure.vandermonde_check(n, k, th[k]),
            lambda out: out is True,
        ))
    for n in cond_ns:
        jobs.append(Job(
            "conditional-poisson",
            lambda ctx, n=n: poisson.conditional_identity_check(n, 2, th[2]),
            lambda out: out.ok,
        ))
        jobs.append(Job(
            "poisson-tv", lambda ctx, n=n: poisson.truncated_tv_distance(n, 2, th[2]),
            lambda out: math.isfinite(out) and 0.0 <= out <= 1.0,
        ))
    for n, k in joint:
        jobs.append(Job(
            "joint-k",
            lambda ctx, n=n, k=k: sum(
                allele_stats.joint_k_pmf(n, th[k], ps)
                for ps in itertools.product(range(n + 1), repeat=k)
            ),
            lambda out: out == 1,
        ))
    n, k = lsp
    jobs.append(Job(
        "set-partition-law",
        lambda ctx: sum(
            measure.labeled_set_partition_pmf(s, th[k])
            for s in partitions.labeled_set_partitions(n, k)
        ),
        lambda out: out == 1,
    ))
    for group, n, t in groups:
        jobs.append(Job(
            "pewens",
            lambda ctx, group=group, n=n, t=t: sum(
                wreath.pewens_pmf(x, group, t)
                for x in wreath.enumerate_wreath_elements(n, group)
            ),
            lambda out: out == 1,
        ))
    args = ["verify", "--n", str(verify_n), "--k", "2", "--theta", _text(th[2])]
    jobs.append(Job(
        "cli-verify", lambda ctx: run_cli(args),
        lambda out: out.exit_code == 0 and all(
            line.startswith("PASS") for line in out.stdout.splitlines()
        ) and len(out.stdout.splitlines()) == 8,
    ))
    return Workload("exact-desk", jobs, 20 / 7)


# ------------------------------------------------------------------ mc-desk
def _mc_desk(rng, tmpdir, tiny):
    """Many replicates of tiny draws, each batch checked against the exact law."""
    theta = (Fraction(rng.randint(5, 20), 10), Fraction(rng.randint(10, 30), 10))
    t_z2 = (1, Fraction(rng.randint(10, 30), 10))
    t_s3 = (1, 2, Fraction(rng.randint(10, 30), 10))
    z2, s3 = wreath.cyclic_group(2), wreath.symmetric_group_3()
    eps = 1e-8
    f0 = samplers.pd_sample(theta, eps, _seed(rng))
    states6 = list(partitions.enumerate_multipartitions(3 if tiny else 6, 2))
    ten_parts = partitions.multipartition_from_lists([[1] * 4, [1]] if tiny else [[1] * 9, [1]])
    urn_reps = 2000 if tiny else 20000
    urn_calls = 30 if tiny else 300
    crp_reps = 1000 if tiny else 10000
    pd_calls = 10 if tiny else 100
    cli_reps = 20 if tiny else 200

    jobs: list[Job] = []
    pools: dict[str, Callable[[list], bool]] = {}

    seed = _seed(rng)
    jobs.append(Job(
        "urn-counts", lambda ctx: samplers.hoppe_urn_partition_counts(6, theta, urn_reps, seed),
        lambda out: sum(out.values()) == urn_reps, pool="urn-counts",
    ))
    pools["urn-counts"] = lambda outs: tv_check(outs[0], exact_law(6, 2, theta))

    def urn_ok(out):
        part, blocks = out
        return part.n == 6 and partitions.set_partition_to_multipartition(blocks, 2) == part

    for i in range(urn_calls):
        s = samplers.derive_seed(seed, i)
        jobs.append(Job(
            "urn-sample", lambda ctx, s=s: samplers.hoppe_urn_sample(6, theta, s),
            urn_ok, pool="urn-sample",
        ))
    pools["urn-sample"] = lambda outs: tv_check(Counter(o[0] for o in outs), exact_law(6, 2, theta))

    for gname, group, t in (("z2", z2, t_z2), ("s3", s3, t_s3)):
        s = _seed(rng)
        jobs.append(Job(
            "crp-counts",
            lambda ctx, group=group, t=t, s=s: wreath.crp_element_counts(3, group, t, crp_reps, s),
            lambda out: sum(out.values()) == crp_reps, pool=f"crp-{gname}",
        ))
        pools[f"crp-{gname}"] = lambda outs, group=group, t=t: tv_check(
            _project(outs[0], group), exact_law(3, group.k, wreath.WreathParams(t).thetas(group))
        )

    def pd(ctx, s):
        ctx["f"] = samplers.pd_sample(theta, eps, s)
        return ctx["f"]

    for i in range(pd_calls):
        s = _seed(rng)
        jobs.append(Job(
            "pd-sample", lambda ctx, s=s: pd(ctx, s),
            lambda out: out.k == 2 and all(len(seq) > 0 for seq in out.freqs),
        ))
        jobs.append(Job(
            "paintbox-sample", lambda ctx, s=s: samplers.paintbox_sample(5, ctx["f"], s + 1),
            lambda out: out.n == 5 and out.k == 2, pool="paintbox",
        ))
    pools["paintbox"] = lambda outs: tv_check(Counter(outs), exact_law(5, 2, theta))

    for p in states6:
        jobs.append(Job(
            "paintbox-pmf", lambda ctx, p=p: samplers.paintbox_pmf(p, f0),
            _probability, pool="paintbox-states", known_defect=_negative,
        ))
    regular = 1.0 - sum(f0.remainder(l) for l in range(f0.k))
    pools["paintbox-states"] = lambda outs: abs(math.fsum(outs) - regular ** states6[0].n) <= 1e-9
    jobs.append(Job("paintbox-pmf-10", lambda ctx: samplers.paintbox_pmf(ten_parts, f0), _probability,
                    known_defect=_negative))

    m, preps = 4, (500 if tiny else 5000)
    s = _seed(rng)
    jobs.append(Job(
        "poisson-sample", lambda ctx: poisson.poisson_matrix_sample(m, theta, s, reps=preps),
        lambda out: out.shape == (preps, m, 2) and all(
            abs(out[:, j - 1, l].mean() - float(theta[l]) / j)
            <= 6 * math.sqrt(float(theta[l]) / j / preps)
            for j in range(1, m + 1) for l in range(2)
        ),
    ))
    bn, breps = (100 if tiny else 1000), (200 if tiny else 2000)
    s = _seed(rng)
    jobs.append(Job(
        "bernoulli-k", lambda ctx: allele_stats.bernoulli_k_samples(bn, theta, 1, breps, s),
        lambda out: _mean_within(out, bn, theta, 1),
    ))

    th_text = _text(theta)
    s = _seed(rng)
    urn_args = ["sample-urn", "--n", "6", "--theta", th_text, "--reps", str(cli_reps), "--seed", str(s)]
    jobs.append(Job("cli-sample-urn", lambda ctx: run_cli(urn_args),
                    lambda out: out.exit_code == 0, pool="cli-urn"))
    pools["cli-urn"] = lambda outs: tv_check(_partition_lines(outs[0], 6, 2), exact_law(6, 2, theta))
    crp_args = ["sample-crp", "--n", "3", "--group", "z2", "--t", _text(t_z2),
                "--reps", str(cli_reps), "--seed", str(s), "--project"]
    jobs.append(Job("cli-sample-crp", lambda ctx: run_cli(crp_args),
                    lambda out: out.exit_code == 0, pool="cli-crp"))
    pools["cli-crp"] = lambda outs: tv_check(
        _partition_lines(outs[0], 3, 2), exact_law(3, 2, wreath.WreathParams(t_z2).thetas(z2))
    )
    pd_args = ["sample-pd", "--theta", th_text, "--reps", str(cli_reps // 10), "--seed", str(s)]
    jobs.append(Job("cli-sample-pd", lambda ctx: run_cli(pd_args), _pd_lines_ok))
    return Workload("mc-desk", jobs, 20 / 27, pools)


def _project(counts: Counter, group) -> Counter:
    out: Counter = Counter()
    for x, c in counts.items():
        out[wreath.cycle_type(x, group)] += c
    return out


def _probability(value) -> bool:
    """A float probability must be finite and in [0, 1] up to rounding."""
    return (
        isinstance(value, float) and math.isfinite(value)
        and -_PMF_ROUNDING <= value <= 1.0 + _PMF_ROUNDING
    )


def _negative(value) -> bool:
    """The paintbox kernel's inclusion-exclusion cancels, so on some PD draws
    it returns a probability a rounding error below zero: over 300 workload
    seeds, 54 gave a negative value, the lowest -2.7e-13.  That known defect
    is tallied, not failed, so that every seed stays runnable; a value more
    than _PMF_ROUNDING below zero fails the check above."""
    return value < 0.0


def _mean_within(samples, n, thetas, l) -> bool:
    mean, var = k_moments(n, thetas, l)
    return abs(float(np.mean(samples)) - mean) <= 6 * math.sqrt(var / len(samples))


def _pd_lines_ok(out: CliOut) -> bool:
    lines = _cli_lines(out)
    return bool(lines) and all(
        abs(sum(rec["deltas"]) - 1.0) < 1e-9
        and all(list(seq) == sorted(seq, reverse=True) for seq in rec["freqs"])
        for rec in lines
    )


# ------------------------------------------------------------------ large-n
def _large_n(rng, tmpdir, tiny):
    """A few large calls in float or at growth-regime masses theta = alpha n."""
    n_few = 500 if tiny else 20000
    n_many = 300 if tiny else 4000
    n_crp = 500 if tiny else 20000
    n_float = 10**4 if tiny else 10**6
    n_exact = 100 if tiny else 3000
    n_bern, bern_reps = (500, 200) if tiny else (10**4, 2000)
    few = (round(rng.uniform(0.5, 1.5), 3), round(rng.uniform(1.5, 3.0), 3))
    # the draw's cost grows with its colour count, so the masses are fixed and
    # the seed moves only the random streams
    many = (0.5 * n_many, 0.5 * n_many)
    s3 = wreath.symmetric_group_3()
    t_crp = (1.0, 2.0, round(rng.uniform(1.0, 3.0), 3))
    theta_crp = wreath.WreathParams(t_crp).thetas(s3)
    theta_pq = (Fraction(1, 3), 2)

    jobs: list[Job] = []
    for label, n, th in (("few", n_few, few), ("many", n_many, many)):
        s = _seed(rng)

        def urn(ctx, n=n, th=th, s=s, label=label):
            ctx[label] = samplers.hoppe_urn_sample(n, th, s)[0]
            return ctx[label]

        jobs.append(Job(f"urn-{label}", urn, lambda out, n=n, th=th: _k_within(out, n, th)))
    s = _seed(rng)

    def crp(ctx):
        ctx["crp"] = wreath.cycle_type(wreath.crp_wreath_sample(n_crp, s3, t_crp, s), s3)
        return ctx["crp"]

    jobs.append(Job("crp", crp, lambda out: _k_within(out, n_crp, theta_crp)))
    for label, th in (("few", few), ("many", many), ("crp", theta_crp)):
        jobs.append(Job(
            "log-pmf", lambda ctx, label=label, th=th: measure.refined_esf_log_pmf(ctx[label], th),
            lambda out: math.isfinite(out) and out <= 0.0,
        ))
    for fn, idx in (("expected_k", 0), ("var_k", 1)):
        jobs.append(Job(
            f"moment-float",
            lambda ctx, fn=fn: getattr(allele_stats, fn)(n_float, few, 1),
            lambda out, idx=idx: _close(out, k_moments(n_float, few, 1)[idx], 1e-9),
        ))
        jobs.append(Job(
            f"moment-exact",
            lambda ctx, fn=fn: getattr(allele_stats, fn)(n_exact, theta_pq, 1),
            lambda out, idx=idx: isinstance(out, Fraction)
            and _close(float(out), k_moments(n_exact, theta_pq, 1)[idx], 1e-9),
        ))
    s = _seed(rng)
    jobs.append(Job(
        "bernoulli-k", lambda ctx: allele_stats.bernoulli_k_samples(n_bern, few, 1, bern_reps, s),
        lambda out: _mean_within(out, n_bern, few, 1),
    ))
    few_text = ",".join(f"{t:.3f}" for t in few)
    stats_args = ["stats-k", "--n", str(n_float), "--theta", few_text, "--format", "json"]

    def stats_ok(out):
        rows = _cli_lines(out)
        return len(rows) == 2 and all(
            _close(row["E"], k_moments(n_float, few, row["l"])[0], 1e-9)
            and _close(row["Var"], k_moments(n_float, few, row["l"])[1], 1e-9)
            for row in rows
        )

    jobs.append(Job("cli-stats-k", lambda ctx: run_cli(stats_args), stats_ok))

    def pmf(ctx):
        literal = json.dumps(partitions.multipartition_to_lists(ctx["few"]))
        return run_cli(["pmf", "--theta", few_text, "--partition", literal]), ctx["few"]

    def pmf_ok(out):
        cli_out, part = out
        rows = _cli_lines(cli_out)
        return len(rows) == 1 and _close(
            rows[0]["log_prob"], measure.refined_esf_log_pmf(part, few), 1e-9
        )

    jobs.append(Job("cli-pmf", pmf, pmf_ok))
    return Workload("large-n", jobs, 20 / 7)


# ------------------------------------------------------------ wf-stationary
def _wf_stationary(rng, tmpdir, tiny):
    """Stationary Wright-Fisher compositions at two sizes and two mass levels."""
    small, large = (20, 40) if tiny else (200, 2000)
    small_reps = 10 if tiny else 80
    large_reps = 1 if tiny else 2
    thetas = {"low": (Fraction(1, 2), Fraction(1)), "high": (Fraction(5), Fraction(10))}
    dump = os.path.join(tmpdir, "wf_state.json")

    jobs: list[Job] = []
    pools: dict[str, Callable[[list], bool]] = {}
    for label, th in thetas.items():
        th_float = tuple(float(t) for t in th)
        for two_n, reps in ((small, small_reps), (large, large_reps)):
            s = _seed(rng)
            jobs.append(Job(
                f"stationary-{two_n}",
                lambda ctx, two_n=two_n, th=th_float, reps=reps, s=s:
                    wf_sim.stationary_partition_counts(two_n, th, 4, reps, s),
                lambda out, reps=reps: sum(out.values()) == reps
                and all(p.n == 4 and p.k == 2 for p in out),
                pool=label,
            ))
        pools[label] = lambda outs, th=th, label=label: (
            tv_distance(sum(outs, Counter()), exact_law(4, 2, th)) <= _WF_TV_TOLERANCE[label]
        )

    s = _seed(rng)
    args = ["wf-sim", "--N", str(small), "--theta", "0.5,1.0", "--gens", str(10 * small),
            "--sample-size", "4", "--reps", "10", "--seed", str(s),
            "--dump-state", dump]

    def wf_cli(ctx):
        out = run_cli(args)
        with open(dump) as fh:
            state = json.load(fh)
        os.remove(dump)
        return out, state

    def wf_cli_ok(out):
        cli_out, state = out
        return (
            sum(_partition_lines(cli_out, 4, 2).values()) == 10
            and len(state["ids"]) == small
        )

    jobs.append(Job("cli-wf-sim", wf_cli, wf_cli_ok))

    def extras(outs):
        state = outs[-1][1]
        return {"wf_sim.alleles_alive": len(set(zip(state["classes"], state["ids"])))}

    return Workload("wf-stationary", jobs, 20 / 7, pools, extras)

