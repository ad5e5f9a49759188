"""Command-line front end.

Samples stream as JSON lines (one record per line), tables print as CSV.
Mutation masses may be given as p/q rationals to run the exact backends;
decimal values route to the floating-point backends with a notice.  All
sampling commands are reproducible: the seed and flags fully determine the
output bytes.  Replicates use per-index derived seeds (see
samplers.derive_seed), so fan-out across workers cannot change the output.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import sys
from fractions import Fraction

import click

from . import allele_stats, measure, poisson, samplers, wf_sim, wreath
from .partitions import (
    _labelled_count,
    count_multipartitions,
    enumerate_multipartitions,
    multipartition_from_lists,
    multipartition_to_lists,
)

_ENUMERATION_CAP = 2_000_000
# labelled set partitions that verify sums over: sum_b S(m, b) k^b at the
# largest m <= min(n, 7) under this cap; (m, k) = (7, 2) gives 14,214
_SET_PARTITION_CAP = 20_000


def _parse_theta(text: str, params=measure.MutationParams):
    """Comma list of masses as the library type that checks them (mutation
    masses, or wreath.WreathParams for class weights); p/q or integer stays
    exact, decimals go float."""
    values = []
    inexact = []
    for raw in text.split(","):
        tok = raw.strip()
        try:
            if "/" in tok:
                values.append(Fraction(tok))
            elif "." in tok or "e" in tok.lower():
                values.append(float(tok))
                inexact.append(tok)
            else:
                values.append(Fraction(int(tok)))
        except (ValueError, ZeroDivisionError) as exc:
            raise click.BadParameter(f"bad mass {tok!r}: {exc}") from exc
    checked = params(tuple(values))
    if inexact:
        click.echo(
            f"note: decimal masses {inexact} select the floating-point backend;"
            " use p/q for exact arithmetic",
            err=True,
        )
    return checked


def _parse_partition(text: str):
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise click.ClickException(
            f"malformed partition literal at position {exc.pos}: {exc.msg}"
        ) from exc
    try:
        return multipartition_from_lists(obj)
    except (TypeError, ValueError) as exc:
        raise click.ClickException(f"invalid partition {text!r}: {exc}") from exc


def _group_by_name(name: str) -> wreath.GroupTable:
    name = name.strip()
    if name.lower().endswith(".json"):
        try:
            with open(name) as fh:
                table = json.load(fh)
            return wreath.GroupTable(table)
        except (OSError, ValueError, TypeError) as exc:
            raise click.BadParameter(f"bad group table {name!r}: {exc}") from exc
    key = name.lower()
    if key == "trivial":
        return wreath.trivial_group()
    if key.startswith("z"):
        try:
            return wreath.cyclic_group(int(key[1:]))
        except ValueError as exc:
            raise click.BadParameter(f"bad cyclic group {name!r}") from exc
    if key == "s3":
        return wreath.symmetric_group_3()
    raise click.BadParameter(
        f"unknown group {name!r}: use trivial, z<m>, s3, or a JSON table file"
    )


def _decimal(value: int) -> str:
    """value in decimal, past Python's default 4,300-digit limit: size guards bound it."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(limit)


def _prob_record(value, log_law=None, *args) -> dict:
    """prob and log_prob of value, the law's exact Fraction or its float; a
    float's log_prob is log_law(*args), finite where the float underflows to 0."""
    if isinstance(value, Fraction):
        num, den = value.numerator, value.denominator
        log_prob = -math.inf if num == 0 else math.log(num) - math.log(den)
        rational = f"{_decimal(num)}/{_decimal(den)}"
        return {"rational": rational, "prob": float(value), "log_prob": log_prob}
    return {"prob": float(value), "log_prob": None if log_law is None else log_law(*args)}


# checked by the library's seed rule as it is read, also where nothing is drawn
_seed_option = click.option("--seed", default=0, type=int, show_default=True,
                            callback=lambda ctx, param, seed: samplers._checked_seed(seed))


class _ErrorBoundary(click.Group):
    """Reports a library ValueError, or an allocation that failed, as one
    ``Error: ...`` line, exit 1."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except ValueError as exc:
            raise click.ClickException(str(exc)) from exc
        except MemoryError as exc:  # numpy's message gives the size it could not allocate
            raise click.ClickException(str(exc) or "out of memory") from exc


@click.group(cls=_ErrorBoundary)
def main():
    """Ewens sampling formula machinery for class-labelled alleles."""


@main.command("pmf")
@click.option("--theta", default=None,
              help="comma list of masses (p/q exact); for --partition and --joint-k")
@click.option("--partition", "partition_text", default=None,
              help='multiple partition as nested lists, e.g. "[[2,1],[1]]"')
@click.option("--joint-k", "joint_text", default=None,
              help="comma list p_1..p_k: joint law of per-class allele counts")
@click.option("--n", "n_opt", type=int, default=None, help="sample size for --joint-k")
@click.option("--element", "element_text", default=None,
              help='wreath element as {"g": [...], "s": [...]} (0-based)')
@click.option("--group", "group_name", default=None, help="group for --element")
@click.option("--t", "t_text", default=None, help="class weights for --element")
def cmd_pmf(theta, partition_text, joint_text, n_opt, element_text, group_name, t_text):
    """Evaluate a probability mass; prints one JSON record."""
    modes = sum(x is not None for x in (partition_text, joint_text, element_text))
    if modes != 1:
        raise click.UsageError("give exactly one of --partition, --joint-k, --element")
    if element_text is None and theta is None:
        raise click.UsageError("--partition and --joint-k need --theta")
    if partition_text is not None:
        thetas = _parse_theta(theta)
        part = _parse_partition(partition_text)
        value = measure.refined_esf_pmf(part, thetas)
        probs = _prob_record(value, measure.refined_esf_log_pmf, part, thetas)
        rec = {"partition": multipartition_to_lists(part), **probs}
    elif joint_text is not None:
        if n_opt is None:
            raise click.UsageError("--joint-k needs --n")
        thetas = _parse_theta(theta)
        try:
            ps = tuple(int(v) for v in joint_text.split(","))
        except ValueError as exc:
            raise click.ClickException(f"bad --joint-k counts: {exc}") from exc
        value = allele_stats.joint_k_pmf(n_opt, thetas, ps)
        rec = {"n": n_opt, "counts": list(ps), **_prob_record(value)}
    else:
        if group_name is None or t_text is None:
            raise click.UsageError("--element needs --group and --t")
        group = _group_by_name(group_name)
        ts = _parse_theta(t_text, wreath.WreathParams)
        try:
            x = wreath.WreathElement.from_json_dict(json.loads(element_text))
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise click.ClickException(f"invalid wreath element: {exc}") from exc
        value = wreath.pewens_pmf(x, group, ts)
        probs = _prob_record(value, wreath.pewens_log_pmf, x, group, ts)
        rec = {"element": x.to_json_dict(), **probs}
    click.echo(json.dumps(rec))


@main.command("enumerate")
@click.option("--n", required=True, type=int)
@click.option("--k", required=True, type=int)
@click.option("--count", is_flag=True, help="print only the number of elements")
def cmd_enumerate(n, k, count):
    """List every multiple partition of n into k components, one per line."""
    total = count_multipartitions(n, k)
    if count:
        click.echo(_decimal(total))
        return
    if total > _ENUMERATION_CAP:
        raise click.ClickException(
            f"refusing to stream {total} partitions (cap {_ENUMERATION_CAP});"
            " use --count"
        )
    for part in enumerate_multipartitions(n, k):
        click.echo(json.dumps(multipartition_to_lists(part)))


@main.command("sample-urn")
@click.option("--n", required=True, type=int)
@click.option("--theta", required=True)
@click.option("--reps", default=1, type=click.IntRange(min=0), show_default=True)
@_seed_option
@click.option("--set-partitions", "with_blocks", is_flag=True,
              help="also emit the labelled set partition of draw indices")
def cmd_sample_urn(n, theta, reps, seed, with_blocks):
    """Stream generalized Hoppe urn draws as JSON lines."""
    thetas = _parse_theta(theta)
    for r in range(reps):
        part, blocks = samplers.hoppe_urn_sample(
            n, thetas, samplers.derive_seed(seed, r), blocks=with_blocks
        )
        if with_blocks:
            rec = {
                "partition": multipartition_to_lists(part),
                "blocks": [
                    {"label": label, "elements": sorted(elems)}
                    for label, elems in blocks.blocks
                ],
            }
            click.echo(json.dumps(rec))
        else:
            click.echo(json.dumps(multipartition_to_lists(part)))


@main.command("sample-crp")
@click.option("--n", required=True, type=int)
@click.option("--group", "group_name", required=True)
@click.option("--t", "t_text", required=True, help="comma list of class weights")
@click.option("--reps", default=1, type=click.IntRange(min=0), show_default=True)
@_seed_option
@click.option("--project", is_flag=True, help="emit cycle-type partitions instead")
def cmd_sample_crp(n, group_name, t_text, reps, seed, project):
    """Stream wreath restaurant-process draws as JSON lines."""
    group = _group_by_name(group_name)
    ts = _parse_theta(t_text, wreath.WreathParams)
    for r in range(reps):
        x = wreath.crp_wreath_sample(n, group, ts, samplers.derive_seed(seed, r))
        if project:
            click.echo(json.dumps(multipartition_to_lists(wreath.cycle_type(x, group))))
        else:
            click.echo(json.dumps(x.to_json_dict()))


@main.command("sample-pd")
@click.option("--theta", required=True)
@click.option("--eps", default=1e-8, type=float, show_default=True)
@click.option("--reps", default=1, type=click.IntRange(min=0), show_default=True)
@_seed_option
def cmd_sample_pd(theta, eps, reps, seed):
    """Stream ranked-frequency draws from the multiple Poisson-Dirichlet law."""
    thetas = _parse_theta(theta)
    for r in range(reps):
        f = samplers.pd_sample(thetas, eps, samplers.derive_seed(seed, r))
        click.echo(json.dumps({
            "deltas": list(f.deltas),
            "freqs": [list(seq) for seq in f.freqs],
        }))


@main.command("stats-k")
@click.option("--n", required=True, type=int)
@click.option("--theta", required=True)
@click.option("--mc-reps", default=0, type=click.IntRange(min=0), show_default=True,
              help="append Monte Carlo mean/var columns from the Bernoulli-sum simulator")
@_seed_option
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv",
              show_default=True)
def cmd_stats_k(n, theta, mc_reps, seed, fmt):
    """Exact mean/variance of the per-class allele counts."""
    if mc_reps == 1:
        raise click.ClickException("--mc-reps must be 0 or at least 2 for a sample variance")
    thetas = _parse_theta(theta)
    rows = []
    for l, (mean, var) in enumerate(allele_stats.class_moments(n, thetas), start=1):
        row = {"n": n, "l": l, "E": float(mean), "Var": float(var)}
        if mc_reps > 0:
            ks = allele_stats.bernoulli_k_samples(
                n, thetas, l, mc_reps, samplers.derive_seed(seed, l)
            )
            row["mc_mean"] = float(ks.mean())
            row["mc_var"] = float(ks.var(ddof=1))
            row["mc_reps"] = mc_reps
        rows.append(row)
    _emit_table(rows, fmt)


@main.command("poisson-tv")
@click.option("--n", required=True, type=int)
@click.option("--m", required=True, type=int)
@click.option("--theta", required=True)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv",
              show_default=True)
def cmd_poisson_tv(n, m, theta, fmt):
    """Total variation of the first m count-matrix rows from the Poisson grid."""
    tv = poisson.truncated_tv_distance(n, m, _parse_theta(theta))
    _emit_table([{"n": n, "m": m, "tv": tv}], fmt)


@main.command("wf-sim")
@click.option("--N", "two_n", required=True, type=int, help="population size 2N")
@click.option("--theta", required=True)
@click.option("--gens", required=True, type=int, help="burn-in generations")
@click.option("--sample-size", required=True, type=int)
@click.option("--reps", default=1, type=click.IntRange(min=0), show_default=True)
@click.option("--thin", default=None, type=int,
              help="generations between samples [default: N]")
@_seed_option
@click.option("--dump-state", "dump_path", default=None, type=click.Path(),
              help="write the final population snapshot as JSON; its 2N genes are then"
                   " traced too, so one seed draws other samples than without it")
def cmd_wf_sim(two_n, theta, gens, sample_size, reps, thin, seed, dump_path):
    """Evolve a Wright-Fisher population and print sample compositions, all
    drawn from one genealogy before the first is printed."""
    thetas = _parse_theta(theta)
    pop = wf_sim.Population.founding(two_n, thetas.k) if dump_path else two_n
    samples = wf_sim.stationary_samples(pop, thetas, sample_size, reps, seed, gens, thin)
    try:  # before any sample; "a" keeps an old snapshot until the run has ended
        dump = open(dump_path, "a") if dump_path else contextlib.nullcontext()
    except OSError as exc:
        raise click.ClickException(f"cannot write {dump_path!r}: {exc.strerror}") from exc
    with dump as fh:
        for part in samples:
            click.echo(json.dumps(multipartition_to_lists(part)))
        if dump_path:
            fh.truncate(0)
            json.dump(pop.to_json_dict(), fh)


@main.command("verify")
@click.option("--n", required=True, type=int)
@click.option("--k", required=True, type=int)
@click.option("--theta", required=True)
def cmd_verify(n, k, theta):
    """Run the exact-rational verification suites at the given scale.

    Exits 0 only if every check passes; one line per check, no skips.  A
    size that any check refuses is refused by the first, before any output.
    """
    thetas = _parse_theta(theta)
    fits = [m for m in range(min(n, 7) + 1) if _labelled_count(m, k) <= _SET_PARTITION_CAP]
    n_blocks = max(fits, default=0)  # n < 0 is refused by the first check
    checks = [  # (label, check(size, k, theta), sizes)
        (f"normalization n={n} k={k}", measure.normalization_check, [n]),
        ("factorization identity", measure.factorization_check, [n]),
        (f"sub-sampling consistency n=2..{n}", measure.check_consistency, range(2, n + 1)),
        ("union reduction to single-class Ewens", measure.union_marginal_check, [n]),
        ("rising-factorial convolution identity", measure.vandermonde_check, [n]),
        ("conditional Poisson representation", poisson.conditional_identity_check, [n]),
        (f"labelled set-partition law sums to 1 at n={n_blocks}", measure.set_partition_check,
         [n_blocks]),
        ("joint allele-count law sums to 1", allele_stats.joint_k_check, [n]),
    ]
    failed = 0
    for label, check, sizes in checks:
        bad = [r for r in (check(size, k, thetas) for size in sizes) if not r]
        detail = getattr(bad[0], "failures", ())[:1] if bad else ()
        click.echo(f"{'FAIL' if bad else 'PASS'} {label}" + "".join(f" ({d})" for d in detail))
        failed += bool(bad)
    if failed:
        raise SystemExit(1)


def _emit_table(rows: list[dict], fmt: str):
    if fmt == "json":
        for row in rows:
            click.echo(json.dumps(row))
        return
    writer = csv.DictWriter(sys.stdout, fieldnames=list(rows[0].keys()))
    writer.writeheader()
    for row in rows:
        writer.writerow(row)


if __name__ == "__main__":
    main()
