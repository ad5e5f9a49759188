"""The Ewens measure on multiple partitions and its exact structure.

With k allele classes carrying mutation masses theta_1..theta_k (sum w), the
sampling law of the allele-count matrix a_j^(l) of an n-sample is

    n! / (w)_n * prod_{l,j} (theta_l/j)^{a_j^(l)} / a_j^(l)!

Each law is written once, as factors x**e and ((x)_m)**e, and evaluated by one
backend picked from the mass types: exact Fractions when every theta is an int
or Fraction (the oracle path), and a sum of logs otherwise, which stays finite
far beyond the n where (w)_n would overflow.

Exact laws of size n share one denominator: with Q the lcm of the mass
denominators, D_n = prod_{i<n} (Qw + iQ) = Q^n (w)_n and P(p) = N(p) / D_n for

    N(p) = n! / prod_{l,j} j^{a_j^(l)} a_j^(l)!  *  prod_l (Q theta_l)^{K_l}  *  Q^{n-K},

with K_l rows in component l and K = sum K_l.  The first factor counts the
permutations with these class-coloured cycles, so N(p) is an integer.  Q,
the Q theta_l and D_n are cached per (theta, n); the exact sweep checks
compare integer sums of numerators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Union

from .partitions import (
    LabeledSetPartition,
    MultiplePartition,
    YoungDiagram,
    enumerate_multipartitions,
    compositions_of,
    labeled_set_partitions,
    multipartition_to_lists,
    partitions_of,
    union,
)

__all__ = [
    "MutationParams",
    "pochhammer",
    "refined_esf_pmf",
    "refined_esf_log_pmf",
    "refined_esf_pmf_factorized",
    "classical_ewens_pmf",
    "downward_transition",
    "check_consistency",
    "union_marginal_check",
    "vandermonde_check",
    "labeled_set_partition_pmf",
    "normalization_check",
    "factorization_check",
    "set_partition_check",
    "CheckReport",
]

Numeric = Union[int, Fraction, float]


@dataclass(frozen=True)
class MutationParams:
    """Per-class mutation masses theta_l > 0; w is their sum.

    Pass ints or Fractions to unlock the exact rational backend; floats
    route every evaluation through log space.
    """

    thetas: tuple[Numeric, ...]

    def __post_init__(self):
        thetas = tuple(self.thetas)
        object.__setattr__(self, "thetas", thetas)
        if len(thetas) < 1:
            raise ValueError("need at least one mutation class")
        if not all(0 < t < math.inf for t in thetas):  # also rejects NaN
            shown = ", ".join(map(str, thetas))
            raise ValueError(f"mutation masses must be positive and finite, got ({shown})")

    @property
    def k(self) -> int:
        return len(self.thetas)

    @property
    def w(self) -> Numeric:
        return sum(self.thetas)

    @property
    def is_exact(self) -> bool:
        return _is_exact(self.thetas)


def _is_exact(values) -> bool:
    """The one rule that picks the backend: exact when every value is an int
    or a Fraction.  A plain loop, as it runs on every pmf call."""
    for v in values:
        if not isinstance(v, (int, Fraction)):
            return False
    return True


def _params(theta) -> MutationParams:
    if isinstance(theta, MutationParams):
        return theta
    return MutationParams(tuple(theta))


def _exact_params(theta, what: str) -> MutationParams:
    params = _params(theta)
    if not params.is_exact:
        raise ValueError(f"{what} needs rational theta")
    return params


def pochhammer(x: Numeric, n: int):
    """Rising factorial x(x+1)...(x+n-1); equals 1 when n = 0.

    The result keeps the numeric kind of x (int, Fraction, or float),
    including the empty product.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    result = x**0
    for i in range(n):
        result = result * (x + i)
    return result


def _check_k(k: int, params: MutationParams):
    if k != params.k:
        raise ValueError(f"partition has k={k} components but theta has k={params.k}")


@lru_cache(maxsize=256)
def _rising(p: int, q: int, m: int) -> int:
    """prod_{i<m} (p + iq), the numerator of (p/q)_m over q^m."""
    return math.prod(range(p, p + m * q, q))


@lru_cache(maxsize=256)
def _common(thetas: tuple, n: int) -> tuple[int, tuple[int, ...], int]:
    """(Q, the scaled masses Q theta_l, D_n) for exact masses; see the module
    docstring.  Only exact masses may reach this cache: 1 and 1.0 hash alike."""
    q = math.lcm(*(Fraction(t).denominator for t in thetas))
    scaled = tuple(int(t * q) for t in thetas)
    return q, scaled, _rising(sum(scaled), q, n)


def _exact_common(theta, k: int, n: int, what: str):
    """:func:`_common` for a sweep over states with k components."""
    params = _exact_params(theta, what)
    _check_k(k, params)
    return _common(params.thetas, n)


def _product(exact: bool, powers, pochs) -> Numeric:
    """prod x**e over (x, e) in powers, times ((x)_m)**e for every m in ms of
    each (x, ms, e) in pochs.  Exact: one integer numerator and denominator,
    with (p/q)_m = :func:`_rising` (p, q, m) / q^m, and one Fraction at the
    end; otherwise the exp of :func:`_log_product`."""
    if not exact:
        return math.exp(_log_product(powers, pochs))
    terms = [(x.numerator, x.denominator, e) for x, e in powers]
    for x, ms, e in pochs:
        p, q = x.numerator, x.denominator
        rising = math.prod([_rising(p, q, m) for m in ms])
        terms.append((rising, q ** sum(ms), e))
    num = den = 1
    for top, bot, e in terms:
        if e < 0:
            top, bot, e = bot, top, -e
        num *= top**e
        den *= bot**e
    return Fraction(num, den)


def _log_product(powers, pochs) -> float:
    """log of :func:`_product`, with lgamma for the rising factorials."""
    lgamma = math.lgamma
    total = 0.0
    for x, e in powers:
        total += e * math.log(x)
    for x, ms, e in pochs:
        lx = lgamma(x)
        for m in ms:
            total += e * (lgamma(x + m) - lx)
    return total


def _esf_factors(components, thetas, w):
    """Factors of n!/(w)_n * prod_{l,j} (theta_l/j)^{a_j^(l)} / a_j^(l)!; the
    product of j^{a_j^(l)} over j is that of the row lengths of component l."""
    powers, counts = [], []
    n, lengths = 0, 1
    for th, comp in zip(thetas, components):
        n += comp.size
        lengths *= math.prod(comp.rows)
        powers.append((th, comp.n_rows))
        counts += comp.multiplicities().values()
    powers.append((lengths, -1))
    return powers, [(1, counts, -1), (1, (n,), 1), (w, (n,), -1)]


def _esf_numerator(components, q: int, scaled) -> int:
    """N(p) of the module docstring for the components of p, given Q and the
    scaled masses.  The product of a_j! over the rows of a component is built
    run by run: the i-th repeat of a row length multiplies by i."""
    n = n_rows = 0
    weight = den = 1
    for s, comp in zip(scaled, components):
        rows = comp.rows
        if rows:
            n += sum(rows)
            n_rows += len(rows)
            weight *= s ** len(rows)
            den *= math.prod(rows)
            run = 1
            for prev, r in zip(rows, rows[1:]):
                run = run + 1 if r == prev else 1
                den *= run
    return math.factorial(n) // den * weight * q ** (n - n_rows)


def refined_esf_pmf(p: MultiplePartition, theta) -> Numeric:
    """Probability of the multiple partition p under the k-class Ewens law.

    Exact Fraction N(p) / D_n for rational theta, float (from log space)
    otherwise.
    """
    params = _params(theta)
    _check_k(p.k, params)
    if not params.is_exact:
        return _product(False, *_esf_factors(p.components, params.thetas, params.w))
    q, scaled, d_n = _common(params.thetas, p.n)
    return Fraction(_esf_numerator(p.components, q, scaled), d_n)


def refined_esf_log_pmf(p: MultiplePartition, theta) -> float:
    params = _params(theta)
    _check_k(p.k, params)
    return _log_product(*_esf_factors(p.components, params.thetas, params.w))


def classical_ewens_pmf(diagram: YoungDiagram, theta: Numeric) -> Numeric:
    """Single-class Ewens probability of a Young diagram: the refined law at k = 1."""
    return refined_esf_pmf(MultiplePartition((diagram,)), (theta,))


def refined_esf_pmf_factorized(p: MultiplePartition, theta) -> Numeric:
    """Same law, evaluated through the conditional factorization.

    Component sizes follow a Dirichlet-multinomial-type weight
    (theta_1)_{n_1}...(theta_k)_{n_k}/(w)_n * n!/(n_1!...n_k!), and each
    component is an independent single-class Ewens diagram given its size.
    Kept separate from :func:`refined_esf_pmf` as a cross-checking route.
    """
    params = _params(theta)
    _check_k(p.k, params)
    powers, pochs = [], [(1, (p.n,), 1), (params.w, (p.n,), -1)]
    for th, comp in zip(params.thetas, p.components):
        single_powers, single_pochs = _esf_factors((comp,), (th,), th)
        powers += single_powers
        pochs += [*single_pochs, (th, (comp.size,), 1), (1, (comp.size,), -1)]
    return _product(params.is_exact, powers, pochs)


def downward_transition(p: MultiplePartition) -> dict[MultiplePartition, Fraction]:
    """Law of the sub-sample of size n-1 drawn from a sample shaped like p.

    Removing one box from a row of length L in component l has probability
    m_L(lambda^(l)) * L / n.  The kernel does not depend on theta.
    """
    n = p.n
    if n == 0:
        raise ValueError("cannot sub-sample an empty multiple partition")
    return {child: Fraction(weight, n) for child, weight in _children(p)}


def _children(p: MultiplePartition):
    """(child, m_L * L) for every row length L of every component; distinct
    (component, L) pairs give distinct children."""
    for l, comp in enumerate(p.components):
        for length, mult in comp.multiplicities().items():
            comps = list(p.components)
            comps[l] = comp.remove_box_from_row(length)
            yield MultiplePartition(tuple(comps)), mult * length


@dataclass(frozen=True)
class CheckReport:
    """Outcome of an exact verification sweep."""

    name: str
    ok: bool
    failures: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


def _sum_report(name: str, total: int, d_n: int) -> CheckReport:
    """Report on a law whose numerators over D_n sum to total."""
    if total == d_n:
        return CheckReport(name, True)
    return CheckReport(name, False, (f"sum={Fraction(total, d_n)}",))


def normalization_check(n: int, k: int, theta) -> CheckReport:
    """Exact check that the refined law of size n sums to one: sum_p N(p) == D_n."""
    q, scaled, d_n = _exact_common(theta, k, n, "normalization check")
    total = sum(_esf_numerator(p.components, q, scaled) for p in enumerate_multipartitions(n, k))
    return _sum_report("normalization", total, d_n)


def factorization_check(n: int, k: int, theta) -> CheckReport:
    """Exact check that :func:`refined_esf_pmf` equals the factorized route on
    every multiple partition of n into k components."""
    params = _exact_params(theta, "factorization check")
    failures = []
    for p in enumerate_multipartitions(n, k):
        direct, factorized = refined_esf_pmf(p, params), refined_esf_pmf_factorized(p, params)
        if direct != factorized:
            failures.append(
                f"p={multipartition_to_lists(p)}: pmf {direct} != factorized {factorized}"
            )
    return CheckReport("factorization", not failures, tuple(failures))


def check_consistency(n: int, k: int, theta) -> CheckReport:
    """Exact check that sub-sampling maps the size-n law onto the size-(n-1) law.

    Verifies M_{n-1}(mu) == sum_p T(p -> mu) M_n(p) for every mu, where
    T(p -> mu) = m_L L / n.  Over the shared denominators this is the integer
    identity sum_p m_L L N_n(p) == n (Qw + (n-1)Q) N_{n-1}(mu).  Requires
    rational theta; desk scale n.
    """
    q, scaled, d_n = _exact_common(theta, k, n, "consistency check")
    if n < 1:
        return CheckReport("consistency", True)
    step = n * (sum(scaled) + (n - 1) * q)  # n D_n / D_{n-1}
    pushed: dict[MultiplePartition, int] = {}
    for p in enumerate_multipartitions(n, k):
        mass = _esf_numerator(p.components, q, scaled)
        for child, weight in _children(p):
            pushed[child] = pushed.get(child, 0) + weight * mass
    failures = []
    for mu in enumerate_multipartitions(n - 1, k):
        expected = _esf_numerator(mu.components, q, scaled)
        got = pushed.get(mu, 0)
        if got != step * expected:
            got, expected = Fraction(got, n * d_n), Fraction(expected * step, n * d_n)
            failures.append(f"mu={multipartition_to_lists(mu)}: pushed {got} != pmf {expected}")
    return CheckReport("consistency", not failures, tuple(failures))


def union_marginal_check(n: int, k: int, theta) -> CheckReport:
    """Exact check that forgetting class labels gives classical Ewens at w:
    the numerators grouped by union equal the single-class numerators at
    mass Qw over the same D_n."""
    q, scaled, d_n = _exact_common(theta, k, n, "union marginal check")
    grouped: dict[YoungDiagram, int] = {}
    for p in enumerate_multipartitions(n, k):
        lam = union(p)
        grouped[lam] = grouped.get(lam, 0) + _esf_numerator(p.components, q, scaled)
    failures = []
    for rows in partitions_of(n):
        lam = YoungDiagram(rows)
        expected = _esf_numerator((lam,), q, (sum(scaled),))
        got = grouped.get(lam, 0)
        if got != expected:
            got, expected = Fraction(got, d_n), Fraction(expected, d_n)
            failures.append(f"lambda={rows}: grouped {got} != Ewens {expected}")
    return CheckReport("union-marginal", not failures, tuple(failures))


def vandermonde_check(n: int, k: int, theta) -> bool:
    """n! * sum over n_1+..+n_k=n of prod (theta_l)_{n_l}/n_l! == (w)_n, exactly."""
    q, scaled, d_n = _exact_common(theta, k, n, "identity check")
    total = sum(  # n!/prod n_l! * prod Q^{n_l} (theta_l)_{n_l}, against Q^n (w)_n
        math.factorial(n) // math.prod(map(math.factorial, sizes))
        * math.prod(map(_rising, scaled, (q,) * k, sizes))
        for sizes in compositions_of(n, k)
    )
    return total == d_n


def labeled_set_partition_pmf(s: LabeledSetPartition, theta) -> Numeric:
    """Probability of a labelled set partition of the gene labels {1..n}.

    prod over blocks of theta_{label} * (|B|-1)!, divided by (w)_n; exact
    as N(s) / D_n.  Depends on the blocks only through sizes and labels
    (exchangeable).
    """
    params = _params(theta)
    if any(label > params.k for label, _ in s.blocks):
        raise ValueError(f"block label out of range 1..{params.k}")
    if params.is_exact:
        q, scaled, d_n = _common(params.thetas, s.n)
        return Fraction(_set_partition_numerator(s, q, scaled), d_n)
    powers = [(params.thetas[label - 1], 1) for label, _ in s.blocks]
    pochs = [(1, [len(elems) - 1 for _, elems in s.blocks], 1), (params.w, (s.n,), -1)]
    return _product(False, powers, pochs)


def _set_partition_numerator(s: LabeledSetPartition, q: int, scaled) -> int:
    """N(s) = prod over blocks of (Q theta_label)(|B|-1)!, times Q^{n-#blocks}."""
    num = q ** (s.n - len(s.blocks))
    for label, elems in s.blocks:
        num *= scaled[label - 1] * math.factorial(len(elems) - 1)
    return num


def set_partition_check(n: int, k: int, theta) -> CheckReport:
    """Exact check that the labelled set-partition law of {1..n} with labels
    1..k sums to one: sum_s N(s) == D_n."""
    q, scaled, d_n = _exact_common(theta, k, n, "set-partition check")
    total = sum(_set_partition_numerator(s, q, scaled) for s in labeled_set_partitions(n, k))
    return _sum_report("set-partition", total, d_n)

