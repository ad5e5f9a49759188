"""The Ewens measure on multiple partitions and its exact structure.

With k allele classes carrying mutation masses theta_1..theta_k (sum w), the
sampling law of the allele-count matrix a_j^(l) of an n-sample is

    n! / (w)_n * prod_{l,j} (theta_l/j)^{a_j^(l)} / a_j^(l)!

Each law is written once, as factors x**e and ((x)_m)**e, and evaluated by one
backend picked from the mass types: exact Fractions when every theta is an int
or Fraction (the oracle path), and a sum of logs otherwise, which stays finite
far beyond the n where (w)_n would overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .partitions import (
    LabeledSetPartition,
    MultiplePartition,
    YoungDiagram,
    enumerate_multipartitions,
    compositions_of,
    partitions_of,
    union,
)

__all__ = [
    "MutationParams",
    "pochhammer",
    "log_pochhammer",
    "refined_esf_pmf",
    "refined_esf_log_pmf",
    "refined_esf_pmf_factorized",
    "classical_ewens_pmf",
    "classical_ewens_log_pmf",
    "downward_transition",
    "check_consistency",
    "union_marginal_check",
    "vandermonde_check",
    "labeled_set_partition_pmf",
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
            raise ValueError(f"mutation masses must be positive and finite, got {thetas}")

    @property
    def k(self) -> int:
        return len(self.thetas)

    @property
    def w(self) -> Numeric:
        return sum(self.thetas)

    @property
    def is_exact(self) -> bool:
        return all(isinstance(t, (int, Fraction)) for t in self.thetas)


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


def log_pochhammer(x: float, n: int) -> float:
    """log of the rising factorial, for x > 0."""
    if n == 0:
        return 0.0
    return math.lgamma(x + n) - math.lgamma(x)


def _check_k(p: MultiplePartition, params: MutationParams):
    if p.k != params.k:
        raise ValueError(
            f"partition has k={p.k} components but theta has k={params.k}"
        )


def _product(exact: bool, powers, pochs) -> Numeric:
    """prod x**e over (x, e) in powers, times ((x)_m)**e for every m in ms of
    each (x, ms, e) in pochs.  Exact: one integer numerator and denominator,
    with (p/q)_m = prod_{i<m} (p + iq) / q^m, and one Fraction at the end;
    otherwise the exp of :func:`_log_product`."""
    if not exact:
        return math.exp(_log_product(powers, pochs))
    terms = [(x.numerator, x.denominator, e) for x, e in powers]
    for x, ms, e in pochs:
        p, q = x.numerator, x.denominator
        rising = math.prod([math.prod(range(p, p + m * q, q)) for m in ms])
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


def refined_esf_pmf(p: MultiplePartition, theta) -> Numeric:
    """Probability of the multiple partition p under the k-class Ewens law.

    Exact Fraction for rational theta, float (from log space) otherwise.
    """
    params = _params(theta)
    _check_k(p, params)
    return _product(params.is_exact, *_esf_factors(p.components, params.thetas, params.w))


def refined_esf_log_pmf(p: MultiplePartition, theta) -> float:
    params = _params(theta)
    _check_k(p, params)
    return _log_product(*_esf_factors(p.components, params.thetas, params.w))


def classical_ewens_pmf(diagram: YoungDiagram, theta: Numeric) -> Numeric:
    """Single-class Ewens probability of a Young diagram: the refined law at k = 1."""
    return refined_esf_pmf(MultiplePartition((diagram,)), (theta,))


def classical_ewens_log_pmf(diagram: YoungDiagram, theta: float) -> float:
    return refined_esf_log_pmf(MultiplePartition((diagram,)), (theta,))


def refined_esf_pmf_factorized(p: MultiplePartition, theta) -> Numeric:
    """Same law, evaluated through the conditional factorization.

    Component sizes follow a Dirichlet-multinomial-type weight
    (theta_1)_{n_1}...(theta_k)_{n_k}/(w)_n * n!/(n_1!...n_k!), and each
    component is an independent single-class Ewens diagram given its size.
    Kept separate from :func:`refined_esf_pmf` as a cross-checking route.
    """
    params = _params(theta)
    _check_k(p, params)
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
    children: dict[MultiplePartition, Fraction] = {}
    for l, comp in enumerate(p.components):
        for length, mult in comp.multiplicities().items():
            shrunk = comp.remove_box_from_row(length)
            comps = list(p.components)
            comps[l] = shrunk
            child = MultiplePartition(tuple(comps))
            prob = Fraction(mult * length, n)
            children[child] = children.get(child, Fraction(0)) + prob
    return children


@dataclass(frozen=True)
class CheckReport:
    """Outcome of an exact verification sweep."""

    name: str
    ok: bool
    failures: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


def check_consistency(n: int, k: int, theta) -> CheckReport:
    """Exact check that sub-sampling maps the size-n law onto the size-(n-1) law.

    Verifies M_{n-1}(mu) == sum_p T(p -> mu) M_n(p) for every mu, in
    rational arithmetic.  Requires rational theta; desk scale n.
    """
    params = _exact_params(theta, "consistency check")
    if n < 1:
        return CheckReport("consistency", True)
    pushed: dict[MultiplePartition, Fraction] = {}
    for p in enumerate_multipartitions(n, k):
        mass = refined_esf_pmf(p, params)
        for child, prob in downward_transition(p).items():
            pushed[child] = pushed.get(child, Fraction(0)) + prob * mass
    failures = []
    for mu in enumerate_multipartitions(n - 1, k):
        expected = refined_esf_pmf(mu, params)
        got = pushed.get(mu, Fraction(0))
        if got != expected:
            failures.append(f"mu={multilists(mu)}: pushed {got} != pmf {expected}")
    return CheckReport("consistency", not failures, tuple(failures))


def union_marginal_check(n: int, k: int, theta) -> CheckReport:
    """Exact check that forgetting class labels gives classical Ewens at w."""
    params = _exact_params(theta, "union marginal check")
    grouped: dict[YoungDiagram, Fraction] = {}
    for p in enumerate_multipartitions(n, k):
        lam = union(p)
        grouped[lam] = grouped.get(lam, Fraction(0)) + refined_esf_pmf(p, params)
    failures = []
    for rows in partitions_of(n):
        lam = YoungDiagram(rows)
        expected = classical_ewens_pmf(lam, params.w)
        got = grouped.get(lam, Fraction(0))
        if got != expected:
            failures.append(f"lambda={rows}: grouped {got} != Ewens {expected}")
    return CheckReport("union-marginal", not failures, tuple(failures))


def vandermonde_check(n: int, k: int, theta) -> bool:
    """n! * sum over n_1+..+n_k=n of prod (theta_l)_{n_l}/n_l! == (w)_n, exactly."""
    params = _exact_params(theta, "identity check")
    thetas = [Fraction(t) for t in params.thetas]
    total = Fraction(0)
    for sizes in compositions_of(n, k):
        term = Fraction(1)
        for th, m in zip(thetas, sizes):
            term *= pochhammer(th, m) / math.factorial(m)
        total += term
    return math.factorial(n) * total == pochhammer(Fraction(params.w), n)


def labeled_set_partition_pmf(s: LabeledSetPartition, theta) -> Numeric:
    """Probability of a labelled set partition of the gene labels {1..n}.

    prod over blocks of theta_{label} * (|B|-1)!, divided by (w)_n.  Depends
    on the blocks only through sizes and labels (exchangeable).
    """
    params = _params(theta)
    if any(label > params.k for label, _ in s.blocks):
        raise ValueError(f"block label out of range 1..{params.k}")
    powers = [(params.thetas[label - 1], 1) for label, _ in s.blocks]
    pochs = [(1, [len(elems) - 1 for _, elems in s.blocks], 1), (params.w, (s.n,), -1)]
    return _product(params.is_exact, powers, pochs)


def multilists(p: MultiplePartition) -> str:
    """Compact string form of a multiple partition for report messages."""
    return str([list(c.rows) for c in p.components])
