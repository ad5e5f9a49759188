"""The Ewens measure on multiple partitions and its exact structure.

With k allele classes carrying mutation masses theta_1..theta_k (sum w), the
sampling law of the allele-count matrix a_j^(l) of an n-sample is

    n! / (w)_n * prod_{l,j} (theta_l/j)^{a_j^(l)} / a_j^(l)!

The backend is picked from the mass types.  When every theta is an int or a
Fraction (the oracle path), each law is an integer numerator over a cached
integer denominator, built into one Fraction.  Otherwise each law is one sum
of logs written beside its exact kernel, with lgamma for the factorials and
the rising factorials (:func:`_log_rising`, in Stirling's form at masses far
above n), which stays finite far beyond the n where (w)_n would overflow and
at most 0 at any positive finite mass.

Exact laws of size n share one denominator: with Q the lcm of the mass
denominators, D_n = prod_{i<n} (Qw + iQ) = Q^n (w)_n and P(p) = N(p) / D_n for

    N(p) = n! / prod_{l,j} j^{a_j^(l)} a_j^(l)!  *  prod_l (Q theta_l)^{K_l}  *  Q^{n-K},

with K_l rows in component l and K = sum K_l.  The first factor counts the
permutations with these class-coloured cycles, so N(p) is an integer.  Q
and the Q theta_l come from :func:`_context`, D_n from :func:`_rising`; the
exact sweep checks compare integer sums of numerators.  Every sweep starts
with :func:`_exact_common`, which refuses more than 200,000 states first.

Masses are checked and scaled once per object: one slot memoises the last
params or plain tuple of exactly int, Fraction or float, matched by identity;
others, such as a list, are checked on every call.  The row terms of N(p)
come from two tables keyed by a diagram's rows.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Union

from .partitions import (
    LabeledSetPartition,
    MultiplePartition,
    YoungDiagram,
    count_multipartitions,
    enumerate_multipartitions,
    compositions_of,
    labeled_set_partitions,
    multipartition_to_lists,
    partitions_of,
    union,
    _at_least,
    _exact_work_guard,
    _labelled_count,
    _trusted,
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

    Pass ints or Fractions to unlock the exact rational backend; floats,
    whose sum must be finite, evaluate each law as one sum of logs.
    """

    thetas: tuple[Numeric, ...]

    def __post_init__(self):
        thetas = tuple(self.thetas)
        object.__setattr__(self, "thetas", thetas)
        if len(thetas) < 1:
            raise ValueError("need at least one mutation class")
        if not _positive_finite(thetas):
            shown = ", ".join(map(_shown, thetas))
            raise ValueError(f"mutation masses must be positive and finite, got ({shown})")
        if not _is_exact(thetas):  # only a float sum can overflow
            _finite_total(thetas)

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
    """The one rule that picks the backend: exact when every value is an int or
    a Fraction.  A plain loop, run on every pmf call; a float skips the slow ABC isinstance."""
    for v in values:
        if type(v) is float or not isinstance(v, (int, Fraction)):
            return False
    return True


def _positive_finite(values) -> bool:
    """The one rule for masses and weights: positive and finite, NaN rejected.
    A Fraction is finite, so the sign of its numerator decides, which skips
    two slow Fraction comparisons."""
    for v in values:
        if not (v.numerator > 0 if type(v) is Fraction else 0 < v < math.inf):
            return False
    return True


def _shown(value) -> str:
    """value as a message shows it: in full, or, for a rational past Python's
    int-to-string digit limit, by its sign and the bit lengths of its parts."""
    try:
        return str(value)
    except ValueError:
        num, den = value.numerator, value.denominator
        sign = "-" if num < 0 else ""
        if den == 1:
            return f"{sign}<{num.bit_length()}-bit integer>"
        return f"{sign}<{num.bit_length()}-bit numerator>/<{den.bit_length()}-bit denominator>"


def _finite_total(values) -> None:
    """Refuse positive finite values whose float sum is past the float range:
    the one rule for float masses and the restaurant's opening total."""
    try:
        total = sum(values)
    except OverflowError:  # a rational too large for a float, beside a float
        total = math.inf
    if total == math.inf:
        raise ValueError(f"the masses must have a finite sum, got {total}")


# (masses, kind, params, scale), replaced whole so that no thread reads a torn entry
_last: tuple = (None, None, None, None)
_PLAIN = (int, Fraction, float)


def _context(theta, kind=MutationParams):
    """(params, scale): theta as the checked kind, and (L, the integers L v)
    for the values v of its one field, L the lcm of their denominators, when
    all are exact, else None.  A kind or a plain tuple of exactly int,
    Fraction or float is memoised in ``_last``, which holds it so its id stays unique."""
    global _last
    last = _last
    if last[0] is theta and last[1] is kind:
        return last[2], last[3]
    params = theta if isinstance(theta, kind) else kind(tuple(theta))
    (values,) = vars(params).values()
    scale = None
    if _is_exact(values):
        lcm = math.lcm(*[v.denominator for v in values])
        scale = lcm, tuple([v.numerator * (lcm // v.denominator) for v in values])
    if (params is theta or type(theta) is tuple) and all(type(v) in _PLAIN for v in values):
        _last = (theta, kind, params, scale)
    return params, scale


def _params(theta) -> MutationParams:
    """The masses theta as a checked :class:`MutationParams`."""
    return _context(theta)[0]


def pochhammer(x: Numeric, n: int):
    """Rising factorial x(x+1)...(x+n-1); equals 1 when n = 0.

    The result keeps the numeric kind of x (int, Fraction, or float),
    including the empty product.
    """
    n = _at_least(n, 0, "n")
    result = x**0
    for i in range(n):
        result = result * (x + i)
    return result


def _check_k(k: int, params: MutationParams):
    if k != params.k:
        raise ValueError(f"partition has k={k} components but theta has k={params.k}")


@lru_cache(maxsize=256)
def _rising(p: int, q: int, m: int) -> int:
    """prod_{i<m} (p + iq), the numerator of (p/q)_m over q^m.  A law over
    this denominator is reduced to lowest terms and may be printed in full,
    both quadratic in its limbs, so one too large to finish in about a
    second is refused before any work."""
    bits = m * math.log2(p + m * q)  # at least log2 of the product
    _exact_work_guard(f"an exact law at n={m}", int(bits) // 64, bits)
    return _product_tree(p, q, m)


def _product_tree(p: int, q: int, m: int) -> int:
    """prod_{i<m} (p + iq), halves first: each big multiplication then has
    factors of about the same size, which is far cheaper than growing one
    product a factor at a time."""
    if m <= 64:
        return math.prod(range(p, p + m * q, q))
    h = m // 2
    return _product_tree(p, q, h) * _product_tree(p + h * q, q, m - h)


_STATE_CAP = 200_000  # states an exact sweep may enumerate; past it, one takes minutes


def _exact_common(theta, k: int, n: int, what: str, states=count_multipartitions):
    """(n, k) as checked ints, then (Q, the scaled masses Q theta_l, D_n) for
    exact masses theta, for a sweep over states(n, k) states of size n with
    k components; more than _STATE_CAP are refused first.  states=None
    leaves the size to the sweep's own guard."""
    n, k = _at_least(n, 0, "n"), _at_least(k, 1, "k")
    count = 0 if states is None else states(n, k)
    if count > _STATE_CAP:
        raise ValueError(f"n={n}, k={k} enumerates {count} states, over the cap of"
                         f" {_STATE_CAP}; choose a smaller n or k")
    params, scale = _context(theta)
    if scale is None:
        raise ValueError(f"{what} needs rational theta")
    _check_k(k, params)
    q, scaled = scale
    return n, k, q, scaled, _rising(sum(scaled), q, n)


def _log_rising(x, m: int) -> float:
    """log (x)_m for x > 0: lgamma(x + m) - lgamma(x) where x <= m or x < 10.
    Above, those two share most of their digits, so Stirling's form is taken:
    m log x + (x + m - 1/2) log1p(m/x) - m + d(x + m) - d(x), with d the
    remainder lgamma(z) - (z - 1/2) log z + z - log(2 pi)/2."""
    if x <= m or x < 10:
        return math.lgamma(x + m) - math.lgamma(x)
    return (m * math.log(x) + (x + m - 0.5) * math.log1p(m / x) - m
            + _stirling_remainder(x + m) - _stirling_remainder(x))


def _stirling_remainder(z: float) -> float:
    """d(z) of :func:`_log_rising` at z >= 10, by its series to z^-11 (error < 1e-15)."""
    r = 1 / (z * z)
    return (1/12 - r * (1/360 - r * (1/1260 - r * (1/1680 - r * (1/1188 - r * 691/360360))))) / z


def _log_law(log_num: float, w, n: int) -> float:
    """log_num - log (w)_n, clamped at 0 (a near-sure state may round above); NaN passes."""
    log_p = log_num - _log_rising(w, n)
    return 0.0 if log_p > 0 else log_p


def _log_esf(components, thetas, w) -> float:
    """log of n!/(w)_n * prod_{l,j} (theta_l/j)^{a_j^(l)} / a_j^(l)!, read from
    the row multiplicities a_j^(l) of each component."""
    lgamma, log = math.lgamma, math.log
    n, total = 0, 0.0
    for th, comp in zip(thetas, components):
        n += comp.size
        total += comp.n_rows * log(th)
        for j, a in comp.multiplicities().items():
            total -= a * log(j) + lgamma(a + 1)
    return _log_law(total + lgamma(n + 1), w, n)


@lru_cache(maxsize=1 << 14)
def _row_terms(rows: tuple) -> tuple[int, int, int]:
    """(size, row count, prod_j j^{a_j} a_j!) of a diagram's rows; the a_j!
    are built run by run: the i-th repeat of a row length multiplies by i."""
    den = math.prod(rows)
    run = 1
    for prev, r in zip(rows, rows[1:]):
        run = run + 1 if r == prev else 1
        den *= run
    return sum(rows), len(rows), den


def _esf_numerator(components, q: int, scaled) -> int:
    """N(p) of the module docstring for the components of p, given Q and the
    scaled masses, from the row terms of each component."""
    n = n_rows = 0
    weight = den = 1
    for s, comp in zip(scaled, components):
        size, count, terms = _row_terms(comp.rows)
        n += size
        n_rows += count
        weight *= s**count
        den *= terms
    return math.factorial(n) // den * weight * q ** (n - n_rows)


def refined_esf_pmf(p: MultiplePartition, theta) -> Numeric:
    """Probability of the multiple partition p under the k-class Ewens law.

    Exact Fraction N(p) / D_n for rational theta, float (from log space)
    otherwise.
    """
    params, scale = _context(theta)
    comps = p.components
    _check_k(len(comps), params)
    if scale is None:
        return math.exp(_log_esf(comps, params.thetas, params.w))
    q, scaled = scale
    n = sum([sum(comp.rows) for comp in comps])
    return Fraction(_esf_numerator(comps, q, scaled), _rising(sum(scaled), q, n))


def refined_esf_log_pmf(p: MultiplePartition, theta) -> float:
    """log of :func:`refined_esf_pmf` as a float, for any masses; finite
    where the probability itself underflows to 0."""
    params = _params(theta)
    _check_k(p.k, params)
    return _log_esf(p.components, params.thetas, params.w)


def classical_ewens_pmf(diagram: YoungDiagram, theta: Numeric) -> Numeric:
    """Single-class Ewens probability of a Young diagram: the refined law at k = 1."""
    return refined_esf_pmf(MultiplePartition((diagram,)), (theta,))


def refined_esf_pmf_factorized(p: MultiplePartition, theta) -> Numeric:
    """Same law, evaluated through the conditional factorization.

    Component sizes follow a Dirichlet-multinomial-type weight
    (theta_1)_{n_1}...(theta_k)_{n_k}/(w)_n * n!/(n_1!...n_k!), and each
    component is an independent single-class Ewens diagram given its size.
    Exact: the size law is n!/prod n_l! * prod R_l over D_n, with
    R_l = Q^{n_l} (theta_l)_{n_l}, and component l adds N_l / R_l from
    :func:`_single_class_numerator`, an exact cross-check of
    :func:`refined_esf_pmf`.  Float masses take that law's log-sum, in which
    the factors (theta_l)_{n_l}/n_l! of the factorization cancel.
    """
    params, scale = _context(theta)
    comps = p.components
    _check_k(len(comps), params)
    if scale is None:
        return math.exp(_log_esf(comps, params.thetas, params.w))
    q, scaled = scale
    sizes = [sum(comp.rows) for comp in comps]
    n = sum(sizes)
    risings = math.prod(map(_rising, scaled, (q,) * len(sizes), sizes))
    size_law = math.factorial(n) // math.prod(map(math.factorial, sizes)) * risings
    singles = math.prod(map(_single_class_numerator, comps, (q,) * len(sizes), scaled, sizes))
    return Fraction(size_law * singles, _rising(sum(scaled), q, n) * risings)


def _single_class_numerator(comp: YoungDiagram, q: int, s: int, m: int) -> int:
    """N_l = m! / prod_j j^{a_j} a_j! * s^{K_l} * Q^{m-K_l} for one component
    of size m and scaled mass s, so that the single-class law at size m is
    N_l / R_l, with terms from :func:`_class_terms`, not :func:`_row_terms`,
    so that the factorized route checks a second kernel."""
    count, den = _class_terms(comp.rows)
    return math.factorial(m) // den * s**count * q ** (m - count)


@lru_cache(maxsize=1 << 14)
def _class_terms(rows: tuple) -> tuple[int, int]:
    """(row count, prod_j j^{a_j} a_j!) of the diagram with these rows, read
    from its row multiplicities a_j."""
    return len(rows), math.prod(j**a * math.factorial(a) for j, a in Counter(rows).items())


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
            yield _trusted(MultiplePartition, components=tuple(comps)), mult * length


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
    n, k, q, scaled, d_n = _exact_common(theta, k, n, "normalization check")
    total = sum(_esf_numerator(p.components, q, scaled) for p in enumerate_multipartitions(n, k))
    return _sum_report("normalization", total, d_n)


def factorization_check(n: int, k: int, theta) -> CheckReport:
    """Exact check that :func:`refined_esf_pmf` equals the factorized route on
    every multiple partition of n into k components."""
    n, k, *_ = _exact_common(theta, k, n, "factorization check")
    failures = []
    for p in enumerate_multipartitions(n, k):
        direct, factorized = refined_esf_pmf(p, theta), refined_esf_pmf_factorized(p, theta)
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
    n, k, q, scaled, d_n = _exact_common(theta, k, n, "consistency check")
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
    n, k, q, scaled, d_n = _exact_common(theta, k, n, "union marginal check")
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
    n, k, q, scaled, d_n = _exact_common(theta, k, n, "identity check",
                                         lambda n, k: math.comb(n + k - 1, k - 1))
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
    params, scale = _context(theta)
    if any(label > params.k for label, _ in s.blocks):
        raise ValueError(f"block label out of range 1..{params.k}")
    if scale is not None:
        q, scaled, b = *scale, len(s.blocks)
        factors = _block_factors(scaled, {len(e) for _, e in s.blocks})
        num = _set_partition_numerator(s, factors, {b: q ** (s.n - b)})
        return Fraction(num, _rising(sum(scaled), q, s.n))
    logs = [math.log(params.thetas[label - 1]) + math.lgamma(len(e)) for label, e in s.blocks]
    return math.exp(_log_law(sum(logs), params.w, s.n))


def _block_factors(scaled, sizes) -> list:
    """The per-call table factors[l][j] = (Q theta_l)(j-1)! of the block sizes j."""
    facts = {j: math.factorial(j - 1) for j in sizes}
    return [None, *({j: s * f for j, f in facts.items()} for s in scaled)]


def _set_partition_numerator(s: LabeledSetPartition, factors, q_pows) -> int:
    """N(s) = prod over blocks of (Q theta_label)(|B|-1)!, times Q^{n-#blocks},
    from the per-call tables of :func:`_block_factors` and q_pows[#blocks]."""
    num = q_pows[len(s.blocks)]
    for label, elems in s.blocks:
        num *= factors[label][len(elems)]
    return num


def set_partition_check(n: int, k: int, theta) -> CheckReport:
    """Exact check that the labelled set-partition law of {1..n} with labels
    1..k sums to one: sum_s N(s) == D_n."""
    n, k, q, scaled, d_n = _exact_common(theta, k, n, "set-partition check", _labelled_count)
    factors = _block_factors(scaled, range(1, n + 1))
    q_pows = [q ** (n - b) for b in range(n + 1)]
    total = sum(_set_partition_numerator(s, factors, q_pows) for s in labeled_set_partitions(n, k))
    return _sum_report("set-partition", total, d_n)

