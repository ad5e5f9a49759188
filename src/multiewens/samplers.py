"""Monte Carlo generators whose laws are the k-class Ewens measure.

Three routes to the same distribution: the generalized Hoppe urn (one black
object of mass theta_l per class plus unit-mass colors), the coalescent-style
per-step rates it realises, and the paintbox over class-weighted ranked
frequencies drawn from the multiple Poisson-Dirichlet law.  The urn and the
paintbox end with the alleles they drew as (class, count) pairs, which
``partitions._from_alleles`` groups into the sample's multiple partition.
The urn's set partition and the Poisson-Dirichlet frequencies are valid by
construction and skip their constructors' checks through
``partitions._trusted``, with the field types of a validated instance.

Seeding contract: every sampler takes a 64-bit integer seed and is bit
deterministic for a fixed platform and library version.  Parallel workers
should derive child seeds with :func:`derive_seed`, which applies the
SplitMix64 mixer to (seed, worker index): child = mix(mix(seed) + 1 + index).
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .measure import _params
from .partitions import LabeledSetPartition, MultiplePartition, _from_alleles, _trusted

__all__ = [
    "derive_seed",
    "hoppe_urn_sample",
    "hoppe_urn_partition_counts",
    "coalescent_rates",
    "FrequencyRanked",
    "pd_sample",
    "paintbox_sample",
    "paintbox_pmf",
    "monomial_symmetric",
]

_MASK64 = (1 << 64) - 1


def _splitmix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(seed: int, index: int) -> int:
    """Child seed for worker `index`: SplitMix64(SplitMix64(seed) + 1 + index)."""
    return _splitmix64((_splitmix64(seed & _MASK64) + 1 + index) & _MASK64)


def _urn_run(n: int, thetas: Sequence[float], rng: random.Random):
    """Run the urn for n draws, one rng.random() and O(1) work per draw.

    Returns (classes, counts, founder): 0-based class and count per color in
    creation order, and for each draw j the index of the color it joined
    (or founded).  Step j scales its uniform to u in [0, w + j).  Below w
    it picks a black object by scanning the k class masses.  Otherwise
    int(u - w) is a uniform earlier draw, and the step copies that draw's
    color, which joins each color with probability count / j.  The index
    is clamped to j - 1, since u rounds up to w + j when random() returns
    1 - 2**-53."""
    w = float(sum(thetas))
    k = len(thetas)
    classes: list[int] = []  # class of each color, 0-based
    counts: list[int] = []
    founder: list[int] = []
    for j in range(n):
        u = rng.random() * (w + j)
        if u < w:
            # black object: found a new color in the chosen class
            cls = k - 1
            for l in range(k - 1):
                if u < thetas[l]:
                    cls = l
                    break
                u -= thetas[l]
            classes.append(cls)
            counts.append(1)
            founder.append(len(counts) - 1)
        else:
            idx = founder[min(int(u - w), j - 1)]
            counts[idx] += 1
            founder.append(idx)
    return classes, counts, founder


def hoppe_urn_sample(
    n: int, theta, seed: int
) -> tuple[MultiplePartition, LabeledSetPartition]:
    """One draw of the generalized Hoppe urn after n steps.

    At step j an object is chosen with probability proportional to mass:
    the class-l black object (mass theta_l) founds a new color of class l,
    an existing color (mass = its count) gains one object of its color.
    Returns both the color-count multiple partition and the labelled set
    partition of the draw indices 1..n, whose blocks are the colors with
    their 1-based class labels.  Colors are founded in draw order, so the
    blocks come out ordered by their smallest element.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    params = _params(theta)
    thetas = [float(t) for t in params.thetas]
    rng = random.Random(seed)
    classes, counts, founder = _urn_run(n, thetas, rng)
    members: list[list[int]] = [[] for _ in counts]
    for j, idx in enumerate(founder, start=1):
        members[idx].append(j)
    blocks = tuple((cls + 1, frozenset(m)) for cls, m in zip(classes, members))
    return (
        _from_alleles(zip(classes, counts), params.k),
        _trusted(LabeledSetPartition, blocks=blocks, n=n),
    )


def hoppe_urn_partition_counts(
    n: int, theta, reps: int, seed: int
) -> Counter:
    """Empirical counts of urn multiple partitions over `reps` runs.

    Same process as :func:`hoppe_urn_sample` on a single stream, without the
    per-run set-partition bookkeeping; keys are MultiplePartition.  A run is
    tallied under its sorted (class, count) pairs, and each distinct key is
    built into a partition once.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if reps < 0:
        raise ValueError("reps must be >= 0")
    params = _params(theta)
    thetas = [float(t) for t in params.thetas]
    rng = random.Random(seed)
    raw: Counter = Counter()
    for _ in range(reps):
        classes, counts, _ = _urn_run(n, thetas, rng)
        raw[tuple(sorted(zip(classes, counts)))] += 1
    return Counter({_from_alleles(key, params.k): c for key, c in raw.items()})


def coalescent_rates(j: int, theta):
    """Jump-chain split for the ancestral death process at state j.

    Returns (coalesce_prob, per-class mutation probs): (j-1)/(j-1+w) and
    theta_l/(j-1+w).  Exact when theta is rational.  The probs sum to 1.
    """
    if j < 1:
        raise ValueError("j must be >= 1")
    params = _params(theta)
    denom = Fraction(j - 1) + params.w  # a float mass makes this a float
    return (j - 1) / denom, tuple(t / denom for t in params.thetas)


@dataclass(frozen=True)
class FrequencyRanked:
    """Ranked per-class frequencies with class weights summing to one.

    freqs[l] is weakly decreasing and sums to deltas[l] up to a truncation
    remainder smaller than eps (the mass cut off when the stick-breaking
    residual drops below eps).
    """

    freqs: tuple[tuple[float, ...], ...]
    deltas: tuple[float, ...]
    eps: float

    def __post_init__(self):
        freqs = tuple(tuple(float(x) for x in seq) for seq in self.freqs)
        deltas = tuple(float(d) for d in self.deltas)
        object.__setattr__(self, "freqs", freqs)
        object.__setattr__(self, "deltas", deltas)
        if len(freqs) != len(deltas):
            raise ValueError("need one frequency sequence per class")
        if not 0 < self.eps < 1:
            raise ValueError("eps must be in (0, 1)")
        if abs(sum(deltas) - 1.0) > 1e-9:
            raise ValueError("class weights must sum to 1")
        for seq, d in zip(freqs, deltas):
            if any(x < 0 for x in seq):
                raise ValueError("frequencies must be nonnegative")
            if any(seq[i] < seq[i + 1] for i in range(len(seq) - 1)):
                raise ValueError("frequencies must be weakly decreasing")
            total = math.fsum(seq)
            if total > d + 1e-9 or d - total > self.eps * max(d, 1e-300) + 1e-12:
                raise ValueError(
                    f"class mass {total} inconsistent with weight {d} at eps={self.eps}"
                )

    @property
    def k(self) -> int:
        return len(self.freqs)

    def remainder(self, l: int) -> float:
        """Truncated mass of class l (0-based index into freqs)."""
        return max(0.0, self.deltas[l] - math.fsum(self.freqs[l]))


def _gem_sticks(rng: np.random.Generator, theta: float, eps: float) -> list[float]:
    """Stick-breaking GEM(theta) weights of the unit stick until the
    residual drops below eps; returned unordered, as Python floats."""
    xs: list[float] = []
    remaining = 1.0
    while remaining >= eps:
        for b in rng.beta(1.0, theta, size=16).tolist():
            xs.append(remaining * b)
            remaining *= 1.0 - b
            if remaining < eps:
                break
    return xs


def pd_sample(theta, eps: float, seed: int) -> FrequencyRanked:
    """Draw ranked class frequencies from the multiple Poisson-Dirichlet law.

    Class weights (delta_1..delta_k) come from the Dirichlet(theta) law;
    within class l an independent PD(theta_l) sequence is generated by
    stick breaking, truncated once the residual mass falls below eps,
    sorted descending and scaled by delta_l.
    """
    if not 0 < eps < 1:
        raise ValueError("eps must be in (0, 1)")
    params = _params(theta)
    thetas = [float(t) for t in params.thetas]
    rng = np.random.default_rng(seed)
    if params.k == 1:
        deltas = [1.0]  # Dirichlet with one component, exactly
    else:
        deltas = rng.dirichlet(thetas).tolist()
    freqs = []
    for th, d in zip(thetas, deltas):
        sticks = _gem_sticks(rng, th, eps)
        sticks.sort(reverse=True)
        freqs.append(tuple(d * x for x in sticks))
    return _trusted(FrequencyRanked, freqs=tuple(freqs), deltas=tuple(deltas), eps=eps)


def paintbox_sample(n: int, f: FrequencyRanked, seed: int) -> MultiplePartition:
    """Paint n i.i.d. samples with the frequencies of f and group by type.

    The truncation remainder of each class is spread over fresh singleton
    types: a draw landing there becomes its own new allele of that class,
    so no probability is lost (bias O(n * eps)).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    probs: list[float] = []
    owner: list[int] = []  # class index per regular type
    for l, seq in enumerate(f.freqs):
        probs.extend(seq)
        owner.extend([l] * len(seq))
    remainders = [f.remainder(l) for l in range(f.k)]
    probs.extend(remainders)
    p = np.asarray(probs, dtype=float)
    p /= p.sum()
    counts = rng.multinomial(n, p).tolist()
    alleles = [(cls, c) for cls, c in zip(owner, counts) if c > 0]
    for l, c in enumerate(counts[len(owner):]):
        alleles.extend([(l, 1)] * c)
    return _from_alleles(alleles, f.k)


def _augmented_monomial(parts: tuple[int, ...], power_sums):
    """sum over pairwise-distinct indices i_1..i_r of prod x_{i_t}^{parts[t]}.

    power_sums maps exponent m to p_m = sum_i x_i^m; values may be scalars
    or numpy arrays (vectorised over independent frequency draws).
    """
    if not parts:
        return 1
    head, rest = parts[0], parts[1:]
    total = power_sums[head] * _augmented_monomial(rest, power_sums)
    for t in range(len(rest)):
        merged = rest[:t] + (rest[t] + head,) + rest[t + 1:]
        total = total - _augmented_monomial(merged, power_sums)
    return total


def monomial_symmetric(rows: Sequence[int], power_sums) -> float:
    """Monomial symmetric function m_lambda via power sums.

    rows is the partition (weakly decreasing); power_sums maps m to
    sum_i x_i^m for every m up to sum(rows).  Division by the part
    multiplicities turns the distinct-index sum into m_lambda.  The
    inclusion-exclusion takes factorial time in the number of parts and can
    cancel below zero; it is kept because it vectorises over frequency draws
    (numpy power sums) and cross-checks the positive-term kernel behind
    :func:`paintbox_pmf`.
    """
    parts = tuple(rows)
    value = _augmented_monomial(parts, power_sums)
    mult: dict[int, int] = {}
    for r in parts:
        mult[r] = mult.get(r, 0) + 1
    denom = 1
    for m in mult.values():
        denom *= math.factorial(m)
    return value / denom


def power_sums_of(xs: Sequence[float], max_power: int) -> dict[int, float]:
    arr = np.asarray(xs, dtype=float)
    return {m: float(np.sum(arr**m)) for m in range(1, max_power + 1)}


def _log_monomial(rows: Sequence[int], xs: Sequence[float]) -> float:
    """log m_lambda(xs) by a dynamic programme over positive terms; -inf at 0.

    A state counts the parts of each distinct size placed so far (mixed
    radix).  Each variable x in turn takes no part or one part of some size
    j, adding x^j times the value of the state one such part short; states
    are updated in decreasing order, so a variable is used at most once.  For
    all-ones rows this is the elementary-symmetric recursion.  The variables
    are divided by the largest, which keeps every term in [0, 1], and the
    scale returns as |lambda| log max(xs).
    """
    mult = sorted(Counter(rows).items())
    sizes = [j for j, _ in mult]
    steps = []  # (state, state one part of size index r short, r)
    radix = [m + 1 for _, m in mult]
    n_states = math.prod(radix)
    for state in range(n_states - 1, 0, -1):
        stride = 1
        for r, base in enumerate(radix):
            if state // stride % base:
                steps.append((state, state - stride, r))
            stride *= base
    scale = max(xs, default=0.0)
    if scale <= 0.0:
        return -math.inf
    table = [1.0] + [0.0] * (n_states - 1)
    for x in xs:
        t = x / scale
        powers = [t**j for j in sizes]
        for state, prev, r in steps:
            table[state] += table[prev] * powers[r]
    if table[-1] <= 0.0:
        return -math.inf
    return math.log(table[-1]) + sum(rows) * math.log(scale)


def paintbox_pmf(p: MultiplePartition, f: FrequencyRanked) -> float:
    """Probability that the paintbox over f produces the multiple partition p.

    n! / prod_{l,j} (j!)^{m_j^(l)} times the product over classes of the
    monomial symmetric function of lambda^(l) at the class frequencies.
    Empty components contribute a factor 1.  Every factor is combined as a
    log, and each m_lambda is a sum of nonnegative terms
    (:func:`_log_monomial`), so the result is never negative and stays
    finite for n >= 171, where n! overflows a float.
    """
    if p.k != f.k:
        raise ValueError(f"partition has k={p.k} but frequencies have k={f.k}")
    total = math.lgamma(p.n + 1)
    for comp, seq in zip(p.components, f.freqs):
        for j, m in comp.multiplicities().items():
            total -= m * math.lgamma(j + 1)
        if comp.rows:
            total += _log_monomial(comp.rows, seq)
    return math.exp(total)
