"""Forward Wright-Fisher simulation with k mutation classes.

A population of 2N genes resamples parents uniformly each generation; a child
inherits its parent's allele with probability 1 - sum(mu_l) or mutates to a
brand-new allele of class l with probability mu_l (infinite-alleles: ids are
never reused).  With mu_l = theta_l/(4N), sampled compositions approach the
k-class Ewens law.

The model runs in two engines with the same law.  The gene-level engine
(:class:`Population`, :func:`wf_step`, :func:`sample_composition`) stores
all 2N genes and redraws each one every generation; it is the reference
model.  The count-level engine behind :func:`stationary_samples` stores one
(class, id, count) entry per living allele.  Children are exchangeable, so a
generation is one multinomial draw of 2N children over "copy allele a"
(probability c_a (1 - sum mu)/2N) and "new class-l mutant" (mu_l), and a
sample of n genes is one multivariate hypergeometric draw; a generation costs
O(alleles alive) instead of O(2N).

Masses theta enter as :class:`~multiewens.measure.MutationParams`.  Mutation
probabilities mu pass one rule, on the raw values before any conversion:
each finite and nonnegative, with sum below 1.  Both engines and
:func:`transition_prob` apply it, with one message.

The ancestral line-counting process is exposed through its exact finite-N
transition probabilities and its limiting generator.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from .measure import _params
from .partitions import MultiplePartition, _from_alleles, _stirling_second

__all__ = [
    "Population",
    "wf_step",
    "sample_composition",
    "stationary_samples",
    "stationary_partition_counts",
    "transition_prob",
    "AncestralGenerator",
    "ancestral_generator",
]


@dataclass
class Population:
    """2N genes, each an (allele id, class label) pair; ids are per-class serials."""

    ids: np.ndarray
    classes: np.ndarray
    k: int
    generation: int = 0
    next_ids: np.ndarray = field(default=None)  # fresh serial per class

    def __post_init__(self):
        if self.ids.shape != self.classes.shape or self.ids.ndim != 1:
            raise ValueError("ids and classes must be equal-length vectors")
        if self.next_ids is None:
            self.next_ids = np.zeros(self.k, dtype=np.int64)
            for l in range(self.k):
                mask = self.classes == l
                if mask.any():
                    self.next_ids[l] = self.ids[mask].max() + 1

    @property
    def size(self) -> int:
        """Number of genes, i.e. 2N."""
        return self.ids.size

    @classmethod
    def founding(cls, two_n: int, k: int) -> "Population":
        """Monomorphic start: everyone carries allele 0 of class 1."""
        if two_n < 1 or two_n % 2:
            raise ValueError("population size 2N must be a positive even integer")
        return cls(
            ids=np.zeros(two_n, dtype=np.int64),
            classes=np.zeros(two_n, dtype=np.int64),
            k=k,
        )

    def to_json_dict(self) -> dict:
        return {
            "generation": int(self.generation),
            "k": self.k,
            "ids": self.ids.tolist(),
            "classes": (self.classes + 1).tolist(),  # 1-based labels outside
            "next_ids": self.next_ids.tolist(),
        }


def _mutation_probs(mus: Sequence, k: int | None = None) -> tuple:
    """The mutation probabilities as given, after the one check on them: k
    of them (when k is given), each finite and nonnegative, with sum < 1.
    Written so that NaN fails."""
    mus = tuple(mus)
    if k is not None and len(mus) != k:
        raise ValueError(f"need k={k} mutation probabilities")
    if not (all(0 <= m < math.inf for m in mus) and sum(mus) < 1):
        raise ValueError(
            f"mutation probabilities must be finite and nonnegative with sum < 1, got {mus}"
        )
    return mus


def wf_step(pop: Population, mus: Sequence[float], rng: np.random.Generator) -> Population:
    """Advance one generation in place: uniform parents, then mutation.

    mus are the per-class mutation probabilities; their sum must be < 1.
    Fresh alleles get never-before-seen (class, serial) identifiers.
    """
    mus = np.array([float(m) for m in _mutation_probs(mus, pop.k)])
    two_n = pop.size
    parents = rng.integers(0, two_n, size=two_n)
    pop.ids = pop.ids[parents]
    pop.classes = pop.classes[parents]
    u = rng.random(two_n)
    edges = np.concatenate(([0.0], np.cumsum(mus)))
    for l in range(pop.k):
        mask = (u >= edges[l]) & (u < edges[l + 1])
        count = int(mask.sum())
        if count:
            pop.ids[mask] = pop.next_ids[l] + np.arange(count)
            pop.classes[mask] = l
            pop.next_ids[l] += count
    pop.generation += 1
    return pop


def sample_composition(pop: Population, n: int, seed_or_rng) -> MultiplePartition:
    """Allelic composition of a uniform sample of n genes without replacement."""
    if n > pop.size:
        raise ValueError(f"sample size {n} exceeds population size {pop.size}")
    rng = (
        seed_or_rng
        if isinstance(seed_or_rng, np.random.Generator)
        else np.random.default_rng(seed_or_rng)
    )
    picks = rng.choice(pop.size, size=n, replace=False)
    genes = Counter(zip(pop.classes[picks].tolist(), pop.ids[picks].tolist()))
    return _from_alleles(((cls, c) for (cls, _), c in genes.items()), pop.k)


class _AlleleCounts:
    """Count-level state of a population: one (class, id) key and one count
    per living allele, in the order the alleles first appeared."""

    def __init__(self, pop: Population, mus: Sequence[float]):
        self.mus = [float(m) for m in _mutation_probs(mus, pop.k)]
        self.k, self.two_n = pop.k, pop.size
        genes = Counter(zip(pop.classes.tolist(), pop.ids.tolist()))
        self.keys = list(genes)
        self.counts = list(genes.values())
        self.next_ids = pop.next_ids.tolist()
        self.generation = pop.generation

    def advance(self, gens: int, rng: np.random.Generator) -> None:
        """Run `gens` generations, each one multinomial draw of 2N children."""
        two_n, mus, next_ids = self.two_n, self.mus, self.next_ids
        keep = (1.0 - sum(mus)) / two_n
        keys, counts = self.keys, self.counts
        for _ in range(gens):
            a = len(counts)
            draws = rng.multinomial(two_n, [c * keep for c in counts] + mus).tolist()
            counts = draws[:a]
            if 0 in counts:
                keys = [key for key, c in zip(keys, counts) if c]
                counts = [c for c in counts if c]
            for l, m in enumerate(draws[a:]):
                if m:
                    first = next_ids[l]
                    keys.extend((l, first + i) for i in range(m))
                    counts.extend([1] * m)
                    next_ids[l] = first + m
        self.keys, self.counts = keys, counts
        self.generation += gens

    def sample(self, n: int, rng: np.random.Generator) -> MultiplePartition:
        """Composition of a uniform sample of n genes without replacement."""
        picked = rng.multivariate_hypergeometric(self.counts, n).tolist()
        return _from_alleles(
            ((cls, c) for (cls, _), c in zip(self.keys, picked) if c), self.k
        )

    def write_to(self, pop: Population) -> None:
        """Store the state in pop as 2N genes, grouped by allele."""
        classes, ids = zip(*self.keys)
        pop.classes = np.repeat(np.array(classes, dtype=np.int64), self.counts)
        pop.ids = np.repeat(np.array(ids, dtype=np.int64), self.counts)
        pop.next_ids = np.array(self.next_ids, dtype=np.int64)
        pop.generation = self.generation


def stationary_samples(
    pop: Population, theta, sample_size: int, reps: int, rng: np.random.Generator,
    burn_gens: int | None = None, thin_gens: int | None = None,
) -> Iterator[MultiplePartition]:
    """Burn pop in for burn_gens generations (default 20N, 2N = pop.size) with
    mu_l = theta_l/(4N), then yield `reps` sample compositions drawn every
    thin_gens generations (default N).

    Runs the count-level engine; pop holds the current state as 2N genes
    (grouped by allele) at every yield and at the end.  Every input is
    checked at the call, before the generator is returned.
    """
    if not 1 <= sample_size <= pop.size:
        raise ValueError(f"sample size {sample_size} must be in 1..{pop.size}")
    half_n = pop.size // 2
    burn_gens = 20 * half_n if burn_gens is None else burn_gens
    thin_gens = half_n if thin_gens is None else thin_gens
    if burn_gens < 0 or thin_gens < 0:
        raise ValueError("burn-in and thinning generations must be nonnegative")
    params = _params(theta)
    if params.k != pop.k:
        raise ValueError(f"need k={pop.k} mutation masses, got {params.k}")
    alleles = _AlleleCounts(pop, [float(t) / (2 * pop.size) for t in params.thetas])

    def run():
        alleles.advance(burn_gens, rng)
        for _ in range(reps):
            alleles.advance(thin_gens, rng)
            alleles.write_to(pop)
            yield alleles.sample(sample_size, rng)
        alleles.write_to(pop)

    return run()


def stationary_partition_counts(
    two_n: int,
    theta,
    sample_size: int,
    reps: int,
    seed: int,
    burn_gens: int | None = None,
    thin_gens: int | None = None,
) -> Counter:
    """Empirical composition law near stationarity.

    Runs a single population with mu_l = theta_l/(4N) (2N = two_n), burns in
    for 20N generations, then records `reps` sample compositions thinned by
    N generations (see :func:`stationary_samples`).  The burn-in and
    thinning defaults follow the O(N) time-to-ancestry heuristic.
    """
    params = _params(theta)
    pop = Population.founding(two_n, params.k)
    rng = np.random.default_rng(seed)
    samples = stationary_samples(pop, params, sample_size, reps, rng, burn_gens, thin_gens)
    return Counter(samples)


def transition_prob(p: int, m: int, two_n: int, mus: Sequence) -> Fraction:
    """Exact probability that p sampled genes have m distinct parental
    lineages one generation back, counting only non-mutant children.

    Mixes the no-mutation ancestry count over the binomial number of
    mutants: sum_j C(p,j) (1-M)^{p-j} M^j P0(p-j, m) with M = sum(mus) and
    P0(q, m) = S(q, m) (2N)(2N-1)...(2N-m+1) / (2N)^q, P0(q, 0) = [q == 0].
    Rational mus give an exact Fraction.
    """
    if not 0 <= m <= p <= two_n:
        raise ValueError("need 0 <= m <= p <= 2N")
    total_mu = sum(Fraction(v) for v in _mutation_probs(mus))

    def p0(q: int, mm: int) -> Fraction:
        if mm == 0:
            return Fraction(1 if q == 0 else 0)
        falling = 1
        for i in range(mm):
            falling *= two_n - i
        return Fraction(_stirling_second(q, mm) * falling, two_n**q)

    total = Fraction(0)
    for j in range(p - m + 1):
        total += (
            math.comb(p, j)
            * (1 - total_mu) ** (p - j)
            * total_mu**j
            * p0(p - j, m)
        )
    return total


@dataclass(frozen=True)
class AncestralGenerator:
    """Generator of the limiting pure-death ancestral process on {0..n}."""

    q: np.ndarray
    n: int
    thetas: tuple

    def rate(self, j: int) -> float:
        """Total departure rate from state j: (j(j-1) + w j)/4."""
        return -self.q[j, j]


def ancestral_generator(n: int, theta) -> AncestralGenerator:
    """Tridiagonal generator with q_{j,j-1} = (j(j-1) + w j)/4.

    State 0 is absorbing; rows sum to zero.  The jump from j splits into a
    coalescence with probability (j-1)/(j-1+w) and a class-l mutation with
    probability theta_l/(j-1+w), matching :func:`samplers.coalescent_rates`.
    """
    params = _params(theta)
    w = float(params.w)
    q = np.zeros((n + 1, n + 1))
    for j in range(1, n + 1):
        rate = (j * (j - 1) + w * j) / 4.0
        q[j, j] = -rate
        q[j, j - 1] = rate
    return AncestralGenerator(q, n, tuple(params.thetas))
