"""Wright-Fisher simulation with k mutation classes.

A population of 2N genes resamples parents uniformly each generation; a child
inherits its parent's allele with probability 1 - sum(mu_l) or mutates to a
brand-new allele of class l with probability mu_l (infinite-alleles: ids are
never reused).  With mu_l = theta_l/(4N), sampled compositions approach the
k-class Ewens law.

The model runs in two engines with the same law.  The gene-level engine
(:func:`wf_step`) redraws each gene of a :class:`Population` every
generation; it is the reference model.  Every other output comes from one
backward engine (:func:`_trace_back`): lineages merge when they share a
parent and stop at their first mutation, which founds a new allele, and the
generations in which neither happens are skipped.  :func:`stationary_samples`
traces all its samples jointly, back from the last sample time to the start,
so its cost follows the samples, not 2N, unless the caller keeps the 2N genes
of the end.  :func:`stationary_partition_counts` traces each sample's
lineages back with no time limit, so its samples are independent and exact
for the stationary finite-2N chain, with no burn-in.

Masses theta enter as :class:`~multiewens.measure.MutationParams`.  Mutation
probabilities mu pass one rule, on the raw values before any conversion:
each finite and nonnegative, with sum below 1.  Both engines and
:func:`transition_prob` apply it, with one message.  All three take 2N only
as a positive even integer, and both engines a sample of at least one gene.

Every sampler here takes a seed under the package's one seed rule and reads
numpy's generator for it, but :func:`wf_step`, one step of a chain that its
caller drives, which takes the generator.

The ancestral line-counting process is exposed through its exact finite-N
transition probabilities and its limiting generator.
"""

from __future__ import annotations

import bisect
import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from .measure import _params, _shown
from .partitions import MultiplePartition, _at_least, _from_alleles, _plain_ints, _stirling_second
from .samplers import _numpy_rng

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
    """2N genes, each an (allele id, class label) pair; ids are per-class serials.

    The constructor checks 2N by the population-size rule, k >= 1, that ids
    and classes are integer arrays with every class in 0..k-1, and that a
    given next_ids holds k integers, each above every id of its class."""

    ids: np.ndarray
    classes: np.ndarray
    k: int
    generation: int = 0
    next_ids: np.ndarray = field(default=None)  # fresh serial per class

    def __post_init__(self):
        ids, classes = self.ids, self.classes
        if not all(isinstance(a, np.ndarray) and a.dtype.kind in "iu" for a in (ids, classes)):
            raise ValueError("ids and classes must be integer arrays")
        if ids.shape != classes.shape or ids.ndim != 1:
            raise ValueError("ids and classes must be equal-length vectors")
        _check_size(ids.size)
        self.k = _at_least(self.k, 1, "k")
        if classes.min() < 0 or classes.max() >= self.k:
            raise ValueError(f"classes must be in 0..{self.k - 1}")
        if self.next_ids is None:
            self.next_ids = np.zeros(self.k, dtype=np.int64)
            for l in range(self.k):
                mask = self.classes == l
                if mask.any():
                    self.next_ids[l] = self.ids[mask].max() + 1
            return
        next_ids = np.asarray(self.next_ids)
        if next_ids.dtype.kind not in "iu" or next_ids.shape != (self.k,) or (
                ids >= next_ids[classes]).any():
            raise ValueError(f"next_ids must be one integer per class (k={self.k}),"
                             " each above every id of its class")
        self.next_ids = next_ids.astype(np.int64)

    @property
    def size(self) -> int:
        """Number of genes, i.e. 2N."""
        return self.ids.size

    @classmethod
    def founding(cls, two_n: int, k: int) -> "Population":
        """Monomorphic start: everyone carries allele 0 of class 1."""
        two_n = _check_size(two_n)
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
        shown = ", ".join(map(_shown, mus))
        raise ValueError(
            f"mutation probabilities must be finite and nonnegative with sum < 1, got ({shown})"
        )
    return mus


def _serials(next_ids: np.ndarray, classes: np.ndarray) -> np.ndarray:
    """Ids for new alleles of the given classes, in order: each takes the
    next serial of its class, and next_ids moves past them."""
    ids = np.empty_like(classes)
    for l in range(next_ids.size):
        mask = classes == l
        count = np.count_nonzero(mask)
        ids[mask] = next_ids[l] + np.arange(count)
        next_ids[l] += count
    return ids


def wf_step(pop: Population, mus: Sequence[float], rng: np.random.Generator) -> Population:
    """Advance one generation in place: uniform parents, then mutation.

    mus are the per-class mutation probabilities; their sum must be < 1.
    Fresh alleles get never-before-seen (class, serial) identifiers.
    """
    edges = list(itertools.accumulate(float(m) for m in _mutation_probs(mus, pop.k)))
    two_n = pop.size
    parents = rng.integers(0, two_n, size=two_n)
    pop.ids = pop.ids[parents]
    pop.classes = pop.classes[parents]
    u = rng.random(two_n)
    mutant = u < edges[-1]
    if mutant.any():  # most generations of a small population have no mutant
        pop.classes[mutant] = np.searchsorted(edges, u[mutant], side="right")
        pop.ids[mutant] = _serials(pop.next_ids, pop.classes[mutant])
    pop.generation += 1
    return pop


def sample_composition(pop: Population, n: int, seed: int) -> MultiplePartition:
    """Allelic composition of a uniform sample of n >= 1 genes without replacement."""
    n, _ = _check_draws(pop.size, n, 0)
    picks = _numpy_rng(seed).choice(pop.size, size=n, replace=False)
    genes = Counter(zip(pop.classes[picks].tolist(), pop.ids[picks].tolist()))
    return _from_alleles(((cls, c) for (cls, _), c in genes.items()), pop.k)


# lineages alive at or below which a trace stops drawing every generation
# and skips straight to the next one in which a lineage mutates or merges
_EVENT_LINEAGES = 64


def _tables(mus: Sequence, two_n: int, k: int | None = None) -> tuple[list, list]:
    """The per-mu tables of a trace (:func:`_trace_back`), after the one check
    on mus.  Class l takes the mutation draws in [edges[l-1], edges[l]), and
    the last edge is the total mutation probability M.  A lineage is "fine"
    when it neither mutates nor meets the parent of an earlier lineage; with
    o parents taken that has probability (1 - M)(1 - o/2N), and cum[i] = -log
    of i lineages in a row being fine from none taken, so a generation of j
    lineages is null with probability exp(-cum[j])."""
    edges = list(itertools.accumulate(float(m) for m in _mutation_probs(mus, k)))
    log_stay = math.log1p(-edges[-1])
    cum = [0.0, *itertools.accumulate(
        -log_stay - math.log1p(-o / two_n) for o in range(min(_EVENT_LINEAGES, two_n))
    )]
    return edges, cum


def _trace_back(weights: np.ndarray, gens, two_n: int, edges: list, cum: list,
                rng: np.random.Generator, parent: np.ndarray | None = None) -> tuple[list, list]:
    """Trace lineages of the given weights back `gens` generations, or, when
    gens is math.inf, until at most one is left.

    Going back one generation, a lineage mutates with probability
    M = sum mu (a new class-l allele, chosen with odds mu_l, whose count is
    the lineage's weight), and the others pick uniform parents among 2N,
    merging when they pick the same one.  While many lineages live, every
    generation is drawn; once few do, the generations in which nothing
    happens are skipped by one geometric draw.  Returns the weights of the
    lineages left, and (class, count) per new allele, newest first.  Given
    parent, the weights are distinct labels, indices into parent, and a
    merge keeps one of them and points the parent of each other one at it.
    """
    total, left, born = edges[-1], gens, []
    while left and weights.size > _EVENT_LINEAGES:
        u = rng.random(weights.size)
        mutant = u < total
        if mutant.any():
            classes = np.searchsorted(edges, u[mutant], side="right")
            born += zip(classes.tolist(), weights[mutant].tolist())
            weights = weights[~mutant]
        # the lineages of one parent merge; they stay in the order of their parents
        parents = rng.integers(0, two_n, weights.size)
        order = np.argsort(parents)
        parents, weights, first = parents[order], weights[order], np.ones(weights.size, bool)
        first[1:] = parents[1:] != parents[:-1]  # the first lineage of each parent
        if parent is None:
            weights = np.add.reduceat(weights, np.flatnonzero(first))
        else:  # the others point at it, and it stays
            parent[weights] = weights[first][np.cumsum(first) - 1]
            weights = weights[first]
        left -= 1
    # an unbounded trace leaves the last lineage to its caller: it mutates at
    # some generation, and no geometric draw need say which
    lineages, last = weights.tolist() if left else weights, int(left == math.inf)
    while left and len(lineages) > last:
        j = len(lineages)
        if cum[j] == 0.0:  # one lineage that cannot mutate
            break
        u = rng.random(2 * j + 1).tolist()
        nulls = math.log1p(-u[0]) / -cum[j]  # geometric, in floats: may be inf
        if nulls >= left:
            break
        left -= 1 + int(nulls)
        # deviant d (1, 2, ...) takes u[2d-1] for where it falls and u[2d]
        # for its fate; the first is drawn given that one exists
        merged, m, d = [], 0, 1
        tail = -math.log1p(u[1] * math.expm1(-cum[j]))
        while True:
            o = len(merged)
            fine = bisect.bisect_right(cum, cum[o] + tail, o + 1, o + j - m + 1) - o - 1
            merged += lineages[m:m + fine]
            m += fine
            if m == j:
                break
            # it mutates with odds M : (1 - M) o/2N, else joins one of the
            # o lineages whose parents are taken
            o += fine
            x = u[2 * d] * (total + (1.0 - total) * o / two_n)
            if o == 0 or x < total:
                born.append((min(bisect.bisect_right(edges, x), len(edges) - 1), lineages[m]))
            elif parent is None:
                merged[min(int((x - total) * two_n / (1.0 - total)), o - 1)] += lineages[m]
            else:
                parent[lineages[m]] = merged[min(int((x - total) * two_n / (1.0 - total)), o - 1)]
            m += 1
            if m == j:
                break
            d += 1
            tail = -math.log1p(-u[2 * d - 1])
        lineages = merged
    return lineages, born


def _check_size(two_n) -> int:
    """2N as an int, checked to be a positive even integer."""
    (two_n,) = _plain_ints((two_n,), "population size 2N")
    if two_n < 1 or two_n % 2:
        raise ValueError("population size 2N must be a positive even integer")
    return two_n


def _check_draws(two_n: int, sample_size, reps) -> tuple[int, int]:
    """(sample size, reps) as ints, checked against a population of 2N genes."""
    (sample_size,) = _plain_ints((sample_size,), "sample size")
    if not 1 <= sample_size <= two_n:
        raise ValueError(f"sample size {sample_size} must be in 1..{two_n}")
    return sample_size, _at_least(reps, 0, "reps")


def _joint_samples(start, k: int, n: int, reps: int, burn_gens: int, thin_gens: int,
                   edges: list, cum: list, rng: np.random.Generator) -> Iterator:
    """Yield `reps` samples of n genes, taken every thin_gens generations
    after burn_gens, all drawn at the first next() from one genealogy traced
    back from the last sample time.  start is a Population, run on to that
    time, or 2N for a monomorphic start that is not kept.  Each gene of the
    final population (if kept) and of each sample has a label, and the trace
    points merged labels at the ones kept (:func:`_trace_back`), so time and
    memory follow the genes traced.  The L live lineages stand on genes
    0..L-1, so a sample's picks there point at them and the others start new
    lineages; the last land on a uniform subset of the start's genes, and
    each new allele, oldest first, takes its serial."""
    keep = isinstance(start, Population)
    two_n = start.size if keep else start
    base = two_n if keep else 0  # labels: the final genes, then each sample's, the last first
    parent, live, born = np.arange(base + reps * n), np.arange(base), []
    for i, gens in enumerate([thin_gens] * (reps - 1) + [burn_gens + thin_gens] if reps
                             else [burn_gens]):
        if i < reps:
            picks, genes = rng.choice(two_n, n, replace=False), base + i * n + np.arange(n)
            joins = picks < live.size
            parent[genes[joins]] = live[picks[joins]]
            live = np.concatenate((live, genes[~joins]))
        lineages, new = _trace_back(live, gens, two_n, edges, cum, rng, parent)
        live = np.asarray(lineages, dtype=np.int64)
        born += new
    root, ahead = parent, parent[parent]  # each label's last lineage, by pointer doubling
    while not np.array_equal(root, ahead):
        root, ahead = ahead, ahead[ahead]
    classes, ids = np.zeros((2, parent.size), np.int64)  # by root label
    gens = burn_gens + reps * thin_gens
    if keep:
        spots = rng.choice(two_n, live.size, replace=False) if gens else live
        classes[live], ids[live], next_ids = start.classes[spots], start.ids[spots], start.next_ids
    else:  # every gene of the start carries allele (0, 0)
        next_ids = np.eye(1, k, dtype=np.int64)[0]
    fresh, labels = np.array(born[::-1], dtype=np.int64).reshape(-1, 2).T
    classes[labels], ids[labels] = fresh, _serials(next_ids, fresh)
    if keep:  # genes by landed lineage, then by new allele, oldest first
        ends = np.concatenate((live, labels))
        counts = np.bincount(root[:base], minlength=parent.size)[ends]
        start.classes, start.ids = np.repeat(classes[ends], counts), np.repeat(ids[ends], counts)
        start.generation += gens
    classes, ids = classes[root[base:]], ids[root[base:]]
    for at in reversed(range(0, reps * n, n)):  # the first sample first
        genes = Counter(zip(classes[at:at + n].tolist(), ids[at:at + n].tolist()))
        yield _from_alleles(((cls, c) for (cls, _), c in genes.items()), k)


def stationary_samples(
    pop, theta, sample_size: int, reps: int, seed: int,
    burn_gens: int | None = None, thin_gens: int | None = None,
) -> Iterator[MultiplePartition]:
    """Run 2N genes with mu_l = theta_l/(4N) for burn_gens generations
    (default 20N), then yield `reps` sample compositions taken every
    thin_gens generations (default N), all from numpy's generator for seed,
    by :func:`_joint_samples`.  pop is a :class:`Population`, written once
    with the final state, or an even integer 2N for a monomorphic start that
    is not kept, so that only the samples' genes are traced.  Every input,
    the seed included, is checked at the call."""
    two_n = pop.size if isinstance(pop, Population) else _check_size(pop)
    sample_size, reps = _check_draws(two_n, sample_size, reps)
    rng = _numpy_rng(seed)
    burn_gens = 10 * two_n if burn_gens is None else _at_least(burn_gens, 0, "burn-in generations")
    thin_gens = two_n // 2 if thin_gens is None else _at_least(thin_gens, 0, "thinning generations")
    params = _params(theta)
    if isinstance(pop, Population) and params.k != pop.k:
        raise ValueError(f"need k={pop.k} mutation masses, got {params.k}")
    edges, cum = _tables([float(t) / (2 * two_n) for t in params.thetas], two_n, params.k)
    return _joint_samples(pop, params.k, sample_size, reps, burn_gens, thin_gens, edges, cum, rng)


def stationary_partition_counts(two_n: int, theta, sample_size: int, reps: int,
                                seed: int) -> Counter:
    """Compositions of `reps` independent samples of `sample_size` genes from
    the stationary chain of 2N = two_n genes with mu_l = theta_l/(4N).

    Each sample comes from its own genealogy, exactly: its genes are traced
    back (:func:`_trace_back`) until at most one lineage is left, which then
    founds an allele of class l with odds theta_l.  The odds come from the
    masses, which do not underflow where mu does.
    """
    params = _params(theta)
    two_n = _check_size(two_n)
    rng = _numpy_rng(seed)
    sample_size, reps = _check_draws(two_n, sample_size, reps)
    edges, cum = _tables([float(t) / (2 * two_n) for t in params.thetas], two_n)
    thetas = [Fraction(t) for t in params.thetas]
    bounds = [float(c / sum(thetas)) for c in itertools.accumulate(thetas[:-1])]
    ones, keys = np.ones(sample_size, dtype=np.int64), Counter()
    for _ in range(reps):
        last, born = _trace_back(ones, math.inf, two_n, edges, cum, rng)
        born += ((bisect.bisect_right(bounds, rng.random()), c) for c in last)
        keys[tuple(sorted(born))] += 1
    return Counter({_from_alleles(key, params.k): c for key, c in keys.items()})


def transition_prob(p: int, m: int, two_n: int, mus: Sequence) -> Fraction:
    """Exact probability that p sampled genes have m distinct parental
    lineages one generation back, counting only non-mutant children.

    Mixes the no-mutation ancestry count over the binomial number of
    mutants: sum_j C(p,j) (1-M)^{p-j} M^j P0(p-j, m) with M = sum(mus) and
    P0(q, m) = S(q, m) (2N)(2N-1)...(2N-m+1) / (2N)^q, P0(q, 0) = [q == 0].
    Rational mus give an exact Fraction.
    """
    two_n = _check_size(two_n)
    p, m = _plain_ints((p, m), "p and m")
    if not 0 <= m <= p <= two_n:
        raise ValueError("need 0 <= m <= p <= 2N")
    total_mu = sum(Fraction(v) for v in _mutation_probs(mus))
    total = Fraction(0)
    for j in range(p - m + 1):  # S(0, 0) = 1 and S(q, 0) = 0 give P0(q, 0)
        p0 = Fraction(_stirling_second(p - j, m) * math.perm(two_n, m), two_n ** (p - j))
        total += math.comb(p, j) * (1 - total_mu) ** (p - j) * total_mu**j * p0
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
    n = _at_least(n, 0, "n")
    params = _params(theta)
    w = float(params.w)
    q = np.zeros((n + 1, n + 1))
    for j in range(1, n + 1):
        rate = (j * (j - 1) + w * j) / 4.0
        q[j, j] = -rate
        q[j, j - 1] = rate
    return AncestralGenerator(q, n, tuple(params.thetas))
