"""Monte Carlo generators whose laws are the k-class Ewens measure.

Three routes to the same distribution: the generalized Hoppe urn (one black
object of mass theta_l per class plus unit-mass colors), the coalescent-style
per-step rates it realises, and the paintbox over class-weighted ranked
frequencies drawn from the multiple Poisson-Dirichlet law.  The urn and the
paintbox end with the alleles they drew as (class, count) pairs, which
``partitions._from_alleles`` groups into the sample's multiple partition.
The urn has two engines.  One draw of fewer than ``_KERNEL_STEPS`` steps
runs in the interpreted loop ``_urn_run``; a longer one is built from all its
uniforms at once by ``_urn_kernel``, which makes the same choices on the same
uniforms.  The array engine turns each uniform into a step code
(:func:`_codes`, shared with the restaurant in ``wreath``) and finds each
draw's colour from the codes by pointer doubling (:func:`_urn_founders`).
Both loops and :func:`_codes` open a class by one rule: the number of
partial sums of the masses below their total that lie at or below the
scaled uniform (``bisect_right`` in the loops).  Both counting samplers,
the urn's and the restaurant's, tally their runs by the step codes packed
into int64 words (:func:`_batched_counts`) and build only the distinct runs,
the urn's through :func:`_urn_founders`.
The urn's set partition and the Poisson-Dirichlet frequencies are valid by
construction and skip their constructors' checks through
``partitions._trusted``, with the field types of a validated instance.  The
set partition holds its run and builds its blocks the first time they are
read (:func:`_urn_blocks`), so a draw whose blocks its caller drops costs
what its multiple partition costs.

Seeding contract: every sampler but ``wf_sim.wf_step`` (one step of a chain
its caller drives) takes a seed in [0, 2**64) and is bit deterministic for a
fixed platform and library version.  Parallel workers
should derive child seeds with :func:`derive_seed`, which applies the
SplitMix64 mixer to (seed, worker index): child = mix(mix(seed) + 1 + index).
:func:`derive_seed`, :func:`_numpy_rng`, :func:`_python_rng` and the command
line's ``--seed`` apply the one seed rule, :func:`_checked_seed`; the urn and
restaurant step loops read ``random.Random``, all else numpy.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from numbers import Integral
from typing import Sequence

import numpy as np

from .measure import _params, _shown
from .partitions import LabeledSetPartition, MultiplePartition, _at_least, _from_alleles, _trusted

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
    return _splitmix64((_splitmix64(_checked_seed(seed)) + 1 + index) & _MASK64)


def _checked_seed(seed) -> int:
    """seed as an int, after the one seed rule: an integer in [0, 2**64),
    numpy integers included.  A plain int is passed first, since the
    Integral check is slow against a desk-size draw.  A refused seed is
    shown by its repr, or past Python's int-to-string digit limit by its bit
    length (``measure._shown``)."""
    if type(seed) is int and 0 <= seed <= _MASK64:
        return seed
    if isinstance(seed, bool) or not isinstance(seed, Integral) or not 0 <= seed <= _MASK64:
        try:
            shown = repr(seed)
        except ValueError:
            shown = _shown(seed)
        raise ValueError(f"seed must be an integer in [0, 2**64), got {shown}")
    return int(seed)


def _numpy_rng(seed) -> np.random.Generator:
    """numpy's generator for a checked seed."""
    return np.random.default_rng(_checked_seed(seed))


def _python_rng(seed) -> random.Random:
    """random.Random for a checked seed: the generator of the urn and restaurant step loops."""
    return random.Random(_checked_seed(seed))


# a one-draw run of this many steps or more is built by its array kernel from
# numpy's uniforms; below it the loop on random.Random is faster.  The kernels
# cost 55-60 us (urn) and 110-130 us (restaurant) at any small n, and cross
# the loops near 120 and 220-300 steps (timeit best of 7, 2-core x86)
_KERNEL_STEPS = 256


def _roots(parent: np.ndarray) -> np.ndarray:
    """The root of every index of a forest given by its parent links (a root
    is its own parent), by pointer doubling: parent = parent[parent] until
    nothing changes, which takes about log2 of the deepest path steps."""
    while True:
        up = parent.take(parent)
        if np.array_equal(up, parent):
            return parent
        parent = up


def _urn_run(n: int, thetas: Sequence[float], rng: random.Random):
    """Run the urn for n draws, one rng.random() and O(1) work per draw.

    Returns (classes, counts, founder): 0-based class and count per color in
    creation order, and for each draw j the index of the color it joined
    (or founded).  Each draw takes the step of :func:`_codes` with m = 1 on
    the cumulative class masses; copying the color of a uniform earlier
    draw joins each color with probability count / j."""
    cum = list(itertools.accumulate(thetas))
    w, bounds = cum[-1], cum[:-1]
    classes: list[int] = []  # class of each color, 0-based
    counts: list[int] = []
    founder: list[int] = []
    for j in range(n):
        x = rng.random() * (w + j)
        if x < w:
            # black object: found a new color in the chosen class
            classes.append(bisect.bisect_right(bounds, x))
            counts.append(1)
            founder.append(len(counts) - 1)
        else:
            idx = founder[min(int(x - w), j - 1)]
            counts[idx] += 1
            founder.append(idx)
    return classes, counts, founder


def _codes(u: np.ndarray, cum, m: int) -> np.ndarray:
    """The step code of the urn and the restaurant on every uniform of u at
    once, one step per row; the columns of a 2-D u are independent runs.

    cum holds the cumulative weights of opening, the last being their total
    D, and each earlier draw offers m slots.  Step j scales its uniform to x
    in [0, D + j m).  Where x < D it opens, with code j m plus the number of
    entries of cum[:-1] at or below x (``bisect_right`` in the step loops);
    any other step's code is the slot it takes, min(int(x - D), j m - 1),
    clamped since x rounds up to D + j m when random() returns 1 - 2**-53.
    So step j has m j + len(cum) codes.  Every step is compared with every
    entry, which costs less than gathering the opening steps of a desk batch.
    """
    d, n = cum[-1], len(u)
    slots = m * np.arange(n).reshape((n,) + (1,) * (u.ndim - 1))
    x = u * (d + slots)
    pair = np.clip(x - d, 0.0, slots - 1).astype(np.intp)
    return np.where(x < d, sum((x >= b for b in cum[:-1]), slots), pair)


def _urn_founders(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The urn's draws from their step codes (:func:`_codes`, m = 1), one run
    per row of codes and one draw per column: draw j with code c >= j founds
    a color of class c - j and any other draw copies draw c.  Returns every
    draw's 0-based class (0 if it joins a color) and the flat index into
    codes of the draw that founded its color, found by pointer doubling
    (:func:`_roots`) with each run's draws side by side."""
    n = codes.shape[-1]
    slots = np.arange(n)
    parent = np.minimum(codes, slots)
    parent += n * np.arange(codes.size // n).reshape(codes.shape[:-1] + (1,))
    classes = codes - slots
    return classes.clip(0, out=classes), _roots(parent.ravel()).reshape(codes.shape)


def _urn_kernel(thetas: Sequence[float], u: np.ndarray):
    """:func:`_urn_run` on the uniforms u, with no loop over the steps; on
    the same uniforms the result is identical."""
    classes, root = _urn_founders(_codes(u, np.cumsum(thetas), 1))
    new = root == np.arange(len(u))
    founder = (np.cumsum(new) - 1)[root]
    return classes[new].tolist(), np.bincount(founder).tolist(), founder.tolist()


def _urn_blocks(classes: list[int], founder: list[int]) -> tuple[tuple[int, frozenset[int]], ...]:
    """The labelled blocks of an urn draw from its run (:func:`_urn_run`):
    each color with its 1-based class label and the draws that joined it.
    Colors are founded in draw order, so the blocks come out ordered by
    their smallest element."""
    members: list[list[int]] = [[] for _ in classes]
    for j, idx in enumerate(founder, start=1):
        members[idx].append(j)
    return tuple((cls + 1, frozenset(m)) for cls, m in zip(classes, members))


def hoppe_urn_sample(n: int, theta, seed: int) -> tuple[MultiplePartition, LabeledSetPartition]:
    """One draw of the generalized Hoppe urn after n steps.

    At step j an object is chosen with probability proportional to mass:
    the class-l black object (mass theta_l) founds a new color of class l,
    an existing color (mass = its count) gains one object of its color.
    Returns both the color-count multiple partition and the labelled set
    partition of the draw indices 1..n, whose blocks are the colors with
    their 1-based class labels, ordered by their smallest element.  The
    blocks are built when first read (:func:`_urn_blocks`), so a caller that
    reads only the multiple partition does not pay for them.
    """
    n = _at_least(n, 1, "n")
    params = _params(theta)
    thetas = [float(t) for t in params.thetas]
    if n < _KERNEL_STEPS:
        classes, counts, founder = _urn_run(n, thetas, _python_rng(seed))
    else:
        classes, counts, founder = _urn_kernel(thetas, _numpy_rng(seed).random(n))
    part = _from_alleles(zip(classes, counts), params.k)
    return part, _trusted(LabeledSetPartition, _pending=(_urn_blocks, (classes, founder)), n=n)


# runs per chunk of the counting samplers, and uniforms per block (a run-step or a head cell)
# at large n: 2,048 runs of a desk-size n run as fast as 4,096 with half the memory
_CHUNK_RUNS = 2048
_CHUNK_CELLS = 1 << 17
# the largest product of radices that one int64 key word holds
_WORD = 1 << 63


def _word_layout(n: int, m: int, c: int) -> tuple[np.ndarray, np.ndarray]:
    """Lay runs of n steps, step j with radix m j + c, out in int64 words of
    one length in mixed radix.  Returns the radices and place values, a word
    per row, the last word padded with radix 1.  The radices grow with j, so
    no stretch of steps has a larger product than as many last steps: the
    most last steps whose product stays within 2**63 set the word count,
    and the steps are shared out as evenly as that count allows."""
    longest, room = 0, _WORD
    while longest < n and m * (n - 1 - longest) + c <= room:
        room //= m * (n - 1 - longest) + c
        longest += 1
    words = -(-n // longest)
    radix = np.ones((words, -(-n // words)), dtype=np.int64)
    radix.flat[:n] = m * np.arange(n) + c
    return radix, np.cumprod(np.c_[np.ones(words, np.int64), radix[:, :-1]], axis=1)


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """Each row of a 2-D int64 array as one key that np.unique can sort: the
    int64 itself for one column, the bytes of the row otherwise."""
    rows = np.ascontiguousarray(rows)
    if rows.shape[1] == 1:
        return rows[:, 0]
    return rows.view((np.void, rows.itemsize * rows.shape[1]))[:, 0]


def _grouped(keys: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct keys, sorted, and the summed counts of each.  The sort is
    stable, which merges keys that come as sorted runs, such as a table and
    the chunks pending, in close to linear time."""
    order = np.argsort(keys, kind="stable")
    keys, counts = keys[order], counts[order]
    first = np.flatnonzero(np.r_[len(keys) > 0, keys[1:] != keys[:-1]])
    return keys[first], np.add.reduceat(counts, first)


def _batched_counts(n: int, reps: int, seed: int, cum, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Tally `reps` runs of n steps each by their step codes, in chunks off
    one numpy stream; returns the codes of the distinct runs, one run per
    row, and how many times each was drawn.

    A chunk of r runs draws one uniform per step and run, as an (n, r)
    block, and takes their codes (:func:`_codes` with the weights cum and m
    slots per step).  Each run is packed into int64 words of one length in
    mixed radix (:func:`_word_layout`), where step j has radix m j +
    len(cum); at desk n that is one word.  A chunk's distinct runs are found
    by ``np.unique``, on the int64 itself when a run fits one word and on
    the bytes of its words otherwise, and the chunks' (key, count) pairs
    merge into a running table whenever they outgrow it, so the memory is
    that of the distinct runs and one chunk.  The distinct keys are decoded
    back to codes at the end, every place of every word at once.  Chunks
    hold at most _CHUNK_RUNS runs and _CHUNK_CELLS run-steps.  The caller
    has checked n.
    """
    reps = _at_least(reps, 0, "reps")
    rng = _numpy_rng(seed)
    size = max(1, min(_CHUNK_RUNS, _CHUNK_CELLS // n))
    radix, place = _word_layout(n, m, len(cum))
    words, length = radix.shape
    stride, starts = place.reshape(-1, 1)[:n], np.arange(0, n, length)
    keys, counts = _row_keys(np.empty((0, words), np.int64)), np.empty(0, np.int64)
    pending: list[tuple[np.ndarray, np.ndarray]] = []
    for start in range(0, reps, size):
        codes = _codes(rng.random((n, min(size, reps - start))), cum, m)
        pending.append(np.unique(_row_keys(np.add.reduceat(codes * stride, starts).T),
                                 return_counts=True))
        if sum(len(k) for k, _ in pending) > len(keys) or start + size >= reps:
            keys, counts = _grouped(*map(np.concatenate, zip((keys, counts), *pending)))
            pending = []
    codes = keys.view(np.int64).reshape(len(keys), words, 1) // place % radix
    return codes.reshape(len(keys), radix.size)[:, :n], counts


def _urn_keys(codes: np.ndarray) -> np.ndarray:
    """The urn's runs from their step codes, one run per row: the codes
    class * (n + 1) + count of each run's colors, sorted, with a 0 for each
    draw that founds no color."""
    n = codes.shape[-1]
    classes, root = _urn_founders(codes)
    classes *= n + 1  # in place, which keeps few run-sized arrays alive
    classes += np.bincount(root.ravel(), minlength=codes.size).reshape(codes.shape)
    classes.sort(axis=-1)
    return classes


def hoppe_urn_partition_counts(
    n: int, theta, reps: int, seed: int
) -> Counter:
    """Empirical counts of urn multiple partitions over `reps` runs.

    The urn of :func:`hoppe_urn_sample`, run on many replicates at once off
    one numpy stream, so its stream is not that of the one-draw sampler;
    keys are MultiplePartition.  Runs are tallied by their step codes
    (:func:`_batched_counts`) and only the distinct ones are built
    (:func:`_urn_keys`).  Their partitions are grouped by the nonzero
    (class, count) codes, largest first, and each is built once.
    """
    params = _params(theta)
    n = _at_least(n, 1, "n")
    codes, counts = _batched_counts(n, reps, seed, np.cumsum([float(t) for t in params.thetas]), 1)
    alleles = _urn_keys(codes)[:, ::-1]  # largest first, so each row starts with its colors
    width = np.count_nonzero(alleles, axis=1).max(initial=1)  # the most colors of any run
    keys, counts = _grouped(_row_keys(alleles[:, :width]), counts)
    return Counter({
        _from_alleles((divmod(code, n + 1) for code in key if code), params.k): c
        for key, c in zip(keys.view(np.int64).reshape(len(keys), width).tolist(), counts.tolist())
    })


def coalescent_rates(j: int, theta):
    """Jump-chain split for the ancestral death process at state j.

    Returns (coalesce_prob, per-class mutation probs): (j-1)/(j-1+w) and
    theta_l/(j-1+w).  Exact when theta is rational.  The probs sum to 1.
    """
    j = _at_least(j, 1, "j")
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
    rng = _numpy_rng(seed)
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
    n = _at_least(n, 1, "n")
    rng = _numpy_rng(seed)
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
    return value / math.prod(map(math.factorial, Counter(parts).values()))


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
