"""Combinatorial objects for samples with class-labelled alleles.

A sample of n genes whose alleles fall into k mutation classes is summarised
by a *multiple partition*: an ordered k-tuple of Young diagrams with n boxes
in total, component l collecting the repeat counts of class-l alleles.  The
same data can be written as an n-by-k matrix of allele counts, or refined to
a set partition of the gene labels with a class label on every block.

Everything here is immutable and hashable, and the enumeration helpers are
deliberately simple so they can serve as exact oracles for the measure and
sampler modules.  The public constructors check every value from outside
the program, and never round it: each integer field passes one rule,
:func:`_plain_ints`.  A size, count, label or replicate argument of any
public function passes :func:`_at_least`, that rule with a lower bound; one
with a range of its own, or no bound, passes :func:`_plain_ints` and keeps
its own check.  Values the library builds from checked parts (the
enumerators, the box-removal and union maps, the count matrix of a
partition) skip those checks through :func:`_trusted`.

The exact counting kernels (here the multiple-partition count by Euler's
divisor-sum recurrence and the labelled set-partition count, in
:mod:`multiewens.allele_stats` the Stirling row) cost O(n^2) big-integer
steps or more; :func:`_exact_work_guard` refuses one that would not finish
in about a second, before any work.  The two counts here also size the
sweeps behind the state cap of ``measure._exact_common``.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from numbers import Integral
from typing import Iterable, Iterator, Sequence

__all__ = [
    "YoungDiagram",
    "MultiplePartition",
    "AlleleCountMatrix",
    "LabeledSetPartition",
    "matrix_to_multipartition",
    "multipartition_to_matrix",
    "enumerate_multipartitions",
    "count_multipartitions",
    "union",
    "set_partition_to_multipartition",
    "partitions_of",
    "compositions_of",
    "set_partitions",
    "labeled_set_partitions",
    "multipartition_to_lists",
    "multipartition_from_lists",
]


def _plain_ints(values: Iterable, what: str) -> tuple[int, ...]:
    """The values as a tuple of Python ints, the one rule for integer fields.
    Python and numpy integers pass; a bool, float or string raises, so no
    value is ever rounded."""
    values = tuple(values)
    if all(type(v) is int for v in values):
        return values
    for v in values:
        if isinstance(v, bool) or not isinstance(v, Integral):
            raise ValueError(f"{what} must be integers, got {v!r}")
    return tuple(map(int, values))


def _at_least(value, least: int, what: str) -> int:
    """value as a Python int of at least `least`, the one rule for a size,
    count, label or replicate argument.  A plain int skips the type check;
    any other value passes :func:`_plain_ints`, so a numpy integer is
    converted and a bool, float or string raises."""
    if type(value) is not int:
        (value,) = _plain_ints((value,), what)
    if value < least:
        raise ValueError(f"{what} must be >= {least}")
    return value


@dataclass(frozen=True)
class YoungDiagram:
    """A weakly decreasing tuple of positive row lengths (possibly empty)."""

    rows: tuple[int, ...] = ()

    def __post_init__(self):
        rows = _plain_ints(self.rows, "row lengths")
        object.__setattr__(self, "rows", rows)
        for i, r in enumerate(rows):
            if r < 1:
                raise ValueError(f"row lengths must be positive, got {r}")
            if i > 0 and rows[i - 1] < r:
                raise ValueError(f"rows must be weakly decreasing, got {rows}")

    @property
    def size(self) -> int:
        return sum(self.rows)

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    def multiplicities(self) -> dict[int, int]:
        """Map from row length to its multiplicity (derived, not stored)."""
        mult: dict[int, int] = {}
        for r in self.rows:
            mult[r] = mult.get(r, 0) + 1
        return mult

    def remove_box_from_row(self, length: int) -> "YoungDiagram":
        """Diagram obtained by shortening one row of the given length."""
        rows = list(self.rows)
        rows.remove(length)
        if length > 1:
            rows.append(length - 1)
        return _trusted(YoungDiagram, rows=tuple(sorted(rows, reverse=True)))


@dataclass(frozen=True)
class MultiplePartition:
    """Ordered k-tuple of Young diagrams; total box count is the sample size."""

    components: tuple[YoungDiagram, ...]

    def __post_init__(self):
        comps = tuple(
            c if isinstance(c, YoungDiagram) else YoungDiagram(tuple(c))
            for c in self.components
        )
        object.__setattr__(self, "components", comps)
        if len(comps) < 1:
            raise ValueError("a multiple partition needs at least one component")

    @property
    def n(self) -> int:
        return sum([sum(c.rows) for c in self.components])

    @property
    def k(self) -> int:
        return len(self.components)

    def __iter__(self) -> Iterator[YoungDiagram]:
        return iter(self.components)


@dataclass(frozen=True)
class AlleleCountMatrix:
    """Grid a[j][l] counting class-l alleles represented j+1 times.

    Row index j runs over repeat counts 1..n, column index l over the k
    classes; entries are nonnegative and satisfy sum_{j,l} j*a_j^(l) == n.
    """

    entries: tuple[tuple[int, ...], ...]
    k: int

    def __post_init__(self):
        entries = tuple(_plain_ints(row, "allele counts") for row in self.entries)
        object.__setattr__(self, "entries", entries)
        n = len(entries)
        for row in entries:
            if len(row) != self.k:
                raise ValueError(f"each row must have k={self.k} entries")
            if any(a < 0 for a in row):
                raise ValueError("allele counts must be nonnegative")
        total = sum(
            (j + 1) * a for j, row in enumerate(entries) for a in row
        )
        if total != n:
            raise ValueError(
                f"weighted count {total} does not match matrix size n={n}"
            )

    @property
    def n(self) -> int:
        return len(self.entries)

    def count(self, j: int, l: int) -> int:
        """a_j^(l) with 1-based repeat count j and 1-based class l."""
        return self.entries[j - 1][l - 1]


@dataclass(frozen=True)
class LabeledSetPartition:
    """Disjoint blocks covering {1..n}, each carrying an allele-class label."""

    blocks: tuple[tuple[int, frozenset[int]], ...]
    n: int

    def __post_init__(self):
        blocks = []
        for label, elems in self.blocks:
            (label,) = _plain_ints((label,), "block labels")
            blocks.append((label, frozenset(_plain_ints(elems, "block elements"))))
        blocks = tuple(sorted(blocks, key=lambda b: min(b[1])))
        object.__setattr__(self, "blocks", blocks)
        seen: set[int] = set()
        for label, elems in blocks:
            if label < 1:
                raise ValueError(f"block labels must be >= 1, got {label}")
            if not elems:
                raise ValueError("blocks must be nonempty")
            if seen & elems:
                raise ValueError("blocks must be pairwise disjoint")
            seen |= elems
        if seen != set(range(1, self.n + 1)):
            raise ValueError(f"blocks must cover {{1..{self.n}}} exactly")

    def __getattr__(self, name):
        """blocks of a drawn partition, built on first read from the
        module-level (builder, args) pair a sampler left under ``_pending``.
        Python calls this only for a name the instance dict lacks.  blocks is
        stored before the pair is dropped, so a thread that finds no pair
        finds blocks, and threads that build at once all get the first
        blocks stored."""
        if name == "blocks":
            state = self.__dict__
            pending = state.get("_pending")
            if pending is not None:
                builder, args = pending
                state.setdefault("blocks", builder(*args))
                state.pop("_pending", None)
            if "blocks" in state:
                return state["blocks"]
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")


def _trusted(cls, **fields):
    """Instance of a frozen dataclass of this package from field values that
    are valid and canonical by construction; skips ``__post_init__``, so it
    is equal and hash-equal to the validated instance of the same values."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def matrix_to_multipartition(m: AlleleCountMatrix) -> MultiplePartition:
    """Read off the multiple partition whose component l has a_j^(l) rows of length j."""
    alleles = [
        (l, j) for j, row in enumerate(m.entries, start=1) for l, a in enumerate(row)
        for _ in range(a)
    ]
    return _from_alleles(alleles, m.k)


def multipartition_to_matrix(p: MultiplePartition) -> AlleleCountMatrix:
    """Inverse of :func:`matrix_to_multipartition` (exact round trip)."""
    n = p.n
    grid = [[0] * p.k for _ in range(n)]
    for l, comp in enumerate(p.components):
        for j, a in comp.multiplicities().items():
            grid[j - 1][l] = a
    return _trusted(AlleleCountMatrix, entries=tuple(map(tuple, grid)), k=p.k)


def partitions_of(n: int, max_part: int | None = None) -> Iterator[tuple[int, ...]]:
    """Integer partitions of n, largest-part-first lexicographic order.

    partitions_of(4) yields (4,), (3,1), (2,2), (2,1,1), (1,1,1,1).
    Iterative, so any n costs no recursion: each step removes the last part
    x > 1 and the 1s after it, and refills those boxes greedily with parts of
    at most x - 1."""
    n, cap = _plain_ints((n, n if max_part is None else max_part), "n and max_part")
    if n < 0:
        return
    if n == 0:
        yield ()
    parts: list[int] = []
    total, cap = n, min(n, cap)
    while cap >= 1:  # fill total boxes greedily with parts of at most cap
        q, r = divmod(total, cap)
        parts += [cap] * q + [r] * (r > 0)
        yield tuple(parts)
        ones = parts.count(1)
        if ones == len(parts):
            return
        total, cap = parts[-ones - 1] + ones, parts[-ones - 1] - 1
        del parts[-ones - 1:]


def compositions_of(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """Weak compositions of n into k parts, first part largest first.

    Iterative, so any k costs no recursion: each step moves one unit out of
    part i, the last nonzero part before the final one, into part i + 1,
    together with all of the final part.  Tracking i costs O(1) amortized."""
    k = _at_least(k, 1, "k")
    (n,) = _plain_ints((n,), "n")
    if n < 0:
        return
    parts = [n] + [0] * (k - 1)
    i = 0 if k > 1 and n > 0 else -1
    while True:
        yield tuple(parts)
        if i < 0:
            return
        tail = parts[-1]
        parts[-1] = 0
        parts[i] -= 1
        parts[i + 1] = tail + 1
        if i + 1 < k - 1:
            i += 1
        else:
            while i >= 0 and parts[i] == 0:
                i -= 1


def enumerate_multipartitions(n: int, k: int) -> Iterator[MultiplePartition]:
    """Every multiple partition of n into k components, exactly once.

    Canonical order: component-size compositions first (largest first
    component first), then row-lexicographic within each component.
    Intended for desk-scale n; the caller is responsible for feasibility.
    """
    n = _at_least(n, 0, "n")
    diagrams: dict[int, list[YoungDiagram]] = {}
    for sizes in compositions_of(n, k):
        for m in sizes:
            if m not in diagrams:
                diagrams[m] = [_trusted(YoungDiagram, rows=r) for r in partitions_of(m)]
        for comps in itertools.product(*(diagrams[m] for m in sizes)):
            yield _trusted(MultiplePartition, components=comps)


# estimated big-integer work (see _exact_work_guard) past which exact counting
# refuses to start; the largest accepted inputs take 0.2-0.7 s on a 2-core x86 box
_EXACT_WORK_CAP = 50_000_000


def _exact_work_guard(what: str, steps: int, bits: float, remedy: str = "choose a smaller n"):
    """Refuse, before any work, an exact table of about `steps` big-integer
    steps on integers of up to `bits` bits, with `remedy` ending the message.
    A step costs about 8 limb operations of overhead, plus one per 64 bits."""
    work = steps * (8 + int(bits) // 64)
    if work > _EXACT_WORK_CAP:
        raise ValueError(
            f"{what} is too large to compute exactly: about {work:.1e} units of"
            f" big-integer work, over the limit of {_EXACT_WORK_CAP:.0e}; {remedy}"
        )


def _divisor_sums(n: int) -> list[int]:
    """[0, sigma(1), ..., sigma(n)], sigma(j) the sum of the divisors of j."""
    sigma = [0] * (n + 1)
    for d in range(1, n + 1):
        for m in range(d, n + 1, d):
            sigma[m] += d
    return sigma


def count_multipartitions(n: int, k: int) -> int:
    """|Y_n^(k)| = [x^n] P(x)^k, with P(x) = prod_j 1/(1 - x^j) the partition
    series.  Since log P(x) = sum_j sigma(j) x^j / j, the coefficients a_m of
    P^k satisfy Euler's recurrence m a_m = k sum_{j=1..m} sigma(j) a_{m-j},
    a_0 = 1: one divisor-sum sieve and about n^2/2 products at any k."""
    n, k = _at_least(n, 0, "n"), _at_least(k, 1, "k")
    # |Y_n^(k)| is at most C(n+k-1, n) p(n), and p(n) < exp(pi sqrt(2n/3))
    log_bound = (math.lgamma(n + k) - math.lgamma(n + 1) - math.lgamma(k)
                 + math.pi * math.sqrt(2 * n / 3))
    _exact_work_guard(
        f"counting multiple partitions of n={n} into k={k}",
        (n + 1) ** 2 // 2, log_bound / math.log(2),
    )
    k_sigma = [k * s for s in _divisor_sums(n)]
    a = [1]
    for m in range(1, n + 1):
        a.append(sum(map(operator.mul, k_sigma[m:0:-1], a)) // m)
    return a[n]


def _labelled_count(m: int, k: int) -> int:
    """sum_b S(m, b) k^b, the labelled set partitions of {1..m} with labels
    1..k: about m^2/2 powers of up to m log2(m + k) bits, behind the work guard."""
    steps, bits = m * m // 2 * max(1, m.bit_length()), m * (m + k).bit_length()
    _exact_work_guard(f"counting labelled set partitions of n={m}", steps, bits)
    return sum(_stirling_second(m, b) * k**b for b in range(m + 1))


def union(p: MultiplePartition) -> YoungDiagram:
    """Combine the rows of all components into a single Young diagram."""
    rows: list[int] = []
    for comp in p.components:
        rows.extend(comp.rows)
    return _trusted(YoungDiagram, rows=tuple(sorted(rows, reverse=True)))


def _from_alleles(alleles: Iterable[tuple[int, int]], k: int) -> MultiplePartition:
    """Multiple partition of a sample given as (0-based class, count) per allele.

    The counts of class l, ranked, are the rows of component l; a class with
    no allele gives an empty component.  Every sampler ends here with Python
    int counts, so ranked positive rows are built through :func:`_trusted`.
    """
    rows: list[list[int]] = [[] for _ in range(k)]
    for cls, c in alleles:
        rows[cls].append(c)
    comps = []
    for r in rows:
        r.sort(reverse=True)
        if r and r[-1] < 1:
            raise ValueError(f"row lengths must be positive, got {r[-1]}")
        comps.append(_trusted(YoungDiagram, rows=tuple(r)))
    return _trusted(MultiplePartition, components=tuple(comps))


def set_partition_to_multipartition(s: LabeledSetPartition, k: int) -> MultiplePartition:
    """Forget element identities: block of label l and size j becomes a row."""
    if any(label > k for label, _ in s.blocks):
        raise ValueError(f"block label out of range 1..{k}")
    return _from_alleles(((label - 1, len(elems)) for label, elems in s.blocks), k)


def set_partitions(n: int) -> Iterator[tuple[frozenset[int], ...]]:
    """All set partitions of {1..n}, blocks by smallest element, in the
    lexicographic order of restricted-growth strings a (element i + 1 in
    block a[i], a[i] <= 1 + max(a[:i])).  Iterative, so any n costs no
    recursion: each step raises the last entry that may grow and zeroes the
    entries after it."""
    n = _at_least(n, 0, "n")
    a, top = [0] * n, [0] * n  # top[i] = max(a[:i + 1])
    while True:
        blocks: list[list[int]] = [[] for _ in range(top[-1] + 1 if n else 0)]
        for elem, b in enumerate(a, start=1):
            blocks[b].append(elem)
        yield tuple(map(frozenset, blocks))
        i = n - 1
        while i > 0 and a[i] > top[i - 1]:
            i -= 1
        if i <= 0:
            return
        a[i] += 1
        top[i:] = [max(top[i - 1], a[i])] * (n - i)
        a[i + 1:] = [0] * (n - i - 1)


def _stirling_second(p: int, m: int) -> int:
    """Partitions of a p-set into m nonempty blocks: the surjections onto an
    m-set, counted by inclusion-exclusion without recursion, over m!."""
    onto = sum((-1) ** i * math.comb(m, i) * (m - i) ** p for i in range(m + 1))
    return onto // math.factorial(m)


def labeled_set_partitions(n: int, k: int) -> Iterator[LabeledSetPartition]:
    """All set partitions of {1..n} with every block labelled from 1..k.

    :func:`set_partitions` lists blocks by their smallest element, the
    canonical order of :class:`LabeledSetPartition`; the labellings of one
    partition are the product of its blocks' (label, block) pairs."""
    n, k = _at_least(n, 0, "n"), _at_least(k, 1, "k")
    new = object.__new__
    for blocks in set_partitions(n):
        for labelled in itertools.product(*[[(l, b) for l in range(1, k + 1)] for b in blocks]):
            s = new(LabeledSetPartition)  # what _trusted builds, without its call
            s.__dict__.update(blocks=labelled, n=n)
            yield s


def multipartition_to_lists(p: MultiplePartition) -> list[list[int]]:
    """Nested-list form, e.g. ((2,1),(1)) -> [[2, 1], [1]] (JSON compatible)."""
    return [list(c.rows) for c in p.components]


def multipartition_from_lists(obj: Sequence[Iterable[int]]) -> MultiplePartition:
    """Parse the nested-list form produced by :func:`multipartition_to_lists`."""
    return MultiplePartition(tuple(obj))
