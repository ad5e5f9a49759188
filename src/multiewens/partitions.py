"""Combinatorial objects for samples with class-labelled alleles.

A sample of n genes whose alleles fall into k mutation classes is summarised
by a *multiple partition*: an ordered k-tuple of Young diagrams with n boxes
in total, component l collecting the repeat counts of class-l alleles.  The
same data can be written as an n-by-k matrix of allele counts, or refined to
a set partition of the gene labels with a class label on every block.

Everything here is immutable and hashable, and the enumeration helpers are
deliberately simple so they can serve as exact oracles for the measure and
sampler modules.  The public constructors validate their input; the
enumerators and the box-removal and union maps, whose values are valid by
construction, build their instances through :func:`_trusted` instead.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
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


@dataclass(frozen=True)
class YoungDiagram:
    """A weakly decreasing tuple of positive row lengths (possibly empty)."""

    rows: tuple[int, ...] = ()

    def __post_init__(self):
        rows = tuple(int(r) for r in self.rows)
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

    def multiplicity(self, j: int) -> int:
        """Number of rows of length j."""
        return sum(1 for r in self.rows if r == j)

    def multiplicities(self) -> dict[int, int]:
        """Map from row length to its multiplicity (derived, not stored)."""
        mult: dict[int, int] = {}
        for r in self.rows:
            mult[r] = mult.get(r, 0) + 1
        return mult

    @classmethod
    def from_multiplicities(cls, mult: dict[int, int]) -> "YoungDiagram":
        rows: list[int] = []
        for j in sorted(mult, reverse=True):
            if mult[j] < 0:
                raise ValueError("multiplicities must be nonnegative")
            rows.extend([j] * mult[j])
        return cls(tuple(rows))

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
        return sum(c.size for c in self.components)

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
        entries = tuple(tuple(int(a) for a in row) for row in self.entries)
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
        blocks = tuple(
            (int(label), frozenset(int(e) for e in elems))
            for label, elems in self.blocks
        )
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

    def block_sizes_by_label(self) -> dict[int, list[int]]:
        sizes: dict[int, list[int]] = {}
        for label, elems in self.blocks:
            sizes.setdefault(label, []).append(len(elems))
        return sizes


def _trusted(cls, **fields):
    """Instance of one of the frozen dataclasses above from field values that
    are valid and canonical by construction; skips ``__post_init__``, so it
    is equal and hash-equal to the validated instance of the same values."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def matrix_to_multipartition(m: AlleleCountMatrix) -> MultiplePartition:
    """Read off the multiple partition whose component l has a_j^(l) rows of length j."""
    comps = []
    for l in range(1, m.k + 1):
        mult = {j: m.count(j, l) for j in range(1, m.n + 1) if m.count(j, l)}
        comps.append(YoungDiagram.from_multiplicities(mult))
    return MultiplePartition(tuple(comps))


def multipartition_to_matrix(p: MultiplePartition) -> AlleleCountMatrix:
    """Inverse of :func:`matrix_to_multipartition` (exact round trip)."""
    n = p.n
    grid = [[0] * p.k for _ in range(n)]
    for l, comp in enumerate(p.components):
        for j, a in comp.multiplicities().items():
            grid[j - 1][l] = a
    return AlleleCountMatrix(tuple(tuple(row) for row in grid), k=p.k)


def partitions_of(n: int, max_part: int | None = None) -> Iterator[tuple[int, ...]]:
    """Integer partitions of n, largest-part-first lexicographic order.

    partitions_of(4) yields (4,), (3,1), (2,2), (2,1,1), (1,1,1,1).
    """
    if n < 0:
        return
    if n == 0:
        yield ()
        return
    top = n if max_part is None or max_part > n else max_part
    for first in range(top, 0, -1):
        for rest in partitions_of(n - first, first):
            yield (first,) + rest


def compositions_of(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """Weak compositions of n into k parts, first part largest first."""
    if k < 1:
        raise ValueError("need at least one part")
    if k == 1:
        yield (n,)
        return
    for first in range(n, -1, -1):
        for rest in compositions_of(n - first, k - 1):
            yield (first,) + rest


def enumerate_multipartitions(n: int, k: int) -> Iterator[MultiplePartition]:
    """Every multiple partition of n into k components, exactly once.

    Canonical order: component-size compositions first (largest first
    component first), then row-lexicographic within each component.
    Intended for desk-scale n; the caller is responsible for feasibility.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    diagrams: dict[int, list[YoungDiagram]] = {}
    for sizes in compositions_of(n, k):
        for m in sizes:
            if m not in diagrams:
                diagrams[m] = [_trusted(YoungDiagram, rows=r) for r in partitions_of(m)]
        for comps in itertools.product(*(diagrams[m] for m in sizes)):
            yield _trusted(MultiplePartition, components=comps)


@lru_cache(maxsize=None)
def _partition_count(n: int, max_part: int) -> int:
    if n == 0:
        return 1
    if n < 0 or max_part == 0:
        return 0
    return _partition_count(n - max_part, max_part) + _partition_count(n, max_part - 1)


def count_multipartitions(n: int, k: int) -> int:
    """|Y_n^(k)| = sum over size compositions of the product of partition counts."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    total = 0
    for sizes in compositions_of(n, k):
        prod = 1
        for m in sizes:
            prod *= _partition_count(m, m)
        total += prod
    return total


def union(p: MultiplePartition) -> YoungDiagram:
    """Combine the rows of all components into a single Young diagram."""
    rows: list[int] = []
    for comp in p.components:
        rows.extend(comp.rows)
    return _trusted(YoungDiagram, rows=tuple(sorted(rows, reverse=True)))


def _from_alleles(alleles: Iterable[tuple[int, int]], k: int) -> MultiplePartition:
    """Multiple partition of a sample given as (0-based class, count) per allele.

    The counts of class l, ranked, are the rows of component l; a class with
    no allele gives an empty component.  Every sampler ends here.
    """
    rows: list[list[int]] = [[] for _ in range(k)]
    for cls, c in alleles:
        rows[cls].append(c)
    return MultiplePartition(
        tuple(YoungDiagram(tuple(sorted(r, reverse=True))) for r in rows)
    )


def set_partition_to_multipartition(s: LabeledSetPartition, k: int) -> MultiplePartition:
    """Forget element identities: block of label l and size j becomes a row."""
    if any(label > k for label, _ in s.blocks):
        raise ValueError(f"block label out of range 1..{k}")
    return _from_alleles(((label - 1, len(elems)) for label, elems in s.blocks), k)


def set_partitions(n: int) -> Iterator[tuple[frozenset[int], ...]]:
    """All set partitions of {1..n} via restricted-growth strings."""
    if n == 0:
        yield ()
        return

    def grow(prefix: list[int], used: int):
        if len(prefix) == n:
            blocks: list[set[int]] = [set() for _ in range(used)]
            for elem, b in enumerate(prefix, start=1):
                blocks[b].add(elem)
            yield tuple(frozenset(b) for b in blocks)
            return
        for b in range(used + 1):
            prefix.append(b)
            yield from grow(prefix, max(used, b + 1))
            prefix.pop()

    yield from grow([], 0)


@lru_cache(maxsize=None)
def _stirling_second(p: int, m: int) -> int:
    """Partitions of a p-set into m nonempty blocks."""
    if p == 0:
        return 1 if m == 0 else 0
    if m == 0 or m > p:
        return 0
    return m * _stirling_second(p - 1, m) + _stirling_second(p - 1, m - 1)


def labeled_set_partitions(n: int, k: int) -> Iterator[LabeledSetPartition]:
    """All set partitions of {1..n} with every block labelled from 1..k.

    :func:`set_partitions` lists blocks by their smallest element, the
    canonical order of :class:`LabeledSetPartition`."""
    for blocks in set_partitions(n):
        for labels in itertools.product(range(1, k + 1), repeat=len(blocks)):
            yield _trusted(LabeledSetPartition, blocks=tuple(zip(labels, blocks)), n=n)


def multipartition_to_lists(p: MultiplePartition) -> list[list[int]]:
    """Nested-list form, e.g. ((2,1),(1)) -> [[2, 1], [1]] (JSON compatible)."""
    return [list(c.rows) for c in p.components]


def multipartition_from_lists(obj: Sequence[Iterable[int]]) -> MultiplePartition:
    """Parse the nested-list form produced by :func:`multipartition_to_lists`.

    Every row must be a plain int (not a bool, float or string), so outside
    input is never rounded or coerced into a different partition.
    """
    comps = tuple(_plain_ints(rows, "row lengths") for rows in obj)
    return MultiplePartition(tuple(YoungDiagram(rows) for rows in comps))


def _plain_ints(values: Iterable, what: str) -> tuple[int, ...]:
    """The values as a tuple; each must be a plain int, not a bool, float or string."""
    values = tuple(values)
    for v in values:
        if type(v) is not int:
            raise ValueError(f"{what} must be integers, got {v!r}")
    return values
