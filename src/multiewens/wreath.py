"""Central measures on wreath products G wr S(n) and their restaurant process.

An element is a vector of n group elements together with a permutation; each
cycle of the permutation carries a cycle-product whose conjugacy class in G
labels the cycle.  Counting cycles of each class projects an element to a
multiple partition, and the product measure with per-class weights t_l
projects exactly onto the k-class Ewens measure with theta_l = t_l |c_l|/|G|.

Weights cross one boundary: each entry point coerces t to a
:class:`WreathParams` through ``measure._context``, which checks a reused
weight tuple once and picks exact or float arithmetic from its scale.
Group tables and elements from outside are checked by their constructors,
whose integer fields pass ``partitions._plain_ints`` and are never rounded;
the elements the restaurant process, the enumerator and the group
operations build skip that check through ``partitions._trusted``.

The restaurant process takes one uniform per step and has two engines
that make the same choices on the same uniforms.  One draw of fewer than
``samplers._KERNEL_STEPS`` steps runs in the interpreted loop ``_crp_run``;
a longer one is rebuilt from its step codes (``samplers._codes``) on numpy's
uniforms by ``_crp_assemble``.  The counting sampler tallies its runs by
their codes (``samplers._batched_counts``), which name an element one to
one, and rebuilds each distinct run once.  Both engines take the urn's step
with |G| slots per placed element, and a new cycle's entry follows the urn's
class rule over the checked weights of :func:`_entry_weights`.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import numpy as np

from .measure import _context, _finite_total, _log_law, _positive_finite, _rising, _shown
from .partitions import MultiplePartition, _at_least, _from_alleles, _plain_ints, _trusted
from .samplers import (
    _KERNEL_STEPS, _batched_counts, _codes, _numpy_rng, _python_rng, _roots,
)

__all__ = [
    "GroupTable",
    "trivial_group",
    "cyclic_group",
    "symmetric_group_3",
    "WreathElement",
    "WreathParams",
    "cycle_type",
    "pewens_pmf",
    "pewens_log_pmf",
    "crp_wreath_sample",
    "crp_element_counts",
    "enumerate_wreath_elements",
    "wreath_multiply",
    "wreath_inverse",
    "wreath_conjugate",
]


@dataclass(frozen=True)
class GroupTable:
    """A finite group given by its multiplication table.

    table[a][b] is the index of a*b.  Construction verifies the group
    axioms exhaustively (closure, identity, inverses, associativity,
    O(|G|^3)) and derives the inverse map and the conjugacy classes,
    listed in order of their smallest element (identity class first).
    """

    table: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        table = tuple(_plain_ints(row, "table entries") for row in self.table)
        object.__setattr__(self, "table", table)
        m = len(table)
        if m < 1:
            raise ValueError("group must be nonempty")
        for row in table:
            if len(row) != m or any(not 0 <= v < m for v in row):
                raise ValueError("table must be square with entries in range")
        identity = None
        for e in range(m):
            if all(table[e][a] == a and table[a][e] == a for a in range(m)):
                identity = e
                break
        if identity is None:
            raise ValueError("table has no identity element")
        inverse = [None] * m
        for a in range(m):
            for b in range(m):
                if table[a][b] == identity and table[b][a] == identity:
                    inverse[a] = b
                    break
            if inverse[a] is None:
                raise ValueError(f"element {a} has no inverse")
        for a in range(m):
            for b in range(m):
                for c in range(m):
                    if table[table[a][b]][c] != table[a][table[b][c]]:
                        raise ValueError("table is not associative")
        class_of = [None] * m
        classes: list[frozenset[int]] = []
        for a in range(m):
            if class_of[a] is not None:
                continue
            orbit = frozenset(
                table[table[g][a]][inverse[g]] for g in range(m)
            )
            idx = len(classes)
            classes.append(orbit)
            for b in orbit:
                class_of[b] = idx
        object.__setattr__(self, "identity", identity)
        object.__setattr__(self, "inverse", tuple(inverse))
        object.__setattr__(self, "classes", tuple(classes))
        object.__setattr__(self, "class_of", tuple(class_of))
        object.__setattr__(self, "_sizes", tuple(len(c) for c in classes))

    @property
    def order(self) -> int:
        return len(self.table)

    @property
    def k(self) -> int:
        """Number of conjugacy classes."""
        return len(self.classes)

    def class_sizes(self) -> tuple[int, ...]:
        return self._sizes

    def mult(self, a: int, b: int) -> int:
        return self.table[a][b]


def trivial_group() -> GroupTable:
    return GroupTable(((0,),))


def cyclic_group(m: int) -> GroupTable:
    """Z/m with addition; every element is its own conjugacy class."""
    m = _at_least(m, 1, "order")
    return GroupTable(
        tuple(tuple((a + b) % m for b in range(m)) for a in range(m))
    )


def symmetric_group_3() -> GroupTable:
    """S(3) as a multiplication table; three conjugacy classes."""
    perms = list(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    table = tuple(
        tuple(index[tuple(p[q[i]] for i in range(3))] for q in perms)
        for p in perms
    )
    return GroupTable(table)


@dataclass(frozen=True)
class WreathElement:
    """An element ((g_1..g_n), s) of G wr S(n); s in one-line notation, 0-based."""

    g: tuple[int, ...]
    s: tuple[int, ...]

    def __post_init__(self):
        g = _plain_ints(self.g, "entries of g")
        s = _plain_ints(self.s, "entries of s")
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "s", s)
        if len(g) != len(s):
            raise ValueError("g and s must have the same length")
        if sorted(s) != list(range(len(s))):
            raise ValueError(f"s must be a permutation of 0..{len(s) - 1}")

    @property
    def n(self) -> int:
        return len(self.s)

    def to_json_dict(self) -> dict:
        return {"g": list(self.g), "s": list(self.s)}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "WreathElement":
        """Parse :meth:`to_json_dict` output."""
        return cls(obj["g"], obj["s"])


@dataclass(frozen=True)
class WreathParams:
    """Per-conjugacy-class weights t_l > 0 of the wreath measure."""

    ts: tuple

    def __post_init__(self):
        ts = tuple(self.ts)
        object.__setattr__(self, "ts", ts)
        if not _positive_finite(ts):
            shown = ", ".join(map(_shown, ts))
            raise ValueError(f"all weights must be positive and finite, got ({shown})")

    def thetas(self, group: GroupTable) -> tuple:
        """Mutation masses of the projected law: theta_l = t_l |c_l| / |G|."""
        ts, sizes = self._per_class(group), group.class_sizes()
        return tuple(t * Fraction(sz, group.order) for t, sz in zip(ts, sizes))

    def _per_class(self, group: GroupTable) -> tuple:
        """The weights, checked to number one per conjugacy class of group."""
        if len(self.ts) != group.k:
            raise ValueError("need one weight per conjugacy class")
        return self.ts


def _wreath_params(t) -> WreathParams:
    """The class weights t as a checked :class:`WreathParams`."""
    return _context(t, WreathParams)[0]


def cycle_type(x: WreathElement, group: GroupTable) -> MultiplePartition:
    """Project a wreath element to its multiple partition of cycle data.

    Each cycle (i_1..i_r) of s contributes a row of length r to the
    component of the conjugacy class of its cycle-product
    g_{i_r} g_{i_{r-1}} ... g_{i_1}.  The per-class cycle counts [x]_{c_l}
    are the row counts of the components.  Every entry of g must index an
    element of the group.
    """
    return _from_alleles(_cycle_classes(x, group), group.k)


def _in_group(group: GroupTable, x: WreathElement, *others: WreathElement) -> int:
    """The n of x, after checking that every entry of g of x and others
    indexes an element of the group and that all have the same n."""
    for y in (x, *others):
        if y.n != x.n:
            raise ValueError(f"wreath elements must have the same n, got {x.n} and {y.n}")
        if y.g and (min(y.g) < 0 or max(y.g) >= group.order):
            raise ValueError(f"entries of g must be in 0..{group.order - 1}")
    return x.n


def _cycle_classes(x: WreathElement, group: GroupTable) -> Iterator[tuple[int, int]]:
    """(conjugacy class index, length) of every cycle of x, after checking
    that every entry of g indexes an element of the group."""
    _in_group(group, x)
    g, s = x.g, x.s
    table, class_of, identity = group.table, group.class_of, group.identity
    seen = [False] * len(s)
    for start in range(len(s)):
        if seen[start]:
            continue
        prod, length, i = identity, 0, start
        while not seen[i]:
            seen[i] = True
            prod = table[g[i]][prod]
            length += 1
            i = s[i]
        yield class_of[prod], length


def pewens_pmf(x: WreathElement, group: GroupTable, t):
    """Probability of x under the wreath measure with class weights t.

    t_1^{[x]_{c_1}} ... t_k^{[x]_{c_k}} / (|G|^n (t_1/zeta_1+..+t_k/zeta_k)_n)
    with zeta_l = |G|/|c_l|.  Rational t gives a Fraction over the shared
    exact denominator D_n of the masses theta_l = t_l/zeta_l, each taken as
    t_l |c_l| over |G| times the denominator of t_l.  Their lcm is B|G|,
    with B that of the t_l (the scale of :func:`measure._context`), so the
    scaled masses are B t_l |c_l|, D_n = (B|G|)^n (sum theta)_n and the law
    is prod_l (B t_l)^{[x]_{c_l}} * B^{n-C} / D_n, with C the number of
    cycles.  Other t give the exp of :func:`pewens_log_pmf`.
    """
    params, scale = _context(t, WreathParams)
    params._per_class(group)
    counts = _class_counts(x, group)
    if scale is None:
        return math.exp(_log_pewens(x.n, group, params, counts))
    b, scaled = scale
    qw = sum([s * size for s, size in zip(scaled, group.class_sizes())])
    num = b ** (x.n - sum(counts)) * math.prod(map(pow, scaled, counts))
    return Fraction(num, _rising(qw, b * group.order, x.n))


def pewens_log_pmf(x: WreathElement, group: GroupTable, t) -> float:
    """log of :func:`pewens_pmf` as a float, for any weights: sum_l [x]_{c_l}
    log t_l - n log|G| - log (sum theta)_n, finite where the probability
    itself underflows to 0."""
    return _log_pewens(x.n, group, _wreath_params(t), _class_counts(x, group))


def _class_counts(x: WreathElement, group: GroupTable) -> list[int]:
    """[x]_{c_l}, the number of cycles of x in each conjugacy class."""
    counts = [0] * group.k
    for cls, _ in _cycle_classes(x, group):
        counts[cls] += 1
    return counts


def _log_pewens(n: int, group: GroupTable, params: WreathParams, counts) -> float:
    """The log-sum of :func:`pewens_log_pmf` for the cycle counts of each class."""
    w = sum(params.thetas(group))  # also checks one weight per class
    total = sum([c * math.log(t) for t, c in zip(params.ts, counts)])
    return _log_law(total - n * math.log(group.order), w, n)


def crp_wreath_sample(n: int, group: GroupTable, t, seed: int) -> WreathElement:
    """Grow a wreath element by the restaurant-style insertion process.

    Element 0 starts its own cycle carrying a group element g, each g
    weighted t_{class(g)}.  With j elements placed and D = sum |c_l| t_l,
    element j either opens a new cycle with entry g (weight t_{class(g)}
    for each of the |G| choices) or is inserted after one of the j existing
    elements with a fresh entry h drawn uniformly over G (weight 1 for each
    of the j|G| position/entry pairs); the predecessor's entry g_p is
    replaced by h^{-1} g_p so the cycle-product of the host cycle is
    unchanged.  Every step divides by D + j|G| and takes one uniform.
    """
    n = _at_least(n, 1, "n")
    cum = _entry_weights(group, t)
    if n < _KERNEL_STEPS:
        g, s = _crp_run(n, group, cum, _python_rng(seed))
    else:
        codes = _codes(_numpy_rng(seed).random(n), cum, group.order)
        g, s = (a[0].tolist() for a in _crp_assemble(group, codes[None]))
    return _trusted(WreathElement, g=tuple(g), s=tuple(s))


def _entry_weights(group: GroupTable, t) -> list[float]:
    """Cumulative new-cycle weights t_{class(a)} over the elements a of G, in
    element order, for the class weights t as floats; the last is the opening
    total D = sum_l t_l |c_l|, refused past the float range."""
    ts = [float(v) for v in _wreath_params(t)._per_class(group)]
    cum = list(itertools.accumulate(ts[c] for c in group.class_of))
    _finite_total(cum[-1:])
    return cum


def _undo(group: GroupTable) -> list[tuple[int, ...]]:
    """undo[e][a] = e^{-1} a, the entry left at a host position with entry a
    after an insertion with entry e."""
    return [group.table[group.inverse[e]] for e in range(group.order)]


def _crp_run(n: int, group: GroupTable, cum: list, rng: random.Random):
    """Run the restaurant process for n steps, one rng.random() each.

    Each step is that of :func:`samplers._codes` with m = |G| on the
    cumulative weights cum of :func:`_entry_weights`, whose last is D: below D
    it opens a cycle with entry bisect_right of x among the others, and
    otherwise slot pos |G| + entry gives the position and entry of an
    insertion.  Returns the lists (g, s).
    """
    m = group.order
    d_new, bounds = cum[-1], cum[:-1]
    undo = _undo(group)
    g: list[int] = []
    s: list[int] = []
    for j in range(n):
        x = rng.random() * (d_new + j * m)
        if x < d_new:
            g.append(bisect.bisect_right(bounds, x))
            s.append(j)
        else:
            pos, entry = divmod(min(int(x - d_new), j * m - 1), m)
            s.append(s[pos])
            s[pos] = j
            g[pos] = undo[entry][g[pos]]
            g.append(entry)
    return g, s


def _crp_assemble(group: GroupTable, codes: np.ndarray):
    """:func:`_crp_run` on each row of the (r, n) step codes of
    :func:`samplers._codes` with m = |G| slots per placed element, with no
    loop over the steps; returns g and s as (r, n) arrays, one row per run.

    A step j that opens a cycle has code j |G| plus the new cycle's entry,
    and any other step pos |G| + entry inserts its entry after the earlier
    element pos.  The n! |G|^n code sequences of n steps are as many as the
    elements of G wr S(n), each of which some sequence builds, so a run's
    codes name its element one to one.

    The runs are laid end to end, run c's positions offset by c n, so a
    step opens a cycle where its offset position is its own flat index.
    The final s follows
    from the insertions grouped by host: a host's successor is its last
    insertion, and an element placed by a step has as successor the host's
    insertion before it, or for the host's first insertion the host's own
    successor when the host was placed, found by pointer doubling
    (:func:`samplers._roots`).  A host's entry is left-multiplied by its
    insertions' inverse entries in time order, one pass per insertion rank.
    """
    (r, n), m = codes.shape, group.order
    size, base = n * r, n * np.arange(r)[:, None]
    pos, g = np.divmod(codes, m)
    pos, g = (pos + base).ravel(), g.ravel()
    ins = np.flatnonzero(pos != np.arange(size))
    host, placed = np.divmod(np.sort(pos[ins] * size + ins), size)  # by host, then time
    first = np.ones(len(placed), dtype=bool)
    first[1:] = host[1:] != host[:-1]
    last = np.ones(len(placed), dtype=bool)
    last[:-1] = first[1:]
    succ = np.arange(size)  # each element's successor when placed
    later = np.flatnonzero(~first)
    succ[placed[later]] = placed[later - 1]
    parent = np.arange(size)
    parent[placed[first]] = host[first]
    s = succ[_roots(parent)]
    s[host[last]] = placed[last]
    idx = np.arange(len(placed))
    rank = idx - np.maximum.accumulate(np.where(first, idx, 0))
    by_rank = np.sort(rank * size + idx) % size
    undo = np.array(_undo(group)).ravel()
    born, lo = g[placed], 0
    for hi in np.cumsum(np.bincount(rank)).tolist():
        at = by_rank[lo:hi]
        h = host[at]
        g[h] = undo[born[at] * m + g[h]]
        lo = hi
    return g.reshape(r, n), s.reshape(r, n) - base


def crp_element_counts(
    n: int, group: GroupTable, t, reps: int, seed: int
) -> Counter:
    """Empirical counts of restaurant-process draws, keyed by WreathElement.

    The process of :func:`crp_wreath_sample`, run on many replicates at
    once off one numpy stream, so its stream is not that of the one-draw
    sampler.  Runs are tallied by their step codes
    (:func:`samplers._batched_counts`) and the distinct ones built by one
    :func:`_crp_assemble`, so the cost is paid once per distinct run: the
    sampler is intended for desk-scale n where the number of distinct
    elements is small.
    """
    cum = _entry_weights(group, t)
    n = _at_least(n, 1, "n")
    codes, counts = _batched_counts(n, reps, seed, cum, group.order)
    g, s = _crp_assemble(group, codes)
    return Counter({
        _trusted(WreathElement, g=tuple(gv), s=tuple(sv)): c
        for gv, sv, c in zip(g.tolist(), s.tolist(), counts.tolist())
    })


def enumerate_wreath_elements(n: int, group: GroupTable) -> Iterator[WreathElement]:
    """All |G|^n n! elements of G wr S(n); desk scale only."""
    n = _at_least(n, 0, "n")
    for s in itertools.permutations(range(n)):
        for g in itertools.product(range(group.order), repeat=n):
            yield _trusted(WreathElement, g=g, s=s)


def wreath_multiply(x: WreathElement, y: WreathElement, group: GroupTable) -> WreathElement:
    """(g, s)(h, u) = ((g_i h_{s^{-1}(i)}), s o u) with (s o u)(i) = s(u(i))."""
    n = _in_group(group, x, y)
    s_inv = [0] * n
    for i, v in enumerate(x.s):
        s_inv[v] = i
    g = tuple(group.mult(x.g[i], y.g[s_inv[i]]) for i in range(n))
    s = tuple(x.s[y.s[i]] for i in range(n))
    return _trusted(WreathElement, g=g, s=s)


def wreath_inverse(x: WreathElement, group: GroupTable) -> WreathElement:
    n = _in_group(group, x)
    s_inv = [0] * n
    for i, v in enumerate(x.s):
        s_inv[v] = i
    g = tuple(group.inverse[x.g[x.s[i]]] for i in range(n))
    return _trusted(WreathElement, g=g, s=tuple(s_inv))


def wreath_conjugate(x: WreathElement, y: WreathElement, group: GroupTable) -> WreathElement:
    """y x y^{-1}."""
    return wreath_multiply(wreath_multiply(y, x, group), wreath_inverse(y, group), group)
