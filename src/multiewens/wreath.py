"""Central measures on wreath products G wr S(n) and their restaurant process.

An element is a vector of n group elements together with a permutation; each
cycle of the permutation carries a cycle-product whose conjugacy class in G
labels the cycle.  Counting cycles of each class projects an element to a
multiple partition, and the product measure with per-class weights t_l
projects exactly onto the k-class Ewens measure with theta_l = t_l |c_l|/|G|.

Weights cross one boundary: each entry point coerces t once to a
:class:`WreathParams`, the only place weights are checked; the projected
masses and the exact-or-float choice come from :meth:`WreathParams.thetas`.
Group tables and elements from outside are checked by their constructors,
whose integer fields pass ``partitions._plain_ints`` and are never rounded;
the elements the restaurant process, the enumerator and the group
operations build skip that check through ``partitions._trusted``.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .measure import _is_exact, _product
from .partitions import MultiplePartition, _from_alleles, _plain_ints, _trusted

__all__ = [
    "GroupTable",
    "trivial_group",
    "cyclic_group",
    "symmetric_group_3",
    "WreathElement",
    "WreathParams",
    "cycle_type",
    "pewens_pmf",
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

    @property
    def order(self) -> int:
        return len(self.table)

    @property
    def k(self) -> int:
        """Number of conjugacy classes."""
        return len(self.classes)

    def class_sizes(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.classes)

    def mult(self, a: int, b: int) -> int:
        return self.table[a][b]


def trivial_group() -> GroupTable:
    return GroupTable(((0,),))


def cyclic_group(m: int) -> GroupTable:
    """Z/m with addition; every element is its own conjugacy class."""
    if m < 1:
        raise ValueError("order must be >= 1")
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
        if not all(0 < t < math.inf for t in ts):  # also rejects NaN
            shown = ", ".join(map(str, ts))
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
    return t if isinstance(t, WreathParams) else WreathParams(t)


def _cycles(s: tuple[int, ...]) -> list[list[int]]:
    seen = [False] * len(s)
    cycles = []
    for start in range(len(s)):
        if seen[start]:
            continue
        cyc = []
        i = start
        while not seen[i]:
            seen[i] = True
            cyc.append(i)
            i = s[i]
        cycles.append(cyc)
    return cycles


def cycle_type(x: WreathElement, group: GroupTable) -> MultiplePartition:
    """Project a wreath element to its multiple partition of cycle data.

    Each cycle (i_1..i_r) of s contributes a row of length r to the
    component of the conjugacy class of its cycle-product
    g_{i_r} g_{i_{r-1}} ... g_{i_1}.  The per-class cycle counts [x]_{c_l}
    are the row counts of the components.  Every entry of g must index an
    element of the group.
    """
    return _from_alleles(_cycle_classes(x, group), group.k)


def _cycle_classes(x: WreathElement, group: GroupTable) -> Iterator[tuple[int, int]]:
    """(conjugacy class index, length) of every cycle of x, after checking
    that every entry of g indexes an element of the group."""
    if x.g and (min(x.g) < 0 or max(x.g) >= group.order):
        raise ValueError(f"entries of g must be in 0..{group.order - 1}")
    for cyc in _cycles(x.s):
        prod = group.identity
        for i in cyc:
            prod = group.mult(x.g[i], prod)
        yield group.class_of[prod], len(cyc)


def pewens_pmf(x: WreathElement, group: GroupTable, t):
    """Probability of x under the wreath measure with class weights t.

    t_1^{[x]_{c_1}} ... t_k^{[x]_{c_k}} / (|G|^n (t_1/zeta_1+..+t_k/zeta_k)_n)
    with zeta_l = |G|/|c_l|.  Exact for rational t.
    """
    params = _wreath_params(t)
    thetas = params.thetas(group)
    counts = [0] * group.k
    for cls, _ in _cycle_classes(x, group):
        counts[cls] += 1
    powers = [*zip(params.ts, counts), (group.order, -x.n)]
    return _product(_is_exact(thetas), powers, [(sum(thetas), (x.n,), -1)])


def crp_wreath_sample(n: int, group: GroupTable, t, seed: int) -> WreathElement:
    """Grow a wreath element by the restaurant-style insertion process.

    Element 0 starts its own cycle carrying a group element g, each g
    weighted t_{class(g)}.  With j elements placed and D = sum |c_l| t_l,
    element j either opens a new cycle with entry g (weight t_{class(g)}
    for each of the |G| choices) or is inserted after one of the j existing
    elements with a fresh entry h drawn uniformly over G (weight 1 for each
    of the j|G| position/entry pairs); the predecessor's entry g_p is
    replaced by h^{-1} g_p so the cycle-product of the host cycle is
    unchanged.  Every step divides by D + j|G|.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    ts = [float(v) for v in _wreath_params(t)._per_class(group)]
    rng = random.Random(seed)
    g, s = _crp_run(n, group, ts, rng)
    return _trusted(WreathElement, g=tuple(g), s=tuple(s))


def _crp_run(n: int, group: GroupTable, ts: list, rng: random.Random):
    m = group.order
    weight = [ts[group.class_of[a]] for a in range(m)]
    d_new = sum(weight)

    def draw_new_entry() -> int:
        u = rng.random() * d_new
        for a in range(m - 1):
            if u < weight[a]:
                return a
            u -= weight[a]
        return m - 1

    g = [draw_new_entry()]
    s = [0]
    for j in range(1, n):
        u = rng.random() * (d_new + j * m)
        if u < d_new:
            entry = draw_new_entry()
            g.append(entry)
            s.append(j)
        else:
            # u can round up to d_new + j*m when random() is 1 - 2**-53
            pair = min(int(u - d_new), j * m - 1)
            pos, entry = divmod(pair, m)
            s.append(s[pos])
            s[pos] = j
            g[pos] = group.mult(group.inverse[entry], g[pos])
            g.append(entry)
    return g, s


def crp_element_counts(
    n: int, group: GroupTable, t, reps: int, seed: int
) -> Counter:
    """Empirical counts of restaurant-process draws, keyed by WreathElement.

    Same process as :func:`crp_wreath_sample` run `reps` times off a single
    stream; intended for desk-scale n where the number of distinct elements
    is small.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if reps < 0:
        raise ValueError("reps must be >= 0")
    ts = [float(v) for v in _wreath_params(t)._per_class(group)]
    rng = random.Random(seed)
    raw: Counter = Counter()
    for _ in range(reps):
        g, s = _crp_run(n, group, ts, rng)
        raw[(tuple(g), tuple(s))] += 1
    return Counter({_trusted(WreathElement, g=gv, s=sv): c for (gv, sv), c in raw.items()})


def enumerate_wreath_elements(n: int, group: GroupTable) -> Iterator[WreathElement]:
    """All |G|^n n! elements of G wr S(n); desk scale only."""
    for s in itertools.permutations(range(n)):
        for g in itertools.product(range(group.order), repeat=n):
            yield _trusted(WreathElement, g=g, s=s)


def wreath_multiply(x: WreathElement, y: WreathElement, group: GroupTable) -> WreathElement:
    """(g, s)(h, u) = ((g_i h_{s^{-1}(i)}), s o u) with (s o u)(i) = s(u(i))."""
    n = x.n
    s_inv = [0] * n
    for i, v in enumerate(x.s):
        s_inv[v] = i
    g = tuple(group.mult(x.g[i], y.g[s_inv[i]]) for i in range(n))
    s = tuple(x.s[y.s[i]] for i in range(n))
    return _trusted(WreathElement, g=g, s=s)


def wreath_inverse(x: WreathElement, group: GroupTable) -> WreathElement:
    n = x.n
    s_inv = [0] * n
    for i, v in enumerate(x.s):
        s_inv[v] = i
    g = tuple(group.inverse[x.g[x.s[i]]] for i in range(n))
    return _trusted(WreathElement, g=g, s=tuple(s_inv))


def wreath_conjugate(x: WreathElement, y: WreathElement, group: GroupTable) -> WreathElement:
    """y x y^{-1}."""
    return wreath_multiply(wreath_multiply(y, x, group), wreath_inverse(y, group), group)
