"""Independent brute-force oracles shared by the test modules.

Everything here is deliberately written from first principles with
algorithms different from the library's own (pentagonal-number recurrence
instead of bounded-part recursion, direct distinct-monomial expansion
instead of power sums) so that agreement is meaningful.  One helper,
:func:`refuse_validation`, tells a trusted construction from a validated one.
"""

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from itertools import permutations

from multiewens.measure import _params, refined_esf_pmf
from multiewens.partitions import enumerate_multipartitions, multipartition_to_matrix


@lru_cache(maxsize=None)
def partition_count(n: int) -> int:
    """p(n) by Euler's pentagonal number recurrence."""
    if n < 0:
        return 0
    if n == 0:
        return 1
    total = 0
    k = 1
    while True:
        g1 = k * (3 * k - 1) // 2
        g2 = k * (3 * k + 1) // 2
        if g1 > n and g2 > n:
            break
        sign = -1 if k % 2 == 0 else 1
        if g1 <= n:
            total += sign * partition_count(n - g1)
        if g2 <= n:
            total += sign * partition_count(n - g2)
        k += 1
    return total


def multipartition_count(n: int, k: int) -> int:
    """sum over n_1+..+n_k = n of prod p(n_l), via a convolution power."""
    coeffs = [partition_count(m) for m in range(n + 1)]
    layer = [1] + [0] * n
    for _ in range(k):
        layer = [
            sum(layer[i] * coeffs[m - i] for i in range(m + 1))
            for m in range(n + 1)
        ]
    return layer[n]


def monomial_symmetric_direct(rows, xs) -> float:
    """m_lambda(x) by summing distinct monomials over injective index tuples.

    Exponentially slow; only for tiny cases.
    """
    rows = tuple(rows)
    if not rows:
        return 1.0
    seen = set()
    total = 0.0
    for idxs in permutations(range(len(xs)), len(rows)):
        key = tuple(sorted(zip(idxs, rows)))
        if key in seen:
            continue
        seen.add(key)
        term = 1.0
        for i, r in zip(idxs, rows):
            term *= xs[i] ** r
        total += term
    return total


def classical_ewens_direct(rows, theta: Fraction, n: int) -> Fraction:
    """Ewens weight of a partition from the cycle-index formula, written
    directly from multiplicities without shared helpers."""
    import math

    mult = {}
    for r in rows:
        mult[r] = mult.get(r, 0) + 1
    denom = Fraction(1)
    for j, m in mult.items():
        denom *= Fraction(j) ** m * math.factorial(m)
    poch = Fraction(1)
    for i in range(n):
        poch *= theta + i
    return Fraction(math.factorial(n)) * Fraction(theta) ** len(rows) / denom / poch


def tv_distance(counts, exact_probs, reps: int) -> float:
    """Total variation between empirical counts and an exact law."""
    tv = 0.0
    for state, prob in exact_probs.items():
        tv += abs(counts.get(state, 0) / reps - float(prob))
    extra = sum(c for s, c in counts.items() if s not in exact_probs)
    tv += extra / reps
    return tv / 2.0


def _poisson_logpmf(a: int, lam: float) -> float:
    return a * math.log(lam) - lam - math.lgamma(a + 1)


def enumeration_tv_distance(n: int, m: int, theta) -> float:
    """Total variation between the first m rows of the count matrix and
    the independent Poisson grid, on the window of entries <= n.

    The Ewens-side marginal is aggregated by exact enumeration; the Poisson
    mass outside the window (where the Ewens marginal vanishes) is added in
    full.  Walks all prod_j (n//j + 1)^k window cells, so only for desk
    scale.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if m > n:
        raise ValueError("m must not exceed n")
    params = _params(theta)
    k = params.k
    marginal: dict[tuple, Fraction] = {}
    for part in enumerate_multipartitions(n, k):
        matrix = multipartition_to_matrix(part)
        key = tuple(
            tuple(matrix.count(j, l) for l in range(1, k + 1))
            for j in range(1, m + 1)
        )
        marginal[key] = marginal.get(key, Fraction(0)) + refined_esf_pmf(
            part, params
        )
    lam = [[float(t) / j for t in params.thetas] for j in range(1, m + 1)]
    # row j of the marginal never exceeds n // j, so the window can be cut
    # to the support; the Poisson mass outside is lumped in one term
    ranges = [range(n // j + 1) for j in range(1, m + 1) for _ in range(k)]
    tv = 0.0
    poisson_in_window = 0.0
    for flat in itertools.product(*ranges):
        key = tuple(
            tuple(flat[(j * k) : (j + 1) * k]) for j in range(m)
        )
        logp = 0.0
        for j in range(m):
            for l in range(k):
                logp += _poisson_logpmf(key[j][l], lam[j][l])
        p_pois = math.exp(logp)
        poisson_in_window += p_pois
        p_esf = float(marginal.get(key, Fraction(0)))
        tv += abs(p_esf - p_pois)
    tv += 1.0 - poisson_in_window  # Poisson mass where the Ewens marginal is 0
    return 0.5 * tv


def _rising_direct(x: Fraction, n: int) -> Fraction:
    out = Fraction(1)
    for i in range(n):
        out *= x + i
    return out


def refined_esf_direct(rows_by_class, thetas) -> Fraction:
    """n!/(w)_n * prod_{l,j} (theta_l/j)^a / a!, term by term in Fractions,
    with the multiplicities a = a_j^(l) counted from the row lists."""
    thetas = [Fraction(t) for t in thetas]
    n = sum(sum(rows) for rows in rows_by_class)
    value = Fraction(math.factorial(n)) / _rising_direct(sum(thetas), n)
    for th, rows in zip(thetas, rows_by_class):
        for j in set(rows):
            a = list(rows).count(j)
            value *= (th / j) ** a / math.factorial(a)
    return value


def set_partition_direct(blocks, n: int, thetas) -> Fraction:
    """prod over (label, block) of theta_label (|B|-1)!, over (w)_n."""
    thetas = [Fraction(t) for t in thetas]
    value = 1 / _rising_direct(sum(thetas), n)
    for label, elems in blocks:
        value *= thetas[label - 1] * math.factorial(len(elems) - 1)
    return value


def joint_k_direct(n: int, thetas) -> dict:
    """Joint law of the per-class row counts, by aggregating
    :func:`refined_esf_direct` over every multiple partition of n."""
    law: dict = {}
    for part in enumerate_multipartitions(n, len(thetas)):
        rows = [c.rows for c in part.components]
        key = tuple(len(r) for r in rows)
        law[key] = law.get(key, Fraction(0)) + refined_esf_direct(rows, thetas)
    return law


def pewens_direct(class_counts, n: int, ts, class_sizes, order: int) -> Fraction:
    """prod t_l^{[x]_{c_l}} / (|G|^n (sum_l t_l |c_l| / |G|)_n)."""
    w = sum(Fraction(t) * Fraction(size, order) for t, size in zip(ts, class_sizes))
    value = 1 / (Fraction(order) ** n * _rising_direct(w, n))
    for t, c in zip(ts, class_counts):
        value *= Fraction(t) ** c
    return value


def refuse_validation(monkeypatch, cls):
    """Make every validated construction of the frozen dataclass cls fail,
    so a builder that still succeeds built its instances without checks."""
    def refuse(self):
        raise AssertionError(f"{cls.__name__} was re-validated")
    monkeypatch.setattr(cls, "__post_init__", refuse)
