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
from multiewens.partitions import (
    enumerate_multipartitions,
    multipartition_from_lists,
    multipartition_to_matrix,
)


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


def tv_noise(exact_probs, reps: int) -> float:
    """Expected TV of the empirical law of reps draws from the exact law, to
    first order: each cell's |error| has mean sqrt(2 p (1 - p) / (pi reps))."""
    return 0.5 * sum(
        math.sqrt(2 * float(p) * (1 - float(p)) / (math.pi * reps)) for p in exact_probs.values()
    )


def chi_square_p(counts, exact_probs, reps: int) -> float:
    """Pearson chi-square p-value of counts against the exact law, with the
    cells expected fewer than 5 times pooled into one; 0 if any count falls
    outside the support."""
    from scipy.stats import chisquare

    if any(s not in exact_probs for s in counts):
        return 0.0
    obs, exp, pooled_obs, pooled_exp = [], [], 0, 0.0
    for state, prob in exact_probs.items():
        e = float(prob) * reps
        if e < 5:
            pooled_obs += counts.get(state, 0)
            pooled_exp += e
        else:
            obs.append(counts.get(state, 0))
            exp.append(e)
    if pooled_exp > 0:
        obs.append(pooled_obs)
        exp.append(pooled_exp)
    exp = [e * sum(obs) / sum(exp) for e in exp]  # rounding in the float probabilities
    return float(chisquare(obs, exp).pvalue)


def two_sample_chi_square_p(a, b) -> float:
    """Pearson chi-square p-value that the counts a and b (Counters over
    outcomes) come from one law, with the outcomes seen fewer than 10 times
    in both together pooled into one cell."""
    from scipy.stats import chi2_contingency

    cells, pooled = [], [0, 0]
    for state in set(a) | set(b):
        pair = [a.get(state, 0), b.get(state, 0)]
        if sum(pair) < 10:
            pooled = [pooled[0] + pair[0], pooled[1] + pair[1]]
        else:
            cells.append(pair)
    if sum(pooled):
        cells.append(pooled)
    if len(cells) < 2:
        return 1.0
    return float(chi2_contingency(list(zip(*cells)), correction=False).pvalue)


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


def harmonic_product_split(n: int, p: int, x) -> Fraction:
    """H^p_n(x) = sum_{j<n} b^p / (a + jb)^p for x = a/b, by binary splitting
    over the product of the denominators and one reducing Fraction at the
    end: the library's route before it moved to lcm denominators."""
    x = Fraction(x)
    a, b = x.numerator, x.denominator
    dens = [(a + j * b) ** p for j in range(n)]

    def split(lo: int, hi: int) -> tuple[int, int]:
        if hi - lo == 1:
            return 1, dens[lo]
        mid = (lo + hi) // 2
        n1, d1 = split(lo, mid)
        n2, d2 = split(mid, hi)
        return n1 * d2 + n2 * d1, d1 * d2

    num, den = split(0, n)
    return Fraction(num * b**p, den)


def pewens_direct(class_counts, n: int, ts, class_sizes, order: int) -> Fraction:
    """prod t_l^{[x]_{c_l}} / (|G|^n (sum_l t_l |c_l| / |G|)_n)."""
    w = sum(Fraction(t) * Fraction(size, order) for t, size in zip(ts, class_sizes))
    value = 1 / (Fraction(order) ** n * _rising_direct(w, n))
    for t, c in zip(ts, class_counts):
        value *= Fraction(t) ** c
    return value


def wf_population_law(start, mus, gens: int) -> dict:
    """Exact law of the whole population's multiple partition after `gens`
    Wright-Fisher generations from a population shaped like `start` (a
    multiple partition of 2N), with per-class mutation probabilities mus.

    Forward, one generation at a time: the 2N children split multinomially
    over "copy allele a" (probability c_a (1 - sum mu)/2N) and "new class-l
    mutant" (mu_l), and every mutant is a one-gene allele of its class.  A
    state is the sorted tuple of (class, count) pairs of its alleles."""
    mus = [Fraction(m) for m in mus]
    two_n, k, stay = start.n, len(mus), 1 - sum(mus)

    @lru_cache(maxsize=None)
    def successors(state):
        probs = [c * stay / two_n for _, c in state] + mus
        parts = len(probs)
        out: dict = {}
        for cuts in itertools.combinations(range(two_n + parts - 1), parts - 1):
            xs = [b - a - 1 for a, b in zip((-1, *cuts), (*cuts, two_n + parts - 1))]
            prob = Fraction(math.factorial(two_n))
            for x, p in zip(xs, probs):
                prob *= p**x / math.factorial(x)
            if prob:
                alleles = [(l, x) for (l, _), x in zip(state, xs) if x]
                alleles += [(l, 1) for l, x in enumerate(xs[len(state):]) for _ in range(x)]
                key = tuple(sorted(alleles))
                out[key] = out.get(key, 0) + prob
        return out

    first = tuple(sorted((l, r) for l, comp in enumerate(start.components) for r in comp.rows))
    law = {first: Fraction(1)}
    for _ in range(gens):
        nxt: dict = {}
        for state, p in law.items():
            for after, q in successors(state).items():
                nxt[after] = nxt.get(after, 0) + p * q
        law = nxt
    return {
        multipartition_from_lists([sorted((x for c, x in state if c == l), reverse=True)
                                   for l in range(k)]): p
        for state, p in law.items()
    }


@lru_cache(maxsize=None)
def _wf_stationary_population(two_n: int, mus: tuple) -> dict:
    """The stationary law pi of the population's multiple partition: the
    solution of pi P = pi with sum pi = 1, P the one-generation law of
    :func:`wf_population_law` from each state.  Each equation is scaled to
    integers and solved by fraction-free (Bareiss) elimination, then back
    substitution in Fractions."""
    states = list(enumerate_multipartitions(two_n, len(mus)))
    index = {s: i for i, s in enumerate(states)}
    size = len(states)
    # row t: sum_s pi_s (P[s, t] - [s == t]) = 0; the last row says sum pi = 1
    rows = [[Fraction(0)] * (size + 1) for _ in range(size)]
    for s in states:
        for t, p in wf_population_law(s, mus, 1).items():
            rows[index[t]][index[s]] += p
        rows[index[s]][index[s]] -= 1
    rows[-1] = [Fraction(1)] * (size + 1)
    a = []
    for row in rows:
        scale = math.lcm(*(x.denominator for x in row))
        a.append([x.numerator * (scale // x.denominator) for x in row])
    prev = 1
    for col in range(size):
        pivot = next(r for r in range(col, size) if a[r][col])
        a[col], a[pivot] = a[pivot], a[col]
        for r in range(col + 1, size):
            a[r] = [(x * a[col][col] - a[r][col] * y) // prev for x, y in zip(a[r], a[col])]
        prev = a[col][col]
    pi = [Fraction(0)] * size
    for i in reversed(range(size)):
        pi[i] = Fraction(a[i][-1] - sum(a[i][j] * pi[j] for j in range(i + 1, size)), a[i][i])
    return dict(zip(states, pi))


def wf_stationary_sample_law(two_n: int, mus, n: int) -> dict:
    """Exact law of the composition of n genes drawn without replacement from
    the stationary Wright-Fisher chain of 2N = two_n genes, with per-class
    mutation probabilities mus: the stationary population law, then every
    way of taking x_a of the c_a genes of each allele a."""
    pi = _wf_stationary_population(two_n, tuple(Fraction(m) for m in mus))
    law: dict = {}
    for state, p in pi.items():
        alleles = [(l, r) for l, comp in enumerate(state.components) for r in comp.rows]
        for takes in itertools.product(*(range(min(c, n) + 1) for _, c in alleles)):
            if sum(takes) != n:
                continue
            ways = math.prod(math.comb(c, x) for (_, c), x in zip(alleles, takes))
            sample = multipartition_from_lists([
                sorted((x for (cls, _), x in zip(alleles, takes) if cls == l and x), reverse=True)
                for l in range(len(mus))
            ])
            law[sample] = law.get(sample, 0) + p * Fraction(ways, math.comb(two_n, n))
    return law


def refuse_validation(monkeypatch, cls):
    """Make every validated construction of the frozen dataclass cls fail,
    so a builder that still succeeds built its instances without checks."""
    def refuse(self):
        raise AssertionError(f"{cls.__name__} was re-validated")
    monkeypatch.setattr(cls, "__post_init__", refuse)
