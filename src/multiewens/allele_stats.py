"""Moments, joint law, and asymptotic regimes of per-class allele counts.

K_n^(l), the number of distinct class-l alleles in an n-sample, is a sum of
independent Bernoulli indicators with success probabilities
theta_l / (w + j - 1), j = 1..n.  That identity yields closed-form moments,
an exact joint law from one Stirling cycle count, growth-regime limits when
theta_l = alpha_l n^beta, and a simulator for central limit checks whose
sparse tail costs O(successes) per replicate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

from .measure import (CheckReport, _common, _exact_common, _exact_params, _params,
                      _positive_finite, _shown, _sum_report)
from .partitions import _at_least, _exact_work_guard, compositions_of
from .samplers import _numpy_rng

__all__ = [
    "harmonic_h",
    "expected_k",
    "var_k",
    "class_moments",
    "stirling_first",
    "joint_k_pmf",
    "joint_k_check",
    "RegimeSpec",
    "RegimePrediction",
    "regime_prediction",
    "ClltScaling",
    "clt_scaling",
    "UnsupportedRegimeError",
    "bernoulli_k_samples",
]


class UnsupportedRegimeError(ValueError):
    """Raised for regimes where no normal limit is available."""


# Bernoulli numbers B_2, B_4, ..., B_16 of the Euler-Maclaurin tails
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510)
# terms per leaf of _lcm_sums, few enough that math.lcm over them is cheap
_LCM_LEAF = 32
# uniforms per head block of bernoulli_k_samples (4 MB, cache-sized)
_HEAD_BLOCK = 1 << 19


def harmonic_h(n: int, p: int, x):
    """Generalized harmonic tail H^p_n(x) = sum_{j=0}^{n-1} (x+j)^{-p} for x > 0.

    int or Fraction x = a/b is exact: with L the lcm of the d_j = a + jb,
    H^p_n(x) = b^p S_p / L^p for the integer S_p = sum_j (L/d_j)^p, which
    :func:`_lcm_sums` builds by binary splitting, then one Fraction.  A sum
    past the package's exact work guard (see :func:`_harmonic_sums`; at
    x = 7/3, n = 3*10^4 fits at p = 2, in about 0.15 s, and 5.8*10^4 at p = 1;
    n = 10^6 does not) raises ValueError before any work; pass a float x for
    the float route.

    Float x costs O(1): the terms below x = 10p are added directly and the
    rest is zeta(p, x) - zeta(p, x+n) (psi(x+n) - psi(x) at p = 1,
    psi'(x) - psi'(x+n) at p = 2) by the Euler-Maclaurin series, with each
    term a difference x^-m - (x+n)^-m built from positive parts, so small n
    at large x loses nothing to cancellation.  Relative error is a few ulp,
    and a sum past the float range, at a tiny x, raises ValueError.
    """
    n, p = _at_least(n, 1, "n"), _at_least(p, 1, "p")
    if not 0 < x < math.inf:  # also rejects NaN
        raise ValueError(f"x must be positive and finite, got {_shown(x)}")
    if isinstance(x, (int, Fraction)):
        x = Fraction(x)
        lcm, (s,) = _harmonic_sums(n, x, (p,))
        return Fraction(x.denominator**p * s, lcm**p)
    try:
        return _harmonic_float(n, p, float(x))
    except OverflowError:
        raise ValueError(f"H^{p}_{n}(x) at x={x} is past the float range; a rational"
                         f" x, such as Fraction({x!r}), takes the exact route") from None


def _harmonic_sums(n: int, x: Fraction, ps: tuple[int, ...]) -> tuple[int, list[int]]:
    """:func:`_lcm_sums` over d_j = a + jb, j < n, for x = a/b, refused once the
    p n log2(a + nb) bits of prod_j d_j^p >= L^p pass 2**20 (within 127), for
    the largest p in ps: 3,050 guard steps (class_moments, n = 3*10^4: 0.25 s)."""
    a, b = x.numerator, x.denominator
    _exact_work_guard(f"the exact harmonic sum at n={n}, x={_shown(x)}, p={ps[-1]}", 3_050,
                      ps[-1] * n * (a + (n - 1) * b).bit_length(),
                      "pass decimal masses such as 0.3333 for the float route")
    return _lcm_sums(a, b, 0, n, ps)


def _lcm_sums(a: int, b: int, lo: int, hi: int, ps: tuple[int, ...]) -> tuple[int, list[int]]:
    """(L, [sum_j (L/d_j)^p for p in ps]) over d_j = a + jb, lo <= j < hi,
    with L = lcm(d_j), by binary splitting.  A leaf of at most _LCM_LEAF
    terms takes math.lcm and exact quotients; a node joins its halves at
    L = L_1 (L_2/g), g = gcd(L_1, L_2), scaling each half's sums by
    (L/L_i)^p, so no integer outgrows the reduced denominators."""
    if hi - lo <= _LCM_LEAF:
        dens = range(a + lo * b, a + hi * b, b)
        lcm = math.lcm(*dens)
        cofactors = [lcm // d for d in dens]
        return lcm, [sum(c**p for c in cofactors) for p in ps]
    mid = (lo + hi) // 2
    l1, s1 = _lcm_sums(a, b, lo, mid, ps)
    l2, s2 = _lcm_sums(a, b, mid, hi, ps)
    g = math.gcd(l1, l2)
    m1, m2 = l2 // g, l1 // g
    return l1 * m1, [u * m1**p + v * m2**p for u, v, p in zip(s1, s2, ps)]


def _harmonic_float(n: int, p: int, x: float) -> float:
    terms = []
    j = 0
    while j < n and x + j < 10.0 * p:
        terms.append((x + j) ** -p)
        j += 1
    if j < n:
        terms.append(_zeta_gap(n - j, p, x + j))
    return math.fsum(terms)


def _inverse_gaps(m: int, x: float, top: int) -> list[float]:
    """[x^-i - y^-i for i = 0..top] with y = x + m, from the positive terms of
    x^-i - y^-i = x^-1 (x^-(i-1) - y^-(i-1)) + y^-(i-1) (x^-1 - y^-1)."""
    y = x + m
    u, v = 1.0 / x, 1.0 / y
    gaps = [0.0, m / (x * y)]
    v_pow = 1.0
    for _ in range(top - 1):
        v_pow *= v
        gaps.append(u * gaps[-1] + v_pow * gaps[1])
    return gaps


def _zeta_gap(m: int, p: int, x: float) -> float:
    """zeta(p, x) - zeta(p, x+m) for x >= 10p, from the Euler-Maclaurin
    series zeta(p, z) ~ z^(1-p)/(p-1) + z^-p/2
    + sum_k B_2k (p)_(2k-1) / (2k)! z^(1-p-2k), with log z at p = 1."""
    d = _inverse_gaps(m, x, p + 2 * len(_BERNOULLI) - 1)
    total = math.log1p(m / x) if p == 1 else d[p - 1] / (p - 1)
    total += d[p] / 2
    for k, b in enumerate(_BERNOULLI, start=1):
        rising = math.prod(range(p, p + 2 * k - 1))
        total += b * rising / math.factorial(2 * k) * d[p + 2 * k - 1]
    return total


def _spread_float(n: int, x: float) -> float:
    """G_n(x) = sum_{j<n} j/(x+j)^2 = H^1_n(x) - x H^2_n(x), without the
    cancellation of that difference.

    Small n is summed directly.  Otherwise the terms below x = 10 are added
    directly and the rest, over m terms from x' >= 10 to y = x' + m, is
    split as sum (j' + lead)/(x'+j')^2 = lead H^2_m(x') + G_m(x').  The
    Euler-Maclaurin tails of G_m(x') combine into log1p(m/x') - s with
    s = m/y (the positive series sum_{i>=2} s^i/i when s is small), minus
    m/(2y^2) and Bernoulli terms that stay below 1/(m-1) of the total.
    """
    if n <= 40:  # the expansion below needs m > 30
        return math.fsum(j / (x + j) ** 2 for j in range(1, n))
    lead = max(0, math.ceil(10.0 - x))
    terms = [j / (x + j) ** 2 for j in range(1, lead)]
    x, m = x + lead, n - lead
    y = x + m
    s = m / y
    if s < 0.1:
        main = math.fsum(s**i / i for i in range(2, 20))
    else:
        main = math.log1p(m / x) - s
    d = _inverse_gaps(m, x, 2 * len(_BERNOULLI) + 1)
    v = 1.0 / y
    corr = m * v * v / 2 + sum(
        b * ((2 * k - 1) / (2 * k) * d[2 * k] + m * v ** (2 * k + 1))
        for k, b in enumerate(_BERNOULLI, start=1)
    )
    terms += [lead * _harmonic_float(m, 2, x), main - corr]
    return math.fsum(terms)


def _moments(n: int, params, ls, with_var: bool) -> list[tuple]:
    """[(E, Var)] of K_n^(l) for each class label l in ls, Var None unless
    with_var; the formulas are given at :func:`class_moments`."""
    n = _at_least(n, 1, "n")
    if params.is_exact:
        return _moments_exact(n, params, ls, with_var)
    w = float(params.w)  # finite, by MutationParams
    flat = w >= 2.0**54 * n  # every w + j rounds to w, so q_j = theta_l / w
    if not flat:
        # the j = 0 terms, whose w^-p overflows at tiny w, are taken out as
        # q_0 = theta_l / w and q_0 r / w; the harmonic sums start at w + 1
        h1 = _harmonic_float(n - 1, 1, w + 1)
        if with_var:
            h2 = _harmonic_float(n - 1, 2, w + 1)
            spread = _spread_float(n, w)
    out = []
    for l in ls:
        th = params.thetas[l - 1]
        q0 = th / w
        var = None
        if with_var:
            rest = sum(params.thetas[: l - 1] + params.thetas[l:])
            var = (q0 * (n * (rest / w) + n * (n - 1) / 2 / w) if flat
                   else q0 * (rest / w) + th * (rest * h2 + spread))
        out.append((n * q0 if flat else q0 + th * h1, var))
    return out


def _moments_exact(n: int, params, ls, with_var: bool) -> list[tuple]:
    """:func:`_moments` for rational masses, from one lcm tree.  With
    w = a/b and H^p_n(w) = b^p S_p / L^p, each moment is one Fraction:
    E = theta_l b S_1 / L and Var = theta_l b (S_1 L - theta_l b S_2) / L^2."""
    w = Fraction(params.w)
    b = w.denominator
    lcm, sums = _harmonic_sums(n, w, (1, 2) if with_var else (1,))
    s1 = b * sums[0]
    out = []
    for l in ls:
        th = Fraction(params.thetas[l - 1])
        t, u = th.numerator, th.denominator
        var = None
        if with_var:
            var = Fraction(t * (u * s1 * lcm - t * b * b * sums[1]), (u * lcm) ** 2)
        out.append((Fraction(t * s1, u * lcm), var))
    return out


def _class_label(l, k: int) -> int:
    """The 1-based class label l as an int, checked to lie in 1..k."""
    l = _at_least(l, 1, "class label")
    if l > k:
        raise ValueError(f"class label must be in 1..{k}")
    return l


def _class_params(theta, l: int):
    params = _params(theta)
    return params, _class_label(l, params.k)


def expected_k(n: int, theta, l: int):
    """E[K_n^(l)] = theta_l * H_n^(1)(w); class label l is 1-based."""
    params, l = _class_params(theta, l)
    return _moments(n, params, [l], False)[0][0]


def var_k(n: int, theta, l: int):
    """Var[K_n^(l)] as in :func:`class_moments`; class label l is 1-based."""
    params, l = _class_params(theta, l)
    return _moments(n, params, [l], True)[0][1]


def class_moments(n: int, theta) -> list[tuple]:
    """[(E[K_n^(l)], Var[K_n^(l)]) for l = 1..k], sharing one H^1_n(w) and
    one H^2_n(w) between all classes.

    E[K_n^(l)] = theta_l H^1_n(w).  Var[K_n^(l)] = sum_{j<n} q_j (1 - q_j)
    with q_j = theta_l / (w + j), that is theta_l H^1_n(w) - theta_l^2
    H^2_n(w).  Decimal masses evaluate it as theta_l (r H^2_n(w) + G_n(w))
    with r = w - theta_l the mass of the other classes and one shared
    G_n(w) = sum_{j<n} j/(w+j)^2: both parts are sums of nonnegative terms,
    so a float variance is never negative and is exactly 0 at k = 1, n = 1.
    The j = 0 terms of the float sums come out as q_0 = theta_l/w in the
    mean and q_0 r/w in the variance, so that tiny masses stay finite.  At
    w >= 2^54 n, where w + j rounds to w, E = n q_0 and Var = q_0 (n r + n(n-1)/2)/w.
    Rational masses give exact Fractions, built from one lcm tree of H^1
    and H^2 (see :func:`_moments_exact`).
    """
    params = _params(theta)
    return _moments(n, params, range(1, params.k + 1), True)


@lru_cache(maxsize=4)
def _stirling_row(n: int) -> tuple[int, ...]:
    """|s(n, m)| for m = 0..n, built bottom-up from row 0 by
    |s(i+1, m)| = i |s(i, m)| + |s(i, m-1)|; only finished rows are cached."""
    row = [1]
    for i in range(n):
        row = [i * a + b for a, b in zip(row + [0], [0] + row)]
    return tuple(row)


def _stirling_guard(what: str, n: int, terms: int = 0):
    """The size guard for the Stirling row of n, n^2/2 steps on integers of up
    to log2 n! bits, and `terms` numerators of about 50 steps each on top."""
    _exact_work_guard(what, n * n // 2 + 50 * terms, math.lgamma(n + 1) / math.log(2))


def stirling_first(n: int, m: int) -> int:
    """Unsigned Stirling number of the first kind: permutations of n with m cycles."""
    n, m = _at_least(n, 0, "n"), _at_least(m, 0, "m")
    if m > n:
        return 0
    _stirling_guard(f"the Stirling row at n={n}", n)
    return _stirling_row(n)[m]


def joint_k_pmf(n: int, theta, ps: Sequence[int]):
    """Exact joint probability P(K_n^(1) = p_1, ..., K_n^(k) = p_k).

    Each allele takes class l on its own with probability theta_l / w, and
    P(K_n = K) = |s(n, K)| w^K / (w)_n, so with K = sum p_l this is
    |s(n, K)| K! / prod p_l! * prod theta_l^{p_l} / (w)_n.  Requires
    rational theta; returns a Fraction, N(ps) / D_n over the shared
    denominator of :mod:`multiewens.measure`.
    """
    params = _exact_params(theta, "joint law")
    n = _at_least(n, 0, "n")
    ps = tuple([_at_least(p, 0, "counts") for p in ps])
    if len(ps) != params.k:
        raise ValueError(f"need k={params.k} counts")
    _stirling_guard(f"the joint law at n={n}", n)
    q, scaled, d_n = _common(theta, n)
    return Fraction(_joint_k_numerator(n, ps, q, scaled), d_n)


def _joint_k_numerator(n: int, ps: tuple[int, ...], q: int, scaled) -> int:
    """|s(n, K)| K! / prod p_l! * prod (Q theta_l)^{p_l} * Q^{n-K}."""
    alleles = sum(ps)
    if alleles > n:
        return 0
    multinomial = math.factorial(alleles) // math.prod(map(math.factorial, ps))
    powers = math.prod(s**p for s, p in zip(scaled, ps))
    return _stirling_row(n)[alleles] * multinomial * powers * q ** (n - alleles)


def joint_k_check(n: int, k: int, theta) -> CheckReport:
    """Exact check that the joint law of (K_n^(1)..K_n^(k)) sums to one over
    its support sum_l p_l <= n: the numerators sum to D_n."""
    n, k = _at_least(n, 0, "n"), _at_least(k, 1, "k")
    _stirling_guard(f"the joint law check at n={n}, k={k}", n, math.comb(n + k, k))
    _, _, q, scaled, d_n = _exact_common(theta, k, n, "joint law check", None)
    total = sum(
        _joint_k_numerator(n, ps, q, scaled)
        for alleles in range(n + 1)
        for ps in compositions_of(alleles, k)
    )
    return _sum_report("joint-k", total, d_n)


def _check_beta(beta) -> None:
    """The one rule for a growth exponent beta: at least 0, NaN refused."""
    if not beta >= 0:
        raise ValueError(f"beta must be >= 0, got {_shown(beta)}")


@dataclass(frozen=True)
class RegimeSpec:
    """Mutation masses growing with the sample: theta_l(n) = alpha_l * n^beta."""

    beta: float
    alphas: tuple[float, ...]

    def __post_init__(self):
        alphas = tuple(self.alphas)
        object.__setattr__(self, "alphas", alphas)
        _check_beta(self.beta)
        if not _positive_finite(alphas):
            shown = ", ".join(map(_shown, alphas))
            raise ValueError(f"all alphas must be positive and finite, got ({shown})")

    @property
    def k(self) -> int:
        return len(self.alphas)

    @property
    def a_total(self) -> float:
        return sum(self.alphas)

    def thetas_at(self, n: int) -> tuple[float, ...]:
        return tuple(a * n**self.beta for a in self.alphas)


@dataclass(frozen=True)
class RegimePrediction:
    """Limit in probability of K_n^(l) / norm(n)."""

    limit: float
    normalization: str  # "n^beta*log(n)" or "n"

    def norm(self, n: int, beta: float) -> float:
        if self.normalization == "n^beta*log(n)":
            return n**beta * math.log(n)
        return float(n)


def regime_prediction(spec: RegimeSpec, l: int) -> RegimePrediction:
    """Growth-regime limit of the class-l allele count.

    beta < 1: K/(n^beta log n) -> alpha_l (1 - beta);
    beta = 1: K/n -> alpha_l log((1+A)/A) with A = sum alphas;
    beta > 1: K/n -> alpha_l / A.
    """
    a = spec.alphas[_class_label(l, spec.k) - 1]
    if spec.beta < 1:
        return RegimePrediction(a * (1 - spec.beta), "n^beta*log(n)")
    if spec.beta == 1:
        big_a = spec.a_total
        return RegimePrediction(a * math.log((1 + big_a) / big_a), "n")
    return RegimePrediction(a / spec.a_total, "n")


@dataclass(frozen=True)
class ClltScaling:
    """Per-class centering and variance for the normal limit of K_n^(l)."""

    centering: tuple[float, ...]
    variance: tuple[float, ...]


def clt_scaling(n: int, theta, beta: float) -> ClltScaling:
    """Centering/variance of the asymptotically normal K_n^(l).

    beta = 0 (constant masses): (theta_l log n, theta_l log n);
    0 < beta <= 3/2: (theta_l log(1+n/w), same minus n theta_l^2/(w(w+n)));
    beta > 3/2 (needs k >= 2): (n theta_l/w, n (theta_l/w)(1 - theta_l/w)).
    """
    n = _at_least(n, 1, "n")
    params = _params(theta)
    thetas = [float(t) for t in params.thetas]
    w = float(params.w)
    _check_beta(beta)
    if beta == 0:
        cent = tuple(t * math.log(n) for t in thetas)
        return ClltScaling(cent, cent)
    if beta <= 1.5:
        cent = tuple(t * math.log1p(n / w) for t in thetas)
        var = tuple(
            c - (t / w) * (n * t / (w + n)) for c, t in zip(cent, thetas)
        )
        if any(v <= 0 for v in var):
            raise UnsupportedRegimeError("degenerate variance in this regime")
        return ClltScaling(cent, var)
    if params.k == 1:
        raise UnsupportedRegimeError(
            "no normal limit for a single class with beta > 3/2"
        )
    cent = tuple(n * t / w for t in thetas)
    var = tuple(n * (t / w) * (1 - t / w) for t in thetas)
    return ClltScaling(cent, var)


def bernoulli_k_samples(
    n: int, theta, l: int, reps: int, seed: int
) -> np.ndarray:
    """Simulate K_n^(l) as its Bernoulli sum, vectorised across replicates.

    Each replicate sums n independent Bernoulli(p_j) draws with
    p_j = theta_l/(w+j), j = 0..n-1, and p_j decreases in j.  The head,
    where p_j >= 1/16, compares one uniform per replicate and position, in
    blocks of positions holding about 2**19 uniforms each.
    The tail is sampled exactly by thinning, in O(successes) per replicate:
    from position j with bound q = p_j >= p_c for every c >= j, jump a
    Geometric(q) number of positions to a candidate c, count it with
    probability p_c/q, and restart at c + 1.  Every tail step is one numpy
    call over the replicates still short of n.
    """
    n, reps = _at_least(n, 1, "n"), _at_least(reps, 0, "reps")
    params, l = _class_params(theta, l)
    th = float(params.thetas[l - 1])
    w = float(params.w)
    rng = _numpy_rng(seed)
    # p_j >= 1/16 exactly when j <= 16 theta_l - w, capped first as 16 theta_l may be inf
    head = max(0, math.floor(min(16 * th - w, n - 1)) + 1)
    probs = th / (w + np.arange(head, dtype=float))
    block = max(1, _HEAD_BLOCK // max(reps, 1))
    out = np.zeros(reps, dtype=np.int64)
    for start in range(0, head, block):
        p = probs[start : start + block, None]
        out += (rng.random((p.size, reps)) < p).sum(axis=0)
    live = np.arange(reps if head < n else 0)
    pos = np.full(live.size, head, dtype=np.int64)
    while live.size:
        q = th / (w + pos)  # a bound that underflows to 0 ends the replicate's successes
        cand = pos + rng.geometric(np.where(q > 0, q, 1.0)) - 1
        inside = (cand < n) & (q > 0)
        live, pos, cand = live[inside], pos[inside], cand[inside]
        out[live] += rng.random(live.size) * (w + cand) < w + pos
        pos = cand + 1
    return out
