"""Moments, joint law, and asymptotic regimes of per-class allele counts.

K_n^(l), the number of distinct class-l alleles in an n-sample, is a sum of
independent Bernoulli indicators with success probabilities
theta_l / (w + j - 1), j = 1..n.  That identity yields closed-form moments,
an exact joint law through Stirling cycle counts, growth-regime limits when
theta_l = alpha_l n^beta, and an O(n)-per-replicate simulator for central
limit checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

from .measure import _exact_params, _params, _product
from .partitions import compositions_of

__all__ = [
    "harmonic_h",
    "expected_k",
    "var_k",
    "stirling_first",
    "joint_k_pmf",
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


def harmonic_h(n: int, p: int, x):
    """Generalized harmonic tail sum_{j=0}^{n-1} (x+j)^{-p} for x > 0.

    Exact for Fraction x; float inputs use compensated summation.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if p < 1:
        raise ValueError("p must be >= 1")
    if x <= 0:
        raise ValueError("x must be positive")
    if isinstance(x, (int, Fraction)):
        xf = Fraction(x)
        return sum(1 / (xf + j) ** p for j in range(n))
    return math.fsum(1.0 / (x + j) ** p for j in range(n))


def expected_k(n: int, theta, l: int):
    """E[K_n^(l)] = theta_l * H_n^(1)(w); class label l is 1-based."""
    params = _params(theta)
    if not 1 <= l <= params.k:
        raise ValueError(f"class label must be in 1..{params.k}")
    th = params.thetas[l - 1]
    return th * harmonic_h(n, 1, params.w)


def var_k(n: int, theta, l: int):
    """Var[K_n^(l)] = theta_l H_n^(1)(w) - theta_l^2 H_n^(2)(w)."""
    params = _params(theta)
    if not 1 <= l <= params.k:
        raise ValueError(f"class label must be in 1..{params.k}")
    th = params.thetas[l - 1]
    w = params.w
    return th * harmonic_h(n, 1, w) - th * th * harmonic_h(n, 2, w)


@lru_cache(maxsize=None)
def _stirling_row(n: int) -> tuple[int, ...]:
    if n == 0:
        return (1,)
    prev = _stirling_row(n - 1)
    row = [0] * (n + 1)
    for m in range(n + 1):
        val = 0
        if m <= n - 1:
            val += (n - 1) * prev[m]
        if m >= 1:
            val += prev[m - 1]
        row[m] = val
    return tuple(row)


def stirling_first(n: int, m: int) -> int:
    """Unsigned Stirling number of the first kind: permutations of n with m cycles."""
    if n < 0 or m < 0:
        raise ValueError("n and m must be nonnegative")
    if m > n:
        return 0
    return _stirling_row(n)[m]


def joint_k_pmf(n: int, theta, ps: Sequence[int]):
    """Exact joint probability P(K_n^(1) = p_1, ..., K_n^(k) = p_k).

    n! theta_1^{p_1}...theta_k^{p_k} / (w)_n times the sum over size
    compositions of prod [n_l choose-cycles p_l] / n_l!.  Requires rational
    theta; returns a Fraction.
    """
    params = _exact_params(theta, "joint law")
    ps = tuple(int(p) for p in ps)
    if len(ps) != params.k:
        raise ValueError(f"need k={params.k} counts")
    if any(p < 0 for p in ps):
        raise ValueError("counts must be nonnegative")
    # n! times the composition sum is an integer: it counts the permutations
    # of n with their cycles split into classes holding p_1..p_k cycles
    colourings = sum(
        math.factorial(n) // math.prod(map(math.factorial, sizes))
        * math.prod(map(stirling_first, sizes, ps))
        for sizes in compositions_of(n, params.k)
    )
    powers = [*zip(params.thetas, ps), (colourings, 1)]
    return _product(True, powers, [(params.w, (n,), -1)])


@dataclass(frozen=True)
class RegimeSpec:
    """Mutation masses growing with the sample: theta_l(n) = alpha_l * n^beta."""

    beta: float
    alphas: tuple[float, ...]

    def __post_init__(self):
        alphas = tuple(self.alphas)
        object.__setattr__(self, "alphas", alphas)
        if self.beta < 0:
            raise ValueError("beta must be >= 0")
        if any(a <= 0 for a in alphas):
            raise ValueError("all alphas must be positive")

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
    if not 1 <= l <= spec.k:
        raise ValueError(f"class label must be in 1..{spec.k}")
    a = spec.alphas[l - 1]
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
    params = _params(theta)
    thetas = [float(t) for t in params.thetas]
    w = float(params.w)
    if beta < 0:
        raise ValueError("beta must be >= 0")
    if beta == 0:
        cent = tuple(t * math.log(n) for t in thetas)
        return ClltScaling(cent, cent)
    if beta <= 1.5:
        cent = tuple(t * math.log1p(n / w) for t in thetas)
        var = tuple(
            c - n * t * t / (w * (w + n)) for c, t in zip(cent, thetas)
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
    n: int, theta, l: int, reps: int, seed: int, block: int = 0
) -> np.ndarray:
    """Simulate K_n^(l) as its Bernoulli sum, vectorised across replicates.

    Each replicate sums n independent Bernoulli(theta_l/(w+j-1)) draws,
    j = 1..n; O(n) per replicate with no urn bookkeeping.  Work proceeds
    over column blocks to bound memory.
    """
    params = _params(theta)
    if not 1 <= l <= params.k:
        raise ValueError(f"class label must be in 1..{params.k}")
    th = float(params.thetas[l - 1])
    w = float(params.w)
    probs = th / (w + np.arange(n, dtype=float))
    rng = np.random.default_rng(seed)
    if block <= 0:
        block = max(1, 8_000_000 // max(reps, 1))
    out = np.zeros(reps, dtype=np.int64)
    for start in range(0, n, block):
        p = probs[start : start + block]
        u = rng.random((reps, p.size))
        out += (u < p).sum(axis=1)
    return out
