"""Independent-Poisson structure of the allele-count matrix.

Conditionally on sum_{l,j} j * eta_j(theta_l) = n, a grid of independent
Poisson(theta_l/j) variables reproduces the k-class Ewens law of the count
matrix exactly; unconditionally, any fixed number of leading rows converges
to the independent Poisson grid as n grows.  The first fact is checked in
exact rationals at desk scale, the second by the total variation of the
leading rows, which costs O(n*m) at any n through the conditioning relation.
Masses are checked once, as :class:`~multiewens.measure.MutationParams`.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from . import measure
from .measure import CheckReport, _params
from .partitions import _at_least, enumerate_multipartitions
from .samplers import _numpy_rng

__all__ = [
    "poisson_matrix_sample",
    "conditional_identity_check",
    "truncated_tv_distance",
]


def poisson_matrix_sample(m: int, theta, seed: int, reps: int | None = None):
    """Draw the m-by-k grid of independent Poisson(theta_l/j) entries, j = 1..m.

    With reps=None returns one (m, k) array; otherwise (reps, m, k).
    """
    m = _at_least(m, 1, "m")
    thetas = _params(theta).thetas
    lam = np.array([[float(t) / j for t in thetas] for j in range(1, m + 1)])
    rng = _numpy_rng(seed)
    if reps is None:
        return rng.poisson(lam)
    return rng.poisson(lam, size=(_at_least(reps, 0, "reps"), m, len(thetas)))


def conditional_identity_check(n: int, k: int, theta) -> CheckReport:
    """Exact check of the conditional-Poisson representation at size n.

    Two rational identities, with the exponential prefactors cancelled
    symbolically since they appear on both sides:

      * sum over count matrices of prod (theta_l/j)^a / a!  ==  (w)_n / n!
      * for each matrix, the Ewens probability equals its Poisson product
        weight divided by that normalizer.

    The weight is read from the row multiplicities as top / bottom =
    prod (Q theta_l)^a / prod (Qj)^a a!, and both identities are compared
    cross-multiplied as integers, using (w)_n / n! = D_n / (Q^n n!): the
    second is N(p) * bottom == top * Q^n n!, with N(p) the numerator of the
    Ewens law over D_n.
    """
    n, k, q, scaled, d_n = measure._exact_common(theta, k, n, "conditional identity check")
    scale = q**n * math.factorial(n)
    failures = []
    total = 0
    for part in enumerate_multipartitions(n, k):
        top = bottom = 1
        for s, comp in zip(scaled, part.components):
            for j, a in comp.multiplicities().items():
                top *= s**a
                bottom *= (q * j) ** a * math.factorial(a)
        total += top * scale // bottom  # an integer: weight * Q^n n!
        numerator = measure._esf_numerator(part.components, q, scaled)
        if numerator * bottom != top * scale:
            failures.append(
                f"matrix of {part}: conditional weight"
                f" {Fraction(top * scale, bottom * d_n)} != pmf {Fraction(numerator, d_n)}"
            )
    if total != d_n:
        failures.append(
            f"sum of Poisson weights {Fraction(total, scale)}"
            f" != (w)_n/n! = {Fraction(d_n, scale)}"
        )
    return CheckReport("conditional-poisson", not failures, tuple(failures))


def truncated_tv_distance(n: int, m: int, theta) -> float:
    """Total variation between the first m rows of the count matrix and
    the independent Poisson grid, in O(n*m) float operations at any n.

    Class labels drop out by Poisson thinning, so this is the distance of
    the classical Ewens(w) counts C_1..C_m from independent Poisson(w/j)
    Z_j.  By the conditioning relation, with T_bn = sum_{b<j<=n} j Z_j,

      TV = sum_{r<=n} P(T_0m = r) (P(T_mn = n-r) / P(T_0n = n) - 1)^+,

    and each law of T follows r P(T=r) = w sum_{b<j<=min(r,n)} P(T=r-j), a
    prefix sum for T_mn.  Both are carried in log space from P(T=0) = 1,
    which cancels exp(-w H_n) from P(T_0n = n) = exp(-w H_n) (w)_n / n!.
    """
    m, n = _at_least(m, 1, "m"), _at_least(n, 1, "n")
    if m > n:
        raise ValueError("m must not exceed n")
    w = float(_params(theta).w)
    log_w = math.log(w)
    # head[r] = log P(T_0m = r) + w H_m
    head = [0.0]
    for r in range(1, n + 1):
        head.append(log_w - math.log(r) + _log_sum(head[max(0, r - m):]))
    # tail[s] = log P(T_mn = s) + w (H_n - H_m), prefix[s] = log sum_{t<=s} of it
    tail, prefix = [0.0], [0.0]
    for s in range(1, n + 1):
        tail.append(log_w - math.log(s) + prefix[s - m - 1] if s > m else -math.inf)
        prefix.append(_log_sum((prefix[-1], tail[s])))
    log_norm = math.fsum(math.log((i + 1) / (w + i)) for i in range(n))  # n!/(w)_n
    log_p0 = -w * math.fsum(1.0 / j for j in range(1, m + 1))  # log P(T_0m = 0)
    tv = math.fsum(
        max(0.0, math.exp(h + tail[n - r] + log_norm) - math.exp(h + log_p0))
        for r, h in enumerate(head)
    )
    return min(tv, 1.0)


def _log_sum(logs) -> float:
    """log sum exp over a nonempty sequence with a finite largest entry."""
    top = max(logs)
    return top + math.log(sum(math.exp(x - top) for x in logs))
