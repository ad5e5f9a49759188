"""Independent-Poisson structure of the allele-count matrix.

Conditionally on sum_{l,j} j * eta_j(theta_l) = n, a grid of independent
Poisson(theta_l/j) variables reproduces the k-class Ewens law of the count
matrix exactly; unconditionally, any fixed number of leading rows converges
to the independent Poisson grid as n grows.  Both facts are checked here at
desk scale, the first in exact rationals, the second through truncated
total-variation distances.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .measure import CheckReport, _exact_params, _params, pochhammer, refined_esf_pmf
from .partitions import enumerate_multipartitions, multipartition_to_matrix

__all__ = [
    "PoissonMatrixLaw",
    "poisson_matrix_sample",
    "conditional_identity_check",
    "truncated_tv_distance",
]


@dataclass(frozen=True)
class PoissonMatrixLaw:
    """Independent Poisson grid with mean theta_l / j at row j, class l."""

    m: int
    thetas: tuple

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be >= 1")
        thetas = tuple(self.thetas)
        object.__setattr__(self, "thetas", thetas)
        if any(t <= 0 for t in thetas):
            raise ValueError("all means must be positive")

    def means(self) -> tuple[tuple[float, ...], ...]:
        return tuple(
            tuple(float(t) / j for t in self.thetas) for j in range(1, self.m + 1)
        )


def poisson_matrix_sample(m: int, theta, seed: int, reps: int | None = None):
    """Draw the m-by-k grid of independent Poisson(theta_l/j) entries.

    With reps=None returns one (m, k) array; otherwise (reps, m, k).
    """
    law = PoissonMatrixLaw(m, _params(theta).thetas)
    lam = np.asarray(law.means(), dtype=float)
    rng = np.random.default_rng(seed)
    if reps is None:
        return rng.poisson(lam)
    return rng.poisson(lam, size=(reps, m, len(law.thetas)))


def conditional_identity_check(n: int, k: int, theta) -> CheckReport:
    """Exact check of the conditional-Poisson representation at size n.

    Two rational identities, with the exponential prefactors cancelled
    symbolically since they appear on both sides:

      * sum over count matrices of prod (theta_l/j)^a / a!  ==  (w)_n / n!
      * for each matrix, the Ewens probability equals its Poisson product
        weight divided by that normalizer.
    """
    params = _exact_params(theta, "conditional identity check")
    thetas = [Fraction(t) for t in params.thetas]
    normalizer = pochhammer(Fraction(params.w), n) / math.factorial(n)
    failures = []
    total = Fraction(0)
    for part in enumerate_multipartitions(n, k):
        matrix = multipartition_to_matrix(part)
        weight = Fraction(1)
        for j in range(1, n + 1):
            for l in range(1, k + 1):
                a = matrix.count(j, l)
                if a:
                    weight *= (thetas[l - 1] / j) ** a / math.factorial(a)
        total += weight
        pmf = refined_esf_pmf(part, params)
        if pmf != weight / normalizer:
            failures.append(
                f"matrix of {part}: conditional weight {weight / normalizer}"
                f" != pmf {pmf}"
            )
    if total != normalizer:
        failures.append(
            f"sum of Poisson weights {total} != (w)_n/n! = {normalizer}"
        )
    return CheckReport("conditional-poisson", not failures, tuple(failures))


def _poisson_logpmf(a: int, lam: float) -> float:
    return a * math.log(lam) - lam - math.lgamma(a + 1)


def truncated_tv_distance(n: int, m: int, theta) -> float:
    """Total variation between the first m rows of the count matrix and
    the independent Poisson grid, on the window of entries <= n.

    The Ewens-side marginal is aggregated by exact enumeration; the Poisson
    mass outside the window (where the Ewens marginal vanishes) is added in
    full.  Feasible for desk-scale n.
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
