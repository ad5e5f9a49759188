import math
from fractions import Fraction

import numpy as np
import pytest

from multiewens.measure import pochhammer
from multiewens.poisson import (
    conditional_identity_check,
    poisson_matrix_sample,
    truncated_tv_distance,
)

from oracles import enumeration_tv_distance

F = Fraction


class TestPoissonMatrixSampler:
    def test_entry_means(self):
        reps = 100_000
        draws = poisson_matrix_sample(3, (1.0, 2.0), seed=5, reps=reps)
        assert draws.shape == (reps, 3, 2)
        for j in range(3):
            for l, th in enumerate((1.0, 2.0)):
                lam = th / (j + 1)
                se = math.sqrt(lam / reps)
                assert abs(draws[:, j, l].mean() - lam) < 4 * se

    def test_entries_uncorrelated(self):
        reps = 100_000
        draws = poisson_matrix_sample(2, (1.0, 2.0), seed=9, reps=reps).reshape(reps, -1)
        corr = np.corrcoef(draws.T)
        off_diag = corr[~np.eye(4, dtype=bool)]
        assert np.abs(off_diag).max() < 4 / math.sqrt(reps)

    def test_zero_probability(self):
        reps = 200_000
        draws = poisson_matrix_sample(2, (1.0, 3.0), seed=13, reps=reps)
        for j in range(2):
            for l, th in enumerate((1.0, 3.0)):
                lam = th / (j + 1)
                frac0 = float((draws[:, j, l] == 0).mean())
                want = math.exp(-lam)
                se = math.sqrt(want * (1 - want) / reps)
                assert abs(frac0 - want) < 4 * se

    def test_single_draw_shape(self):
        assert poisson_matrix_sample(4, (1.0, 2.0), seed=0).shape == (4, 2)

    def test_validation(self):
        with pytest.raises(ValueError, match="m must be >= 1"):
            poisson_matrix_sample(0, (F(1),), seed=0)
        with pytest.raises(ValueError, match="positive and finite"):
            poisson_matrix_sample(2, (F(0),), seed=0)
        with pytest.raises(ValueError, match="positive and finite"):
            poisson_matrix_sample(2, (math.nan, 1.0), seed=0, reps=3)


class TestConditionalIdentity:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_k2(self, n):
        assert conditional_identity_check(n, 2, (F(1), F(2))).ok

    def test_k3(self):
        for n in range(1, 9):
            assert conditional_identity_check(n, 3, (F(1), F(2), F(3))).ok

    def test_n1_reduces_to_single_draw(self):
        report = conditional_identity_check(1, 2, (F(2), F(5)))
        assert report.ok

    def test_sum_identity_value(self):
        # the normalizing constant of the weight sum is (w)_n / n!
        n = 6
        th = (F(1), F(1))
        from multiewens.partitions import (
            enumerate_multipartitions,
            multipartition_to_matrix,
        )

        total = F(0)
        for part in enumerate_multipartitions(n, 2):
            matrix = multipartition_to_matrix(part)
            weight = F(1)
            for j in range(1, n + 1):
                for l in (1, 2):
                    a = matrix.count(j, l)
                    if a:
                        weight *= (F(th[l - 1]) / j) ** a / math.factorial(a)
            total += weight
        assert total == pochhammer(F(2), n) / math.factorial(n)

    def test_needs_rational(self):
        with pytest.raises(ValueError):
            conditional_identity_check(3, 2, (1.0, 2.0))

    def test_masses_checked_once(self, monkeypatch):
        from multiewens import measure, poisson

        calls = []
        real = measure._exact_params

        def counting(theta, what):
            calls.append(what)
            return real(theta, what)

        monkeypatch.setattr(measure, "_exact_params", counting)
        monkeypatch.setattr(poisson, "_exact_params", counting)
        assert conditional_identity_check(4, 2, (F(1), F(3, 7))).ok
        assert len(calls) == 1


class TestTruncatedTV:
    def test_bounds(self):
        for n in (4, 6):
            tv = truncated_tv_distance(n, 2, (F(1), F(1)))
            assert 0.0 <= tv <= 1.0

    def test_monotone_decrease_in_n(self):
        vals = [truncated_tv_distance(n, 2, (F(1), F(1))) for n in (6, 9, 12)]
        assert vals[0] > vals[1] > vals[2]

    def test_full_window_positive(self):
        # conditioned and unconditioned laws differ at m = n
        tv = truncated_tv_distance(5, 5, (F(1), F(2)))
        assert tv > 0.0

    def test_m_validation(self):
        with pytest.raises(ValueError):
            truncated_tv_distance(4, 5, (F(1),))
        with pytest.raises(ValueError):
            truncated_tv_distance(4, 0, (F(1),))

    def test_single_row_matches_hand_computation(self):
        # m=1, k=1: marginal of a_1 vs Poisson(theta) on {0..n}
        n, th = 5, F(1)
        from multiewens.measure import refined_esf_pmf
        from multiewens.partitions import (
            enumerate_multipartitions,
            multipartition_to_matrix,
        )

        marg = {}
        for part in enumerate_multipartitions(n, 1):
            a1 = multipartition_to_matrix(part).count(1, 1)
            marg[a1] = marg.get(a1, F(0)) + refined_esf_pmf(part, (th,))
        lam = 1.0
        tv = 0.0
        pois_mass = 0.0
        for a in range(n + 1):
            pa = math.exp(-lam) * lam**a / math.factorial(a)
            pois_mass += pa
            tv += abs(float(marg.get(a, F(0))) - pa)
        tv = 0.5 * (tv + 1.0 - pois_mass)
        assert truncated_tv_distance(n, 1, (th,)) == pytest.approx(tv, abs=1e-12)


class TestTVByConditioning:
    """truncated_tv_distance against the enumeration over every multiple
    partition and Poisson window cell, and at sizes the enumeration cannot
    reach."""

    @pytest.mark.parametrize("n,m,th", [
        (6, 2, (F(1), F(1))),
        (9, 2, (F(1, 3), F(5, 2))),
        (12, 2, (F(1), F(1))),
        (8, 3, (F(7, 10), F(13, 10))),
        (7, 1, (F(1), F(2))),
        (5, 5, (F(1), F(2))),
        (6, 2, (F(1), F(2), F(3))),
        (7, 1, (F(1, 3), F(2), F(5, 7))),
    ])
    def test_matches_enumeration(self, n, m, th):
        tv = truncated_tv_distance(n, m, th)
        assert 0.0 <= tv <= 1.0
        assert tv == pytest.approx(enumeration_tv_distance(n, m, th), abs=1e-10)

    @pytest.mark.parametrize("n", [100, 1_000, 10_000])
    def test_rate_order_m_over_n(self, n):
        # pre-registered: n * TV in [5.0, 5.6] at theta = (1, 2), m = 5
        tv = truncated_tv_distance(n, 5, (F(1), F(2)))
        assert 0.0 <= tv <= 1.0
        assert 5.0 <= n * tv <= 5.6

    def test_large_mass_stays_in_range(self):
        # exp(-w H_m) underflows at w = 1000, m = 10
        tv = truncated_tv_distance(10_000, 10, (500.0, 500.0))
        assert math.isfinite(tv) and 0.0 <= tv <= 1.0
