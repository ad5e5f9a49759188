import math
from fractions import Fraction

import numpy as np
import pytest

from multiewens.allele_stats import (
    RegimeSpec,
    UnsupportedRegimeError,
    bernoulli_k_samples,
    class_moments,
    clt_scaling,
    expected_k,
    harmonic_h,
    joint_k_check,
    joint_k_pmf,
    regime_prediction,
    stirling_first,
    var_k,
)
from multiewens.measure import refined_esf_pmf
from multiewens.partitions import enumerate_multipartitions
from multiewens.samplers import hoppe_urn_partition_counts

from oracles import harmonic_product_split

F = Fraction


class TestHarmonic:
    def test_single_term(self):
        assert harmonic_h(1, 3, F(2)) == F(1, 8)

    def test_harmonic_numbers(self):
        for n in range(1, 12):
            want = sum(F(1, j) for j in range(1, n + 1))
            assert harmonic_h(n, 1, F(1)) == want

    def test_float_matches_rational(self):
        got = harmonic_h(50, 2, 1.5)
        want = float(harmonic_h(50, 2, F(3, 2)))
        assert got == pytest.approx(want, rel=1e-14)

    def test_bounds_sweep(self):
        # log-comparison bounds, strict on the tested grid (the H2 upper
        # bound degenerates to an equality at n=1 and is excluded there)
        for x in (0.1, 0.2, 0.5, 1.0, 2.0, 3.0, 10.0, 30.0, 100.0):
            for n in (1, 2, 3, 10, 100, 1000, 10_000):
                h1 = harmonic_h(n, 1, x)
                gap = h1 - math.log1p(n / x)
                assert n / (2 * x * (x + n)) < gap < n / (x * (x + n))
                h2 = harmonic_h(n, 2, x)
                assert n / (x * (x + n)) < h2
                if n > 1:
                    assert h2 < 1 / x**2 + (n - 1) / (x * (x + n - 1))

    def test_validation(self):
        with pytest.raises(ValueError):
            harmonic_h(0, 1, 1.0)
        with pytest.raises(ValueError):
            harmonic_h(3, 1, 0.0)

    @pytest.mark.parametrize("x", [math.nan, math.inf])
    def test_rejects_non_finite_x(self, x):
        with pytest.raises(ValueError, match="positive and finite"):
            harmonic_h(3, 1, x)

    def test_float_matches_fsum_grid(self):
        xs = [1e-3, 1e-2, 0.1, 0.5, 1.0, 7.3, 9.99, 10.0, 19.5, 1e2, 1e3, 1e4, 1e5, 1e6]
        for x in xs:
            for n in (1, 2, 3, 10, 41, 100, 1000, 10_000, 100_000):
                for p in (1, 2):
                    want = math.fsum(1.0 / (x + j) ** p for j in range(n))
                    assert harmonic_h(n, p, x) == pytest.approx(want, rel=1e-13)

    def test_exact_matches_fraction_sum(self):
        for x in (F(1), F(7, 3), F(1, 10), 5):
            for p in (1, 2, 3):
                plain = F(0)
                for n in range(1, 201):
                    plain += 1 / (F(x) + n - 1) ** p
                    assert harmonic_h(n, p, x) == plain

    def test_exact_guard_refuses_huge_sums(self):
        with pytest.raises(ValueError, match="float route"):
            harmonic_h(10**6, 1, F(7, 3))
        with pytest.raises(ValueError, match="float route"):
            harmonic_h(10**6, 2, F(7, 3))

    # n straddles the 32-term leaves and the first tree nodes of the lcm split
    @pytest.mark.parametrize("n", [1, 2, 31, 32, 33, 64, 65, 200, 3000])
    def test_exact_matches_product_split_oracle(self, n):
        for x in (1, 5, F(7, 3), F(1, 10), F(32732, 15005)):
            for p in (1, 2, 3):
                got = harmonic_h(n, p, x)
                assert type(got) is F
                assert got == harmonic_product_split(n, p, x)

    @pytest.mark.parametrize("x", [1.0, F(1)])
    def test_rejects_fractional_n(self, x):
        with pytest.raises(ValueError, match="integers"):
            harmonic_h(2.5, 1, x)

    @pytest.mark.parametrize("x", [0.5, F(1, 2)])
    def test_rejects_fractional_p(self, x):
        with pytest.raises(ValueError, match="integers"):
            harmonic_h(3, 1.5, x)

    def test_numpy_integers_pass(self):
        assert harmonic_h(np.int64(40), np.int32(2), F(7, 3)) == harmonic_h(40, 2, F(7, 3))
        assert harmonic_h(np.int64(40), np.int32(2), 0.5) == harmonic_h(40, 2, 0.5)


class TestMoments:
    def test_single_draw(self):
        th = (F(1), F(3))
        assert expected_k(1, th, 1) == F(1, 4)
        assert var_k(1, th, 1) == F(1, 4) * (1 - F(1, 4))

    def test_total_types_linearity(self):
        th = (F(1), F(2), F(3))
        n = 20
        total = sum(expected_k(n, th, l) for l in (1, 2, 3))
        assert total == 6 * harmonic_h(n, 1, F(6))

    def test_k1_reduces_to_classical(self):
        th = (F(2),)
        for n in (1, 5, 30):
            assert expected_k(n, th, 1) == 2 * harmonic_h(n, 1, F(2))
            assert var_k(n, th, 1) == \
                2 * harmonic_h(n, 1, F(2)) - 4 * harmonic_h(n, 2, F(2))

    def test_variance_nonnegative_grid(self):
        masses = (1e-3, 0.1, 1.0, 7.3, 50.0, 1e4)
        grid = [(t,) for t in masses] + [(a, b) for a in masses for b in masses]
        for th in grid:
            for n in (1, 2, 3, 10, 40, 41, 100, 1000, 10**5, 10**6):
                for l in range(1, len(th) + 1):
                    assert var_k(n, th, l) >= 0.0
        assert var_k(1, (7.3,), 1) == 0.0
        for t in masses:
            assert var_k(1, (t,), 1) == 0.0

    def test_float_variance_matches_exact(self):
        # Fraction(t) is the float's exact value, so both routes see one input
        for th in ((7.3,), (1e-3, 2.5), (0.5, 1e4), (3.0, 1e-3, 40.0)):
            exact = tuple(F(t) for t in th)
            for n in (1, 2, 5, 40, 41, 300, 1000):
                for l in range(1, len(th) + 1):
                    want = var_k(n, exact, l)
                    got = var_k(n, th, l)
                    assert got == pytest.approx(float(want), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("fn, n, t, want", [
        (var_k, 10, 1e-160, 0.25),
        (expected_k, 10, 1e-310, 0.5),
        (var_k, 1000, 5e-324, 0.25),
    ])
    def test_tiny_masses_stay_finite(self, fn, n, t, want):
        # the j = 0 term's (w + j)^-p overflows once w is tiny
        assert fn(n, (t, t), 1) == pytest.approx(want, rel=1e-12)

    def test_tiny_mass_class_moments(self):
        assert class_moments(1000, (5e-324, 5e-324)) == [pytest.approx((0.5, 0.25))] * 2

    def test_masses_with_infinite_sum_rejected(self):
        with pytest.raises(ValueError, match="finite sum"):
            class_moments(5, (1e308, 1e308))

    def test_label_validation(self):
        with pytest.raises(ValueError):
            expected_k(5, (F(1), F(2)), 0)
        with pytest.raises(ValueError):
            var_k(5, (F(1), F(2)), 3)

    @pytest.mark.parametrize("fn", [expected_k, var_k])
    @pytest.mark.parametrize("th", [(1, 2), (1.0, 2.0)])
    def test_rejects_fractional_n(self, fn, th):
        with pytest.raises(ValueError, match="integers"):
            fn(2.5, th, 1)

    @pytest.mark.parametrize("fn", [expected_k, var_k])
    @pytest.mark.parametrize("th", [(F(1, 3), F(2)), (0.5, 2.0)])
    def test_rejects_fractional_label(self, fn, th):
        with pytest.raises(ValueError, match="integers"):
            fn(10, th, 1.0)

    def test_numpy_integers_pass(self):
        th = (F(1, 3), F(2))
        assert expected_k(np.int64(10), th, np.int32(2)) == expected_k(10, th, 2)
        assert var_k(np.int64(10), th, np.int32(2)) == var_k(10, th, 2)

    def test_guard_boundary_at_n_31000(self):
        # p = 1 needs 31000 * 17 = 527,000 bits and fits under 2**20; p = 2
        # needs twice that, so a variance is refused before any work
        th = (F(1, 3), F(2))
        e = expected_k(31_000, th, 1)
        assert type(e) is F
        assert float(e) == pytest.approx(float(expected_k(31_000, (1 / 3, 2.0), 1)), rel=1e-12)
        with pytest.raises(ValueError, match="float route"):
            var_k(31_000, th, 1)
        with pytest.raises(ValueError, match="float route"):
            class_moments(31_000, th)

    def test_moments_match_urn_mc(self):
        th = (0.7, 1.3)
        n, reps = 50, 30_000
        counts = hoppe_urn_partition_counts(n, th, reps, seed=2)
        ks = []
        weights = []
        for part, c in counts.items():
            ks.append(part.components[0].n_rows)
            weights.append(c)
        ks = np.array(ks, dtype=float)
        weights = np.array(weights, dtype=float)
        mean = float((ks * weights).sum() / reps)
        var = float((ks**2 * weights).sum() / reps - mean**2)
        e_th = expected_k(n, th, 1)
        v_th = var_k(n, th, 1)
        se_mean = math.sqrt(v_th / reps)
        assert abs(mean - e_th) < 3 * se_mean
        # variance of the sample variance, normal-ish bound
        se_var = v_th * math.sqrt(2 / (reps - 1)) * 2
        assert abs(var - v_th) < 3 * se_var


class TestStirlingFirst:
    def test_diagonal(self):
        for n in range(12):
            assert stirling_first(n, n) == 1

    def test_3_2(self):
        assert stirling_first(3, 2) == 3

    def test_single_cycle(self):
        for n in range(1, 12):
            assert stirling_first(n, 1) == math.factorial(n - 1)

    def test_row_sums_are_factorials(self):
        for n in range(9):
            assert sum(stirling_first(n, m) for m in range(n + 1)) == \
                math.factorial(n)

    def test_out_of_range(self):
        assert stirling_first(3, 5) == 0
        with pytest.raises(ValueError):
            stirling_first(-1, 0)

    @pytest.mark.parametrize("n,m", [(4.5, 1), (4, 1.0)])
    def test_rejects_non_integer_arguments(self, n, m):
        # a float m once reached the row as a tuple index
        with pytest.raises(ValueError, match="integers"):
            stirling_first(n, m)

    def test_large_row_without_recursion(self):
        # the row is built bottom-up, so a cold call at n = 600 does not
        # exhaust the Python stack; its entries still count all permutations
        assert sum(stirling_first(600, m) for m in range(601)) == math.factorial(600)
        assert stirling_first(600, 1) == math.factorial(599)
        assert stirling_first(600, 599) == 600 * 599 // 2


class TestJointLaw:
    @pytest.mark.parametrize("n,k", [(n, k) for n in (1, 4, 7, 10) for k in (1, 2, 3)])
    def test_sums_to_one(self, n, k):
        th = (F(1), F(2), F(3))[:k]
        total = sum(
            joint_k_pmf(n, th, ps)
            for ps in np.ndindex(*([n + 1] * k))
        )
        assert total == 1

    @pytest.mark.parametrize("n,th", [
        *(pytest.param(n, (F(1), F(2)), id=str(n)) for n in range(1, 9)),
        *(pytest.param(n, (F(1, 3), F(2), F(5, 7)), id=f"k3-{n}") for n in range(1, 7)),
    ])
    def test_matches_partition_law_aggregation(self, n, th):
        agg = {}
        for p in enumerate_multipartitions(n, len(th)):
            key = tuple(c.n_rows for c in p.components)
            agg[key] = agg.get(key, F(0)) + refined_esf_pmf(p, th)
        for key, mass in agg.items():
            assert joint_k_pmf(n, th, key) == mass

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError, match="n must be >= 0"):
            joint_k_pmf(-1, (F(1), F(2)), (0, 0))

    def test_rejects_fractional_n(self):
        with pytest.raises(ValueError, match="integers"):
            joint_k_pmf(2.5, (1, 2), (1, 1))

    def test_check_rejects_fractional_n(self):
        with pytest.raises(ValueError, match="integers"):
            joint_k_check(2.5, 2, (1, 2))

    @pytest.mark.parametrize("ps", [(1.5, 1), (True, 1), ("1", 1), (np.float64(1.0), 1)],
                             ids=["float", "bool", "str", "numpy-float"])
    def test_counts_must_be_integers(self, ps):
        # int() would read (1.5, 1) as (1, 1) and return P(1, 1) = 1/5
        with pytest.raises(ValueError, match="counts must be integers"):
            joint_k_pmf(3, (1, 2), ps)

    def test_numpy_counts_pass(self):
        assert joint_k_pmf(3, (1, 2), (np.int64(1), np.uint8(1))) == joint_k_pmf(3, (1, 2), (1, 1))

    def test_large_n(self):
        # |s(600, 2)| 2! / (1! 1!) * 1 * 2 / (3)_600
        want = F(2 * stirling_first(600, 2) * 2, math.factorial(602) // 2)
        assert joint_k_pmf(600, (1, 2), (1, 1)) == want

    def test_size_guard_refuses_before_any_work(self, monkeypatch):
        import multiewens.allele_stats as allele_stats

        def fail(*args):
            pytest.fail("worked")

        monkeypatch.setattr(allele_stats, "_stirling_row", fail)
        monkeypatch.setattr(allele_stats, "_common", fail)
        with pytest.raises(ValueError, match="joint law at n=100000 is too large"):
            joint_k_pmf(100_000, (1, 2), (1, 1))
        with pytest.raises(ValueError, match="joint law check at n=600, k=2 is too large"):
            joint_k_check(600, 2, (1, 2))
        with pytest.raises(ValueError, match="Stirling row at n=5000 is too large"):
            stirling_first(5000, 3)

    def test_k1_classical_form(self):
        th = (F(3, 2),)
        n = 6
        from multiewens.measure import pochhammer

        for p in range(n + 1):
            want = (
                F(stirling_first(n, p))
                * F(3, 2) ** p
                / pochhammer(F(3, 2), n)
            )
            assert joint_k_pmf(n, th, (p,)) == want

    def test_moments_agree_with_closed_forms(self):
        # two independent derivations of E and Var must agree exactly
        th = (F(1), F(2))
        for n in range(1, 9):
            for l in (1, 2):
                e = F(0)
                e2 = F(0)
                for ps in np.ndindex(n + 1, n + 1):
                    mass = joint_k_pmf(n, th, ps)
                    e += ps[l - 1] * mass
                    e2 += ps[l - 1] ** 2 * mass
                assert e == expected_k(n, th, l)
                assert e2 - e * e == var_k(n, th, l)


class TestRegimes:
    def test_constant_case(self):
        spec = RegimeSpec(0.0, (1.0, 2.0))
        pred = regime_prediction(spec, 1)
        assert pred.limit == 1.0 and pred.normalization == "n^beta*log(n)"

    def test_linear_case(self):
        spec = RegimeSpec(1.0, (1.0, 1.0))
        pred = regime_prediction(spec, 1)
        assert pred.limit == pytest.approx(math.log(1.5))
        assert pred.normalization == "n"

    def test_superlinear_case(self):
        spec = RegimeSpec(2.0, (1.0, 3.0))
        assert regime_prediction(spec, 1).limit == 0.25
        assert regime_prediction(spec, 2).limit == 0.75

    def test_sub_linear(self):
        spec = RegimeSpec(0.5, (2.0,))
        assert regime_prediction(spec, 1).limit == 1.0

    def test_predictions_track_exact_means(self):
        # E[K]/norm should approach the limit along a growing-n ladder
        for beta in (0.0, 0.5, 1.0, 2.0):
            spec = RegimeSpec(beta, (1.0, 2.0))
            pred = regime_prediction(spec, 2)
            errs = []
            for n in (10**3, 10**5):
                th = spec.thetas_at(n)
                ratio = expected_k(n, th, 2) / pred.norm(n, beta)
                errs.append(abs(ratio - pred.limit))
            assert errs[1] < errs[0]

    def test_concentration_ratio_decreases(self):
        for beta in (0.0, 0.5, 1.0, 2.0):
            spec = RegimeSpec(beta, (1.0, 2.0))
            for l in (1, 2):
                vals = []
                for n in (100, 1000, 10_000):
                    th = spec.thetas_at(n)
                    vals.append(var_k(n, th, l) / expected_k(n, th, l) ** 2)
                assert vals[0] > vals[1] > vals[2]

    def test_validation(self):
        with pytest.raises(ValueError):
            RegimeSpec(-1.0, (1.0,))
        with pytest.raises(ValueError):
            RegimeSpec(1.0, (0.0,))

    @pytest.mark.parametrize("alpha", [math.nan, math.inf])
    def test_rejects_non_finite_alpha(self, alpha):
        with pytest.raises(ValueError, match="alphas must be positive and finite"):
            RegimeSpec(0.5, (alpha, 1.0))

    def test_rejects_nan_beta(self):
        with pytest.raises(ValueError, match="beta must be >= 0"):
            RegimeSpec(math.nan, (1.0, 2.0))


class TestCltScaling:
    def test_beta0(self):
        sc = clt_scaling(100, (1.0, 2.0), 0.0)
        assert sc.centering[0] == pytest.approx(math.log(100))
        assert sc.variance[0] == pytest.approx(math.log(100))

    def test_moderate_growth(self):
        n, th = 1000, (2.0, 4.0)
        sc = clt_scaling(n, th, 1.0)
        w = 6.0
        want_c = 2.0 * math.log1p(n / w)
        assert sc.centering[0] == pytest.approx(want_c)
        assert sc.variance[0] == pytest.approx(want_c - n * 4.0 / (w * (w + n)))

    def test_fast_growth_binomial_form(self):
        n, th = 500, (1.0, 3.0)
        sc = clt_scaling(n, th, 2.0)
        assert sc.centering == (n * 0.25, n * 0.75)
        assert sc.variance[0] == pytest.approx(n * 0.25 * 0.75)
        assert sc.variance == (sc.variance[0], sc.variance[0])

    def test_rejects_nan_beta(self):
        with pytest.raises(ValueError, match="beta must be >= 0"):
            clt_scaling(100, (1.0, 2.0), math.nan)

    @pytest.mark.parametrize("n", [0, -1])
    def test_rejects_n_below_one(self, n):
        for beta in (0.0, 1.0, 2.0):
            with pytest.raises(ValueError, match="n must be >= 1"):
                clt_scaling(n, (1.0, 2.0), beta)

    @pytest.mark.parametrize("n", [2.5, True])
    def test_rejects_non_integer_n(self, n):
        # both once returned a scaling
        with pytest.raises(ValueError, match="integers"):
            clt_scaling(n, (1.0, 2.0), 0.5)

    def test_k1_fast_growth_unsupported(self):
        with pytest.raises(UnsupportedRegimeError):
            clt_scaling(100, (5.0,), 2.0)

    def test_variance_positive_sweep(self):
        rng = np.random.default_rng(0)
        for _ in range(40):
            n = int(rng.integers(2, 10**5))
            k = int(rng.integers(2, 5))
            th = tuple(rng.uniform(0.1, 50.0, size=k))
            for beta in (0.3, 1.0, 1.5):
                sc = clt_scaling(n, th, beta)
                assert all(v > 0 for v in sc.variance)


class TestClassMoments:
    @pytest.mark.parametrize("th", [(F(1, 3), F(2)), (F(1),), (1.5, 0.25, 3.0)])
    def test_matches_single_class_moments(self, th):
        for n in (1, 7, 200):
            got = class_moments(n, th)
            want = [(expected_k(n, th, l), var_k(n, th, l)) for l in range(1, len(th) + 1)]
            assert got == want

    @pytest.mark.parametrize(
        "th", [(F(1, 3), F(2), F(5, 7)), (1, 2, 3), (F(1, 10), 4, F(32732, 15005))]
    )
    def test_exact_matches_bernoulli_sums(self, th):
        # E = sum_j q_j and Var = sum_j q_j (1 - q_j), q_j = theta_l / (w + j)
        w = sum(F(t) for t in th)
        for n in (1, 2, 31, 33, 200):
            want = []
            for t in th:
                qs = [F(t) / (w + j) for j in range(n)]
                want.append((sum(qs), sum(q * (1 - q) for q in qs)))
            assert class_moments(n, th) == want

    def test_rejects_fractional_n(self):
        for th in ((1, 2), (1.0, 2.0)):
            with pytest.raises(ValueError, match="integers"):
                class_moments(2.5, th)


class TestBernoulliSimulator:
    def test_matches_exact_moments(self):
        n, reps = 200, 40_000
        th = (1.0, 2.0)
        ks = bernoulli_k_samples(n, th, 1, reps, seed=6)
        e = float(expected_k(n, th, 1))
        v = float(var_k(n, th, 1))
        assert abs(ks.mean() - e) < 3 * math.sqrt(v / reps)
        assert abs(ks.var(ddof=1) - v) < 3 * v * math.sqrt(2 / (reps - 1)) * 2

    def test_determinism(self):
        a = bernoulli_k_samples(50, (1.0, 2.0), 2, 100, seed=3)
        b = bernoulli_k_samples(50, (1.0, 2.0), 2, 100, seed=3)
        assert np.array_equal(a, b)

    def test_range(self):
        ks = bernoulli_k_samples(30, (1.0, 1.0), 1, 500, seed=1)
        assert ks.min() >= 0 and ks.max() <= 30

    # theta_1 = 0.05 puts every position in the thinned tail, (1, 2) puts
    # 14 of 30 in the direct head and (30, 60) all 30
    @pytest.mark.parametrize("th,seed", [
        ((F(1, 20), F(1)), 501),
        ((F(1), F(2)), 502),
        ((F(30), F(60)), 503),
    ])
    def test_law_chi_square_against_joint_law(self, th, seed):
        from scipy.stats import chisquare

        n, reps = 30, 20_000
        exact = [
            sum(joint_k_pmf(n, th, (p, q)) for q in range(n + 1))
            for p in range(n + 1)
        ]
        ks = bernoulli_k_samples(n, tuple(float(t) for t in th), 1, reps, seed)
        hits = np.bincount(ks, minlength=n + 1)
        # values of exact probability <= 1e-3 are pooled into one bin
        kept = [p for p in range(n + 1) if exact[p] > F(1, 1000)]
        rest = [p for p in range(n + 1) if p not in kept]
        obs = [hits[p] for p in kept] + [sum(hits[p] for p in rest)]
        exp = [float(exact[p]) * reps for p in kept]
        exp.append(reps - sum(exp))
        _, pval = chisquare(obs, exp)
        assert pval > 1e-3

    @pytest.mark.parametrize("n", [0, -5])
    def test_rejects_n_below_one(self, n):
        with pytest.raises(ValueError, match="n must be >= 1"):
            bernoulli_k_samples(n, (1.0, 2.0), 1, 10, seed=1)

    def test_rejects_negative_reps(self):
        with pytest.raises(ValueError, match="reps must be >= 0"):
            bernoulli_k_samples(10, (1.0, 2.0), 1, -1, seed=1)

    @pytest.mark.parametrize("n,reps", [(2.5, 10), (5, 10.5)])
    def test_rejects_fractional_n_and_reps(self, n, reps):
        with pytest.raises(ValueError, match="integers"):
            bernoulli_k_samples(n, (1.0, 2.0), 1, reps, seed=1)
