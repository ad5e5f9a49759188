import math
import random
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from multiewens.measure import refined_esf_pmf
from multiewens.partitions import (
    LabeledSetPartition,
    MultiplePartition,
    YoungDiagram,
    enumerate_multipartitions,
    labeled_set_partitions,
    set_partition_to_multipartition,
)
from multiewens.samplers import (
    FrequencyRanked,
    coalescent_rates,
    derive_seed,
    hoppe_urn_partition_counts,
    hoppe_urn_sample,
    _urn_run,
    monomial_symmetric,
    paintbox_pmf,
    paintbox_sample,
    pd_sample,
    power_sums_of,
)

from oracles import monomial_symmetric_direct, refuse_validation, tv_distance

F = Fraction


def mp(*rows_lists):
    return MultiplePartition(tuple(YoungDiagram(tuple(r)) for r in rows_lists))


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_seed(42, 0) == derive_seed(42, 0)

    def test_index_sensitivity(self):
        children = {derive_seed(42, i) for i in range(1000)}
        assert len(children) == 1000

    def test_seed_sensitivity(self):
        assert derive_seed(1, 0) != derive_seed(2, 0)

    def test_64_bit_range(self):
        for i in range(50):
            assert 0 <= derive_seed(123456789, i) < 2**64


class TestHoppeUrn:
    def test_determinism(self):
        a = hoppe_urn_sample(8, (0.7, 1.3), seed=5)
        b = hoppe_urn_sample(8, (0.7, 1.3), seed=5)
        assert a == b

    @pytest.mark.parametrize("n", [6, 200])
    def test_counting_path_matches_one_draw(self, n):
        # both urn paths run one engine on one stream and one builder
        for seed in (0, 1, 7, 2**40 + 3):
            part, _ = hoppe_urn_sample(n, (0.7, 1.3), seed=seed)
            assert hoppe_urn_partition_counts(n, (0.7, 1.3), 1, seed) == Counter({part: 1})

    def test_returns_consistent_pair(self):
        for seed in range(30):
            part, blocks = hoppe_urn_sample(7, (1.0, 2.0), seed=seed)
            assert part.n == 7 and blocks.n == 7
            assert set_partition_to_multipartition(blocks, 2) == part

    def test_single_draw_law(self):
        # class of the first object: theta_l / w
        reps = 40_000
        hits = Counter()
        for r in range(reps):
            part, _ = hoppe_urn_sample(1, (1.0, 3.0), seed=derive_seed(9, r))
            hits[part] += 1
        p1 = hits[mp([1], [])] / reps
        se = math.sqrt(0.25 * 0.75 / reps)
        assert abs(p1 - 0.25) < 4 * se

    def test_rejects_n0(self):
        with pytest.raises(ValueError):
            hoppe_urn_sample(0, (1.0,), seed=0)

    def test_empirical_law_tv(self):
        # desk-scale version of the acceptance check
        th = (F(7, 10), F(13, 10))
        reps = 60_000
        counts = hoppe_urn_partition_counts(6, th, reps, seed=77)
        exact = {
            p: refined_esf_pmf(p, th) for p in enumerate_multipartitions(6, 2)
        }
        assert sum(counts.values()) == reps
        assert tv_distance(counts, exact, reps) < 0.02

    def test_empirical_law_tv_three_classes(self):
        th = (F(1), F(2), F(3))
        reps = 400_000
        counts = hoppe_urn_partition_counts(5, (1.0, 2.0, 3.0), reps, seed=13)
        exact = {
            p: refined_esf_pmf(p, th) for p in enumerate_multipartitions(5, 3)
        }
        assert tv_distance(counts, exact, reps) < 0.01

    def test_set_partition_law_chi_square(self):
        from scipy.stats import chisquare

        th = (F(1), F(2))
        n, reps = 4, 50_000
        from multiewens.measure import labeled_set_partition_pmf

        states = list(labeled_set_partitions(n, 2))
        exact = {s: labeled_set_partition_pmf(s, th) for s in states}
        hits = Counter()
        for r in range(reps):
            _, blocks = hoppe_urn_sample(n, (1.0, 2.0), seed=derive_seed(31, r))
            hits[blocks] += 1
        obs = [hits.get(s, 0) for s in states]
        exp = [float(p) * reps for p in exact.values()]
        _, pval = chisquare(obs, exp)
        assert pval > 0.01


class TestUrnTopDraw:
    TOP = 1.0 - 2.0**-53

    class Scripted(random.Random):
        def __init__(self, draws):
            super().__init__(0)
            self.draws = list(draws)

        def random(self):
            return self.draws.pop(0)

    def test_colour_scan_clamps_to_last_colour(self):
        # three colours after draws 0-2; at j = 3 the scaled top draw lands at
        # w + 3 exactly, past the last count, and joins the last colour
        ts = [0.05, 1 / 7]
        w = sum(ts)
        assert self.TOP * (w + 3) - w == 3.0
        classes, counts, founder = _urn_run(4, ts, self.Scripted([self.TOP, 0.0, 0.0, self.TOP]))
        assert classes == [1, 0, 0]  # 0-based classes
        assert counts == [1, 1, 2]
        assert founder == [0, 1, 2, 2]

    def test_class_scan_clamps_to_last_class(self):
        # at j = 0 the black draw left after the first two masses is not
        # below the third mass, and the colour goes to the last class
        ts = [0.05, 1 / 7, 2.0]
        assert self.TOP * sum(ts) - ts[0] - ts[1] >= ts[2]
        classes, counts, founder = _urn_run(1, ts, self.Scripted([self.TOP]))
        assert (classes, counts, founder) == ([2], [1], [0])

    def test_top_draw_copies_the_previous_draw(self):
        # draws 0 and 1 found colours 0 and 1, draw 2 copies draw 0; at j = 3
        # the top draw lands at w + 3 and is clamped onto draw 2, so it joins
        # colour 0, not the last colour
        ts = [0.05, 1 / 7]
        w = sum(ts)
        assert self.TOP * (w + 3) - w == 3.0
        copy_first = (w + 0.5) / (w + 2)
        draws = [0.0, 0.0, copy_first, self.TOP]
        classes, counts, founder = _urn_run(4, ts, self.Scripted(draws))
        assert classes == [0, 0]
        assert counts == [3, 1]
        assert founder == [0, 1, 0, 0]


class TestUrnManyColours:
    def test_class_counts_match_digamma_moments(self):
        from scipy.special import digamma, polygamma

        n, th = 4000, (2000.0, 2000.0)
        part, _ = hoppe_urn_sample(n, th, seed=4000)
        w = sum(th)
        h1 = digamma(w + n) - digamma(w)
        h2 = polygamma(1, w) - polygamma(1, w + n)
        for comp, t in zip(part.components, th):
            mean, var = t * h1, t * h1 - t * t * h2
            assert abs(len(comp.rows) - mean) <= 6 * math.sqrt(var)


class TestCountingInputs:
    @pytest.mark.parametrize("n", [0, -3])
    def test_urn_counts_reject_n_below_one(self, n):
        with pytest.raises(ValueError, match="n must be >= 1"):
            hoppe_urn_partition_counts(n, (1.0, 2.0), 5, seed=1)

    def test_urn_counts_reject_negative_reps(self):
        with pytest.raises(ValueError, match="reps must be >= 0"):
            hoppe_urn_partition_counts(4, (1.0, 2.0), -1, seed=1)


class TestCoalescentRates:
    def test_no_pair_at_j1(self):
        coal, mut = coalescent_rates(1, (F(1), F(2)))
        assert coal == 0
        assert mut == (F(1, 3), F(2, 3))

    def test_j2_k1(self):
        coal, mut = coalescent_rates(2, (F(2),))
        assert coal == F(1, 3) and mut == (F(2, 3),)

    def test_probability_vector(self):
        rng = np.random.default_rng(4)
        for j in range(1, 101):
            th = tuple(rng.uniform(0.1, 5.0, size=3))
            coal, mut = coalescent_rates(j, th)
            assert coal >= 0 and all(m > 0 for m in mut)
            assert coal + sum(mut) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_j0(self):
        with pytest.raises(ValueError):
            coalescent_rates(0, (F(1),))


class TestPoissonDirichlet:
    def test_k1_delta_is_one(self):
        for seed in range(10):
            f = pd_sample((2.0,), 1e-8, seed)
            assert f.deltas == (1.0,)

    def test_class_mass_within_eps(self):
        for seed in range(20):
            f = pd_sample((0.5, 1.5), 1e-6, seed)
            for l in range(2):
                assert 0 <= f.remainder(l) <= 1e-6 * max(f.deltas[l], 1.0) + 1e-12
                assert math.fsum(f.freqs[l]) <= f.deltas[l] + 1e-12

    def test_sequences_ranked(self):
        f = pd_sample((1.0, 2.0), 1e-8, 3)
        for seq in f.freqs:
            assert all(seq[i] >= seq[i + 1] for i in range(len(seq) - 1))

    def test_mean_class_weight(self):
        # E[delta_1] = theta_1 / w, checked within 3 standard errors
        th = (1.0, 2.0)
        reps = 20_000
        vals = np.array([
            pd_sample(th, 1e-6, derive_seed(100, r)).deltas[0] for r in range(reps)
        ])
        mean_expected = 1.0 / 3.0
        var_expected = (1.0 * 2.0) / (9.0 * 4.0)  # theta1*theta2/(w^2 (w+1))
        se = math.sqrt(var_expected / reps)
        assert abs(vals.mean() - mean_expected) < 3 * se

    def test_eps_validation(self):
        with pytest.raises(ValueError):
            pd_sample((1.0,), 0.0, 1)
        with pytest.raises(ValueError):
            pd_sample((1.0,), 1.5, 1)


class TestPaintbox:
    def test_concentrated_frequency(self):
        f = FrequencyRanked(((1.0,), ()), (1.0, 0.0), 1e-8)
        for seed in range(5):
            assert paintbox_sample(9, f, seed) == mp([9], [])

    def test_two_type_law(self):
        f = FrequencyRanked(((0.5, 0.5),), (1.0,), 1e-8)
        reps = 40_000
        hits = Counter(paintbox_sample(2, f, derive_seed(8, r)) for r in range(reps))
        frac_pair = hits[mp([2])] / reps
        se = math.sqrt(0.25 / reps)
        assert abs(frac_pair - 0.5) < 4 * se
        assert hits[mp([1, 1])] + hits[mp([2])] == reps

    def test_remainder_spawns_singletons(self):
        # nearly all mass sits in the remainders: draws land on fresh
        # singleton alleles, so at most the two regular types repeat
        f = FrequencyRanked(((0.001,), (0.001,)), (0.3, 0.7), 0.999)
        for seed in range(5):
            part = paintbox_sample(6, f, seed)
            assert part.n == 6
            repeated = sum(
                1 for comp in part.components for r in comp.rows if r > 1
            )
            assert repeated <= 2
            singles = sum(
                1 for comp in part.components for r in comp.rows if r == 1
            )
            assert singles >= 4

    def test_kernel_pmf_normalizes(self):
        f = pd_sample((1.0, 2.0), 1e-10, 12)
        for n in (1, 2, 3, 4):
            total = sum(
                paintbox_pmf(p, f) for p in enumerate_multipartitions(n, 2)
            )
            assert total == pytest.approx(1.0, abs=1e-6)

    def test_kernel_pmf_matches_empirical(self):
        f = pd_sample((1.0, 2.0), 1e-8, 21)
        reps = 30_000
        hits = Counter(paintbox_sample(3, f, derive_seed(64, r)) for r in range(reps))
        for p in enumerate_multipartitions(3, 2):
            prob = paintbox_pmf(p, f)
            se = math.sqrt(max(prob * (1 - prob), 1e-12) / reps)
            assert abs(hits.get(p, 0) / reps - prob) < 5 * se + 1e-3


class TestPaintboxKernel:
    TEN_PARTS = mp([1] * 9, [1])

    def test_nonnegative_over_pd_draws(self):
        states = [p for n in range(1, 7) for p in enumerate_multipartitions(n, 2)]
        states.append(self.TEN_PARTS)
        for r in range(200):
            f = pd_sample((1.0, 2.0), 1e-8, derive_seed(31, r))
            for p in states:
                assert paintbox_pmf(p, f) >= 0.0
        # inclusion-exclusion over power sums gave -7.7e-23 here
        assert paintbox_pmf(self.TEN_PARTS, pd_sample((1, 2), 1e-8, 3)) > 0.0

    def test_states_sum_to_regular_mass(self):
        for seed in (4, 5):
            f = pd_sample((1.0, 2.0), 1e-8, seed)
            regular = math.fsum(math.fsum(seq) for seq in f.freqs)
            for n in range(1, 9):
                total = math.fsum(
                    paintbox_pmf(p, f) for p in enumerate_multipartitions(n, 2)
                )
                assert total == pytest.approx(regular**n, rel=1e-12)

    def test_matches_direct_and_power_sum_routes(self):
        rng = np.random.default_rng(8)
        for _ in range(4):
            deltas = rng.dirichlet((1.0, 2.0))
            freqs = tuple(
                tuple(sorted(d * rng.dirichlet(np.ones(size)), reverse=True))
                for d, size in zip(deltas, (5, 6))
            )
            f = FrequencyRanked(freqs, tuple(deltas), 1e-6)
            for n in range(1, 6):
                for p in enumerate_multipartitions(n, 2):
                    direct = power = float(math.factorial(n))
                    for comp, seq in zip(p.components, f.freqs):
                        for j, m in comp.multiplicities().items():
                            direct /= math.factorial(j) ** m
                            power /= math.factorial(j) ** m
                        direct *= monomial_symmetric_direct(comp.rows, seq)
                        power *= monomial_symmetric(
                            comp.rows, power_sums_of(seq, comp.size)
                        )
                    got = paintbox_pmf(p, f)
                    assert got == pytest.approx(direct, rel=1e-10)
                    assert got == pytest.approx(power, rel=1e-10)

    def test_no_overflow_beyond_170(self):
        f = pd_sample((1.0, 2.0), 1e-8, 5)
        got = paintbox_pmf(mp([171], []), f)
        assert got == pytest.approx(math.fsum(x**171 for x in f.freqs[0]), rel=1e-12)
        assert 0.0 < got < 1.0

    def test_twenty_singletons_fast_and_nonnegative(self):
        p = mp([1] * 20, [])
        # eps = 1e-14 leaves at least 20 class-1 frequencies, so e_20 > 0
        for seed, eps in ((5, 1e-8), (6, 1e-14)):
            f = pd_sample((1.0, 2.0), eps, seed)
            best = math.inf
            for _ in range(3):
                start = time.perf_counter()
                value = paintbox_pmf(p, f)
                best = min(best, time.perf_counter() - start)
            assert best < 0.01
            if len(f.freqs[0]) >= 20:
                assert value > 0.0
            else:
                assert value == 0.0
        assert len(f.freqs[0]) >= 20


class TestMonomialSymmetric:
    def test_against_direct_expansion(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            xs = rng.uniform(0.0, 1.0, size=6)
            rows = tuple(
                sorted(rng.integers(1, 4, size=rng.integers(1, 4)), reverse=True)
            )
            ps = power_sums_of(xs, int(sum(rows)))
            got = monomial_symmetric(rows, ps)
            want = monomial_symmetric_direct(rows, list(xs))
            assert got == pytest.approx(want, rel=1e-10, abs=1e-12)

    def test_empty_partition(self):
        assert monomial_symmetric((), {}) == 1


class TestIntegralRepresentation:
    def test_composition_reaches_partition_law(self):
        # fresh PD frequencies for every paintbox draw: the composed law is
        # the class-split Ewens law itself
        n, reps = 4, 25_000
        th_f, th_q = (1.0, 2.0), (F(1), F(2))
        hits = Counter()
        for r in range(reps):
            sd = derive_seed(606, r)
            f = pd_sample(th_f, 1e-8, sd)
            hits[paintbox_sample(n, f, derive_seed(sd, 1))] += 1
        exact = {
            p: refined_esf_pmf(p, th_q) for p in enumerate_multipartitions(n, 2)
        }
        assert tv_distance(hits, exact, reps) < 0.02

    def test_mc_average_matches_measure(self):
        # desk-scale version of the Prop-style identity: E_PD[K(p; X)] = pmf(p)
        n, reps = 3, 4_000
        th_f, th_q = (1.0, 2.0), (F(1), F(2))
        sums = {p: 0.0 for p in enumerate_multipartitions(n, 2)}
        sq_sums = {p: 0.0 for p in sums}
        for r in range(reps):
            f = pd_sample(th_f, 1e-8, derive_seed(55, r))
            for p in sums:
                val = paintbox_pmf(p, f)
                sums[p] += val
                sq_sums[p] += val * val
        for p, total in sums.items():
            est = total / reps
            var = max(sq_sums[p] / reps - est * est, 0.0)
            se = math.sqrt(var / reps)
            exact = float(refined_esf_pmf(p, th_q))
            assert abs(est - exact) <= 4 * se + 1e-4



class TestTrustedDraws:
    """The urn's set partition and the Poisson-Dirichlet frequencies are built
    without validation; each must equal, hash and print like the validated
    instance of the same values."""

    @staticmethod
    def _same(built, validated):
        assert built == validated and hash(built) == hash(validated)
        assert repr(built) == repr(validated)

    @pytest.mark.parametrize("theta", [(0.7, 1.3), (1, Fraction(1, 3)), (50.0, 2.0, 0.1)])
    def test_urn_set_partition(self, monkeypatch, theta):
        refuse_validation(monkeypatch, LabeledSetPartition)
        draws = [hoppe_urn_sample(n, theta, seed)[1] for n in (1, 6, 40) for seed in range(10)]
        monkeypatch.undo()
        for s in draws:
            # elements in draw order, as the urn records them: a frozenset's
            # display order depends on the order its elements were added
            given = tuple((label, sorted(elems)) for label, elems in reversed(s.blocks))
            self._same(s, LabeledSetPartition(given, n=s.n))
            assert all(type(label) is int and all(type(e) is int for e in elems)
                       for label, elems in s.blocks)

    @pytest.mark.parametrize("theta", [(2.0,), (1, 2), (0.5, 1.5, 3.0)])
    def test_pd_frequencies(self, monkeypatch, theta):
        refuse_validation(monkeypatch, FrequencyRanked)
        draws = [pd_sample(theta, 1e-6, seed) for seed in range(10)]
        monkeypatch.undo()
        for f in draws:
            self._same(f, FrequencyRanked(f.freqs, f.deltas, f.eps))
            assert all(type(x) is float for seq in f.freqs for x in seq)
            assert all(type(d) is float for d in f.deltas)
