import math
import random
import re
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from multiewens import samplers
from multiewens.measure import refined_esf_pmf
from multiewens.partitions import (
    LabeledSetPartition,
    MultiplePartition,
    YoungDiagram,
    enumerate_multipartitions,
    _from_alleles,
    labeled_set_partitions,
    set_partition_to_multipartition,
)
from multiewens.samplers import (
    _CHUNK_CELLS,
    _CHUNK_RUNS,
    _KERNEL_STEPS,
    FrequencyRanked,
    _codes,
    _urn_keys,
    _urn_kernel,
    _word_layout,
    coalescent_rates,
    derive_seed,
    hoppe_urn_partition_counts,
    hoppe_urn_sample,
    _urn_run,
    monomial_symmetric,
    paintbox_pmf,
    paintbox_sample,
    pd_sample,
)

from oracles import (
    chi_square_p,
    monomial_symmetric_direct,
    refuse_validation,
    tv_distance,
    tv_noise,
)

F = Fraction


def mp(*rows_lists):
    return MultiplePartition(tuple(YoungDiagram(tuple(r)) for r in rows_lists))


def counting_keys(ts, u):
    """The counting sampler's run keys on each column of the uniforms u: the
    sorted codes class * (n + 1) + count of the run's colors, padded with
    zeros to n entries, built from the runs' step codes as the sampler
    builds its distinct runs."""
    return _urn_keys(_codes(u, np.cumsum(ts), 1).T).tolist()


def power_sums_of(xs, max_power):
    """{m: sum_i x_i^m for m = 1..max_power}, the input of monomial_symmetric."""
    arr = np.asarray(xs, dtype=float)
    return {m: float(np.sum(arr**m)) for m in range(1, max_power + 1)}


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

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_refused(self, seed):
        message = f"seed must be an integer in [0, 2**64), got {seed}"
        with pytest.raises(ValueError, match=re.escape(message)):
            derive_seed(seed, 0)

    @pytest.mark.parametrize("seed,children", [
        (0, [3069472533636442495, 9405607414650848140, 9847920306284509831]),
        (42, [18036798128018490698, 8238092213399105094, 17569751630818277803]),
        (2**64 - 1, [7521888212171461645, 5886236958684341581, 5236422289148167227]),
    ])
    def test_children_pinned(self, seed, children):
        # values of the 0.9.0 mixer at indices 0, 1 and 7
        assert [derive_seed(seed, i) for i in (0, 1, 7)] == children


class TestSeedDomain:
    """Every seeded entry point, numpy or random.Random, refuses a seed
    outside the integers in [0, 2**64) with one message that names the seed
    and its value."""

    @staticmethod
    def _entry_points():
        from multiewens import allele_stats, poisson, wf_sim, wreath

        pop = wf_sim.Population.founding(10, 2)
        f = pd_sample((1, 2), 1e-6, 1)
        return {
            "hoppe_urn_sample": lambda s: hoppe_urn_sample(5, (1.0, 2.0), s),
            "crp_wreath_sample": lambda s: wreath.crp_wreath_sample(
                4, wreath.cyclic_group(2), (1.0, 2.0), s),
            "hoppe_urn_partition_counts": lambda s: hoppe_urn_partition_counts(3, (1.0,), 5, s),
            "crp_element_counts": lambda s: wreath.crp_element_counts(
                2, wreath.cyclic_group(2), (1.0, 2.0), 5, s),
            "pd_sample": lambda s: pd_sample((1, 2), 1e-6, s),
            "paintbox_sample": lambda s: paintbox_sample(3, f, s),
            "bernoulli_k_samples": lambda s: allele_stats.bernoulli_k_samples(5, (1, 2), 1, 3, s),
            "poisson_matrix_sample": lambda s: poisson.poisson_matrix_sample(2, (1, 2), s),
            "sample_composition": lambda s: wf_sim.sample_composition(pop, 2, s),
            "stationary_samples": lambda s: wf_sim.stationary_samples(pop, (0.5, 1.0), 2, 1, s),
            "stationary_partition_counts": lambda s: wf_sim.stationary_partition_counts(
                10, (0.5, 1.0), 2, 1, s),
        }

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**70, np.int64(-1), 2.0, True, "3",
                                      np.random.default_rng(0)])
    def test_bad_seed_named(self, seed):
        for name, draw in self._entry_points().items():
            with pytest.raises(ValueError, match=re.escape(f"in [0, 2**64), got {seed!r}")):
                draw(seed)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_seed_past_the_digit_limit_named_by_its_bits(self, sign):
        # 5,001 digits are past Python's int-to-string limit
        seed, shown = sign * 10**5000, ("-" if sign < 0 else "") + "<16610-bit integer>"
        for draw in self._entry_points().values():
            with pytest.raises(ValueError, match=re.escape(f"in [0, 2**64), got {shown}")):
                draw(seed)

    def test_numpy_and_large_seeds_accepted(self):
        for draw in self._entry_points().values():
            draw(np.int64(7))
            draw(np.uint64(2**64 - 1))
            draw(2**64 - 1)


class TestHoppeUrn:
    def test_determinism(self):
        a = hoppe_urn_sample(8, (0.7, 1.3), seed=5)
        b = hoppe_urn_sample(8, (0.7, 1.3), seed=5)
        assert a == b

    def test_partition_without_blocks(self):
        # the same draw, without building the set partition
        for seed in (0, 1, 7, 2**40 + 3):
            part, _ = hoppe_urn_sample(200, (0.7, 1.3), seed=seed)
            assert hoppe_urn_sample(200, (0.7, 1.3), seed, blocks=False) == (part, None)

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
            self.draws = iter(draws)

        def random(self):
            return next(self.draws)

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

    def test_batched_step_takes_the_same_clamps(self):
        # the scripted runs above, one per column: keys are the sorted codes
        # class * (n + 1) + count, padded with zeros to n entries
        ts = [0.05, 1 / 7]
        copy_first = (sum(ts) + 0.5) / (sum(ts) + 2)
        u = np.array([[self.TOP, 0.0, 0.0, self.TOP], [0.0, 0.0, copy_first, self.TOP]]).T
        assert counting_keys(ts, u) == [[0, 1, 2, 6], [0, 0, 1, 3]]
        # the top draw at j = 0 goes to the last of three classes
        assert counting_keys([0.05, 1 / 7, 2.0], np.array([[self.TOP]])) == [[5]]


class TestUrnKernel:
    """The array engines against the one-draw loop on the same uniforms."""

    def test_kernel_equals_loop_at_every_n(self):
        for n in range(1, _KERNEL_STEPS + 20):
            for ts in ([0.7, 1.3], [0.05, 1 / 7, 2.0], [n / 2, n / 2], [1e300]):
                u = np.random.default_rng(1000 * n + len(ts)).random(n)
                assert _urn_kernel(ts, u) == _urn_run(n, ts, TestUrnTopDraw.Scripted(u.tolist()))

    def test_kernel_equals_loop_on_top_draws(self):
        top = TestUrnTopDraw.TOP
        for n in (1, 4, 50, _KERNEL_STEPS):
            for ts in ([0.05, 1 / 7], [0.05, 1 / 7, 2.0]):
                expected = _urn_run(n, ts, TestUrnTopDraw.Scripted([top] * n))
                assert _urn_kernel(ts, np.full(n, top)) == expected

    @staticmethod
    def _draw(n, run, k):
        """The partition and the labelled blocks that hoppe_urn_sample builds
        from a run (classes, counts, founder) of the urn."""
        classes, counts, founder = run
        members = [set() for _ in counts]
        for j, idx in enumerate(founder, start=1):
            members[idx].add(j)
        blocks = tuple((cls + 1, frozenset(m)) for cls, m in zip(classes, members))
        return _from_alleles(zip(classes, counts), k), LabeledSetPartition(blocks, n=n)

    def test_sampler_uses_the_kernel_above_the_cutoff(self):
        # below the cutoff the loop on random.Random(seed); from it the kernel
        # on numpy's first n uniforms, which the loop replays
        ts, seed = [0.7, 1.3], 9
        n = _KERNEL_STEPS - 1
        want = self._draw(n, _urn_run(n, ts, random.Random(seed)), 2)
        assert hoppe_urn_sample(n, ts, seed) == want
        n = _KERNEL_STEPS
        u = np.random.default_rng(seed).random(n)
        run = _urn_kernel(ts, u)
        assert run == _urn_run(n, ts, TestUrnTopDraw.Scripted(u.tolist()))
        assert hoppe_urn_sample(n, ts, seed) == self._draw(n, run, 2)


class TestUrnClassBoundary:
    """The loop, the kernel and the counting sampler's runs all pick a new
    colour's class by the cumulative rule: the number of partial sums of the
    masses, other than their total, at or below the scaled uniform."""

    @staticmethod
    def _three_engines(ts, draws):
        n = len(draws)
        run = _urn_run(n, ts, TestUrnTopDraw.Scripted(draws))
        kernel = _urn_kernel(ts, np.array(draws))
        (key,) = counting_keys(ts, np.array(draws)[:, None])
        return run, kernel, key

    def test_scaled_uniform_on_a_partial_sum(self):
        # x = u * w equals 0.7 + 1/3 in floats, where subtracting the masses
        # one by one leaves 0.7 + 1/3 - 0.7 just below 1/3, in class 1
        ts, u = [0.7, 1 / 3, 0.7, 0.7], 0.4246575342465753
        assert u * sum(ts) == ts[0] + ts[1]
        run, kernel, key = self._three_engines(ts, [u])
        assert run[0] == kernel[0] == [2]
        assert key == [2 * 2 + 1]

    def test_engines_agree_within_ulps_of_every_boundary(self):
        # one run per mass vector and offset: step j draws the uniform that
        # scales to a random partial sum at step j, moved by the offset in
        # ulps, so every step founds a colour next to a class boundary
        rng, n = np.random.default_rng(1604), 12
        mass_vectors = [[0.7, 1 / 3, 0.7, 0.7], [0.1, 0.2, 0.3], [1 / 3, 1 / 7, 5.0, 0.05]]
        mass_vectors += [rng.uniform(0.01, 3.0, size=4).tolist() for _ in range(3)]
        for ts in mass_vectors:
            cum = np.cumsum(ts)
            for offset in range(-3, 4):
                bound = cum[rng.integers(0, len(ts) - 1, size=n)]
                draws = (bound / (cum[-1] + np.arange(n))).view(np.int64) + offset
                draws = draws.view(np.float64).tolist()
                run, kernel, key = self._three_engines(ts, draws)
                assert kernel == run
                classes, counts, _ = run
                codes = [cls * (n + 1) + c for cls, c in zip(classes, counts)]
                assert key == sorted(codes + [0] * (n - len(codes)))


class TestUrnEnginesAgainstExactLaw:
    """The one-draw engine (_urn_run, one random.Random stream) and the
    batched engine (hoppe_urn_partition_counts) against the exact law.
    Seeds and thresholds are fixed in advance: TV below twice its expected
    sampling noise, and a chi-square p-value above 1e-3."""

    CASES = [((F(7, 10), F(13, 10)), 6), ((F(1), F(2), F(3)), 5)]

    @staticmethod
    def _check(counts, n, th, reps):
        exact = {p: refined_esf_pmf(p, th) for p in enumerate_multipartitions(n, len(th))}
        assert sum(counts.values()) == reps
        assert tv_distance(counts, exact, reps) < 2 * tv_noise(exact, reps)
        assert chi_square_p(counts, exact, reps) > 1e-3

    @pytest.mark.parametrize("th,n", CASES)
    def test_one_draw_engine(self, th, n):
        reps, rng = 40_000, random.Random(8101)
        ts = [float(t) for t in th]
        raw = Counter()
        for _ in range(reps):
            classes, counts, _ = _urn_run(n, ts, rng)
            raw[tuple(sorted(zip(classes, counts)))] += 1
        counts = Counter({_from_alleles(key, len(th)): c for key, c in raw.items()})
        self._check(counts, n, th, reps)

    @pytest.mark.parametrize("th,n", CASES)
    def test_batched_engine(self, th, n):
        reps = 400_000
        self._check(hoppe_urn_partition_counts(n, th, reps, seed=8102), n, th, reps)

    def test_batched_equals_one_draw_on_the_same_uniforms(self):
        # one run per column: the batched step makes the same choices, also
        # past n = _CHUNK_CELLS / 2, where a chunk holds a single run
        ts = [0.4, 1.1, 2.5]
        for n, runs in ((9, 300), (_CHUNK_CELLS // 2 + 4, 1)):
            u = np.random.default_rng(5).random((n, runs))
            for draws, key in zip(u.T.tolist(), counting_keys(ts, u)):
                classes, counts, _ = _urn_run(n, ts, TestUrnTopDraw.Scripted(draws))
                codes = [cls * (n + 1) + c for cls, c in zip(classes, counts)]
                assert key == sorted(codes + [0] * (n - len(codes)))


class TestUrnCountingEdges:
    def test_no_reps_gives_empty_counter(self):
        assert hoppe_urn_partition_counts(6, (1.0, 2.0), 0, seed=3) == Counter()

    @pytest.mark.parametrize("reps", [1, _CHUNK_RUNS + 1])
    def test_totals(self, reps):
        counts = hoppe_urn_partition_counts(6, (1.0, 2.0), reps, seed=3)
        assert sum(counts.values()) == reps
        assert all(p.n == 6 and p.k == 2 for p in counts)

    def test_single_step(self):
        counts = hoppe_urn_partition_counts(1, (1.0, 3.0), 4000, seed=3)
        assert set(counts) <= {mp([1], []), mp([], [1])} and sum(counts.values()) == 4000
        assert abs(counts[mp([1], [])] / 4000 - 0.25) < 4 * math.sqrt(0.25 * 0.75 / 4000)

    def test_one_run_chunks_give_the_same_counts(self, monkeypatch):
        # past n = _CHUNK_CELLS / 2 each chunk holds one run; the counts are
        # those of the one-draw loop on each chunk's uniforms
        n, th, reps = 6, (1.0, 2.0), 40
        rng, want = np.random.default_rng(7), Counter()
        for _ in range(reps):
            draws = TestUrnTopDraw.Scripted(rng.random(n).tolist())
            classes, counts, _ = _urn_run(n, list(th), draws)
            want[_from_alleles(zip(classes, counts), 2)] += 1
        monkeypatch.setattr(samplers, "_CHUNK_CELLS", n)
        assert hoppe_urn_partition_counts(n, th, reps, seed=7) == want


class TestCountingReplaysTheLoops:
    """Both counting samplers against the one-draw loops replayed on each
    column of the same chunked uniforms, on both sides of the n where a
    run's step codes outgrow one int64 word: 19 for the urn with k = 2, 18
    with k = 3, 16 for the restaurant in Z2 and 12 in S3."""

    @staticmethod
    def _replay(n, reps, seed, run):
        """Tally of run(draws) over the columns of the counting samplers' chunks."""
        size = max(1, min(_CHUNK_RUNS, _CHUNK_CELLS // n))
        rng, want = np.random.default_rng(seed), Counter()
        for start in range(0, reps, size):
            for draws in rng.random((n, min(size, reps - start))).T.tolist():
                want[run(TestUrnTopDraw.Scripted(draws))] += 1
        return want

    @pytest.mark.parametrize("reps", [0, 1, _CHUNK_RUNS + 1])
    @pytest.mark.parametrize("ts", [(0.7, 1.3), (0.4, 1.1, 2.5)])
    @pytest.mark.parametrize("n", [1, 2, 6, 18, 19, 20, 21, 64, 300])
    def test_urn(self, n, ts, reps):
        def run(rng):
            classes, counts, _ = _urn_run(n, ts, rng)
            return _from_alleles(zip(classes, counts), len(ts))

        want = self._replay(n, reps, 29, run)
        assert hoppe_urn_partition_counts(n, ts, reps, seed=29) == want

    @pytest.mark.parametrize("reps", [0, 1, _CHUNK_RUNS + 1])
    @pytest.mark.parametrize("group", ["z2", "s3"])
    @pytest.mark.parametrize("n", [1, 3, 4, 12, 13, 16, 17, 64])
    def test_restaurant(self, n, group, reps):
        from multiewens import wreath

        group, ts = {"z2": (wreath.cyclic_group(2), (0.3, 4.0)),
                     "s3": (wreath.symmetric_group_3(), (1.0, 2.0, 0.5))}[group]
        cum = wreath._entry_weights(group, ts)
        want = self._replay(n, reps, 31, lambda rng: wreath.WreathElement(
            *wreath._crp_run(n, group, cum, rng)))
        assert wreath.crp_element_counts(n, group, ts, reps, seed=31) == want


class TestWordLayout:
    """The mixed-radix words of the counting samplers' step codes: step j
    has radix m j + c, and every word holds as many steps, as few words as
    the last steps allow with their radices' product within 2**63."""

    @pytest.mark.parametrize("n,m,c,words", [
        (19, 1, 2, 1), (20, 1, 2, 2), (18, 1, 3, 1), (19, 1, 3, 2),
        (16, 2, 2, 1), (17, 2, 2, 2), (12, 6, 6, 1), (13, 6, 6, 2),
    ])
    def test_desk_runs_fit_one_word(self, n, m, c, words):
        # (n + 1)! <= 2**63 up to n = 19 for the urn with k = 2, and
        # 6**n n! up to n = 12 for the restaurant in S3
        assert len(_word_layout(n, m, c)[1]) == words

    @pytest.mark.parametrize("n,m,c", [(1, 1, 1), (7, 1, 1), (21, 1, 2), (300, 1, 2),
                                       (1000, 6, 6), (64, 2, 2), (70_000, 1, 3)])
    def test_even_words_with_exact_place_values(self, n, m, c):
        radix, place = _word_layout(n, m, c)
        steps = [m * j + c for j in range(n)]
        longest = 0  # the most last steps whose product fits, in Python integers
        while longest < n and math.prod(steps[n - longest - 1:]) <= 2**63:
            longest += 1
        words = -(-n // longest)
        assert radix.shape == place.shape == (words, -(-n // words))
        assert radix.ravel().tolist() == steps + [1] * (radix.size - n)
        for row, places in zip(radix.tolist(), place.tolist()):
            assert places == [math.prod(row[:i]) for i in range(len(row))]
            assert math.prod(row) <= 2**63

    @pytest.mark.parametrize("n,m,c", [(19, 1, 2), (20, 1, 2), (21, 1, 2), (300, 1, 2),
                                       (12, 6, 6), (13, 6, 6)])
    def test_largest_codes_round_trip(self, n, m, c, monkeypatch):
        top = m * np.arange(n) + c - 1  # every step at its largest code
        radix, place = _word_layout(n, m, c)
        padded = np.zeros(radix.size, dtype=np.int64)
        padded[:n] = top
        packed = (padded.reshape(radix.shape) * place).sum(axis=1)
        assert packed.tolist() == [math.prod(row) - 1 for row in radix.tolist()]
        assert (packed >= 0).all()
        monkeypatch.setattr(samplers, "_codes", lambda u, cum, m: np.broadcast_to(top[:, None], u.shape))
        codes, counts = samplers._batched_counts(n, 3, 1, np.arange(1.0, c + 1), m)
        assert codes.tolist() == [top.tolist()] and counts.tolist() == [3]


class TestCountingMemory:
    def test_peak_at_a_million_runs(self):
        # the bound, fixed before the first run: 4 MB each (0.8 and 1.0 MB
        # when runs were grouped chunk by chunk)
        import tracemalloc

        from multiewens import wreath

        calls = [
            lambda: hoppe_urn_partition_counts(6, (1.0, 2.0), 10**6, 1),
            lambda: wreath.crp_element_counts(3, wreath.symmetric_group_3(), (1.0, 2.0, 0.5),
                                              10**6, 1),
        ]
        for call in calls:
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 4 * 2**20


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

    def test_rejects_fractional_n(self):
        # once drew 5 genes for n = 5.5
        f = FrequencyRanked(((0.5, 0.5),), (1.0,), 1e-8)
        with pytest.raises(ValueError, match="integers"):
            paintbox_sample(5.5, f, 1)

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
