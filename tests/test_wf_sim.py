import copy
import itertools
import json
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from multiewens.samplers import coalescent_rates
from multiewens.wf_sim import (
    Population,
    _AlleleCounts,
    ancestral_generator,
    sample_composition,
    stationary_partition_counts,
    stationary_samples,
    transition_prob,
    wf_step,
)

from oracles import tv_distance

F = Fraction


class TestPopulation:
    def test_founding(self):
        pop = Population.founding(100, 3)
        assert pop.size == 100 and pop.generation == 0
        assert set(pop.ids.tolist()) == {0}

    def test_rejects_odd_size(self):
        with pytest.raises(ValueError):
            Population.founding(99, 1)

    def test_json_snapshot(self):
        pop = Population.founding(10, 2)
        snap = pop.to_json_dict()
        assert snap["generation"] == 0 and len(snap["ids"]) == 10
        assert set(snap["classes"]) == {1}  # labels are 1-based outside


class TestWfStep:
    def test_size_conserved(self):
        rng = np.random.default_rng(0)
        pop = Population.founding(50, 2)
        for _ in range(100):
            wf_step(pop, [0.01, 0.02], rng)
            assert pop.size == 50
        assert pop.generation == 100

    def test_zero_mutation_only_loses_alleles(self):
        rng = np.random.default_rng(1)
        pop = Population.founding(40, 1)
        pop.ids = np.arange(40)  # all distinct to start
        pop.next_ids = np.array([40])
        seen = len(set(pop.ids.tolist()))
        for _ in range(50):
            wf_step(pop, [0.0], rng)
            now = len(set(pop.ids.tolist()))
            assert now <= seen
            seen = now

    def test_fresh_allele_rate(self):
        rng = np.random.default_rng(2)
        pop = Population.founding(2000, 2)
        mus = [0.05, 0.1]
        fresh = np.zeros(2)
        gens = 200
        for _ in range(gens):
            before = pop.next_ids.copy()
            wf_step(pop, mus, rng)
            fresh += pop.next_ids - before
        for l, mu in enumerate(mus):
            want = 2000 * mu
            se = math.sqrt(2000 * mu * (1 - mu) / gens)
            assert abs(fresh[l] / gens - want) < 4 * se

    def test_ids_never_reused(self):
        rng = np.random.default_rng(3)
        pop = Population.founding(30, 2)
        seen: set = set()
        for _ in range(200):
            wf_step(pop, [0.05, 0.05], rng)
            before = pop.next_ids.copy()
            wf_step(pop, [0.05, 0.05], rng)
            # any id at or above the old counter is brand new
            for l in range(2):
                fresh_mask = (pop.classes == l) & (pop.ids >= before[l])
                for ident in pop.ids[fresh_mask].tolist():
                    assert (l, ident) not in seen
            seen |= set(zip(pop.classes.tolist(), pop.ids.tolist()))

    def test_mutation_sum_validated(self):
        pop = Population.founding(10, 2)
        with pytest.raises(ValueError):
            wf_step(pop, [0.6, 0.5], np.random.default_rng(0))


class TestSampleComposition:
    def test_monomorphic(self):
        pop = Population.founding(20, 2)
        part = sample_composition(pop, 20, 0)
        assert [list(c.rows) for c in part.components] == [[20], []]

    def test_single_gene(self):
        pop = Population.founding(20, 3)
        part = sample_composition(pop, 1, 0)
        assert part.n == 1 and part.components[0].rows == (1,)

    def test_invariant_random_populations(self):
        rng = np.random.default_rng(5)
        pop = Population.founding(60, 2)
        for _ in range(100):
            wf_step(pop, [0.02, 0.03], rng)
        for n in (1, 5, 30, 60):
            part = sample_composition(pop, n, rng)
            assert part.n == n and part.k == 2

    def test_oversample_rejected(self):
        pop = Population.founding(10, 1)
        with pytest.raises(ValueError):
            sample_composition(pop, 11, 0)


class TestTransitionProb:
    def test_rows_sum_to_one(self):
        mus = [F(1, 400), F(1, 200)]
        for p in range(7):
            total = sum(transition_prob(p, m, 100, mus) for m in range(p + 1))
            assert total == 1

    def test_zero_mutation_reduces_to_pure_ancestry(self):
        two_n = 40
        for p in range(1, 6):
            for m in range(p + 1):
                got = transition_prob(p, m, two_n, [F(0)])
                from multiewens.wf_sim import _stirling_second

                falling = 1
                for i in range(m):
                    falling *= two_n - i
                want = F(_stirling_second(p, m) * falling, two_n**p)
                assert got == want

    def test_asymptotic_intensity(self):
        # 4N (1 - P(p, p)) approaches p(p-1) + w p with mu_l = theta_l/(4N)
        big_n = 10**6
        thetas = [F(1), F(2)]
        mus = [t / (4 * big_n) for t in thetas]
        for p in (2, 4, 6):
            val = 4 * big_n * (1 - transition_prob(p, p, 2 * big_n, mus))
            target = p * (p - 1) + 3 * p
            assert abs(float(val) - target) / target < 0.01

    def test_large_p_without_recursion(self):
        # S(600, 2) = 2^599 - 1 ways to split the 600 genes between two parents
        got = transition_prob(600, 2, 1000, [F(0)])
        assert got == F((2**599 - 1) * 1000 * 999, 1000**600)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            transition_prob(3, 4, 100, [F(0)])
        with pytest.raises(ValueError):
            transition_prob(3, 2, 100, [F(1, 2), F(1, 2)])
        for mus in [(F(-1, 2),), (math.inf,), (math.nan,)]:
            with pytest.raises(ValueError, match="finite and nonnegative"):
                transition_prob(3, 2, 4, mus)


class TestAncestralGenerator:
    def test_row_sums_zero(self):
        gen = ancestral_generator(8, (F(1), F(2)))
        assert np.allclose(gen.q.sum(axis=1), 0.0)

    def test_state_zero_absorbing(self):
        gen = ancestral_generator(5, (1.0, 1.0))
        assert np.all(gen.q[0] == 0.0)

    def test_entries(self):
        w = 3.0
        gen = ancestral_generator(6, (1.0, 2.0))
        for j in range(1, 7):
            want = (j * (j - 1) + w * j) / 4.0
            assert gen.q[j, j] == pytest.approx(-want)
            assert gen.q[j, j - 1] == pytest.approx(want)
            assert gen.rate(j) == pytest.approx(want)

    def test_jump_chain_matches_rates(self):
        # the death intensity splits into coalescence and mutation parts in
        # the proportions given by the per-step rate function
        th = (F(1), F(2))
        gen = ancestral_generator(6, th)
        w = 3.0
        for j in range(1, 7):
            coal, mut = coalescent_rates(j, th)
            coal_rate = j * (j - 1) / 4.0
            mut_rate = w * j / 4.0
            total = gen.rate(j)
            assert coal_rate / total == pytest.approx(float(coal))
            assert mut_rate / total == pytest.approx(float(sum(mut)))


class TestStationarySmoke:
    def test_small_population_matches_law_loosely(self):
        # tiny smoke version of the end-to-end check; the acceptance suite
        # runs the full-scale version
        from multiewens.measure import refined_esf_pmf
        from multiewens.partitions import enumerate_multipartitions

        from oracles import tv_distance

        counts = stationary_partition_counts(
            200, (0.5, 1.0), 3, 1500, seed=17, burn_gens=2000, thin_gens=100
        )
        th = (F(1, 2), F(1))
        exact = {
            p: refined_esf_pmf(p, th) for p in enumerate_multipartitions(3, 2)
        }
        assert tv_distance(counts, exact, 1500) < 0.08


def _copy(pop):
    return Population(ids=pop.ids.copy(), classes=pop.classes.copy(), k=pop.k,
                      generation=pop.generation, next_ids=pop.next_ids.copy())


def _alleles_of(pop):
    return list(dict.fromkeys(zip(pop.classes.tolist(), pop.ids.tolist())))


def _multinomial_law(pop, mus, cells):
    """Exact law of the one-generation outcome by the count-level formula:
    multinomial(2N; c_a (1 - sum mu)/2N per allele a, mu_l per class)."""
    two_n = pop.size
    genes = Counter(zip(pop.classes.tolist(), pop.ids.tolist()))
    stay = 1 - sum(mus)
    probs = [genes[key] * stay / two_n for key in _alleles_of(pop)] + list(mus)
    law = {}
    for old, fresh in cells:
        xs = old + fresh
        if sum(xs) != two_n:
            continue
        coef = math.factorial(two_n)
        prob = 1
        for x, p in zip(xs, probs):
            coef //= math.factorial(x)
            prob *= p**x
        law[(old, fresh)] = coef * prob
    return law


def _one_generation_draws(pop, mus, reps, rng):
    """Outcome counts of `reps` single generations from pop by each engine.

    An outcome is (copies of each starting allele, fresh mutant genes per class).
    """
    alleles = _alleles_of(pop)

    def outcome(after):
        old = tuple(
            int(np.count_nonzero((after.classes == cls) & (after.ids == ident)))
            for cls, ident in alleles
        )
        fresh = tuple(
            int(np.count_nonzero((after.classes == l) & (after.ids >= pop.next_ids[l])))
            for l in range(pop.k)
        )
        return old, fresh

    by_genes = Counter(outcome(wf_step(_copy(pop), mus, rng)) for _ in range(reps))
    start = _AlleleCounts(pop, mus)
    by_counts: Counter = Counter()
    for _ in range(reps):
        state = copy.deepcopy(start)
        state.advance(1, rng)
        after = _copy(pop)
        state.write_to(after)
        by_counts[outcome(after)] += 1
    return by_genes, by_counts


class TestCountLevelEngine:
    """The count-level engine behind stationary_samples against wf_step."""

    def test_exact_one_generation_law_at_2n_4(self):
        pop = Population(ids=np.array([0, 0, 0, 0]), classes=np.array([0, 0, 0, 1]), k=2)
        mus = (F(1, 8), F(1, 4))
        stay = 1 - sum(mus)
        alleles = _alleles_of(pop)
        genes = list(zip(pop.classes.tolist(), pop.ids.tolist()))
        gene_law: Counter = Counter()
        # every parent vector and every child fate (0 = copy, 1 + l = class-l mutant)
        for parents in itertools.product(range(4), repeat=4):
            for fates in itertools.product(range(3), repeat=4):
                prob = F(1, 4**4)
                old, fresh = [0, 0], [0, 0]
                for parent, fate in zip(parents, fates):
                    if fate:
                        prob *= mus[fate - 1]
                        fresh[fate - 1] += 1
                    else:
                        prob *= stay
                        old[alleles.index(genes[parent])] += 1
                gene_law[(tuple(old), tuple(fresh))] += prob
        count_law = _multinomial_law(pop, mus, gene_law)
        assert sum(gene_law.values()) == 1
        assert count_law == dict(gene_law)

        reps = 20_000
        mus_f = [float(m) for m in mus]
        by_genes, by_counts = _one_generation_draws(pop, mus_f, reps, np.random.default_rng(31))
        assert tv_distance(by_genes, count_law, reps) < 0.03
        assert tv_distance(by_counts, count_law, reps) < 0.03

    def test_one_generation_tv_at_2n_1000(self):
        ids = np.zeros(1000, dtype=np.int64)
        classes = np.zeros(1000, dtype=np.int64)
        classes[:2] = 1  # allele (1, 0) x2
        ids[2] = 1  # allele (0, 1) x1; allele (0, 0) holds the other 997
        pop = Population(ids=ids, classes=classes, k=2)
        mus_f = [1e-4, 2e-4]
        cells = [
            ((x[0], x[1], 1000 - sum(x)), (x[2], x[3]))
            for x in itertools.product(range(10), repeat=4)
        ]
        exact = _multinomial_law(pop, mus_f, cells)
        assert 1 - sum(exact.values()) < 1e-3
        reps = 20_000
        by_genes, by_counts = _one_generation_draws(pop, mus_f, reps, np.random.default_rng(32))
        assert tv_distance(by_genes, exact, reps) < 0.05
        assert tv_distance(by_counts, exact, reps) < 0.05

    def test_population_written_back(self):
        pop = Population.founding(40, 2)
        burn, thin, reps = 50, 7, 30
        dead: set = set()
        alive: set = set()
        samples = stationary_samples(
            pop, (1.0, 2.0), 5, reps, np.random.default_rng(33), burn_gens=burn, thin_gens=thin
        )
        for r, part in enumerate(samples, start=1):
            assert part.n == 5 and part.k == 2
            assert pop.size == 40 and pop.generation == burn + r * thin
            now = set(zip(pop.classes.tolist(), pop.ids.tolist()))
            assert not now & dead
            assert all(ident < pop.next_ids[cls] for cls, ident in now)
            dead |= alive - now
            alive = now
        assert r == reps and pop.generation == burn + reps * thin
        assert json.loads(json.dumps(pop.to_json_dict()))["generation"] == burn + reps * thin

    def test_no_samples_still_burns_in(self):
        pop = Population.founding(20, 1)
        assert list(stationary_samples(pop, (1.0,), 2, 0, np.random.default_rng(0), 15)) == []
        assert pop.size == 20 and pop.generation == 15

    @pytest.mark.parametrize("mus", [[0.1], [0.6, 0.5], [-0.1, 0.2], [math.nan, 0.1]])
    def test_mutation_checks_match_wf_step(self, mus):
        with pytest.raises(ValueError) as by_genes:
            wf_step(Population.founding(10, 2), mus, np.random.default_rng(0))
        with pytest.raises(ValueError) as by_counts:
            _AlleleCounts(Population.founding(10, 2), mus)
        assert str(by_counts.value) == str(by_genes.value)

    @pytest.mark.parametrize("sample_size,burn,thin", [(0, 5, 5), (11, 5, 5), (2, -1, 5), (2, 5, -1)])
    def test_rejects_bad_input_before_burn_in(self, sample_size, burn, thin):
        pop = Population.founding(10, 2)
        with pytest.raises(ValueError):
            next(stationary_samples(pop, (1.0, 2.0), sample_size, 3,
                                    np.random.default_rng(0), burn, thin))
        assert pop.generation == 0

    @pytest.mark.parametrize("theta,message", [
        ((0.0, 1.0), "positive and finite"),
        ((1.0,), "need k=2 mutation masses"),
        ((1.0, 2.0, 3.0), "need k=2 mutation masses"),
    ], ids=["zero-mass", "too-few", "too-many"])
    def test_checks_at_the_call(self, theta, message):
        # a generator would check nothing until its first next()
        pop = Population.founding(10, 2)
        with pytest.raises(ValueError, match=message):
            stationary_samples(pop, theta, 2, 1, np.random.default_rng(0))
        assert pop.generation == 0

    def test_stream_follows_the_burn_in(self):
        pop = Population.founding(20, 2)
        rng = np.random.default_rng(5)
        samples = stationary_samples(pop, (1.0, 2.0), 4, 3, rng, 7, 2)
        assert pop.generation == 0  # nothing runs before the first next()
        got = list(samples)
        alleles = _AlleleCounts(Population.founding(20, 2), [1.0 / 40, 2.0 / 40])
        rng = np.random.default_rng(5)
        alleles.advance(7, rng)
        want = []
        for _ in range(3):
            alleles.advance(2, rng)
            want.append(alleles.sample(4, rng))
        assert got == want and pop.generation == 13

    @pytest.mark.parametrize("theta", [(0.0, 1.0), (math.nan, 1.0)])
    def test_rejects_bad_masses_before_burn_in(self, theta):
        pop = Population.founding(10, 2)
        with pytest.raises(ValueError, match="positive and finite"):
            next(stationary_samples(pop, theta, 2, 3, np.random.default_rng(0)))
        assert pop.generation == 0
