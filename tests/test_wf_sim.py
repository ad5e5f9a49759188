import copy
import itertools
import json
import math
import re
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from multiewens import wf_sim
from multiewens.partitions import _from_alleles, multipartition_from_lists
from multiewens.samplers import coalescent_rates, derive_seed
from multiewens.wf_sim import (
    Population,
    _joint_samples,
    _tables,
    ancestral_generator,
    sample_composition,
    stationary_partition_counts,
    stationary_samples,
    transition_prob,
    wf_step,
)

from oracles import (
    chi_square_p,
    transition_prob_fraction_sum,
    tv_distance,
    two_sample_chi_square_p,
    wf_population_law,
    wf_stationary_sample_law,
)

F = Fraction


class TestPopulation:
    def test_founding(self):
        pop = Population.founding(100, 3)
        assert pop.size == 100 and pop.generation == 0
        assert set(pop.ids.tolist()) == {0}

    def test_rejects_odd_size(self):
        with pytest.raises(ValueError):
            Population.founding(99, 1)

    @pytest.mark.parametrize("ids,classes,k,next_ids,message", [
        ([0, 0, 0, 0], [0, 0, 0, -1], 2, None, r"classes must be in 0\.\.1"),
        ([0, 0, 0, 0], [0, 0, 0, 2], 2, None, r"classes must be in 0\.\.1"),
        ([0, 0, 0], [0, 0, 0], 2, None, "population size 2N must be a positive even integer"),
        ([0, 0, 0, 0], [0, 0, 0, 0], 0, None, "k must be >= 1"),
        ([0.0, 0.0, 0.0, 0.0], [0, 0, 0, 0], 2, None, "ids and classes must be integer arrays"),
        ([0, 0, 0, 0], [0.0, 0.0, 0.0, 0.0], 2, None, "ids and classes must be integer arrays"),
        # three wf_step calls once left ids [3 1 2 3] with next id 3, so the
        # next mutant took a live allele's id
        ([3, 3, 3, 3], [0, 0, 0, 0], 1, [0], "each above every id of its class"),
        ([0, 0, 0, 0], [0, 0, 1, 1], 2, [1], r"next_ids must be one integer per class \(k=2\)"),
        ([0, 0, 0, 0], [0, 0, 0, 0], 1, [1.5], r"next_ids must be one integer per class \(k=1\)"),
    ], ids=["class-minus-one", "class-k", "odd-2n", "k-zero", "float-ids", "float-classes",
            "next-id-of-a-live-allele", "too-few-next-ids", "float-next-id"])
    def test_constructor_checks_its_fields(self, ids, classes, k, next_ids, message):
        # a class of -1 was once sampled as the last class
        if next_ids is not None:
            next_ids = np.array(next_ids)
        with pytest.raises(ValueError, match=message):
            Population(ids=np.array(ids), classes=np.array(classes), k=k, next_ids=next_ids)

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
            part = sample_composition(pop, n, n)
            assert part.n == n and part.k == 2

    def test_oversample_rejected(self):
        pop = Population.founding(10, 1)
        with pytest.raises(ValueError):
            sample_composition(pop, 11, 0)

    def test_empty_sample_rejected(self):
        # by the one sample-size rule of both engines
        pop = Population.founding(10, 2)
        with pytest.raises(ValueError, match=r"sample size 0 must be in 1\.\.10"):
            sample_composition(pop, 0, 0)
        with pytest.raises(ValueError, match="sample size 0"):
            stationary_partition_counts(10, (0.5, 1.0), 0, 1, 0)


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

    @pytest.mark.parametrize("two_n", [2, 10, 1000, 10**6])
    @pytest.mark.parametrize("mus", [(F(0),), (0,), (F(1, 7), F(2, 9)), (0.013, 1e-5),
                                     (F(1, 3), 0.25), (1e-300,)])
    def test_equals_the_fraction_sum(self, two_n, mus):
        # every p <= 7 and m <= p, so p = 0, m = 0 and m = p, and p = 40 beside them
        for p in [*range(min(two_n, 7) + 1), *([40] if two_n >= 40 else [])]:
            for m in range(p + 1):
                got = transition_prob(p, m, two_n, mus)
                assert type(got) is F
                assert got == transition_prob_fraction_sum(p, m, two_n, mus), (p, m)

    def test_guard_boundary_of_the_integer_terms(self, monkeypatch):
        # at m = 2, 2N = 2000 and M = 0 the p - 1 integer terms weigh about
        # 4.95e7 units of work at p = 1109, under the cap of 5e7, and 5.006e7
        # at p = 1110, which is refused before any Stirling number is made
        got = transition_prob(1109, 2, 2000, [F(0)])
        assert got == F((2**1108 - 1) * 2000 * 1999, 2000**1109)
        monkeypatch.setattr(wf_sim, "_stirling_second", lambda p, m: pytest.fail("computed"))
        message = ("the transition probability at p=1110, m=2 is too large to compute exactly"
                   ".*choose a smaller p, or mutation probabilities with shorter denominators")
        with pytest.raises(ValueError, match=message):
            transition_prob(1110, 2, 2000, [F(0)])

    def test_guard_boundary_of_the_stirling_sums(self, monkeypatch):
        # at m = p the p + 1 powers of p log2(p) bits weigh 49,999,992 units
        # at p = 2500 and 50,019,984 at p = 2501; the Stirling number is
        # stubbed, so neither size does its work
        calls = []
        monkeypatch.setattr(wf_sim, "_stirling_second", lambda p, m: calls.append((p, m)) or 1)
        transition_prob(2500, 2500, 10**6, [F(0)])
        assert calls == [(2500, 2500)]
        with pytest.raises(ValueError, match=r"p=2501, m=2501 is too large.*choose a smaller p$"):
            transition_prob(2501, 2501, 10**6, [F(0)])
        assert calls == [(2500, 2500)]

    def test_refuses_thousands_of_genes_before_any_work(self, monkeypatch):
        monkeypatch.setattr(wf_sim, "_stirling_second", lambda p, m: pytest.fail("computed"))
        for p, m, mus in [(2000, 1000, [F(1, 4 * 10**6)]), (5000, 2, [F(0)]), (100, 50, [1e-300])]:
            with pytest.raises(ValueError, match=f"p={p}, m={m} is too large"):
                transition_prob(p, m, 10**6, mus)

    @pytest.mark.parametrize("p,m,two_n", [(0, 0, 0), (2, 1, 3), (1, 1, -2)])
    def test_population_size_is_checked(self, p, m, two_n):
        with pytest.raises(ValueError, match="2N must be a positive even integer"):
            transition_prob(p, m, two_n, [F(0)])

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            transition_prob(3, 4, 100, [F(0)])
        with pytest.raises(ValueError):
            transition_prob(3, 2, 100, [F(1, 2), F(1, 2)])
        for mus in [(F(-1, 2),), (math.inf,), (math.nan,)]:
            with pytest.raises(ValueError, match="finite and nonnegative"):
                transition_prob(3, 2, 4, mus)

    def test_refusal_of_a_probability_past_the_digit_limit(self):
        # a denominator of 5,001 digits is shown by its bit length, and a
        # shown rational by its str
        message = "sum < 1, got (-<1-bit numerator>/<16610-bit denominator>)"
        with pytest.raises(ValueError, match=re.escape(message)):
            transition_prob(2, 1, 10, (F(-1, 10**5000),))
        with pytest.raises(ValueError, match=re.escape("sum < 1, got (1/8, 0.95)")):
            transition_prob(2, 1, 10, (F(1, 8), 0.95))


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
        # tiny smoke version of the end-to-end check, on the population chain;
        # the acceptance suite runs the full-scale one on independent samples
        from multiewens.measure import refined_esf_pmf
        from multiewens.partitions import enumerate_multipartitions

        from oracles import tv_distance

        samples = stationary_samples(
            Population.founding(200, 2), (0.5, 1.0), 3, 1500, 17,
            burn_gens=2000, thin_gens=100,
        )
        counts = Counter(samples)
        th = (F(1, 2), F(1))
        exact = {
            p: refined_esf_pmf(p, th) for p in enumerate_multipartitions(3, 2)
        }
        assert tv_distance(counts, exact, 1500) < 0.08


def _copy(pop):
    return Population(ids=pop.ids.copy(), classes=pop.classes.copy(), k=pop.k,
                      generation=pop.generation, next_ids=pop.next_ids.copy())


def _run_on(pop, gens, edges, cum, rng):
    """Run pop `gens` generations on through the joint trace, with no sample."""
    assert list(_joint_samples(pop, pop.k, 1, 0, gens, 0, edges, cum, rng)) == []


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
    edges, cum = _tables(mus, pop.size, pop.size, pop.k)
    by_counts: Counter = Counter()
    for _ in range(reps):
        after = _copy(pop)
        _run_on(after, 1, edges, cum, rng)
        by_counts[outcome(after)] += 1
    return by_genes, by_counts


class TestCountLevelEngine:
    """The backward engine behind stationary_samples against wf_step."""

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
        # once, at the first next(), with the state at the end of the run
        pop = Population.founding(40, 2)
        burn, thin, reps = 50, 7, 30
        samples = stationary_samples(
            pop, (1.0, 2.0), 5, reps, 33, burn_gens=burn, thin_gens=thin
        )
        assert pop.generation == 0
        snapshots = []
        for part in samples:
            assert part.n == 5 and part.k == 2
            assert pop.size == 40 and pop.generation == burn + reps * thin
            genes = set(zip(pop.classes.tolist(), pop.ids.tolist()))
            assert all(ident < pop.next_ids[cls] for cls, ident in genes)
            snapshots.append(json.dumps(pop.to_json_dict()))
        assert len(snapshots) == reps and len(set(snapshots)) == 1
        assert json.loads(snapshots[0])["generation"] == burn + reps * thin

    def test_unsigned_genes_stay_integers(self):
        # unsigned ids beside the int64 serials of new alleles would concatenate to floats
        pop = Population(ids=np.zeros(20, dtype=np.uint64), classes=np.zeros(20, dtype=np.uint32),
                         k=2)
        list(stationary_samples(pop, (1.0, 2.0), 4, 3, 1, 30, 5))
        assert pop.ids.dtype == pop.classes.dtype == np.int64

    def test_no_samples_still_burns_in(self):
        pop = Population.founding(20, 1)
        assert list(stationary_samples(pop, (1.0,), 2, 0, 0, 15)) == []
        assert pop.size == 20 and pop.generation == 15

    @pytest.mark.parametrize("mus", [[0.1], [0.6, 0.5], [-0.1, 0.2], [math.nan, 0.1]])
    def test_mutation_checks_match_wf_step(self, mus):
        with pytest.raises(ValueError) as by_genes:
            wf_step(Population.founding(10, 2), mus, np.random.default_rng(0))
        with pytest.raises(ValueError) as by_counts:
            _tables(mus, 10, 10, 2)
        assert str(by_counts.value) == str(by_genes.value)

    @pytest.mark.parametrize("sample_size,burn,thin", [(0, 5, 5), (11, 5, 5), (2, -1, 5), (2, 5, -1)])
    def test_rejects_bad_input_before_burn_in(self, sample_size, burn, thin):
        pop = Population.founding(10, 2)
        with pytest.raises(ValueError):
            next(stationary_samples(pop, (1.0, 2.0), sample_size, 3, 0, burn, thin))
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
            stationary_samples(pop, theta, 2, 1, 0)
        assert pop.generation == 0

    def test_refuses_2n_past_int64_at_the_call(self):
        # numpy draws its genes as int64, so 2N = 2**63 - 2 is the largest that runs
        (part,) = stationary_samples(2**63 - 2, (1, 2), 4, 1, 0, 1)
        assert part.n == 4
        for two_n in (2**63, 10**400):
            with pytest.raises(ValueError, match=f"2N={two_n} must be below 2\\*\\*63"):
                stationary_samples(two_n, (1, 2), 4, 1, 0, 1)

    def test_rejects_negative_reps_at_the_call(self):
        pop = Population.founding(10, 2)
        with pytest.raises(ValueError, match="reps must be >= 0"):
            stationary_samples(pop, (1.0, 2.0), 2, -1, 0)
        assert pop.generation == 0
        with pytest.raises(ValueError, match="reps must be >= 0"):
            stationary_partition_counts(20, (1.0, 2.0), 2, -3, 1)

    @pytest.mark.parametrize("seed", [-1, 2**64, 2.0, True, "3", np.random.default_rng(0)],
                             ids=["negative", "2**64", "float", "bool", "str", "generator"])
    def test_rejects_bad_seed_at_the_call(self, seed):
        pop = Population.founding(10, 2)
        with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\*\*64\)"):
            stationary_samples(pop, (1.0, 2.0), 2, 1, seed)
        assert pop.generation == 0

    def test_stream_follows_the_burn_in(self):
        pop = Population.founding(20, 2)
        samples = stationary_samples(pop, (1.0, 2.0), 4, 3, 5, 7, 2)
        assert pop.generation == 0  # nothing runs before the first next()
        first = next(samples)
        assert pop.generation == 13  # every sample is drawn, and pop written, at once
        got = [first, *samples]
        replay = Population.founding(20, 2)
        edges, cum = _tables([1.0 / 40, 2.0 / 40], 20, 20 + 3 * 4, 2)
        want = list(_joint_samples(replay, 2, 4, 3, 7, 2, edges, cum, np.random.default_rng(5)))
        assert got == want
        assert pop.to_json_dict() == replay.to_json_dict()

    def test_integer_start_builds_no_population(self, monkeypatch):
        # 2N as an integer runs the same trace without the final genes
        def no_population(*args, **kwargs):
            raise AssertionError("no population is built")

        monkeypatch.setattr(Population, "founding", no_population)
        edges, cum = _tables([1.0 / 40, 2.0 / 40], 20, 3 * 4, 2)
        got = list(stationary_samples(20, (1.0, 2.0), 4, 3, 5, 7, 2))
        assert got == list(_joint_samples(20, 2, 4, 3, 7, 2, edges, cum, np.random.default_rng(5)))

    @pytest.mark.parametrize("theta", [(0.0, 1.0), (math.nan, 1.0)])
    def test_rejects_bad_masses_before_burn_in(self, theta):
        pop = Population.founding(10, 2)
        with pytest.raises(ValueError, match="positive and finite"):
            next(stationary_samples(pop, theta, 2, 3, 0))
        assert pop.generation == 0


_LAW_MUS = (F(1, 10), F(1, 5))


@lru_cache(maxsize=None)
def _population_law(start: tuple, gens: int) -> dict:
    return wf_population_law(multipartition_from_lists(start), _LAW_MUS, gens)


def _population_of(start) -> Population:
    """A population shaped like the multiple partition `start`, one id per allele."""
    ids, classes = [], []
    for l, rows in enumerate(start):
        for ident, r in enumerate(rows):
            ids += [ident] * r
            classes += [l] * r
    return Population(ids=np.array(ids), classes=np.array(classes), k=len(start))


def _composition(pop: Population):
    genes = Counter(zip(pop.classes.tolist(), pop.ids.tolist()))
    return _from_alleles(((cls, c) for (cls, _), c in genes.items()), pop.k)


_MONO, _POLY = ((4,), ()), ((3, 1), (2,))
# the genes of _POLY interleaved: (0, 0) (1, 0) (0, 1) (0, 0) (1, 0) (0, 0)
_INTERLEAVED = [0, 4, 3, 1, 5, 2]


class TestBackwardLaw:
    """The joint trace with no sample, run g generations on from pop, against
    the exact forward law of the whole population."""

    # seeds fixed before the first run; 20,000 windows per case
    @pytest.mark.parametrize("start,order,gens,seed", [
        (_MONO, None, 1, 1301), (_MONO, None, 3, 1302), (_MONO, None, 20, 1303),
        (_POLY, None, 1, 1304), (_POLY, None, 3, 1305), (_POLY, None, 20, 1306),
        (_POLY, _INTERLEAVED, 3, 1307),
    ], ids=["mono-g1", "mono-g3", "mono-g20", "poly-g1", "poly-g3", "poly-g20",
            "interleaved-g3"])
    @pytest.mark.parametrize("lineages", [None, 2], ids=["event-driven", "mixed"])
    def test_population_law(self, start, order, gens, seed, lineages):
        # at 2N <= 6 the table covers every lineage, so every window is
        # event-driven; with a table of two lineages the generations with
        # more than two are drawn whole
        if lineages is not None:
            seed += 100
        pop = _population_of(start)
        if order is not None:
            pop = Population(ids=pop.ids[order], classes=pop.classes[order], k=pop.k)
        edges, cum = _tables([float(m) for m in _LAW_MUS], pop.size, lineages or pop.size, pop.k)
        rng, reps = np.random.default_rng(seed), 20_000
        counts: Counter = Counter()
        for _ in range(reps):
            state = _copy(pop)
            _run_on(state, gens, edges, cum, rng)
            counts[_composition(state)] += 1
        assert chi_square_p(counts, _population_law(start, gens), reps) > 1e-3

    def test_advance_zero_draws_nothing(self):
        rng = np.random.default_rng(7)
        pop = _population_of(_POLY)
        before = copy.deepcopy(rng.bit_generator.state)
        snapshot = pop.to_json_dict()
        _run_on(pop, 0, *_tables([0.1, 0.2], pop.size, pop.size, pop.k), rng)
        assert rng.bit_generator.state == before
        assert pop.to_json_dict() == snapshot

    def test_subnormal_mutation_mass(self):
        # a lone lineage's null run is then longer than any float can count
        pop = Population.founding(10, 2)
        _run_on(pop, 10**6, *_tables([1e-311, 1e-311], 10, 10, 2), np.random.default_rng(9))
        assert _alleles_of(pop) == [(0, 0)] and pop.size == 10 and pop.generation == 10**6

    def test_survivors_first_then_fresh_serials(self):
        # the genes of lineages that reach the window's start come first and
        # carry old alleles, each still alive; the new alleles follow, with
        # consecutive fresh serials per class, so no dead id comes back
        rng = np.random.default_rng(8)
        pop = _population_of(((30, 20, 10), (25, 15)))
        edges, cum = _tables([0.01, 0.02], pop.size, pop.size, pop.k)
        dead: set = set()
        for _ in range(20):
            alive, next_ids = set(_alleles_of(pop)), pop.next_ids.tolist()
            _run_on(pop, 40, edges, cum, rng)
            keys = list(zip(pop.classes.tolist(), pop.ids.tolist()))
            old = [ident < next_ids[cls] for cls, ident in keys]
            survivors = old.index(False) if False in old else len(old)
            assert not any(old[survivors:]) and set(keys[:survivors]) <= alive
            for l in range(2):
                fresh = dict.fromkeys(ident for cls, ident in keys[survivors:] if cls == l)
                assert list(fresh) == list(range(next_ids[l], pop.next_ids[l]))
            now = set(keys)
            assert not now & dead and pop.size == 100
            dead |= alive - now


class TestJointSamples:
    """The samples of stationary_samples, traced jointly, against the
    gene-level chain: wf_step each generation and sample_composition at
    each sample time."""

    # seeds and the threshold fixed before the first run; 20,000 runs a side
    @pytest.mark.parametrize("start,n,burn,thin,seeds", [
        (_MONO, 2, 2, 1, (3101, 3102)),
        (_POLY, 3, 1, 2, (3103, 3104)),
        (_POLY, 3, 2, 0, (3105, 3106)),  # both samples of one generation
        (4, 3, 3, 1, (3107, 3108)),  # 2N as an integer: a start that is not kept
    ], ids=["mono-4", "poly-6", "same-generation-6", "integer-4"])
    def test_two_samples_against_the_chain(self, start, n, burn, thin, seeds):
        reps = 20_000
        pop = Population.founding(start, 2) if isinstance(start, int) else _population_of(start)
        theta = tuple(2 * pop.size * m for m in _LAW_MUS)  # mu_l = theta_l/(4N)
        rng = np.random.default_rng(seeds[0])
        by_chain: Counter = Counter()
        for _ in range(reps):
            state, pair = _copy(pop), []
            for gens in (burn + thin, thin):
                for _ in range(gens):
                    wf_step(state, [float(m) for m in _LAW_MUS], rng)
                pair.append(sample_composition(state, n, int(rng.integers(2**63))))
            by_chain[tuple(pair)] += 1
        by_trace = Counter(
            tuple(stationary_samples(start if isinstance(start, int) else _copy(pop), theta, n,
                                     2, derive_seed(seeds[1], r), burn, thin))
            for r in range(reps)
        )
        assert two_sample_chi_square_p(by_chain, by_trace) > 1e-3

    @staticmethod
    def _within(part, pop):
        """Whether the composition part can be drawn from pop's genes: class
        by class, its ranked allele counts are at most pop's."""
        alleles = Counter(zip(pop.classes.tolist(), pop.ids.tolist()))
        for l, comp in enumerate(part.components):
            have = sorted((c for (cls, _), c in alleles.items() if cls == l), reverse=True)
            if len(comp.rows) > len(have) or any(r > h for r, h in zip(comp.rows, have)):
                return False
        return True

    @pytest.mark.parametrize("two_n,n,reps,thin,seed", [
        (40, 4, 10, 3, 3111), (40, 4, 10, 0, 3112),
        (200, 6, 20, 5, 3113), (200, 6, 20, 0, 3114),
    ], ids=["small", "small-same-generation", "large", "large-same-generation"])
    def test_last_sample_lives_in_the_kept_population(self, two_n, n, reps, thin, seed):
        for r in range(20):
            pop = Population.founding(two_n, 2)
            samples = list(stationary_samples(pop, (1.0, 2.0), n, reps, derive_seed(seed, r),
                                              50, thin))
            assert [p.n for p in samples] == [n] * reps
            assert pop.size == two_n and pop.generation == 50 + reps * thin
            # with thin = 0 every sample is of the final generation
            assert all(self._within(p, pop) for p in (samples if thin == 0 else samples[-1:]))


_SMALL_MUS, _LARGE_MUS = (F(1, 100), F(1, 50)), (F(1, 10), F(1, 5))


class TestStationaryGenealogy:
    """stationary_partition_counts, one genealogy per sample, against the
    exact stationary sample law of the finite chain."""

    # seeds and the threshold fixed before the first run; 20,000 samples per case
    @pytest.mark.parametrize("two_n,n,mus,seed", [
        (4, 2, _SMALL_MUS, 1701), (4, 2, _LARGE_MUS, 1702),
        (4, 3, _SMALL_MUS, 1703), (4, 3, _LARGE_MUS, 1704),
        (6, 2, _SMALL_MUS, 1705), (6, 2, _LARGE_MUS, 1706),
        (6, 3, _SMALL_MUS, 1707), (6, 3, _LARGE_MUS, 1708),
        # the whole population, where it matters which lineage a merge joins
        (4, 4, _SMALL_MUS, 1709), (4, 4, _LARGE_MUS, 1710),
    ], ids=["4-2-small", "4-2-large", "4-3-small", "4-3-large",
            "6-2-small", "6-2-large", "6-3-small", "6-3-large", "4-4-small", "4-4-large"])
    def test_finite_chain_law(self, two_n, n, mus, seed):
        reps = 20_000
        thetas = tuple(2 * two_n * m for m in mus)  # mu_l = theta_l/(4N)
        counts = stationary_partition_counts(two_n, thetas, n, reps, seed)
        assert chi_square_p(counts, wf_stationary_sample_law(two_n, mus, n), reps) > 1e-3

    @pytest.mark.parametrize("mus,events,seed", [(_SMALL_MUS, 0.5, 1711), (_LARGE_MUS, 1.0, 1712)],
                             ids=["small", "large"])
    def test_generations_drawn_one_by_one(self, monkeypatch, mus, events, seed):
        # -log of the null probability of a generation of two lineages is
        # 0.24 (small) or 0.90 (large), and of three 0.68 or 1.66, so with
        # these caps the generations with three lineages are drawn whole, as
        # a busy generation at large n is
        monkeypatch.setattr(wf_sim, "_WHOLE_EVENTS", events)
        assert len(_tables([float(m) for m in mus], 6, 3)[1]) == 3
        reps = 20_000
        counts = stationary_partition_counts(6, tuple(12 * m for m in mus), 3, reps, seed)
        assert chi_square_p(counts, wf_stationary_sample_law(6, mus, 3), reps) > 1e-3

    @pytest.mark.parametrize("two_n,n,seeds", [
        (1000, 80, (3201, 3202)), (2000, 200, (3203, 3204)),
    ], ids=["80-of-1000", "200-of-2000"])
    def test_against_a_table_of_64_lineages(self, monkeypatch, two_n, n, seeds):
        # seeds fixed before the first run: with its table cut at 64
        # lineages, a sample of n genes starts in the numpy phase, whose
        # merges sort and sum the weights; its own table covers all n, so
        # the same law is drawn event by event.  Compared on the allele
        # count of each class.
        tables, mus, reps, counts = _tables, [0.5 / (2 * two_n), 1.0 / (2 * two_n)], 4_000, []
        assert len(tables(mus, two_n, n)[1]) == n + 1
        for cap, seed in zip((64, None), seeds):
            with monkeypatch.context() as patch:
                if cap:
                    patch.setattr(wf_sim, "_tables", lambda mus, two_n, lineages, k=None:
                                  tables(mus, two_n, min(lineages, cap), k))
                drawn = stationary_partition_counts(two_n, (0.5, 1.0), n, reps, seed)
            assert all(part.n == n for part in drawn)  # merges sum the genes
            per_class: Counter = Counter()
            for part, c in drawn.items():
                per_class[tuple(len(comp.rows) for comp in part.components)] += c
            counts.append(per_class)
        assert two_sample_chi_square_p(*counts) > 1e-3

    @pytest.mark.parametrize("theta,seed", [((1e-310, 1e-310), 1721), ((5e-324, 5e-324), 1722)],
                             ids=["subnormal-mu", "mu-underflows"])
    def test_tiny_masses_found_the_last_lineage(self, theta, seed):
        # mu = theta/2000 is subnormal or 0, so a lone lineage's wait is
        # beyond any float; its class still follows the masses' odds
        reps = 2_000
        counts = stationary_partition_counts(1000, theta, 4, reps, seed)
        mono = [multipartition_from_lists([[4], []]), multipartition_from_lists([[], [4]])]
        assert set(counts) <= set(mono) and sum(counts.values()) == reps
        assert abs(counts[mono[0]] - reps / 2) < 4 * math.sqrt(reps / 4)

    def test_one_gene_takes_the_class_odds(self):
        counts = stationary_partition_counts(10**6, (0.5, 1.0), 1, 3_000, 1723)
        ones = multipartition_from_lists([[1], []])
        assert abs(counts[ones] - 1_000) < 4 * math.sqrt(3_000 * 2 / 9)

    def test_2n_past_int64_runs(self):
        # events at 2N = 10**20 need no int64 draw; 10**400 is refused below
        counts = stationary_partition_counts(10**20, (1, 2), 10, 2, 1)
        assert sum(counts.values()) == 2 and all(p.n == 10 for p in counts)

    def test_2n_past_int64_refused_where_a_generation_is_drawn_whole(self):
        # mu = 0.2 per class: the table covers about 125 lineages, so a sample
        # of 100 skips from event to event and one of 200 draws int64 parents
        counts = stationary_partition_counts(10**20, (4e19, 4e19), 100, 1, 1)
        assert [p.n for p in counts] == [100]
        with pytest.raises(ValueError, match=r"2N=10{20} must be below 2\*\*63"):
            stationary_partition_counts(10**20, (4e19, 4e19), 200, 1, 1)
        counts = stationary_partition_counts(2**63 - 2, (4e18, 4e18), 200, 1, 1)
        assert [p.n for p in counts] == [200]

    def test_mass_past_the_float_range_refused_by_the_mu_rule(self):
        # mu = 10**400/20 far above 1: the mu rule refuses it, with its values
        rule = r"mutation probabilities must be finite and nonnegative with sum < 1, got \(50{398}, 1/20\)"
        with pytest.raises(ValueError, match=rule):
            list(stationary_samples(10, (10**400, 1), 2, 1, 1))
        with pytest.raises(ValueError, match=rule):
            stationary_partition_counts(10, (10**400, 1), 2, 1, 1)

    @pytest.mark.parametrize("two_n,sample_size,reps,seed,message", [
        (7, 2, 1, 0, "positive even integer"),
        (0, 1, 1, 0, "positive even integer"),
        (10, 0, 1, 0, "must be in 1..10"),
        (10, 11, 1, 0, "must be in 1..10"),
        (10, 2, -1, 0, "reps must be >= 0"),
        (10, 2, 1, -1, r"integer in \[0, 2\*\*64\)"),
        (10**400, 4, 1, 1, r"mu = theta/\(4N\) cannot be a float at 2N=10{400}"),
    ], ids=["odd", "empty", "no-genes", "too-many-genes", "negative-reps", "bad-seed",
            "2n-past-the-float-range"])
    def test_refusals(self, two_n, sample_size, reps, seed, message):
        with pytest.raises(ValueError, match=message):
            stationary_partition_counts(two_n, (1.0, 2.0), sample_size, reps, seed)
