import itertools
import math
import random
import re
import time
from fractions import Fraction

import pytest

from multiewens.measure import (
    MutationParams,
    _rising,
    check_consistency,
    classical_ewens_pmf,
    downward_transition,
    factorization_check,
    labeled_set_partition_pmf,
    normalization_check,
    pochhammer,
    refined_esf_log_pmf,
    refined_esf_pmf,
    refined_esf_pmf_factorized,
    set_partition_check,
    union_marginal_check,
    vandermonde_check,
)
from multiewens.partitions import (
    LabeledSetPartition,
    MultiplePartition,
    YoungDiagram,
    enumerate_multipartitions,
    labeled_set_partitions,
    partitions_of,
    set_partition_to_multipartition,
)
from multiewens.wreath import (
    WreathElement,
    crp_element_counts,
    crp_wreath_sample,
    cycle_type,
    cyclic_group,
    enumerate_wreath_elements,
    pewens_log_pmf,
    pewens_pmf,
    symmetric_group_3,
    trivial_group,
)

from multiewens import measure, poisson
from multiewens.allele_stats import bernoulli_k_samples, class_moments, joint_k_pmf
from multiewens.samplers import _KERNEL_STEPS, hoppe_urn_partition_counts, hoppe_urn_sample

from oracles import (
    classical_ewens_direct,
    joint_k_direct,
    pewens_direct,
    refined_esf_direct,
    set_partition_direct,
)

F = Fraction


def mp(*rows_lists):
    return MultiplePartition(tuple(YoungDiagram(tuple(r)) for r in rows_lists))


class TestPochhammer:
    def test_one_step(self):
        assert pochhammer(F(3, 2), 1) == F(3, 2)

    def test_factorial(self):
        for n in range(8):
            assert pochhammer(1, n) == math.factorial(n)

    def test_2_3(self):
        assert pochhammer(2, 3) == 24

    def test_empty_product(self):
        assert pochhammer(F(7, 3), 0) == 1


class TestMutationParams:
    def test_w(self):
        p = MutationParams((F(1), F(2)))
        assert p.w == 3 and p.k == 2 and p.is_exact

    def test_float_not_exact(self):
        assert not MutationParams((0.5, 1.0)).is_exact

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            MutationParams((F(1), F(0)))
        with pytest.raises(ValueError):
            MutationParams(())

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            MutationParams((bad, 1.0))
        with pytest.raises(ValueError):
            refined_esf_pmf(mp([1], []), (bad, 1))

    def test_rejects_negative_fraction(self):
        with pytest.raises(ValueError, match="positive and finite"):
            MutationParams((F(-1, 2), F(1)))
        with pytest.raises(ValueError, match="positive and finite"):
            refined_esf_pmf(mp([1], []), (F(-1, 2), 1))

    def test_refusal_of_a_mass_past_the_digit_limit(self):
        # a denominator of 5,001 digits is shown by its bit length
        with pytest.raises(ValueError, match=re.escape(
                "positive and finite, got (-<1-bit numerator>/<16610-bit denominator>, 1)")):
            MutationParams((F(-1, 10**5000), 1))

    @pytest.mark.parametrize("first", ["exact", "float"])
    def test_backend_follows_mass_type(self, first):
        # 1 and 1.0 hash alike, so a cache keyed by the masses themselves
        # could hand one backend's values to the other
        import multiewens.measure as measure

        measure._rising.cache_clear()
        p = mp([2, 1], [1])
        s = LabeledSetPartition(((1, frozenset({1, 2})), (2, frozenset({3}))), n=3)
        x = WreathElement((0, 1, 1), (1, 0, 2))
        laws = [
            lambda m: refined_esf_pmf(p, m),
            lambda m: refined_esf_pmf_factorized(p, m),
            lambda m: labeled_set_partition_pmf(s, m),
            lambda m: pewens_pmf(x, cyclic_group(2), m),
        ]
        order = [((1, 2), Fraction), ((1.0, 2.0), float)]
        for masses, kind in order if first == "exact" else order[::-1]:
            for law in laws:
                assert type(law(masses)) is kind


class TestMassesMemo:
    """The one-slot memo of checked and scaled masses: a hit must give the law
    of the masses as they are now, and only immutable masses may hit."""

    P = mp([2, 1], [1])

    def test_list_changed_in_place_gives_the_new_law(self):
        masses = [F(1), F(2)]
        first = refined_esf_pmf(self.P, masses)
        masses[1] = F(5, 3)
        assert refined_esf_pmf(self.P, masses) == refined_esf_direct([[2, 1], [1]], (F(1), F(5, 3)))
        assert refined_esf_pmf(self.P, masses) != first
        masses[1] = 2.0
        assert type(refined_esf_pmf(self.P, masses)) is float

    @pytest.mark.parametrize("bad", [(F(-1, 2), F(1)), (1e308, 1e308), (True, 0)])
    def test_refused_masses_raise_on_every_call(self, bad):
        for _ in range(3):
            with pytest.raises(ValueError):
                refined_esf_pmf(self.P, bad)
            assert measure._last[0] is not bad

    def test_numpy_zero_d_entry_is_never_memoised(self):
        np = pytest.importorskip("numpy")
        masses = (np.array(1.5), 2.0)
        first = refined_esf_pmf(self.P, masses)
        assert measure._last[0] is not masses
        masses[0][...] = 3.0
        assert refined_esf_pmf(self.P, masses) == refined_esf_pmf(self.P, (3.0, 2.0)) != first

    def test_alternating_masses_agree_with_fresh_tuples(self):
        states = list(enumerate_multipartitions(4, 2))
        blocks = list(labeled_set_partitions(4, 2))
        laws = [
            lambda m: [refined_esf_pmf(p, m) for p in states],
            lambda m: [refined_esf_pmf_factorized(p, m) for p in states],
            lambda m: [labeled_set_partition_pmf(s, m) for s in blocks],
            lambda m: [joint_k_pmf(4, m, ps) for ps in itertools.product(range(5), repeat=2)],
        ]
        a, b, params = (F(1), F(2)), (F(3, 7), 5), MutationParams((F(2, 3), F(4)))
        for masses in [a, b, params, a, params, b] * 2:
            values = masses.thetas if masses is params else masses
            for law in laws:
                got = law(masses)  # the first call fills the slot, the rest hit it
                fresh = law(tuple(list(values)))  # a new object on every call: never a hit
                assert got == fresh and all(type(v) is Fraction for v in got)

    def test_exact_entry_points_read_a_list_once(self, monkeypatch):
        # a list is never memoised, so each read of it would check and scale it anew
        import multiewens.allele_stats as allele_stats

        calls, context = [], measure._context

        def counted(*args):
            calls.append(args)
            return context(*args)

        monkeypatch.setattr(measure, "_context", counted)
        monkeypatch.setattr(allele_stats, "_context", counted)
        for entry in (lambda m: measure.normalization_check(4, 2, m),
                      lambda m: joint_k_pmf(5, m, (1, 2))):
            calls.clear()
            entry([F(1, 2), F(3)])
            assert len(calls) == 1

    def test_threads_alternating_masses_agree_with_one_thread(self):
        import sys
        import threading

        states = list(enumerate_multipartitions(5, 2))
        masses = [(F(1), F(2)), (F(3, 7), F(5, 2)), (2, F(1, 3)), (1.5, 0.25)]
        want = {m: [refined_esf_pmf(p, list(m)) for p in states] for m in masses}
        wrong = []

        def work(order):
            for _ in range(20):
                for m in order:
                    if [refined_esf_pmf(p, m) for p in states] != want[m]:
                        wrong.append(m)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads between nearly every law call
        try:  # more threads than cores, each with its own order of the masses
            threads = [threading.Thread(target=work, args=(masses[i:] + masses[:i],))
                       for i in range(len(masses))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and not wrong


class TestRefinedPmf:
    def test_single_draw_law(self):
        # one box in class l has probability theta_l / w
        th = (F(2), F(3), F(5))
        assert refined_esf_pmf(mp([1], [], []), th) == F(2, 10)
        assert refined_esf_pmf(mp([], [1], []), th) == F(3, 10)
        assert refined_esf_pmf(mp([], [], [1]), th) == F(5, 10)

    def test_single_allele_sample(self):
        # component l = (n): (n-1)! theta_l / (w)_n
        th = (F(1), F(2))
        for n in range(1, 7):
            expected = F(math.factorial(n - 1)) * 2 / pochhammer(F(3), n)
            assert refined_esf_pmf(mp([], [n]), th) == expected

    def test_value_against_enumeration_oracle(self):
        # ((1),(2)) at theta=(1,1): aggregate the labelled set-partition law
        th = (F(1), F(1))
        target = mp([1], [2])
        total = F(0)
        for s in labeled_set_partitions(3, 2):
            if set_partition_to_multipartition(s, 2) == target:
                total += labeled_set_partition_pmf(s, th)
        value = refined_esf_pmf(target, th)
        assert value == total == F(1, 8)

    def test_empty_partition(self):
        assert refined_esf_pmf(mp([], []), (F(1), F(2))) == 1

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            refined_esf_pmf(mp([1], []), (F(1), F(2), F(3)))

    @pytest.mark.parametrize("n,k", [(n, k) for n in range(11) for k in (1, 2, 3)])
    def test_normalization(self, n, k):
        th = (F(1), F(2), F(3))[:k]
        total = sum(refined_esf_pmf(p, th) for p in enumerate_multipartitions(n, k))
        assert total == 1

    def test_k1_reduces_to_classical(self):
        for n in range(11):
            for rows in partitions_of(n):
                lam = YoungDiagram(rows)
                single = mp(list(rows))
                assert refined_esf_pmf(single, (F(3, 2),)) == \
                    classical_ewens_pmf(lam, F(3, 2))


class TestClassicalEwens:
    def test_size_one(self):
        for th in (F(1, 2), F(1), F(5)):
            assert classical_ewens_pmf(YoungDiagram((1,)), th) == 1

    def test_single_row(self):
        th = F(2, 3)
        for n in range(1, 8):
            expected = math.factorial(n - 1) * th / pochhammer(th, n)
            assert classical_ewens_pmf(YoungDiagram((n,)), th) == expected

    def test_sums_to_one(self):
        th = F(7, 5)
        for n in range(1, 11):
            total = sum(
                classical_ewens_pmf(YoungDiagram(rows), th)
                for rows in partitions_of(n)
            )
            assert total == 1

    def test_against_direct_oracle(self):
        th = F(3, 4)
        for n in range(1, 8):
            for rows in partitions_of(n):
                assert classical_ewens_pmf(YoungDiagram(rows), th) == \
                    classical_ewens_direct(rows, th, n)


class TestFactorized:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_agrees_exactly(self, k):
        th = (F(1), F(2), F(3))[:k]
        for n in range(9):
            for p in enumerate_multipartitions(n, k):
                assert refined_esf_pmf_factorized(p, th) == refined_esf_pmf(p, th)

    def test_single_draw(self):
        assert refined_esf_pmf_factorized(mp([1], []), (F(1), F(2))) == F(1, 3)

    def test_empty(self):
        assert refined_esf_pmf_factorized(mp([], [], []), (F(1), F(1), F(1))) == 1


class TestLogBackend:
    def test_matches_exact_within_1e12(self):
        th_q = (F(1), F(2))
        th_f = (1.0, 2.0)
        for n in range(1, 11):
            for p in enumerate_multipartitions(n, 2):
                exact = refined_esf_pmf(p, th_q)
                logged = refined_esf_log_pmf(p, th_f)
                rel = abs(math.exp(logged) - float(exact)) / float(exact)
                assert rel <= 1e-12

    def test_float_thetas_route_through_logs(self):
        value = refined_esf_pmf(mp([1], []), (1.0, 2.0))
        assert isinstance(value, float)
        assert value == pytest.approx(1 / 3, rel=1e-14)

    def test_large_n_stays_finite(self):
        p = mp([300] + [1] * 150, [50, 25])
        assert math.isfinite(refined_esf_log_pmf(p, (0.7, 1.3)))


class TestDownwardTransition:
    def test_single_box(self):
        children = downward_transition(mp([1], []))
        assert children == {mp([], []): F(1)}

    def test_single_row(self):
        children = downward_transition(mp([2], []))
        assert children == {mp([1], []): F(1)}

    def test_worked_example(self):
        children = downward_transition(mp([2, 1], [1]))
        assert children == {
            mp([1, 1], [1]): F(2, 4),
            mp([2], [1]): F(1, 4),
            mp([2, 1], []): F(1, 4),
        }

    def test_empty_partition_rejected(self):
        with pytest.raises(ValueError):
            downward_transition(mp([], []))

    def test_kernel_is_stochastic(self):
        for n in range(1, 8):
            for p in enumerate_multipartitions(n, 2):
                assert sum(downward_transition(p).values()) == 1


class TestConsistency:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_k2(self, n):
        assert check_consistency(n, 2, (F(1), F(2))).ok

    def test_k3(self):
        for n in range(2, 7):
            assert check_consistency(n, 3, (F(1), F(2), F(3))).ok

    def test_k1_classical(self):
        for n in range(2, 9):
            assert check_consistency(n, 1, (F(5, 4),)).ok

    def test_vacuous_at_n1(self):
        assert check_consistency(1, 2, (F(1), F(2))).ok

    def test_detects_wrong_theta_pairing(self):
        # pushing the n-law of one theta onto the (n-1)-law of another fails
        report = check_consistency(3, 2, (F(1), F(2)))
        assert report.ok and report.failures == ()


class TestUnionMarginal:
    @pytest.mark.parametrize("n", range(0, 9))
    def test_k2(self, n):
        assert union_marginal_check(n, 2, (F(1), F(2))).ok

    def test_k3(self):
        for n in range(0, 7):
            assert union_marginal_check(n, 3, (F(1), F(2), F(3))).ok

    def test_k1_identity(self):
        assert union_marginal_check(6, 1, (F(2),)).ok

    def test_single_row_aggregation(self):
        # sum_l (n-1)! theta_l / (w)_n == (n-1)! w / (w)_n
        th = (F(1), F(2))
        n = 5
        total = sum(refined_esf_pmf(mp(*rows), th)
                    for rows in ([[n], []], [[], [n]]))
        assert total == classical_ewens_pmf(YoungDiagram((n,)), F(3))


class TestVandermonde:
    def test_k1(self):
        assert vandermonde_check(7, 1, (F(5, 3),))

    def test_k2_n2(self):
        assert vandermonde_check(2, 2, (F(1), F(1)))

    def test_random_small_rationals(self):
        rng = random.Random(3)
        for _ in range(12):
            k = rng.randint(1, 4)
            th = tuple(F(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(k))
            n = rng.randint(0, 12)
            assert vandermonde_check(n, k, th)


class TestLabeledSetPartitionLaw:
    def test_single_element(self):
        th = (F(1), F(3))
        s1 = LabeledSetPartition(((1, frozenset({1})),), n=1)
        s2 = LabeledSetPartition(((2, frozenset({1})),), n=1)
        assert labeled_set_partition_pmf(s1, th) == F(1, 4)
        assert labeled_set_partition_pmf(s2, th) == F(3, 4)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_sums_to_one(self, n):
        th = (F(1), F(2))
        total = sum(
            labeled_set_partition_pmf(s, th) for s in labeled_set_partitions(n, 2)
        )
        assert total == 1

    def test_exchangeability(self):
        th = (F(1), F(2))
        rng = random.Random(5)
        for s in rng.sample(list(labeled_set_partitions(5, 2)), 20):
            perm = list(range(1, 6))
            rng.shuffle(perm)
            relabeled = LabeledSetPartition(
                tuple(
                    (label, frozenset(perm[e - 1] for e in elems))
                    for label, elems in s.blocks
                ),
                n=5,
            )
            assert labeled_set_partition_pmf(relabeled, th) == \
                labeled_set_partition_pmf(s, th)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_pushforward_reproduces_partition_law(self, n):
        th = (F(1), F(2))
        grouped = {}
        for s in labeled_set_partitions(n, 2):
            key = set_partition_to_multipartition(s, 2)
            grouped[key] = grouped.get(key, F(0)) + labeled_set_partition_pmf(s, th)
        for p in enumerate_multipartitions(n, 2):
            assert grouped.get(p, F(0)) == refined_esf_pmf(p, th)

    def test_label_out_of_range(self):
        s = LabeledSetPartition(((3, frozenset({1})),), n=1)
        with pytest.raises(ValueError):
            labeled_set_partition_pmf(s, (F(1), F(2)))


_TH = (F(1), F(2, 3), F(5, 2))


def _law_cases(law, n):
    """(evaluate(masses), exact masses) for every state of one law at size n
    with k = 1..3 classes."""
    for k in (1, 2, 3):
        th = _TH[:k]
        if law in ("refined", "factorized"):
            fn = refined_esf_pmf if law == "refined" else refined_esf_pmf_factorized
            for p in enumerate_multipartitions(n, k):
                yield (lambda m, p=p: fn(p, m)), th
        elif law == "classical":
            for rows in partitions_of(n):
                yield (lambda m, rows=rows: classical_ewens_pmf(YoungDiagram(rows), m[0])), th[-1:]
        elif law == "set-partition":
            for s in labeled_set_partitions(n, k):
                yield (lambda m, s=s: labeled_set_partition_pmf(s, m)), th
        else:  # wreath: a group with k conjugacy classes, sampled elements
            group = (trivial_group(), cyclic_group(2), symmetric_group_3())[k - 1]
            for seed in range(10):
                x = crp_wreath_sample(n, group, th, seed)
                yield (lambda m, x=x, g=group: pewens_pmf(x, g, m)), th


class TestExactFloatAgreement:
    """Float masses run the log backend; it must agree with the exact one."""

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize(
        "law", ["refined", "factorized", "classical", "set-partition", "wreath"]
    )
    def test_relative_1e12(self, law, n):
        for evaluate, th in _law_cases(law, n):
            exact = evaluate(th)
            assert isinstance(exact, Fraction)
            got = evaluate(tuple(float(t) for t in th))
            assert isinstance(got, float)
            assert abs(got - float(exact)) <= 1e-12 * float(exact)


def _exact_log(value: Fraction) -> float:
    """log of a positive Fraction to about 1e-13 absolute, for laws far below
    the smallest float: the ratio is scaled to a 60-bit-or-more integer first,
    so neither log is taken at the size of the numerator or denominator."""
    num, den = value.numerator, value.denominator
    shift = den.bit_length() - num.bit_length() + 60
    return math.log((num << shift) // den) - shift * math.log(2)


class TestFloatAtLargeN:
    """The float log laws against the exact laws far past the n where the
    probability underflows, each on five draws of its own sampler."""

    @pytest.mark.parametrize("n,th", [
        (2000, (F(7, 10), F(13, 10))),
        (2000, (F(1, 3), F(2))),
        (20000, (F(1), F(5, 2))),
    ])
    def test_refined_log_pmf(self, n, th):
        for seed in range(5):
            p = hoppe_urn_sample(n, th, seed)[0]
            exact = _exact_log(refined_esf_pmf(p, th))
            assert abs(refined_esf_log_pmf(p, tuple(map(float, th))) - exact) <= 1e-10

    @pytest.mark.parametrize("n", [300, 2000])
    @pytest.mark.parametrize("ts", [(F(1), F(2), F(3)), (F(1, 2), F(7, 3), F(5, 4))])
    def test_wreath_log_pmf(self, n, ts):
        group = symmetric_group_3()
        for seed in range(5):
            x = crp_wreath_sample(n, group, ts, seed)
            exact = _exact_log(pewens_pmf(x, group, ts))
            got = pewens_log_pmf(x, group, tuple(map(float, ts)))
            assert abs(got - exact) <= 1e-10
            assert pewens_pmf(x, group, tuple(map(float, ts))) == math.exp(got)


# masses from 1e-300 to 1e300, alone, beside 1 and beside their inverse
_MASSES = [10.0**e for e in (-300, -200, -100, -30, -16, -10, -3, 0, 3, 10, 14, 16, 20, 30,
                             100, 200, 300)] + [0.37, 7.5]
_AT_ANY_MASS = [th for s in _MASSES for th in ((s, s), (s, 1.0), (1.0, s), (s, 1 / s, 2.5))]


class TestFloatAtAnyMass:
    """Every float law and log law against the exact law on Fraction copies of
    the same masses, over every state at desk size.  The bound was fixed
    before the first run: |log error| <= 1e-11 max(1, |exact log|), the
    probability within that relative error, no probability above 1 and no
    log-probability above 0."""

    @staticmethod
    def _check(exact, log_p=None, probs=()):
        want = _exact_log(exact)
        tol = 1e-11 * max(1.0, abs(want))
        if log_p is not None:
            assert log_p <= 0 and abs(log_p - want) <= tol
        for prob in probs:
            assert 0 <= prob <= 1
            assert abs(prob - math.exp(want)) <= tol * math.exp(want) + 1e-300

    @pytest.mark.parametrize("th", _AT_ANY_MASS, ids=str)
    def test_refined_and_factorized(self, th):
        exact_th = tuple(map(F, th))
        for p in enumerate_multipartitions(6 if len(th) == 2 else 4, len(th)):
            self._check(refined_esf_pmf(p, exact_th), refined_esf_log_pmf(p, th),
                        (refined_esf_pmf(p, th), refined_esf_pmf_factorized(p, th)))

    @pytest.mark.parametrize("th", _AT_ANY_MASS, ids=str)
    def test_labelled_set_partition(self, th):
        exact_th = tuple(map(F, th))
        for s in labeled_set_partitions(4, len(th)):
            self._check(labeled_set_partition_pmf(s, exact_th),
                        probs=(labeled_set_partition_pmf(s, th),))

    @pytest.mark.parametrize("ts", _AT_ANY_MASS, ids=str)
    def test_wreath(self, ts):
        exact_ts = tuple(map(F, ts))
        n, group = (3, cyclic_group(2)) if len(ts) == 2 else (2, symmetric_group_3())
        for x in enumerate_wreath_elements(n, group):
            self._check(pewens_pmf(x, group, exact_ts), pewens_log_pmf(x, group, ts),
                        (pewens_pmf(x, group, ts),))


class TestFiniteTotal:
    """Masses whose every value is finite but whose float total is not are
    refused, with one message, by every entry point that would form that
    total; so are restaurant weights whose opening total sum_l t_l |c_l|
    overflows, while the wreath law, which needs only sum_l t_l |c_l| / |G|,
    still takes them."""

    MASSES = [(1e308, 1e308), (1e308, 1.0, 1e308), (F(10**400), 1.0)]
    GROUPS = [(cyclic_group(2), (1e308, 1e308)), (symmetric_group_3(), (1.0, 1e308, 1.0))]

    @staticmethod
    def _entry_points(th):
        k = len(th)
        p = MultiplePartition(tuple(YoungDiagram((1,)) for _ in range(k)))
        s = LabeledSetPartition(tuple((l + 1, frozenset({l + 1})) for l in range(k)), n=k)
        return [
            lambda: MutationParams(th),
            lambda: refined_esf_pmf(p, th),
            lambda: refined_esf_log_pmf(p, th),
            lambda: refined_esf_pmf_factorized(p, th),
            lambda: labeled_set_partition_pmf(s, th),
            lambda: class_moments(5, th),
            lambda: hoppe_urn_sample(5, th, 1),
            lambda: hoppe_urn_sample(_KERNEL_STEPS, th, 1),
            lambda: hoppe_urn_partition_counts(5, th, 10, 1),
            lambda: bernoulli_k_samples(5, th, 1, 10, 1),
            lambda: poisson.truncated_tv_distance(3, 2, th),
        ]

    @pytest.mark.parametrize("th", MASSES, ids=["two", "three", "huge-rational"])
    def test_masses_refused(self, th):
        for call in self._entry_points(th):
            with pytest.raises(ValueError, match="^the masses must have a finite sum, got inf$"):
                call()

    @pytest.mark.parametrize("group,ts", GROUPS, ids=["z2", "s3"])
    def test_restaurant_weights_refused(self, group, ts):
        for n in (5, _KERNEL_STEPS):
            with pytest.raises(ValueError, match="^the masses must have a finite sum, got inf$"):
                crp_wreath_sample(n, group, ts, 1)
        with pytest.raises(ValueError, match="^the masses must have a finite sum, got inf$"):
            crp_element_counts(2, group, ts, 10, 1)
        for x in enumerate_wreath_elements(2, group):
            prob, log_p = pewens_pmf(x, group, ts), pewens_log_pmf(x, group, ts)
            assert 0 <= prob <= 1 and log_p <= 0 and math.isfinite(log_p)


# non-integer masses with 12-bit numerators and denominators, as in the
# benchmark, next to small ones; Q ranges from 1 to a product of 12-bit primes
_DESK = [
    (F(1), F(2), F(3)),
    (F(2731, 2049), F(4093, 3071), F(3001, 2111)),
    (F(1), F(2731, 2049), F(4093, 3071)),
    (F(2), F(3001, 2111)),
    (F(4093, 3071),),
]


class TestSharedDenominator:
    """The exact laws are integer numerators over D_n; each must equal the
    factorized route and the term-by-term oracles."""

    @pytest.mark.parametrize("n", range(8))
    @pytest.mark.parametrize("th", _DESK, ids=lambda th: f"k{len(th)}")
    def test_refined_equals_factorized_and_oracle(self, th, n):
        for p in enumerate_multipartitions(n, len(th)):
            value = refined_esf_pmf(p, th)
            assert value == refined_esf_pmf_factorized(p, th)
            assert value == refined_esf_direct([c.rows for c in p], th)

    @pytest.mark.parametrize("th", _DESK, ids=lambda th: f"k{len(th)}")
    def test_classical_equals_oracle(self, th):
        w = sum(th)
        for n in range(9):
            for rows in partitions_of(n):
                assert classical_ewens_pmf(YoungDiagram(rows), w) == \
                    classical_ewens_direct(rows, w, n)

    @pytest.mark.parametrize("n", range(1, 6))
    @pytest.mark.parametrize("th", _DESK[:4], ids=lambda th: f"k{len(th)}")
    def test_set_partition_equals_oracle(self, th, n):
        for s in labeled_set_partitions(n, len(th)):
            assert labeled_set_partition_pmf(s, th) == set_partition_direct(s.blocks, n, th)

    @pytest.mark.parametrize("n", range(7))
    @pytest.mark.parametrize("th", _DESK, ids=lambda th: f"k{len(th)}")
    def test_joint_k_equals_aggregated_oracle(self, th, n):
        law = joint_k_direct(n, th)
        for ps in itertools.product(range(n + 2), repeat=len(th)):
            assert joint_k_pmf(n, th, ps) == law.get(ps, 0)

    @pytest.mark.parametrize("group", [cyclic_group(2), symmetric_group_3()], ids=["z2", "s3"])
    def test_wreath_equals_oracle(self, group):
        th = _DESK[1][: group.k]
        for n in range(1, 5):
            for seed in range(20):
                x = crp_wreath_sample(n, group, th, seed)
                counts = [c.n_rows for c in cycle_type(x, group).components]
                expected = pewens_direct(counts, n, th, group.class_sizes(), group.order)
                assert pewens_pmf(x, group, th) == expected

    def test_float_masses_keep_the_log_route(self):
        th = tuple(float(t) for t in _DESK[1])
        for p in enumerate_multipartitions(5, 3):
            value = refined_esf_pmf(p, th)
            assert isinstance(value, float)
            assert value == math.exp(refined_esf_log_pmf(p, th))


class TestExactSizeGuard:
    """D_n is built as a product tree, behind the exact work guard."""

    @pytest.mark.parametrize("p,q", [(1, 1), (3, 1), (7, 3), (10**20 + 1, 12)])
    def test_product_tree_equals_the_sequential_product(self, p, q):
        for m in (0, 1, 2, 63, 64, 65, 129, 1000):
            assert _rising(p, q, m) == math.prod(range(p, p + m * q, q))

    def test_every_single_state_law_refuses_before_working(self):
        n, th = 100_000, (F(1, 3), F(2))
        laws = {
            "refined": lambda: refined_esf_pmf(mp([n], []), th),
            "factorized": lambda: refined_esf_pmf_factorized(mp([n], []), th),
            "set partition": lambda: labeled_set_partition_pmf(
                LabeledSetPartition(((1, frozenset(range(1, n + 1))),), n), th),
            "wreath": lambda: pewens_pmf(
                WreathElement((0,) * n, tuple(range(n))), cyclic_group(2), th),
        }
        for name, law in laws.items():
            start = time.perf_counter()
            with pytest.raises(ValueError, match=f"an exact law at n={n} is too large"):
                law()
            assert time.perf_counter() - start < 1.0, name

    def test_large_accepted_law_matches_the_oracle(self):
        rows = [[1] * 2_000, []]
        assert refined_esf_pmf(mp(*rows), (F(1, 3), F(2))) == \
            refined_esf_direct(rows, (F(1, 3), F(2)))

class TestSweepChecks:
    @pytest.mark.parametrize("th", _DESK, ids=lambda th: f"k{len(th)}")
    def test_all_pass(self, th):
        k = len(th)
        for n in range(6):
            assert normalization_check(n, k, th)
            assert factorization_check(n, k, th)
            assert set_partition_check(n, k, th)
            assert check_consistency(n, k, th)
            assert union_marginal_check(n, k, th)

    def test_wrong_k_rejected(self):
        for check in (normalization_check, set_partition_check, check_consistency,
                      union_marginal_check):
            with pytest.raises(ValueError, match="k=2"):
                check(3, 2, (F(1), F(2), F(3)))

    def test_float_masses_rejected(self):
        with pytest.raises(ValueError, match="rational"):
            normalization_check(3, 2, (1.0, 2.0))

    def test_wrong_numerator_fails_every_sum(self, monkeypatch):
        import multiewens.measure as measure

        original = measure._esf_numerator

        def off_by_one(components, q, scaled):
            extra = [c.rows for c in components] == [(2, 1), (1,)]
            return original(components, q, scaled) + extra

        monkeypatch.setattr(measure, "_esf_numerator", off_by_one)
        th = (F(1), F(2))
        for check in (normalization_check, check_consistency, union_marginal_check):
            report = check(4, 2, th)
            assert not report.ok and report.failures
        assert normalization_check(3, 2, th)


def _thetas(k):
    return tuple(range(1, k + 1))


# (check, n, k, the states of its family at (n, k)): the multiple partitions,
# the size compositions C(n+k-1, k-1), or the labelled set partitions
_ESF_SWEEPS = [normalization_check, factorization_check, check_consistency,
               union_marginal_check, poisson.conditional_identity_check]
_OVER_THE_CAP = [(check, 40, 3, 481_225_800) for check in _ESF_SWEEPS] + [
    (vandermonde_check, 200, 10, math.comb(209, 9)),
    (set_partition_check, 12, 12, 373_625_770_888_956),  # Touchard T_12(12)
]
# the largest accepted size of each family, and the next one, which is refused
_AT_THE_CAP = [(check, 26, 27, 2, 2) for check in _ESF_SWEEPS] + [
    (vandermonde_check, 10, 10, 11, 12),  # 167,960 and 293,930 compositions
    (set_partition_check, 8, 9, 2, 2),  # 89,918 and 610,182 labelled set partitions
]


class TestStateCap:
    """Each exact sweep refuses more than 200,000 states of its own family
    before any enumeration, with the message verify prints."""

    class Enumerated(Exception):
        pass

    @pytest.fixture
    def no_enumeration(self, monkeypatch):
        def enumerated(*args):
            raise self.Enumerated
        for module, name in [(measure, "enumerate_multipartitions"), (measure, "compositions_of"),
                             (measure, "labeled_set_partitions"),
                             (poisson, "enumerate_multipartitions")]:
            monkeypatch.setattr(module, name, enumerated)

    @pytest.mark.parametrize("check,n,k,states", _OVER_THE_CAP,
                             ids=lambda v: getattr(v, "__name__", None))
    def test_refused_with_its_state_count(self, check, n, k, states):
        start = time.perf_counter()
        with pytest.raises(ValueError) as info:
            check(n, k, _thetas(k))
        assert time.perf_counter() - start < 1.0
        assert str(info.value) == (f"n={n}, k={k} enumerates {states} states, over the cap of"
                                   " 200000; choose a smaller n or k")

    @pytest.mark.parametrize("check,n_in,n_out,k_in,k_out", _AT_THE_CAP,
                             ids=lambda v: getattr(v, "__name__", None))
    def test_cap_boundary(self, no_enumeration, check, n_in, n_out, k_in, k_out):
        with pytest.raises(self.Enumerated):
            check(n_in, k_in, _thetas(k_in))
        with pytest.raises(ValueError, match="over the cap of 200000"):
            check(n_out, k_out, _thetas(k_out))

    def test_cap_comes_before_the_rational_and_k_checks(self):
        with pytest.raises(ValueError, match="over the cap"):
            normalization_check(40, 3, (1.0, 2.0, 3.0))
        with pytest.raises(ValueError, match="over the cap"):
            factorization_check(40, 3, (1, 2))
        with pytest.raises(ValueError, match="rational"):
            factorization_check(3, 2, (1.0, 2.0))
        with pytest.raises(ValueError, match="k=3"):
            factorization_check(3, 3, (1, 2))
