import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from multiewens.measure import refined_esf_pmf
from multiewens.partitions import MultiplePartition, YoungDiagram
from multiewens.wreath import (
    GroupTable,
    WreathElement,
    WreathParams,
    _crp_run,
    crp_element_counts,
    crp_wreath_sample,
    cycle_type,
    cyclic_group,
    enumerate_wreath_elements,
    pewens_pmf,
    symmetric_group_3,
    trivial_group,
    wreath_conjugate,
    wreath_inverse,
    wreath_multiply,
)

from oracles import refuse_validation, tv_distance

F = Fraction


def mp(*rows_lists):
    return MultiplePartition(tuple(YoungDiagram(tuple(r)) for r in rows_lists))


def crp_exact_distribution(n, group, ts):
    """Exact restaurant-process law by full path expansion (oracle)."""
    m = group.order
    ts = [F(t) for t in ts]
    weight = [ts[group.class_of[a]] for a in range(m)]
    d_new = sum(weight)
    states = {((a,), (0,)): weight[a] / d_new for a in range(m)}
    for j in range(1, n):
        denom = d_new + j * m
        nxt = {}
        for (g, s), pr in states.items():
            for a in range(m):
                key = (g + (a,), s + (j,))
                nxt[key] = nxt.get(key, F(0)) + pr * weight[a] / denom
            for pos in range(j):
                for a in range(m):
                    g2, s2 = list(g), list(s)
                    s2.append(s2[pos])
                    s2[pos] = j
                    g2[pos] = group.mult(group.inverse[a], g2[pos])
                    g2.append(a)
                    key = (tuple(g2), tuple(s2))
                    nxt[key] = nxt.get(key, F(0)) + pr / denom
        states = nxt
    return states


class TestGroupTable:
    def test_trivial(self):
        g = trivial_group()
        assert g.order == 1 and g.k == 1 and g.identity == 0

    def test_cyclic_classes_are_singletons(self):
        g = cyclic_group(4)
        assert g.k == 4
        assert g.class_sizes() == (1, 1, 1, 1)
        assert g.inverse == (0, 3, 2, 1)

    def test_s3_structure(self):
        g = symmetric_group_3()
        assert g.order == 6 and g.k == 3
        assert sorted(g.class_sizes()) == [1, 2, 3]
        assert sum(g.class_sizes()) == 6

    def test_rejects_non_associative(self):
        # a Latin square with identity that is not a group
        table = (
            (0, 1, 2, 3, 4),
            (1, 0, 3, 4, 2),
            (2, 4, 0, 1, 3),
            (3, 2, 4, 0, 1),
            (4, 3, 1, 2, 0),
        )
        with pytest.raises(ValueError):
            GroupTable(table)

    def test_rejects_no_identity(self):
        with pytest.raises(ValueError):
            GroupTable(((1, 1), (1, 1)))

    def test_identity_not_first(self):
        # Z/2 with the identity in slot 1 is still a group
        g = GroupTable(((1, 0), (0, 1)))
        assert g.identity == 1 and g.k == 2

    def test_classes_partition_elements(self):
        g = symmetric_group_3()
        everything = sorted(e for c in g.classes for e in c)
        assert everything == list(range(6))


class TestWreathElement:
    def test_validation(self):
        with pytest.raises(ValueError):
            WreathElement((0, 0), (0, 0))
        with pytest.raises(ValueError):
            WreathElement((0,), (0, 1))

    def test_json_round_trip(self):
        x = WreathElement((1, 0, 1), (2, 0, 1))
        assert WreathElement.from_json_dict(x.to_json_dict()) == x

    def test_group_operations(self):
        g = symmetric_group_3()
        rng = random.Random(0)
        elems = list(enumerate_wreath_elements(3, g))
        for _ in range(40):
            x, y, z = (rng.choice(elems) for _ in range(3))
            assert wreath_multiply(wreath_multiply(x, y, g), z, g) == \
                wreath_multiply(x, wreath_multiply(y, z, g), g)
            ident = wreath_multiply(x, wreath_inverse(x, g), g)
            assert ident.s == (0, 1, 2)
            assert all(v == g.identity for v in ident.g)

    def test_enumeration_size(self):
        z2 = cyclic_group(2)
        assert sum(1 for _ in enumerate_wreath_elements(3, z2)) == 2**3 * 6
        s3 = symmetric_group_3()
        assert sum(1 for _ in enumerate_wreath_elements(2, s3)) == 6**2 * 2


class TestCycleType:
    def test_single_element(self):
        g = cyclic_group(3)
        for a in range(3):
            part = cycle_type(WreathElement((a,), (0,)), g)
            assert part == mp(*[[1] if l == a else [] for l in range(3)])

    def test_trivial_group_reduces_to_cycle_structure(self):
        g = trivial_group()
        x = WreathElement((0, 0, 0, 0), (1, 0, 3, 2))
        assert cycle_type(x, g) == mp([2, 2])

    def test_z2_transposition_product(self):
        # s = (1 2), g = (e, a): cycle-product a, one 2-row in the a-class
        g = cyclic_group(2)
        x = WreathElement((0, 1), (1, 0))
        assert cycle_type(x, g) == mp([], [2])

    def test_entries_outside_the_group_rejected(self):
        # -1 would otherwise index the last element, 5 past the table
        g = cyclic_group(2)
        for entries in ((5,), (-1,), (0, 2)):
            x = WreathElement(entries, tuple(range(len(entries))))
            with pytest.raises(ValueError):
                cycle_type(x, g)
            with pytest.raises(ValueError):
                pewens_pmf(x, g, (1, 2))

    def test_total_size(self):
        g = symmetric_group_3()
        rng = random.Random(1)
        elems = list(enumerate_wreath_elements(3, g))
        for x in rng.sample(elems, 60):
            assert cycle_type(x, g).n == 3

    def test_invariant_under_conjugation(self):
        g = symmetric_group_3()
        elems = list(enumerate_wreath_elements(2, g))
        for x in elems:
            for y in elems[::7]:
                assert cycle_type(wreath_conjugate(x, y, g), g) == cycle_type(x, g)


class TestWreathMeasure:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_normalizes_z2(self, n):
        g = cyclic_group(2)
        ts = (F(1), F(2))
        total = sum(pewens_pmf(x, g, ts) for x in enumerate_wreath_elements(n, g))
        assert total == 1

    def test_normalizes_s3(self):
        g = symmetric_group_3()
        ts = (F(1), F(2), F(3))
        total = sum(pewens_pmf(x, g, ts) for x in enumerate_wreath_elements(3, g))
        assert total == 1

    def test_normalizes_z3(self):
        g = cyclic_group(3)
        ts = (F(1), F(1, 2), F(3))
        total = sum(pewens_pmf(x, g, ts) for x in enumerate_wreath_elements(3, g))
        assert total == 1

    def test_float_is_exp_of_log_form(self):
        # log t^counts - n log|G| - log (w)_n with w = sum t_l |c_l| / |G|
        g = symmetric_group_3()
        ts = (0.5, 2.0, 1.5)
        w = sum(t * sz / g.order for t, sz in zip(ts, g.class_sizes()))
        for x in list(enumerate_wreath_elements(3, g))[::7]:
            counts = [comp.n_rows for comp in cycle_type(x, g).components]
            log_p = (
                sum(c * math.log(t) for t, c in zip(ts, counts))
                - x.n * math.log(g.order)
                - (math.lgamma(w + x.n) - math.lgamma(w))
            )
            assert pewens_pmf(x, g, ts) == pytest.approx(math.exp(log_p), rel=1e-12)

    def test_centrality(self):
        # conjugate elements carry identical probability
        for g, ts in [
            (cyclic_group(2), (F(1), F(3))),
            (symmetric_group_3(), (F(1), F(2), F(3))),
            (cyclic_group(4), (F(1), F(2), F(3), F(4))),
        ]:
            n = 4 if g.order <= 2 else 2
            elems = list(enumerate_wreath_elements(n, g))
            for x in elems:
                px = pewens_pmf(x, g, ts)
                for y in elems[:: max(1, len(elems) // 24)]:
                    assert pewens_pmf(wreath_conjugate(x, y, g), g, ts) == px

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_pushforward_is_partition_law(self, n):
        g = cyclic_group(2)
        ts = (F(1), F(2))
        thetas = WreathParams(ts).thetas(g)
        assert thetas == (F(1, 2), F(1))
        agg = {}
        for x in enumerate_wreath_elements(n, g):
            lam = cycle_type(x, g)
            agg[lam] = agg.get(lam, F(0)) + pewens_pmf(x, g, ts)
        for lam, mass in agg.items():
            assert mass == refined_esf_pmf(lam, thetas)

    def test_pushforward_nonabelian(self):
        g = symmetric_group_3()
        ts = (F(1), F(2), F(3))
        thetas = WreathParams(ts).thetas(g)
        agg = {}
        for x in enumerate_wreath_elements(3, g):
            lam = cycle_type(x, g)
            agg[lam] = agg.get(lam, F(0)) + pewens_pmf(x, g, ts)
        for lam, mass in agg.items():
            assert mass == refined_esf_pmf(lam, thetas)

    def test_float_weights_stay_finite_at_large_n(self):
        # |G|^n (w)_n overflows a float at n = 400; the log backend does not
        g = symmetric_group_3()
        x = crp_wreath_sample(400, g, (1.0, 2.0, 1.5), 3)
        assert math.isfinite(pewens_pmf(x, g, (1.0, 2.0, 1.5)))

    @pytest.mark.parametrize("bad", [math.inf, math.nan, 0.0])
    def test_rejects_bad_weights(self, bad):
        with pytest.raises(ValueError):
            WreathParams((1.0, bad))
        with pytest.raises(ValueError, match="positive and finite"):
            pewens_pmf(WreathElement((0,), (0,)), cyclic_group(2), (1.0, bad))

    @pytest.mark.parametrize("ts", [(F(1),), (F(1), F(2), F(3))])
    def test_rejects_wrong_weight_count(self, ts):
        with pytest.raises(ValueError, match="one weight per conjugacy class"):
            pewens_pmf(WreathElement((0,), (0,)), cyclic_group(2), ts)
        with pytest.raises(ValueError, match="one weight per conjugacy class"):
            crp_wreath_sample(3, cyclic_group(2), ts, 0)
        with pytest.raises(ValueError, match="one weight per conjugacy class"):
            crp_element_counts(3, cyclic_group(2), ts, 5, 0)


class TestRestaurantProcess:
    def test_first_step_law(self):
        # x = (g, (1)) with g in c_l has probability t_l / sum |c_m| t_m
        g = symmetric_group_3()
        ts = (F(2), F(1), F(3))
        dist = crp_exact_distribution(1, g, ts)
        d = sum(t * sz for t, sz in zip(ts, g.class_sizes()))
        for (gv, _), pr in dist.items():
            assert pr == ts[g.class_of[gv[0]]] / d

    @pytest.mark.parametrize(
        "group_factory,ts,n",
        [
            (lambda: cyclic_group(2), (F(1), F(2)), 3),
            (lambda: cyclic_group(2), (F(1), F(2)), 4),
            (lambda: cyclic_group(3), (F(1), F(1), F(2)), 3),
            (lambda: symmetric_group_3(), (F(1), F(2), F(3)), 3),
        ],
    )
    def test_exact_law_matches_measure(self, group_factory, ts, n):
        # the insertion rule must preserve cycle-product classes for the
        # grown element to carry the wreath measure, nonabelian G included
        g = group_factory()
        dist = crp_exact_distribution(n, g, ts)
        assert sum(dist.values()) == 1
        for (gv, sv), pr in dist.items():
            assert pr == pewens_pmf(WreathElement(gv, sv), g, ts)

    def test_insertion_preserves_class_counts(self):
        g = symmetric_group_3()
        rng = random.Random(9)
        for seed in range(25):
            x = crp_wreath_sample(5, g, (1.0, 2.0, 3.0), seed)
            base = cycle_type(x, g)
            # grow by one within-cycle insertion by hand and recheck counts
            pos = rng.randrange(5)
            entry = rng.randrange(6)
            gv, sv = list(x.g), list(x.s)
            sv.append(sv[pos])
            sv[pos] = 5
            gv[pos] = g.mult(g.inverse[entry], gv[pos])
            gv.append(entry)
            grown = cycle_type(WreathElement(tuple(gv), tuple(sv)), g)
            assert [c.n_rows for c in grown.components] == \
                [c.n_rows for c in base.components]

    def test_determinism(self):
        g = cyclic_group(2)
        assert crp_wreath_sample(6, g, (1.0, 2.0), 11) == \
            crp_wreath_sample(6, g, (1.0, 2.0), 11)

    def test_top_draw_stays_in_range(self):
        # at random() = 1 - 2**-53 the scaled draw rounds up to d_new + j*m
        # for these weights at j = 3, one past the last position/entry pair
        class TopDraw(random.Random):
            def random(self):
                return 1.0 - 2.0**-53

        g = cyclic_group(2)
        ts = [4 / 7, 1 / 3]
        d_new = sum(ts)
        assert int((1.0 - 2.0**-53) * (d_new + 3 * g.order) - d_new) == 3 * g.order
        gv, sv = _crp_run(4, g, ts, TopDraw())
        assert sorted(sv) == [0, 1, 2, 3]
        assert all(0 <= e < g.order for e in gv)

    def test_empirical_tv_desk_scale(self):
        g = cyclic_group(2)
        ts_q = (F(1), F(2))
        reps = 50_000
        counts = crp_element_counts(3, g, (1.0, 2.0), reps, seed=42)
        exact = {
            x: pewens_pmf(x, g, ts_q) for x in enumerate_wreath_elements(3, g)
        }
        assert tv_distance(counts, exact, reps) < 0.02

    def test_projected_law(self):
        from scipy.stats import chisquare

        from multiewens.partitions import enumerate_multipartitions

        g = cyclic_group(2)
        reps = 50_000
        counts = crp_element_counts(3, g, (1.0, 2.0), reps, seed=4)
        proj = Counter()
        for x, c in counts.items():
            proj[cycle_type(x, g)] += c
        thetas = (F(1, 2), F(1))
        states = list(enumerate_multipartitions(3, 2))
        obs = [proj.get(p, 0) for p in states]
        exp = [float(refined_esf_pmf(p, thetas)) * reps for p in states]
        _, pval = chisquare(obs, exp)
        assert pval > 0.01


class TestCrpCountsInputs:
    def test_rejects_n_below_one(self):
        with pytest.raises(ValueError, match="n must be >= 1"):
            crp_element_counts(0, cyclic_group(2), (1.0, 2.0), 5, seed=1)

    def test_rejects_negative_reps(self):
        with pytest.raises(ValueError, match="reps must be >= 0"):
            crp_element_counts(3, cyclic_group(2), (1.0, 2.0), -1, seed=1)


class TestIntegerFields:
    """Group tables and elements take Python and numpy integers, stored as
    Python ints, and refuse a bool, float or string instead of rounding it."""

    @pytest.mark.parametrize("g,s", [((1.5,), (0.9,)), ((True,), (0,)), ((0,), ("0",)),
                                     ((np.float64(1.0),), (0,))])
    def test_element_refuses_non_integers(self, g, s):
        with pytest.raises(ValueError, match="must be integers"):
            WreathElement(g, s)

    @pytest.mark.parametrize("table", [((0.0,),), ((True,),), (("0",),)])
    def test_table_refuses_non_integers(self, table):
        with pytest.raises(ValueError, match="table entries must be integers"):
            GroupTable(table)

    def test_numpy_integers_are_stored_as_ints(self):
        x = WreathElement(np.array([1, 0]), (np.int64(1), np.uint8(0)))
        assert x == WreathElement((1, 0), (1, 0)) and repr(x) == repr(WreathElement((1, 0), (1, 0)))
        g = GroupTable(np.array([[0, 1], [1, 0]]))
        assert g == cyclic_group(2) and all(type(v) is int for row in g.table for v in row)

    def test_json_element_checked_by_its_constructor(self):
        assert WreathElement.from_json_dict({"g": [1], "s": [0]}) == WreathElement((1,), (0,))
        with pytest.raises(ValueError, match="entries of g must be integers"):
            WreathElement.from_json_dict({"g": [1.0], "s": [0]})


class TestTrustedElements:
    """The restaurant process, the enumerator and the group operations build
    their elements without validation; each must equal, hash and print like
    the validated element of the same values."""

    @staticmethod
    def _same(x):
        validated = WreathElement(x.g, x.s)
        assert x == validated and hash(x) == hash(validated)
        assert repr(x) == repr(validated)
        assert all(type(v) is int for v in x.g + x.s)

    def test_restaurant_draws(self, monkeypatch):
        g = symmetric_group_3()
        refuse_validation(monkeypatch, WreathElement)
        built = [crp_wreath_sample(5, g, (1.0, 2.0, 0.5), seed) for seed in range(30)]
        counts = crp_element_counts(3, g, (1, 2, F(1, 2)), 200, seed=4)
        monkeypatch.undo()
        assert sum(counts.values()) == 200
        for x in built + list(counts):
            self._same(x)

    def test_enumeration_and_group_operations(self, monkeypatch):
        g = symmetric_group_3()
        rng = random.Random(1)
        refuse_validation(monkeypatch, WreathElement)
        elems = list(enumerate_wreath_elements(2, g))
        built = list(elems)
        for _ in range(40):
            x, y = rng.choice(elems), rng.choice(elems)
            built += [wreath_multiply(x, y, g), wreath_inverse(x, g), wreath_conjugate(x, y, g)]
        monkeypatch.undo()
        for x in built:
            self._same(x)
