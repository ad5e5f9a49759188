import random

import numpy as np
import pytest

from multiewens.measure import refined_esf_pmf
from multiewens.partitions import (
    AlleleCountMatrix,
    LabeledSetPartition,
    MultiplePartition,
    YoungDiagram,
    count_multipartitions,
    enumerate_multipartitions,
    labeled_set_partitions,
    matrix_to_multipartition,
    multipartition_from_lists,
    multipartition_to_lists,
    multipartition_to_matrix,
    partitions_of,
    set_partition_to_multipartition,
    set_partitions,
    union,
    _from_alleles,
    _stirling_second,
)

from multiewens.measure import downward_transition

from oracles import multipartition_count, partition_count, refuse_validation


def mp(*rows_lists):
    return MultiplePartition(tuple(YoungDiagram(tuple(r)) for r in rows_lists))


class TestYoungDiagram:
    def test_empty_diagram_is_valid(self):
        d = YoungDiagram(())
        assert d.size == 0 and d.n_rows == 0 and d.multiplicities() == {}

    def test_size_matches_multiplicities(self):
        d = YoungDiagram((4, 2, 2, 1))
        assert d.size == 9
        assert d.multiplicities() == {4: 1, 2: 2, 1: 1}
        assert sum(j * m for j, m in d.multiplicities().items()) == d.size

    def test_rejects_increasing_rows(self):
        with pytest.raises(ValueError):
            YoungDiagram((1, 2))

    def test_rejects_nonpositive_rows(self):
        with pytest.raises(ValueError):
            YoungDiagram((2, 0))

    def test_remove_box(self):
        d = YoungDiagram((3, 2))
        assert d.remove_box_from_row(3).rows == (2, 2)
        assert d.remove_box_from_row(2).rows == (3, 1)
        assert YoungDiagram((1,)).remove_box_from_row(1).rows == ()


class TestMatrixCorrespondence:
    def test_single_rows_case(self):
        # a_1^(1)=1, a_2^(2)=1 with n=3, k=2
        m = AlleleCountMatrix(((1, 0), (0, 1), (0, 0)), k=2)
        assert matrix_to_multipartition(m) == mp([1], [2])

    def test_empty_case(self):
        m = AlleleCountMatrix((), k=3)
        assert matrix_to_multipartition(m) == mp([], [], [])

    def test_k1_identity(self):
        m = AlleleCountMatrix(((3,), (0,), (0,)), k=1)
        assert matrix_to_multipartition(m) == mp([1, 1, 1])

    def test_to_matrix_example(self):
        got = multipartition_to_matrix(mp([2, 1], []))
        assert got.count(1, 1) == 1 and got.count(2, 1) == 1
        assert got.count(1, 2) == 0 and got.count(2, 2) == 0

    def test_two_singletons(self):
        got = multipartition_to_matrix(mp([1], [1]))
        assert got.count(1, 1) == 1 and got.count(1, 2) == 1

    def test_matrix_invariant_enforced(self):
        with pytest.raises(ValueError):
            AlleleCountMatrix(((0, 0),), k=2)  # weighted total 0 but n=1
        with pytest.raises(ValueError):
            AlleleCountMatrix(((2, 0),), k=2)  # weighted total 2 but n=1
        with pytest.raises(ValueError):
            AlleleCountMatrix(((1,),), k=2)  # row width != k
        with pytest.raises(ValueError):
            AlleleCountMatrix(((2, -1),), k=2)  # negative count

    def test_round_trip_full_enumeration(self):
        for n in range(7):
            for k in (1, 2, 3):
                for p in enumerate_multipartitions(n, k):
                    assert matrix_to_multipartition(multipartition_to_matrix(p)) == p


class TestEnumeration:
    def test_n1_k2_order(self):
        got = list(enumerate_multipartitions(1, 2))
        assert got == [mp([1], []), mp([], [1])]

    def test_n2_k1_order(self):
        got = list(enumerate_multipartitions(2, 1))
        assert got == [mp([2]), mp([1, 1])]

    def test_count_n3_k2(self):
        assert len(list(enumerate_multipartitions(3, 2))) == 10

    def test_no_duplicates(self):
        seen = set(enumerate_multipartitions(6, 3))
        assert len(seen) == count_multipartitions(6, 3)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_counts_match_pentagonal_oracle(self, k):
        for n in range(0, 15 if k <= 2 else 10):
            assert count_multipartitions(n, k) == multipartition_count(n, k)

    def test_enumeration_length_matches_count(self):
        for n in range(9):
            for k in (1, 2, 3):
                assert sum(1 for _ in enumerate_multipartitions(n, k)) == \
                    multipartition_count(n, k)

    def test_partitions_of_matches_count(self):
        for n in range(13):
            assert sum(1 for _ in partitions_of(n)) == partition_count(n)


class TestUnion:
    def test_basic(self):
        assert union(mp([2, 1], [1])) == YoungDiagram((2, 1, 1))

    def test_identity_on_padded(self):
        lam = YoungDiagram((3, 1))
        assert union(mp([3, 1], [], [])) == lam

    def test_size_preserving_full_enumeration(self):
        for n in range(9):
            for p in enumerate_multipartitions(n, 2):
                assert union(p).size == n

    def test_order_independent(self):
        rng = random.Random(7)
        parts = list(enumerate_multipartitions(6, 3))
        for p in rng.sample(parts, 25):
            shuffled = list(p.components)
            rng.shuffle(shuffled)
            assert union(MultiplePartition(tuple(shuffled))) == union(p)


class TestSetPartitions:
    def test_projection_example(self):
        s = LabeledSetPartition(((1, frozenset({1, 2})), (2, frozenset({3}))), n=3)
        assert set_partition_to_multipartition(s, 2) == mp([2], [1])

    def test_single_block(self):
        s = LabeledSetPartition(((2, frozenset(range(1, 6))),), n=5)
        assert set_partition_to_multipartition(s, 3) == mp([], [5], [])

    def test_label_out_of_range(self):
        s = LabeledSetPartition(((3, frozenset({1})),), n=1)
        with pytest.raises(ValueError):
            set_partition_to_multipartition(s, 2)

    def test_rejects_overlap_and_gaps(self):
        with pytest.raises(ValueError):
            LabeledSetPartition(((1, frozenset({1, 2})), (1, frozenset({2, 3}))), n=3)
        with pytest.raises(ValueError):
            LabeledSetPartition(((1, frozenset({1})),), n=2)

    def test_bell_numbers(self):
        bells = [1, 1, 2, 5, 15, 52, 203]
        for n, b in enumerate(bells):
            assert sum(1 for _ in set_partitions(n)) == b

    def test_random_projections_satisfy_invariant(self):
        rng = random.Random(12)
        pool = list(labeled_set_partitions(6, 2))
        for s in rng.sample(pool, 40):
            p = set_partition_to_multipartition(s, 2)
            assert p.n == 6 and p.k == 2  # constructor revalidates rows

    def test_labeled_count(self):
        # sum over block counts b of S(6,b) * 2^b
        stirling2 = {1: 1, 2: 31, 3: 90, 4: 65, 5: 15, 6: 1}
        expected = sum(s * 2**b for b, s in stirling2.items())
        assert sum(1 for _ in labeled_set_partitions(6, 2)) == expected


def _validated(p: MultiplePartition) -> MultiplePartition:
    return MultiplePartition(tuple(YoungDiagram(tuple(c.rows)) for c in p.components))


class TestTrustedInstances:
    """Enumerators and maps build instances without validation; they must be
    equal and hash-equal to the validated ones, field by field."""

    @staticmethod
    def _same(trusted, validated):
        assert trusted == validated and hash(trusted) == hash(validated)
        assert repr(trusted) == repr(validated)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_enumerate_multipartitions(self, k):
        for n in range(9):
            for p in enumerate_multipartitions(n, k):
                self._same(p, _validated(p))
                assert all(type(r) is int for c in p.components for r in c.rows)

    @pytest.mark.parametrize("k", [1, 2])
    def test_labeled_set_partitions(self, k):
        for n in range(6):
            for s in labeled_set_partitions(n, k):
                self._same(s, LabeledSetPartition(tuple(reversed(s.blocks)), n=n))

    def test_box_removal_and_union(self):
        for k in (1, 2, 3):
            for n in range(1, 7):
                for p in enumerate_multipartitions(n, k):
                    self._same(union(p), YoungDiagram(tuple(sorted(
                        (r for c in p.components for r in c.rows), reverse=True))))
                    for child in downward_transition(p):
                        self._same(child, _validated(child))
                        for comp in child.components:
                            self._same(comp, YoungDiagram(comp.rows))


    def test_count_matrix(self, monkeypatch):
        parts = [p for k in (1, 2, 3) for n in range(7) for p in enumerate_multipartitions(n, k)]
        want = [AlleleCountMatrix(m.entries, k=m.k) for m in map(multipartition_to_matrix, parts)]
        refuse_validation(monkeypatch, AlleleCountMatrix)
        built = [multipartition_to_matrix(p) for p in parts]
        for m, validated in zip(built, want):
            self._same(m, validated)
            assert all(type(a) is int for row in m.entries for a in row)


# each builder reads back the integer field it was given one value v for
_INTEGER_FIELDS = {
    "YoungDiagram.rows": lambda v: YoungDiagram((v,)).rows,
    "AlleleCountMatrix.entries": lambda v: AlleleCountMatrix(((v,),), k=1).entries[0],
    "LabeledSetPartition.labels": lambda v: tuple(
        label for label, _ in LabeledSetPartition(((v, {1}),), n=1).blocks),
    "LabeledSetPartition.elements": lambda v: tuple(
        LabeledSetPartition(((1, {v}),), n=1).blocks[0][1]),
    "multipartition_from_lists": lambda v: multipartition_from_lists([[v], []]).components[0].rows,
}


class TestIntegerRule:
    """One rule for every integer field: Python and numpy integers are stored
    as Python ints; a bool, float or string raises and is never rounded."""

    @pytest.mark.parametrize("field", sorted(_INTEGER_FIELDS))
    @pytest.mark.parametrize("value", [1, np.int64(1), np.uint8(1)],
                             ids=["int", "numpy-int64", "numpy-uint8"])
    def test_integers_pass_as_python_ints(self, field, value):
        got = _INTEGER_FIELDS[field](value)
        assert got == (1,) and type(got[0]) is int

    @pytest.mark.parametrize("field", sorted(_INTEGER_FIELDS))
    @pytest.mark.parametrize("value", [1.0, 1.5, True, "1", np.float64(1.0), np.bool_(True)],
                             ids=["float-1.0", "float-1.5", "bool", "str", "numpy-float", "numpy-bool"])
    def test_non_integers_raise(self, field, value):
        with pytest.raises(ValueError, match="must be integers"):
            _INTEGER_FIELDS[field](value)

    def test_message_names_the_field(self):
        with pytest.raises(ValueError, match="row lengths must be integers, got 2.7"):
            YoungDiagram((2.7, 1))
        with pytest.raises(ValueError, match="allele counts"):
            AlleleCountMatrix(((0.5, 0.5),), k=2)
        with pytest.raises(ValueError, match="block labels"):
            LabeledSetPartition(((1.9, {1}),), n=1)

    def test_pmf_of_a_rounded_partition_is_refused(self):
        # int() would have read [[2.5], []] as [[2], []], of probability 1/12
        with pytest.raises(ValueError):
            refined_esf_pmf(MultiplePartition(([2.5], [])), (1, 2))


class TestCountsAtLargeSize:
    """The counting tables are built without recursion, so sizes of several
    hundred do not exhaust the Python stack."""

    def test_partition_counts_match_euler_recurrence(self):
        # the oracle recurses; filling it in order keeps its recursion shallow
        p = [partition_count(m) for m in range(1001)]
        assert count_multipartitions(1000, 1) == p[1000]
        assert count_multipartitions(600, 2) == sum(p[a] * p[600 - a] for a in range(601))

    @pytest.mark.parametrize("n", [1, 2, 5, 100, 600, 1000])
    def test_stirling_second_two_blocks(self, n):
        assert _stirling_second(n, 2) == 2 ** (n - 1) - 1

    def test_stirling_second_edges(self):
        assert _stirling_second(0, 0) == 1
        assert _stirling_second(5, 0) == 0 and _stirling_second(3, 5) == 0
        assert _stirling_second(600, 600) == 1
        assert _stirling_second(600, 599) == 600 * 599 // 2
        assert [_stirling_second(4, m) for m in range(5)] == [0, 1, 7, 6, 1]


class TestFromAlleles:
    def test_groups_and_ranks_counts_by_class(self):
        # colours (class 1, 3), (class 2, 1), (class 1, 1) in 1-based labels
        assert _from_alleles([(0, 3), (1, 1), (0, 1)], 2) == mp([3, 1], [1])

    def test_pair_order_does_not_matter(self):
        pairs = [(0, 1), (2, 4), (0, 3), (2, 1), (0, 3)]
        want = mp([3, 3, 1], [], [4, 1])
        rng = random.Random(5)
        for _ in range(20):
            rng.shuffle(pairs)
            assert _from_alleles(pairs, 3) == want

    def test_empty_classes_stay_empty(self):
        assert _from_alleles([(1, 2)], 3) == mp([], [2], [])
        assert _from_alleles([], 2) == mp([], [])

    def test_rows_are_validated(self):
        with pytest.raises(ValueError):
            _from_alleles([(0, 0)], 1)


class TestSerialization:
    def test_round_trip(self):
        p = mp([2, 1], [1], [])
        assert multipartition_from_lists(multipartition_to_lists(p)) == p

    def test_lists_form(self):
        assert multipartition_to_lists(mp([2, 1], [1])) == [[2, 1], [1]]

    def test_bad_input(self):
        with pytest.raises(ValueError):
            multipartition_from_lists([[1, 2]])
        # rows that int() would coerce are not integers
        for rows in ([[1.5], []], [["2"], []], [[True], []], [[2.0], []]):
            with pytest.raises(ValueError):
                multipartition_from_lists(rows)
