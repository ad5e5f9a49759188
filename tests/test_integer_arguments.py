"""One integer rule for every size, count, label, replicate and generation
argument: a float or a bool raises ValueError naming the argument, a value
below its bound raises ValueError, and a numpy integer is taken as the same
Python int.  Generators are advanced with next(), never listed, so a size
that is not refused fails here at once instead of running forever."""

import re
from fractions import Fraction as F

import numpy as np
import pytest

from multiewens import allele_stats, measure, partitions, poisson, samplers, wf_sim, wreath

TH = (1, 2)  # exact masses
FTH = (1.0, 2.0)  # float masses
Z2 = wreath.cyclic_group(2)
FREQS = samplers.pd_sample(FTH, 1e-3, 0)
SPEC = allele_stats.RegimeSpec(0.5, FTH)


def _first(gen):
    return next(iter(gen))


def _stationary(pop_size=10, sample_size=2, reps=1, burn=3, thin=1):
    pop = wf_sim.Population.founding(pop_size, 2)
    gen = wf_sim.stationary_samples(pop, FTH, sample_size, reps, 0, burn, thin)
    return _first(gen)


# (case id, the call with the argument under test, the name its message
#  gives, an accepted value, a value below the bound or None where none is
#  refused: compositions_of and partitions_of yield nothing at a negative n)
CASES = [
    ("compositions_of-n", lambda v: _first(partitions.compositions_of(v, 2)), "n", 3, None),
    ("compositions_of-k", lambda v: _first(partitions.compositions_of(3, v)), "k", 2, 0),
    ("partitions_of-n", lambda v: _first(partitions.partitions_of(v)), "n", 3, None),
    ("partitions_of-max_part", lambda v: _first(partitions.partitions_of(4, v)),
     "max_part", 2, None),
    ("enumerate_multipartitions-n",
     lambda v: _first(partitions.enumerate_multipartitions(v, 2)), "n", 3, -1),
    ("enumerate_multipartitions-k",
     lambda v: _first(partitions.enumerate_multipartitions(3, v)), "k", 2, 0),
    ("count_multipartitions-n", lambda v: partitions.count_multipartitions(v, 2), "n", 3, -1),
    ("count_multipartitions-k", lambda v: partitions.count_multipartitions(3, v), "k", 2, 0),
    ("set_partitions-n", lambda v: _first(partitions.set_partitions(v)), "n", 3, -1),
    ("labeled_set_partitions-n",
     lambda v: _first(partitions.labeled_set_partitions(v, 2)), "n", 3, -1),
    ("labeled_set_partitions-k",
     lambda v: _first(partitions.labeled_set_partitions(3, v)), "k", 2, 0),
    ("pochhammer-n", lambda v: measure.pochhammer(F(1, 2), v), "n", 3, -1),
    ("normalization_check-n", lambda v: measure.normalization_check(v, 2, TH), "n", 3, -1),
    ("normalization_check-k", lambda v: measure.normalization_check(3, v, TH), "k", 2, 0),
    ("factorization_check-n", lambda v: measure.factorization_check(v, 2, TH), "n", 3, -1),
    ("factorization_check-k", lambda v: measure.factorization_check(3, v, TH), "k", 2, 0),
    ("check_consistency-n", lambda v: measure.check_consistency(v, 2, TH), "n", 3, -1),
    ("check_consistency-k", lambda v: measure.check_consistency(3, v, TH), "k", 2, 0),
    ("union_marginal_check-n", lambda v: measure.union_marginal_check(v, 2, TH), "n", 3, -1),
    ("union_marginal_check-k", lambda v: measure.union_marginal_check(3, v, TH), "k", 2, 0),
    ("vandermonde_check-n", lambda v: measure.vandermonde_check(v, 2, TH), "n", 3, -1),
    ("vandermonde_check-k", lambda v: measure.vandermonde_check(3, v, TH), "k", 2, 0),
    ("set_partition_check-n", lambda v: measure.set_partition_check(v, 2, TH), "n", 3, -1),
    ("set_partition_check-k", lambda v: measure.set_partition_check(3, v, TH), "k", 2, 0),
    ("conditional_identity_check-n",
     lambda v: poisson.conditional_identity_check(v, 2, TH), "n", 3, -1),
    ("conditional_identity_check-k",
     lambda v: poisson.conditional_identity_check(3, v, TH), "k", 2, 0),
    ("poisson_matrix_sample-m", lambda v: poisson.poisson_matrix_sample(v, FTH, 0), "m", 3, 0),
    ("poisson_matrix_sample-reps",
     lambda v: poisson.poisson_matrix_sample(3, FTH, 0, reps=v), "reps", 2, -1),
    ("truncated_tv_distance-n", lambda v: poisson.truncated_tv_distance(v, 2, TH), "n", 10, 0),
    ("truncated_tv_distance-m", lambda v: poisson.truncated_tv_distance(10, v, TH), "m", 2, 0),
    ("harmonic_h-n", lambda v: allele_stats.harmonic_h(v, 1, 2.0), "n", 3, 0),
    ("harmonic_h-p", lambda v: allele_stats.harmonic_h(3, v, 2.0), "p", 2, 0),
    ("expected_k-n", lambda v: allele_stats.expected_k(v, TH, 1), "n", 3, 0),
    ("expected_k-l", lambda v: allele_stats.expected_k(3, TH, v), "class label", 2, 0),
    ("var_k-n", lambda v: allele_stats.var_k(v, FTH, 1), "n", 3, 0),
    ("var_k-l", lambda v: allele_stats.var_k(3, FTH, v), "class label", 2, 0),
    ("class_moments-n", lambda v: allele_stats.class_moments(v, TH), "n", 3, 0),
    ("stirling_first-n", lambda v: allele_stats.stirling_first(v, 1), "n", 3, -1),
    ("stirling_first-m", lambda v: allele_stats.stirling_first(3, v), "m", 2, -1),
    ("joint_k_pmf-n", lambda v: allele_stats.joint_k_pmf(v, TH, (1, 1)), "n", 3, -1),
    ("joint_k_pmf-counts", lambda v: allele_stats.joint_k_pmf(3, TH, (v, 1)), "counts", 1, -1),
    ("joint_k_check-n", lambda v: allele_stats.joint_k_check(v, 2, TH), "n", 3, -1),
    ("joint_k_check-k", lambda v: allele_stats.joint_k_check(3, v, TH), "k", 2, 0),
    ("clt_scaling-n", lambda v: allele_stats.clt_scaling(v, FTH, 0.5), "n", 3, 0),
    ("bernoulli_k_samples-n",
     lambda v: allele_stats.bernoulli_k_samples(v, FTH, 1, 3, 0), "n", 3, 0),
    ("bernoulli_k_samples-l",
     lambda v: allele_stats.bernoulli_k_samples(3, FTH, v, 3, 0), "class label", 2, 0),
    ("bernoulli_k_samples-reps",
     lambda v: allele_stats.bernoulli_k_samples(3, FTH, 1, v, 0), "reps", 3, -1),
    ("regime_prediction-l", lambda v: allele_stats.regime_prediction(SPEC, v),
     "class label", 2, 0),
    ("hoppe_urn_sample-n", lambda v: samplers.hoppe_urn_sample(v, FTH, 0), "n", 3, 0),
    ("hoppe_urn_partition_counts-n",
     lambda v: samplers.hoppe_urn_partition_counts(v, FTH, 3, 0), "n", 3, 0),
    ("hoppe_urn_partition_counts-reps",
     lambda v: samplers.hoppe_urn_partition_counts(3, FTH, v, 0), "reps", 3, -1),
    ("coalescent_rates-j", lambda v: samplers.coalescent_rates(v, FTH), "j", 2, 0),
    ("paintbox_sample-n", lambda v: samplers.paintbox_sample(v, FREQS, 0), "n", 3, 0),
    ("cyclic_group-m", lambda v: wreath.cyclic_group(v), "order", 3, 0),
    ("crp_wreath_sample-n", lambda v: wreath.crp_wreath_sample(v, Z2, FTH, 0), "n", 3, 0),
    ("crp_element_counts-n",
     lambda v: wreath.crp_element_counts(v, Z2, FTH, 3, 0), "n", 3, 0),
    ("crp_element_counts-reps",
     lambda v: wreath.crp_element_counts(3, Z2, FTH, v, 0), "reps", 3, -1),
    ("enumerate_wreath_elements-n",
     lambda v: _first(wreath.enumerate_wreath_elements(v, Z2)), "n", 2, -1),
    ("founding-two_n", lambda v: wf_sim.Population.founding(v, 2), "2N", 10, 0),
    ("founding-k", lambda v: wf_sim.Population.founding(10, v), "k", 2, 0),
    ("sample_composition-n",
     lambda v: wf_sim.sample_composition(wf_sim.Population.founding(10, 2), v, 0),
     "sample size", 3, -1),
    ("stationary_samples-sample_size", lambda v: _stationary(sample_size=v),
     "sample size", 2, 0),
    ("stationary_samples-reps", lambda v: _stationary(reps=v), "reps", 1, -1),
    ("stationary_samples-burn_gens", lambda v: _stationary(burn=v), "burn-in generations",
     3, -1),
    ("stationary_samples-thin_gens", lambda v: _stationary(thin=v), "thinning generations",
     1, -1),
    ("stationary_partition_counts-two_n",
     lambda v: wf_sim.stationary_partition_counts(v, FTH, 2, 3, 0), "2N", 10, 0),
    ("stationary_partition_counts-sample_size",
     lambda v: wf_sim.stationary_partition_counts(10, FTH, v, 3, 0), "sample size", 2, 0),
    ("stationary_partition_counts-reps",
     lambda v: wf_sim.stationary_partition_counts(10, FTH, 2, v, 0), "reps", 3, -1),
    ("transition_prob-p", lambda v: wf_sim.transition_prob(v, 1, 10, [F(1, 10)]), "p", 3, -1),
    ("transition_prob-m", lambda v: wf_sim.transition_prob(3, v, 10, [F(1, 10)]), "m", 1, -1),
    ("transition_prob-two_n",
     lambda v: wf_sim.transition_prob(3, 1, v, [F(1, 10)]), "2N", 10, 2),
    ("ancestral_generator-n", lambda v: wf_sim.ancestral_generator(v, FTH), "n", 3, -1),
]


@pytest.mark.parametrize("call,what,good,below", [c[1:] for c in CASES],
                         ids=[c[0] for c in CASES])
class TestIntegerRule:
    def test_fraction_raises_naming_the_argument(self, call, what, good, below):
        with pytest.raises(ValueError, match=re.escape(what)):
            call(2.5)

    def test_bool_raises(self, call, what, good, below):
        with pytest.raises(ValueError, match=re.escape(what)):
            call(True)

    def test_below_the_bound_raises(self, call, what, good, below):
        if below is None:
            with pytest.raises(StopIteration):
                call(-1)
        else:
            with pytest.raises(ValueError):
                call(below)

    def test_numpy_integer_accepted(self, call, what, good, below):
        call(np.int64(good))


class TestNumpySizesDrawTheSame:
    @pytest.mark.parametrize("n", [6, 300])  # the step loop and the array kernel
    def test_urn(self, n):
        part, blocks = samplers.hoppe_urn_sample(np.int64(n), FTH, 11)
        assert (part, blocks) == samplers.hoppe_urn_sample(n, FTH, 11)
        assert type(blocks.n) is int

    @pytest.mark.parametrize("n", [3, 300])
    def test_restaurant(self, n):
        x = wreath.crp_wreath_sample(np.int64(n), Z2, FTH, 12)
        assert x == wreath.crp_wreath_sample(n, Z2, FTH, 12)
        assert all(type(v) is int for v in x.g + x.s)

    def test_urn_counts(self):
        got = samplers.hoppe_urn_partition_counts(np.int64(4), FTH, np.int64(500), 13)
        assert got == samplers.hoppe_urn_partition_counts(4, FTH, 500, 13)
