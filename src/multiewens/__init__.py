"""Ewens sampling machinery for alleles split into k mutation classes.

The central object is the probability law of a sample's allelic composition
when every allele belongs to one of k classes with its own mutation mass
theta_l: a measure on multiple partitions (k-tuples of Young diagrams) that
reduces to the classical Ewens sampling formula at k = 1.  The package
provides exact rational evaluation, consistency structure, four independent
samplers, allele-count statistics, and a Poisson approximation, all
cross-checked against brute-force enumeration oracles.
"""

from .partitions import (
    AlleleCountMatrix,
    LabeledSetPartition,
    MultiplePartition,
    YoungDiagram,
    enumerate_multipartitions,
    matrix_to_multipartition,
    multipartition_from_lists,
    multipartition_to_lists,
    multipartition_to_matrix,
    set_partition_to_multipartition,
    union,
)
from .measure import (
    CheckReport,
    MutationParams,
    check_consistency,
    classical_ewens_pmf,
    downward_transition,
    labeled_set_partition_pmf,
    pochhammer,
    refined_esf_log_pmf,
    refined_esf_pmf,
    refined_esf_pmf_factorized,
    union_marginal_check,
    vandermonde_check,
)
from .samplers import (
    FrequencyRanked,
    coalescent_rates,
    derive_seed,
    hoppe_urn_sample,
    paintbox_pmf,
    paintbox_sample,
    pd_sample,
)
from .wreath import (
    GroupTable,
    WreathElement,
    WreathParams,
    crp_wreath_sample,
    cycle_type,
    cyclic_group,
    pewens_pmf,
    symmetric_group_3,
    trivial_group,
)
from .allele_stats import (
    ClltScaling,
    RegimeSpec,
    UnsupportedRegimeError,
    bernoulli_k_samples,
    class_moments,
    clt_scaling,
    expected_k,
    harmonic_h,
    joint_k_pmf,
    regime_prediction,
    stirling_first,
    var_k,
)
from .poisson import (
    conditional_identity_check,
    poisson_matrix_sample,
    truncated_tv_distance,
)
from .wf_sim import (
    AncestralGenerator,
    Population,
    ancestral_generator,
    sample_composition,
    stationary_partition_counts,
    transition_prob,
    wf_step,
)

__version__ = "0.8.0"
