"""Ewens sampling machinery for alleles split into k mutation classes.

The central object is the probability law of a sample's allelic composition
when every allele belongs to one of k classes with its own mutation mass
theta_l: a measure on multiple partitions (k-tuples of Young diagrams) that
reduces to the classical Ewens sampling formula at k = 1.  The package
provides exact rational evaluation, consistency structure, four independent
samplers, allele-count statistics, and a Poisson approximation, all
cross-checked against brute-force enumeration oracles.

The package namespace is the ``__all__`` of each module, in import order;
``__version__`` is the one place the version is written.
"""

from .partitions import *
from .measure import *
from .samplers import *
from .wreath import *
from .allele_stats import *
from .poisson import *
from .wf_sim import *
from . import partitions, measure, samplers, wreath, allele_stats, poisson, wf_sim

__all__ = [
    *partitions.__all__, *measure.__all__, *samplers.__all__, *wreath.__all__,
    *allele_stats.__all__, *poisson.__all__, *wf_sim.__all__,
]

__version__ = "0.11.0"
