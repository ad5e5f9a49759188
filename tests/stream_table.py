"""The seed contract as data: one SHA-256 per sampler output at fixed seeds.

Every sampler runs at two small seeds, and its output is written as
canonical JSON (floats by repr, so every bit counts) and hashed.  The stdout
of the README sampling commands is kept verbatim.  ``stream_table.json``
holds the result for one library version, with the numpy version it was made
under; ``test_stream_table.py`` recomputes every entry against it.

The exact laws on a desk grid (:func:`exact_values`) are hashed too, as one
SHA-256 under ``exact``.  Exact values belong to no version: regenerating the
table must leave that entry as it is, and a change there is a changed law.

A change to any stream is made in three steps: bump ``__version__``,
regenerate the table with

    PYTHONPATH=src python tests/stream_table.py

and note the change in CHANGES.md and the README seed contract.  The diff of
the table then names exactly the streams that moved.

numpy's ``Generator`` methods may change their streams between numpy
releases, so the entries drawn from numpy are marked ``NUMPY``; under another
numpy version they are skipped with both versions in the reason.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import sys
from collections import Counter
from fractions import Fraction

import numpy as np
from click.testing import CliRunner

import multiewens
from multiewens import allele_stats, measure, partitions, poisson, samplers, wf_sim, wreath
from multiewens.cli import main as cli_main
from multiewens.partitions import LabeledSetPartition, MultiplePartition, multipartition_to_lists

TABLE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "stream_table.json")
SEEDS = (1, 2)
THETA = (0.7, 1.3)


def _plain(x):
    """x as JSON-ready data in one canonical form."""
    if isinstance(x, Fraction):
        return [x.numerator, x.denominator]
    if isinstance(x, MultiplePartition):
        return multipartition_to_lists(x)
    if isinstance(x, LabeledSetPartition):
        return [[label, sorted(elems)] for label, elems in x.blocks]
    if isinstance(x, wreath.WreathElement):
        return x.to_json_dict()
    if isinstance(x, samplers.FrequencyRanked):
        return {"deltas": list(x.deltas), "freqs": [list(seq) for seq in x.freqs]}
    if isinstance(x, wf_sim.Population):
        return x.to_json_dict()
    if isinstance(x, np.ndarray):
        return {"dtype": str(x.dtype), "shape": list(x.shape), "data": x.tolist()}
    if isinstance(x, Counter):
        items = [[_plain(key), count] for key, count in x.items()]
        return sorted(items, key=lambda item: json.dumps(item[0]))
    if isinstance(x, dict):
        return {key: _plain(v) for key, v in x.items()}
    if isinstance(x, (tuple, list)):
        return [_plain(v) for v in x]
    return x


def _sha(x) -> str:
    text = json.dumps(_plain(x), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _stationary(seed):
    pop = wf_sim.Population.founding(40, 2)
    samples = list(wf_sim.stationary_samples(pop, (0.5, 1.0), 4, 5, seed, 200, 20))
    return samples, pop  # the population is written once, at the first next()


def _wf_steps(seed):
    pop = wf_sim.Population.founding(20, 2)
    rng = np.random.default_rng(seed)
    for _ in range(10):
        wf_sim.wf_step(pop, (0.01, 0.02), rng)
    return pop


def _composition(seed):
    pop = wf_sim.Population(
        ids=np.array([0, 0, 1, 1, 1, 2, 0, 0, 3, 4], dtype=np.int64),
        classes=np.array([0, 0, 0, 0, 0, 0, 1, 1, 1, 1], dtype=np.int64),
        k=2,
    )
    return wf_sim.sample_composition(pop, 6, seed)


# name -> (draw at a seed, drawn from numpy)
SAMPLERS = {
    "hoppe_urn_sample": (lambda s: samplers.hoppe_urn_sample(8, THETA, s), False),
    "hoppe_urn_partition_counts": (
        lambda s: samplers.hoppe_urn_partition_counts(6, THETA, 5000, s), True),
    "crp_wreath_sample": (
        lambda s: wreath.crp_wreath_sample(6, wreath.symmetric_group_3(), (1.0, 2.0, 0.5), s),
        False),
    # above samplers._KERNEL_STEPS, where the one-draw samplers run their array
    # kernels on numpy's uniforms
    "hoppe_urn_sample_large": (lambda s: samplers.hoppe_urn_sample(2000, THETA, s), True),
    "crp_wreath_sample_large": (
        lambda s: wreath.crp_wreath_sample(2000, wreath.symmetric_group_3(), (1.0, 2.0, 0.5), s),
        True),
    "crp_element_counts": (
        lambda s: wreath.crp_element_counts(3, wreath.cyclic_group(2), (1.0, 2.0), 5000, s),
        True),
    "pd_sample": (lambda s: samplers.pd_sample((1, 2), 1e-6, s), True),
    "paintbox_sample": (
        lambda s: samplers.paintbox_sample(10, samplers.pd_sample((1, 2), 1e-6, s), s), True),
    "bernoulli_k_samples": (
        lambda s: allele_stats.bernoulli_k_samples(300, (1.0, 2.0), 1, 200, s), True),
    "poisson_matrix_sample": (lambda s: poisson.poisson_matrix_sample(4, (1, 2), s, reps=5), True),
    "stationary_samples": (_stationary, True),
    "stationary_partition_counts": (
        lambda s: wf_sim.stationary_partition_counts(40, (0.5, 1.0), 4, 50, s), True),
    # more than 64 genes at large 2N, where no generation is busy enough to
    # be drawn whole
    "stationary_partition_counts_large": (
        lambda s: wf_sim.stationary_partition_counts(10**6, (0.5, 1.0), 100, 5, s), True),
    "wf_step": (_wf_steps, True),
    "sample_composition": (_composition, True),
}

# the README sampling commands, whose stdout is kept verbatim
COMMANDS = {
    "sample-urn": ("sample-urn --n 6 --theta 0.7,1.3 --reps 5 --seed 42", False),
    "sample-crp": ("sample-crp --n 4 --group z2 --t 1,2 --reps 3 --project", False),
    "wf-sim": ("wf-sim --N 1000 --theta 0.5,1.0 --gens 10000 --sample-size 4 --reps 10", True),
}

NUMPY = {name for name, (_, uses) in {**SAMPLERS, **COMMANDS}.items() if uses}


# exact masses per number of classes, and the wreath groups with their weights
EXACT_THETAS = {
    1: (Fraction(3, 2),),
    2: (1, Fraction(2, 3)),
    3: (1, Fraction(2, 3), Fraction(5, 2)),
}
WREATH = (
    (wreath.cyclic_group(2), (1, Fraction(3, 2)), 4),
    (wreath.symmetric_group_3(), (1, 2, Fraction(1, 3)), 3),
)


def exact_values() -> dict:
    """Every exact law on the desk grid, as lists in enumeration order."""
    laws = {name: [] for name in (
        "refined", "factorized", "downward", "set-partition", "joint-k", "wreath",
        "transition", "stirling", "count",
    )}
    for k, theta in EXACT_THETAS.items():
        for n in range(6):
            for p in partitions.enumerate_multipartitions(n, k):
                laws["refined"].append(measure.refined_esf_pmf(p, theta))
                laws["factorized"].append(measure.refined_esf_pmf_factorized(p, theta))
                if n:
                    children = measure.downward_transition(p).items()
                    laws["downward"].append(sorted(_plain(list(children))))
            for s in partitions.labeled_set_partitions(min(n, 4), k):
                laws["set-partition"].append(measure.labeled_set_partition_pmf(s, theta))
        for n in range(7):
            for ps in itertools.product(range(n + 1), repeat=k):
                laws["joint-k"].append(allele_stats.joint_k_pmf(n, theta, ps))
    for group, t, top in WREATH:
        for n in range(top + 1):
            for x in wreath.enumerate_wreath_elements(n, group):
                laws["wreath"].append(wreath.pewens_pmf(x, group, t))
    for two_n in (4, 10):
        for p in range(min(two_n, 5) + 1):
            for m in range(p + 1):
                laws["transition"].append(
                    wf_sim.transition_prob(p, m, two_n, (Fraction(1, 10), Fraction(1, 20))))
    laws["stirling"] = [allele_stats.stirling_first(n, m) for n in range(13) for m in range(n + 1)]
    laws["count"] = [
        partitions.count_multipartitions(n, k) for n in range(13) for k in range(1, 5)
    ]
    return laws


def exact_hash() -> str:
    return _sha(exact_values())


def sampler_hash(name: str, seed: int) -> str:
    return _sha(SAMPLERS[name][0](seed))


def command_stdout(name: str) -> str:
    res = CliRunner().invoke(cli_main, COMMANDS[name][0].split())
    if res.exit_code != 0:
        raise RuntimeError(f"{COMMANDS[name][0]!r} exited {res.exit_code}: {res.output}")
    return res.stdout


def build() -> dict:
    return {
        "version": multiewens.__version__,
        "numpy": np.__version__,
        "samplers": {
            name: {str(seed): sampler_hash(name, seed) for seed in SEEDS} for name in SAMPLERS
        },
        "commands": {name: command_stdout(name) for name in COMMANDS},
        "exact": exact_hash(),
    }


def load() -> dict:
    with open(TABLE) as fh:
        return json.load(fh)


if __name__ == "__main__":
    with open(TABLE, "w") as fh:
        json.dump(build(), fh, indent=2)
        fh.write("\n")
    print(f"wrote {TABLE} for multiewens {multiewens.__version__}, numpy {np.__version__}",
          file=sys.stderr)
