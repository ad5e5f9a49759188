"""A fixed reference computation that measures the machine's current speed.

The host's CPU speed drifts by tens of percent over periods of tens of
seconds (shared cores), and process CPU time drifts with it, so neither a
longer run nor CPU time removes it.  The benchmark therefore times this
fixed mix of rational arithmetic and small-object work next to every
segment of timed jobs and every set-up, and scales each measured time by
REFERENCE_S / (measured reference time): times are reported in seconds at
the reference speed.  The mix uses only the standard library, never the
package under test, so no change to the package can move it.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter

# median time of reference_work() on the machine the benchmark was defined
# on; any constant works, it only sets the unit
REFERENCE_S = 0.007


def reference_work() -> None:
    """Rational arithmetic and small-object allocation: of the mixes tried
    (an integer loop, numpy indexing, these two), their times tracked the
    exact, urn and Wright-Fisher jobs' times best, to within 1-3%."""
    for _ in range(6):
        x = Fraction(0)
        for i in range(1, 150):
            x += Fraction(1, i)
    table = {}
    for i in range(6000):
        table[(i % 97, i % 13)] = tuple(range(i % 5))
    sorted(table.items())


def reference_s(repeats: int = 1) -> float:
    """Median time of a few runs of reference_work()."""
    times = []
    for _ in range(repeats):
        start = perf_counter()
        reference_work()
        times.append(perf_counter() - start)
    return statistics.median(times)
