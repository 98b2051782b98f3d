"""Calibrated seconds: raw timings scaled by fixed reference workloads.

Timing samples on small shared machines are heavy-tailed and drift: the same
unit of work can take 1.5x longer in one 20-second window than in the next.
The benchmark therefore times a fixed pure-Python reference loop between its
timed units (never while pool workers are busy) and reports each unit as

    calibrated_s = raw_s * (REFERENCE_NOMINAL_S / reference_s) ** CALIBRATION_EXPONENT

where ``reference_s`` is the mean of the reference timings taken just before
and just after the unit.  With an exponent of 1, a calibrated second would be
a raw second on a machine on which the reference loop takes
``REFERENCE_NOMINAL_S``.  The exponent is below 1 because the reference loop
swings more than the workloads between the machine's speed states: on a
2-vCPU VM whose speed switches every few seconds, the reference took 1.6-1.7x
longer in its slow state while an n=2048 decomposition took 1.2-1.4x longer,
so full scaling over-corrected.  Over logs of about 250 alternating units
and reference samples, the run-to-run spread of 8-unit aggregates was
lowest at exponents 0.5-0.75 (0.07-0.10, against 0.08-0.12 at 1 and
0.09-0.16 raw).

Set-up time is dominated by imports, which the compute loop does not track,
so it is calibrated against a second reference: a fixed list of standard
library imports in a fresh interpreter (:func:`import_reference_s`).

The reference workloads live here, outside the program, so no change to the
program can speed them up or slow them down.  A change that slows the whole
interpreter would slow the references too and hide, at least in part, in
calibrated seconds; the raw diagnostics (``raw.wall_s``, ``raw.setup_s``, ``calib_s_p50``) exist
so that such a change still shows.
"""

import gc
import statistics
import subprocess
import sys
import time

# Typical raw seconds of one reference sample and of the import reference on
# a 2-vCPU x86-64 VM (Python 3.11); pinned so calibrated seconds stay
# comparable across commits.
REFERENCE_NOMINAL_S = 0.0030
CALIBRATION_EXPONENT = 0.75
IMPORT_NOMINAL_S = 0.150

_REFERENCE_NODES = 2000
_REFERENCE_ROOTS = (0, 517, 1009)
_REFERENCE_REPEATS = 10

# Standard-library modules with a mix of pure-Python and extension imports;
# none of them is imported by the interpreter at start-up.
_IMPORT_REFERENCE = (
    "import argparse, asyncio, decimal, email.parser, fractions, http.client, "
    "json, logging, statistics, unittest, xml.etree.ElementTree, zipfile"
)


def _reference_graph():
    n = _REFERENCE_NODES
    return [[(i * 7 + 3) % n, (i * 13 + 11) % n, (i + 1) % n, (i - 1) % n] for i in range(n)]


_GRAPH = _reference_graph()


def _reference_work():
    """Breadth-first searches over a fixed list-of-lists graph (dict/set/list
    traffic like the algorithm stack's pure-Python walks)."""
    total = 0
    for root in _REFERENCE_ROOTS:
        dist = {root: 0}
        frontier = [root]
        while frontier:
            following = []
            for u in frontier:
                du = dist[u] + 1
                for v in _GRAPH[u]:
                    if v not in dist:
                        dist[v] = du
                        following.append(v)
            frontier = following
        total += sum(dist.values())
    return total


_EXPECTED = _reference_work()


def reference_s():
    """One calibration sample: the median of a few reference-loop timings."""
    samples = []
    # The reference measures interpreter speed, not the heap the program
    # left behind: collection cost grows with live objects, so keep it out.
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(_REFERENCE_REPEATS):
            start = time.perf_counter()
            result = _reference_work()
            samples.append(time.perf_counter() - start)
            if result != _EXPECTED:
                raise RuntimeError(
                    "reference loop returned {}, expected {}".format(result, _EXPECTED)
                )
    finally:
        if enabled:
            gc.enable()
    return statistics.median(samples)


def import_reference_s():
    """Wall seconds for a fresh interpreter to import a fixed set of stdlib
    modules and exit (measured the same way as a set-up probe)."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", _IMPORT_REFERENCE], check=True)
    return time.perf_counter() - start


class Calibrator:
    """Brackets timed units with reference samples.

    Call :meth:`sample` before the first unit and after every unit; unit
    ``i`` is then calibrated by the mean of samples ``i`` and ``i + 1``.
    """

    def __init__(self):
        self.samples = []

    def sample(self):
        self.samples.append(reference_s())

    def factor(self, unit_index):
        """Multiplier from raw to calibrated seconds for one unit."""
        before = self.samples[unit_index]
        after = self.samples[unit_index + 1]
        return (REFERENCE_NOMINAL_S / ((before + after) / 2.0)) ** CALIBRATION_EXPONENT

    def median_s(self):
        return statistics.median(self.samples)
