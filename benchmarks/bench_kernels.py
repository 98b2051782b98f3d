"""Kernel-tier speedup experiment: vectorised hot paths vs the pure loops.

Measures the two layers the kernel subsystem (:mod:`repro.kernels`)
accelerates, on workloads at the ISSUE 6 scale (n >= 10^5):

* the **BFS micro-kernel** — ``multi_source_bfs`` driven by the tier's
  frontier expansion over the frozen CSR arrays; and
* the **end-to-end decomposition path** — ``strong-log3`` through the full
  pipeline (weak phases with the tier's proposal engine, strong carving,
  tree materialisation).

Every row also asserts tier equivalence: the kernels are differential by
contract (byte-identical layers, cluster assignments and ledger charges —
see ``tests/test_kernels.py``), so the whole result of this experiment is
the speedup column.

Acceptance targets (ISSUE 6): the ``numpy`` tier must beat ``pure`` by
>= 10x on BFS at n >= 10^5 (met on the constant-degree expander workloads)
and >= 3x on the end-to-end decomposition at that scale (met on the
16-regular workload; the sparser rows are reported alongside).

Set ``REPRO_BENCH_KERNELS_N`` to shrink the workloads (the CI smoke run
uses a few thousand nodes and reports without asserting targets — the
vectorisation only pays off at scale, which is the point of the tier
split).  Run with ``pytest benchmarks/bench_kernels.py -s`` or directly
with ``python benchmarks/bench_kernels.py``.
"""

import os
import sys
import time

import pytest

import repro
from _harness import emit_metrics, emit_table
from repro.graphs.csr import CSRGraph, refresh_csr_cache
from repro.graphs.generators import random_regular_graph, torus_graph
from repro.kernels import KERNELS

N = int(os.environ.get("REPRO_BENCH_KERNELS_N", "100000"))
FULL_SCALE = N >= 100000
TARGET_BFS_SPEEDUP = 10.0
TARGET_E2E_SPEEDUP = 3.0
REPEATS = 3
CPUS = os.cpu_count() or 1

# The BFS workloads: the two canonical constant-degree families (torus and
# random-regular expanders) at several degrees.  The asserted >= 10x rows
# are the regular-4/regular-8 expanders; the rest are reported for context.
BFS_WORKLOADS = (
    ("regular-4", lambda: random_regular_graph(N, 4, seed=7)),
    ("regular-8", lambda: random_regular_graph(N, 8, seed=7)),
    ("regular-16", lambda: random_regular_graph(N, 16, seed=7)),
    ("torus", lambda: _torus()),
)

# The end-to-end workloads; the asserted >= 3x row is regular-16 (the
# denser the graph, the larger the share of work the engine vectorises).
E2E_WORKLOADS = (
    ("regular-8", lambda: random_regular_graph(N, 8, seed=7)),
    ("regular-16", lambda: random_regular_graph(N, 16, seed=7)),
)
E2E_TARGET_WORKLOAD = "regular-16"
E2E_METHOD = "strong-log3"


def _torus():
    side = max(3, int(round(N ** 0.5)))
    return torus_graph(side, side, seed=7)


def _tiers():
    """The measured kernel tiers: pure always, the others when available."""
    return [name for name in KERNELS.names() if name in KERNELS.available_names()]


def _time_bfs(kernel_name, csr, source=0, repeats=REPEATS):
    """Best-of-N multi-source BFS wall time plus its layer signature."""
    kernel = KERNELS.instantiate(kernel_name)
    best = float("inf")
    result = None
    for _ in range(repeats):
        blocked = bytearray(csr.n)
        blocked[source] = 1
        start = time.perf_counter()
        result = kernel.multi_source_bfs(csr, [source], blocked)
        best = min(best, time.perf_counter() - start)
    blocked = bytearray(csr.n)
    blocked[source] = 1
    layers = kernel.bfs_layers(csr, [source], blocked)
    return best, (result, layers)


def bfs_rows(workloads=BFS_WORKLOADS):
    """One row per workload: per-tier BFS milliseconds and speedups."""
    rows = []
    for label, build in workloads:
        graph = build()
        csr = CSRGraph.from_networkx(graph)
        pure_time, pure_sig = _time_bfs("pure", csr)
        row = {
            "workload": label,
            "n": csr.n,
            "pure ms": round(pure_time * 1000, 1),
        }
        identical = True
        for tier in _tiers():
            if tier == "pure":
                continue
            tier_time, tier_sig = _time_bfs(tier, csr)
            row["{} ms".format(tier)] = round(tier_time * 1000, 1)
            row["{} speedup".format(tier)] = round(pure_time / tier_time, 2)
            identical = identical and tier_sig == pure_sig
        row["identical"] = identical
        rows.append(row)
    return rows


def _time_decomposition(graph, kernel_name, repeats=REPEATS):
    """Best-of-N end-to-end decomposition wall time plus the result."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        refresh_csr_cache(graph)
        start = time.perf_counter()
        result = repro.decompose(
            graph, method=E2E_METHOD, seed=1, kernel=kernel_name
        )
        best = min(best, time.perf_counter() - start)
    return best, result


def _signature(decomposition):
    return frozenset(
        (cluster.color, frozenset(cluster.nodes)) for cluster in decomposition.clusters
    )


def e2e_rows(workloads=E2E_WORKLOADS):
    """One row per workload: per-tier decomposition seconds and speedups."""
    rows = []
    for label, build in workloads:
        graph = build()
        pure_time, pure_result = _time_decomposition(graph, "pure")
        row = {
            "workload": label,
            "method": E2E_METHOD,
            "n": graph.number_of_nodes(),
            "pure s": round(pure_time, 2),
        }
        identical = True
        for tier in _tiers():
            if tier == "pure":
                continue
            tier_time, tier_result = _time_decomposition(graph, tier)
            row["{} s".format(tier)] = round(tier_time, 2)
            row["{} speedup".format(tier)] = round(pure_time / tier_time, 2)
            identical = identical and _signature(tier_result) == _signature(pure_result)
        row["identical"] = identical
        rows.append(row)
    return rows


def _emit(name, rows, title, config):
    """Archive one result table as ``.txt`` and ``.json``, CPU count stated.

    Every per-tier column (``"<tier> s"``, ``"<tier> ms"``,
    ``"<tier> speedup"``) becomes one ``<tier>_<what>`` metric entry.
    """
    emit_table(name, rows, "{} ({} CPUs)".format(title, CPUS))
    metrics = []
    for row in rows:
        for column, value in row.items():
            tier, _, what = column.partition(" ")
            if what not in ("s", "ms", "speedup"):
                continue
            metrics.append(
                {
                    "workload": row["workload"],
                    "n": row["n"],
                    "metric": "{}_{}".format(tier, what),
                    "unit": "x" if what == "speedup" else what,
                    "value": value,
                    "identical": row["identical"],
                }
            )
    emit_metrics(name, metrics, config=dict(config, kernel_tiers=_tiers(), cpus=CPUS))


def emit_bfs(rows):
    _emit(
        "kernel_bfs_speedup",
        rows,
        "Kernel tiers — multi-source BFS over the CSR arrays, n≈{}".format(N),
        {"primitive": "multi-source BFS over the CSR arrays"},
    )


def emit_e2e(rows):
    _emit(
        "kernel_e2e_speedup",
        rows,
        "Kernel tiers — {} decomposition end to end, n≈{}".format(E2E_METHOD, N),
        {"method": E2E_METHOD, "scope": "decomposition end to end"},
    )


def _check(bfs, e2e):
    """The acceptance predicates (only binding at full scale with numpy)."""
    problems = []
    if not all(row["identical"] for row in bfs + e2e):
        problems.append("kernel tiers diverged")
    if "numpy" not in _tiers():
        problems.append("numpy tier unavailable (install repro[fast])")
        return problems
    if FULL_SCALE:
        best_bfs = max(
            row["numpy speedup"]
            for row in bfs
            if row["workload"].startswith("regular")
        )
        if best_bfs < TARGET_BFS_SPEEDUP:
            problems.append(
                "BFS speedup {}x below target {}x".format(
                    best_bfs, TARGET_BFS_SPEEDUP
                )
            )
        target = next(r for r in e2e if r["workload"] == E2E_TARGET_WORKLOAD)
        if target["numpy speedup"] < TARGET_E2E_SPEEDUP:
            problems.append(
                "end-to-end speedup {}x below target {}x on {}".format(
                    target["numpy speedup"], TARGET_E2E_SPEEDUP, target["workload"]
                )
            )
    return problems


@pytest.mark.benchmark(group="kernels")
def test_kernel_bfs_speedup():
    rows = bfs_rows()
    emit_bfs(rows)
    for row in rows:
        assert row["identical"], "tiers diverged on {}".format(row["workload"])
    if FULL_SCALE and "numpy" in _tiers():
        best = max(
            row["numpy speedup"]
            for row in rows
            if row["workload"].startswith("regular")
        )
        assert best >= TARGET_BFS_SPEEDUP, rows


@pytest.mark.benchmark(group="kernels")
def test_kernel_e2e_speedup():
    rows = e2e_rows()
    emit_e2e(rows)
    for row in rows:
        assert row["identical"], "tiers diverged on {}".format(row["workload"])
    if FULL_SCALE and "numpy" in _tiers():
        target = next(r for r in rows if r["workload"] == E2E_TARGET_WORKLOAD)
        assert target["numpy speedup"] >= TARGET_E2E_SPEEDUP, rows


def main() -> int:
    bfs = bfs_rows()
    emit_bfs(bfs)
    e2e = e2e_rows()
    emit_e2e(e2e)
    problems = _check(bfs, e2e)
    print(
        "targets: BFS >= {}x, end-to-end >= {}x at n >= 10^5 -> {}".format(
            TARGET_BFS_SPEEDUP,
            TARGET_E2E_SPEEDUP,
            "PASS" if not problems else "; ".join(problems),
        )
    )
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
