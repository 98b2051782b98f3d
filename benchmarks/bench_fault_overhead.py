"""Supervision overhead experiment: the fault-tolerance layer must be free.

The self-healing suite runner (ISSUE 8; see ``docs/robustness.md``) wraps
every task group in an attempt loop — deadline bookkeeping, fault draws,
retry/backoff state, schema-5 status fields.  All of that is opt-in, but
opting in with **injection disabled** must not tax the actual work: a
`--max-retries`/`--cell-timeout` run with no fault plan should cost the
same wall clock as the legacy fail-fast path.

Two legs over a 24-cell serial grid, interleaved to decorrelate machine
drift, ``REPS`` repetitions each after one warmup:

1. **legacy** — ``run_suite(spec, store=...)``: supervision inactive,
   i.e. the fail-fast policy;
2. **supervised** — ``run_suite(spec, store=..., cell_timeout=300,
   max_retries=2)``: the supervised attempt loop, zero faults injected.

Acceptance targets (ISSUE 8, satellite 6):

* best-of-``REPS`` supervised wall clock within **5%** of the legacy best
  (best-of-N is the noise-robust comparison estimator; the medians are
  recorded alongside and are typically within run-to-run jitter);
* the supervised run performs **zero** fault-layer actions (no failures,
  retries, timeouts, quarantines, pool respawns);
* the supervised records are **identical** to the legacy records modulo
  the volatile fields (``seconds``/``timings``) and the supervision
  bookkeeping (``attempts``) — supervision must not change results.

Run with ``pytest benchmarks/bench_fault_overhead.py -s`` or directly with
``PYTHONPATH=src python benchmarks/bench_fault_overhead.py``.
"""

import os
import statistics
import sys
import tempfile
import time

import pytest

import repro
from _harness import emit_table
from repro.pipeline import SuiteSpec

MAX_OVERHEAD = 0.05  # supervised best-of-N within 5% of legacy best-of-N
REPS = 3

GRID = SuiteSpec(
    name="fault-overhead",
    scenarios=("torus", "grid"),
    sizes=(400, 900),
    methods=("strong-log3", "mpx", "weak-rg20"),
    mode="decomposition",
    seeds=(0, 1),
)  # 2 scenarios x 2 sizes x 3 methods x 2 seeds = 24 cells

# Fields that legitimately differ between the two legs: wall clock and the
# supervision attempt counter.  Everything else must match exactly.
VOLATILE_KEYS = ("seconds", "timings", "attempts", "fault_stats")


def _timed_run(**kwargs):
    """One fresh-store serial suite run; returns (seconds, SuiteResult)."""
    with tempfile.TemporaryDirectory() as tmp:
        start = time.perf_counter()
        result = repro.run_suite(GRID, store=os.path.join(tmp, "run.jsonl"), **kwargs)
        return time.perf_counter() - start, result


def _strip_volatile(record):
    return {key: value for key, value in record.items() if key not in VOLATILE_KEYS}


def _record_key(record):
    return (record["scenario"], record["n"], record["method"], record["seed"])


def overhead_rows():
    """Interleaved legacy/supervised timings plus the derived overhead row."""
    supervised_kwargs = {"cell_timeout": 300.0, "max_retries": 2}
    _timed_run()  # warmup: imports, first-touch allocations
    legacy_seconds, supervised_seconds = [], []
    legacy_result = supervised_result = None
    for _ in range(REPS):
        seconds, legacy_result = _timed_run()
        legacy_seconds.append(seconds)
        seconds, supervised_result = _timed_run(**supervised_kwargs)
        supervised_seconds.append(seconds)

    def leg_row(label, samples, result):
        return {
            "run": label,
            "cells": len(GRID.expand()),
            "executed": result.executed,
            "reps": REPS,
            "best s": round(min(samples), 3),
            "median s": round(statistics.median(samples), 3),
        }

    best_overhead = min(supervised_seconds) / min(legacy_seconds) - 1.0
    median_overhead = (
        statistics.median(supervised_seconds) / statistics.median(legacy_seconds) - 1.0
    )
    rows = [
        leg_row("legacy (fail-fast)", legacy_seconds, legacy_result),
        leg_row("supervised, no injection", supervised_seconds, supervised_result),
        {
            "run": "overhead",
            "best s": "{:+.2%}".format(best_overhead),
            "median s": "{:+.2%}".format(median_overhead),
        },
    ]
    return rows, best_overhead, legacy_result, supervised_result


def _check(best_overhead, legacy_result, supervised_result):
    """Assert the acceptance targets; returns a script-mode message."""
    # Supervision ran (the counters exist) but did nothing (all zero).
    stats = supervised_result.supervisor
    assert stats, "supervised run returned no supervisor stats"
    for counter in (
        "failures",
        "retries",
        "retried_ok",
        "quarantined",
        "timeouts",
        "pool_respawns",
        "serial_fallbacks",
    ):
        assert stats[counter] == 0, "idle supervision performed work: {}".format(stats)

    # Supervision must not change results: records identical modulo wall
    # clock and attempt bookkeeping.
    legacy = sorted(legacy_result.records, key=_record_key)
    supervised = sorted(supervised_result.records, key=_record_key)
    assert len(legacy) == len(supervised) == len(GRID.expand())
    for before, after in zip(legacy, supervised):
        assert _strip_volatile(before) == _strip_volatile(after), (
            "supervision changed the record for {}".format(_record_key(before))
        )

    ok = best_overhead < MAX_OVERHEAD
    return ok, "supervision overhead {:+.2%} (target < {:.0%}, best of {})".format(
        best_overhead, MAX_OVERHEAD, REPS
    )


@pytest.mark.benchmark(group="fault-overhead")
def test_fault_overhead():
    rows, best_overhead, legacy_result, supervised_result = overhead_rows()
    emit_table(
        "fault_overhead",
        rows,
        "Supervision overhead — 24-cell serial grid, legacy vs supervised "
        "(no injection), best/median of {}".format(REPS),
    )
    ok, message = _check(best_overhead, legacy_result, supervised_result)
    print("\n" + message)
    assert ok, message


def main() -> int:
    rows, best_overhead, legacy_result, supervised_result = overhead_rows()
    emit_table(
        "fault_overhead",
        rows,
        "Supervision overhead — 24-cell serial grid, legacy vs supervised "
        "(no injection), best/median of {}".format(REPS),
    )
    ok, message = _check(best_overhead, legacy_result, supervised_result)
    print("{} ({})".format(message, "PASS" if ok else "FAIL"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
