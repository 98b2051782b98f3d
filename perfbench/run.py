"""The repo benchmark: one workload through ``repro.run_suite``, end to end.

Usage (from the repository root)::

    python3 perfbench/run.py --workload deep-carve --seed 0 --seconds 20 --trace 0

``--trace 0`` times the workload untraced and reports the end-to-end
metrics; ``--trace 1`` makes one untraced pass, one traced pass with a span
around every layer boundary (``layers.py``), and reports the per-layer
metrics.  Every timing is in calibrated seconds (``calib.py``).  The last
line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Every record is checked: status ``ok``, validators passed, and the record
equal (minus ``timings`` and ``seconds``) to a reference.  For the default
seed the reference is committed under ``reference/`` (a serial run); for any
other seed it is a validated run of the same grid on the other transport,
made after the timed phase.
"""

import argparse
import contextlib
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calib  # noqa: E402
from layers import Tracer  # noqa: E402
from workloads import DEFAULT_SEED, ROOT, WORK_DIR, WORKLOADS  # noqa: E402

SRC = os.path.join(ROOT, "src")
REFERENCE_DIR = os.path.join(HERE, "reference")
SETUP_PROBES = 5
# The per-layer metrics that partition the traced wall.
SELF_TIME_METRICS = (
    "graphs.build_s", "graphs.freeze_s", "weak.carve_s", "core.theorem21_self_s",
    "core.sparse_cut_s", "core.materialise_s", "baselines.decompose_s",
    "analysis.evaluate_s", "clustering.validate_s", "applications.task_s",
    "pipeline.store_append_s", "unattributed_s",
)


def _ensure_program():
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit("perfbench: no program at {}; run from a repository checkout".format(SRC))
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def set_up(workload, seed):
    """Everything before the first timed cell: imports, spec expansion,
    opening a store and a warm-up run.  Returns the timed units."""
    _ensure_program()
    import repro
    from repro.pipeline.backends import open_store

    units = workload.units(seed)
    # Expanding the grid is set-up work a user pays once; time it here.
    for spec in units:
        spec.expand()
    os.makedirs(WORK_DIR, exist_ok=True)
    path = _store_path(workload, units[0])
    store = open_store(path, suite=units[0].name, metadata={"spec": units[0].to_dict()})
    store.close()
    if path is not None and os.path.exists(path):
        os.remove(path)
    repro.run_suite(
        workload.warmup_spec(seed), workers=workload.workers, **dict(workload.options)
    )
    return units


def stop_helpers():
    """Stop the shared-memory resource tracker process, if one was started,
    and wait for it: the benchmark leaves no process behind."""
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def _store_path(workload, spec):
    if not workload.disk_store:
        return None
    return os.path.join(WORK_DIR, "{}-{}.jsonl".format(spec.name, os.getpid()))


def _cpu_s():
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def peak_rss_mib():
    """Peak resident set of this process plus the largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


@contextlib.contextmanager
def counting_unraisable(counter):
    """Count "Exception ignored in" reports (``sys.unraisablehook`` output)
    written to file descriptor 2 by this process or its pool workers, and
    pass the text on to the real stderr: the reports are counted, never
    silenced."""
    path = os.path.join(WORK_DIR, "stderr-{}.txt".format(os.getpid()))
    sys.stderr.flush()
    saved = os.dup(2)
    with open(path, "w+b") as capture:
        os.dup2(capture.fileno(), 2)
        try:
            yield
        finally:
            sys.stderr.flush()
            os.dup2(saved, 2)
            os.close(saved)
            capture.seek(0)
            text = capture.read()
    os.remove(path)
    if text:
        os.write(2, text)
    counter[0] += text.count(b"Exception ignored in")


class Unit:
    """The outcome of one timed unit."""

    def __init__(self, index, slot, spec, wall_s, cpu_s, records, arena, error):
        self.index = index
        self.slot = slot  # position of the unit in the workload's grid
        self.spec = spec
        self.wall_s = wall_s
        self.cpu_s = cpu_s
        self.records = records
        self.arena = arena
        self.error = error
        self.factor = 1.0  # set once the next calibration sample is taken


def run_unit(workload, spec, index, slot, workers, unraisable, tracer=None, options=()):
    """Run one unit through ``repro.run_suite`` and time it."""
    import repro
    from repro.pipeline.backends import open_store

    path = _store_path(workload, spec)
    records, arena, error = [], {}, None
    with counting_unraisable(unraisable):
        cpu0 = _cpu_s()
        start = time.perf_counter()
        try:
            store = open_store(path, suite=spec.name, metadata={"spec": spec.to_dict()})
            if tracer is not None:
                tracer.wrap_store(store)
            try:
                result = repro.run_suite(
                    spec, store=store, workers=workers, **dict(workload.options + options)
                )
            finally:
                store.close()
            records, arena = result.records, result.arena
        except Exception:  # a failing unit counts against verified_frac
            error = traceback.format_exc()
        wall_s = time.perf_counter() - start
        cpu_s = _cpu_s() - cpu0
        # Shared-memory segments die with the result; collect them inside
        # the capture window so their reports are counted.
        result = None
        gc.collect()
    if path is not None and os.path.exists(path):
        os.remove(path)
    if error:
        sys.stderr.write("perfbench: unit {} failed\n{}".format(spec.name, error))
    return Unit(index, slot, spec, wall_s, cpu_s, records, arena, error)


def run_units(workload, units, workers, unraisable, deadline=None, tracer=None, options=()):
    """Run ``units`` in order, calibrating between them; with a
    ``deadline`` keep cycling through them until it passes.  ``options``
    are extra ``run_suite`` keyword arguments as ``(name, value)`` pairs."""
    calibrator = calib.Calibrator()
    calibrator.sample()
    done = []
    while True:
        slot = len(done) % len(units)
        if tracer is not None:
            tracer.unit = len(done)
        unit = run_unit(
            workload, units[slot], len(done), slot, workers, unraisable, tracer, options
        )
        calibrator.sample()
        unit.factor = calibrator.factor(len(done))
        done.append(unit)
        if len(done) >= len(units) and (deadline is None or time.perf_counter() >= deadline):
            return done, calibrator


def canonical(record):
    """A record minus its wall-clock fields, in a comparable form."""
    stripped = {k: v for k, v in record.items() if k not in ("timings", "seconds")}
    return json.dumps(stripped, sort_keys=True)


def load_reference(workload_name):
    path = os.path.join(REFERENCE_DIR, "{}.jsonl".format(workload_name))
    with open(path, "r", encoding="utf-8") as handle:
        records = [json.loads(line) for line in handle if line.strip()]
    return {record["cell"]: canonical(record) for record in records}


def reference_records(workload, seed, passes):
    """Reference records by cell id for ``seed``."""
    if seed == DEFAULT_SEED:
        return load_reference(workload.name)
    if workload.validate and workload.workers == 1:
        # The timed run is already serial and validated: its first pass is
        # the reference the later passes must repeat.
        source = passes
    else:
        # The whole grid in one validated run on the other transport: a pool
        # for the serial workloads, serial for the pool one.  One retry makes
        # the run supervised: a cell group that fails validation becomes a
        # "failed" record instead of aborting the run, so only that group's
        # cells count as unverified.
        workers = 2 if workload.workers == 1 else 1
        source, _ = run_units(
            workload, [workload.spec(seed, validate=True)], workers, [0],
            options=(("max_retries", 1),),
        )
    reference = {}
    for unit in source:
        for record in unit.records:
            reference.setdefault(record["cell"], canonical(record))
    return reference


def check(units, reference):
    """Return ``(attempted, failed, failed cell ids)`` over all units."""
    attempted = failed = 0
    bad = []
    for unit in units:
        cells = [cell.cell_id for cell in unit.spec.expand()]
        attempted += len(cells)
        if unit.error:
            failed += len(cells)
            bad.extend(cells)
            continue
        by_cell = {record["cell"]: record for record in unit.records}
        for cell in cells:
            record = by_cell.get(cell)
            ok = (
                record is not None
                and record.get("status") == "ok"
                and reference.get(cell) == canonical(record)
            )
            if not ok:
                failed += 1
                bad.append(cell)
    return attempted, failed, bad


def cell_times(workload, units):
    """Calibrated seconds per cell, the median over the cell's repetitions.

    A cell's time is the unit wall for one-cell serial units (graph build
    to record appended) and the record's own ``seconds`` (graph build or
    attach to record) in pool sub-suites, where cells overlap.
    """
    samples = {}
    for unit in units:
        if unit.error:
            continue
        if workload.workers == 1 and len(unit.records) == 1:
            samples.setdefault(unit.records[0]["cell"], []).append(unit.wall_s * unit.factor)
        else:
            for record in unit.records:
                samples.setdefault(record["cell"], []).append(record["seconds"] * unit.factor)
    return [statistics.median(values) for values in samples.values()]


def per_unit_median(units, value):
    """Sum over distinct units of the median of ``value(unit)`` — the
    calibrated cost of one pass over the grid."""
    by_slot = {}
    for unit in units:
        by_slot.setdefault(unit.slot, []).append(value(unit))
    return sum(statistics.median(values) for values in by_slot.values())


def quantile(values, share, steps=20000):
    """Harrell-Davis estimate of the ``share`` quantile.

    A mean of all order statistics weighted by the Beta((n+1)q, (n+1)(1-q))
    probability of each ``[(i-1)/n, i/n]`` slice (midpoint rule).  A single
    order statistic jumps between groups of similar cells when there are
    few cells (4 in deep-carve, 12 in table1); this estimate moves smoothly.
    """
    ordered = sorted(values)
    n = len(ordered)
    a, b = share * (n + 1), (1.0 - share) * (n + 1)
    points = [(k + 0.5) / steps for k in range(steps)]
    logs = [(a - 1.0) * math.log(x) + (b - 1.0) * math.log1p(-x) for x in points]
    peak = max(logs)
    weights = [0.0] * n
    for x, log_density in zip(points, logs):
        weights[min(n - 1, int(x * n))] += math.exp(log_density - peak)
    total = sum(weights)
    return sum(w * v for w, v in zip(weights, ordered)) / total


def _probe_s(command):
    """Seconds from spawning ``command`` to its first line of output."""
    start = time.perf_counter()
    with subprocess.Popen(command, stdout=subprocess.PIPE, cwd=ROOT) as process:
        line = process.stdout.readline()
        elapsed = time.perf_counter() - start
        process.stdout.read()
        if process.wait() != 0 or line.strip() != b"ready":
            raise RuntimeError("set-up probe {} failed".format(command))
    return elapsed


def measure_setup(workload, seed):
    """Median set-up seconds over fresh interpreters, raw and calibrated
    against the stdlib-import reference run before and after each probe."""
    probe = [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload.name, "--seed", str(seed)]
    references = [calib.import_reference_s()]
    raw = []
    for _ in range(SETUP_PROBES):
        raw.append(_probe_s(probe))
        references.append(calib.import_reference_s())
    calibrated = [
        value * calib.IMPORT_NOMINAL_S / ((references[i] + references[i + 1]) / 2.0)
        for i, value in enumerate(raw)
    ]
    return statistics.median(calibrated), statistics.median(raw)


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(workload, seed, seconds):
    units = set_up(workload, seed)
    unraisable = [0]
    deadline = time.perf_counter() + seconds
    passes, calibrator = run_units(workload, units, workload.workers, unraisable, deadline)
    rss = peak_rss_mib()
    cells_per_pass = sum(len(spec.expand()) for spec in units)
    wall_s = per_unit_median(passes, lambda unit: unit.wall_s * unit.factor)
    cpu_s = per_unit_median(passes, lambda unit: unit.cpu_s * unit.factor)
    cells = cell_times(workload, passes)
    attempted, failed, bad = check(passes, reference_records(workload, seed, passes))
    setup_s, raw_setup_s = measure_setup(workload, seed)
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "wall_s": metric(wall_s, "s"),
        "cell_s_p50": metric(quantile(cells, 0.5), "s"),
        "cells_per_s": metric(cells_per_pass / wall_s, "1/s"),
        "cpu_s": metric(cpu_s, "s"),
        "peak_rss_mib": metric(rss, "MiB"),
        "verified_frac": metric((attempted - failed) / attempted, "ratio"),
    }
    notes = {
        "passes": len(passes) / len(units),
        "cells": len(cells),
        "calib_s_p50": calibrator.median_s(),
        "raw.setup_s": raw_setup_s,
        "pipeline.unraisable_errors": unraisable[0],
        "failed_cells": sorted(set(bad)),
    }
    return metrics, attempted, failed, notes


def per_layer(workload, seed):
    units = set_up(workload, seed)
    unraisable = [0]
    # The untraced pass, as the end-to-end run makes it.
    plain, calibrator = run_units(workload, units, workload.workers, unraisable)
    # Traced and untraced serial passes (suite-grid runs its pool pass
    # above; tracing follows one process, so both its passes here are serial).
    if workload.workers == 1:
        baseline = plain
    else:
        baseline, _ = run_units(workload, units, 1, [0])
    tracer = Tracer()
    with tracer.installed():
        traced, _ = run_units(workload, units, 1, [0], tracer=tracer)
    os.makedirs(WORK_DIR, exist_ok=True)
    tracer.dump(os.path.join(WORK_DIR, "spans-{}-{}.jsonl".format(workload.name, seed)))

    everything = plain + traced + ([] if baseline is plain else baseline)
    attempted, failed, bad = check(everything, reference_records(workload, seed, plain))
    raw_setup_s = measure_setup(workload, seed)[1]

    factors = {unit.index: unit.factor for unit in traced}
    layer = tracer.self_times(factors)
    traced_wall = sum(unit.wall_s * unit.factor for unit in traced)
    baseline_wall = sum(unit.wall_s * unit.factor for unit in baseline)
    graph_build = sum(
        r["timings"]["graph_build_s"] * unit.factor for unit in traced for r in unit.records
    )
    graph_freeze = sum(
        r["timings"]["freeze_s"] * unit.factor for unit in traced for r in unit.records
    )
    named = graph_build + graph_freeze + sum(seconds for seconds, _ in layer.values())
    sched = sum(
        (unit.wall_s - sum(r["seconds"] for r in unit.records) / workload.workers) * unit.factor
        for unit in plain
    )
    builder = [unit.arena.get("builder", {}) for unit in plain]
    metrics = {
        "graphs.build_s": metric(graph_build, "s"),
        "graphs.freeze_s": metric(graph_freeze, "s"),
        "weak.carve_s": metric(layer["weak.carve"][0], "s"),
        "weak.carve_calls": metric(layer["weak.carve"][1], "count"),
        "core.theorem21_self_s": metric(layer["core.theorem21"][0], "s"),
        "core.theorem21_calls": metric(layer["core.theorem21"][1], "count"),
        "core.sparse_cut_s": metric(layer["core.sparse_cut"][0], "s"),
        "core.sparse_cut_calls": metric(layer["core.sparse_cut"][1], "count"),
        "core.materialise_s": metric(layer["core.materialise"][0], "s"),
        "baselines.decompose_s": metric(layer["baselines.decompose"][0], "s"),
        "analysis.evaluate_s": metric(layer["analysis.evaluate"][0], "s"),
        "clustering.validate_s": metric(layer["clustering.validate"][0], "s"),
        "applications.task_s": metric(layer["applications.task"][0], "s"),
        "pipeline.store_append_s": metric(layer["pipeline.store_append"][0], "s"),
        "pipeline.store_appends": metric(layer["pipeline.store_append"][1], "count"),
        "pipeline.sched_overhead_s": metric(sched, "s"),
        "pipeline.arena_published_bytes": metric(
            sum(unit.arena.get("published_bytes", 0) for unit in plain), "bytes"
        ),
        "pipeline.builder_overlap_s": metric(sum(b.get("overlap_s", 0.0) for b in builder), "s"),
        "pipeline.builder_blocked_s": metric(sum(b.get("blocked_s", 0.0) for b in builder), "s"),
        "pipeline.unraisable_errors": metric(unraisable[0], "count"),
        "congest.rounds_total": metric(
            sum(record["rounds"]["total"] for unit in plain for record in unit.records), "count"
        ),
        "unattributed_s": metric(traced_wall - named, "s"),
        "trace.wall_s": metric(traced_wall, "s"),
        "trace.overhead_frac": metric(traced_wall / baseline_wall - 1.0, "ratio"),
        "cell_s_p95": metric(quantile(cell_times(workload, plain), 0.95), "s"),
        "calib_s_p50": metric(calibrator.median_s(), "s"),
        "raw.wall_s": metric(sum(unit.wall_s for unit in plain), "s"),
        "raw.setup_s": metric(raw_setup_s, "s"),
    }
    notes = {
        # The reported self times re-added: equals trace.wall_s.
        "layer_sum_s": sum(metrics[name]["value"] for name in SELF_TIME_METRICS),
        "cells": len(cell_times(workload, plain)),
        "failed_cells": sorted(set(bad)),
    }
    return metrics, attempted, failed, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    _ensure_program()
    os.makedirs(WORK_DIR, exist_ok=True)
    # Keep every temporary file of the run inside the checkout.
    os.environ["TMPDIR"] = WORK_DIR
    try:
        if args.setup_probe:
            set_up(workload, args.seed)
            print("ready", flush=True)
            return 0
        if args.trace:
            metrics, attempted, failed, notes = per_layer(workload, args.seed)
        else:
            metrics, attempted, failed, notes = end_to_end(workload, args.seed, args.seconds)
    finally:
        stop_helpers()

    for name, entry in metrics.items():
        print("{:32s} {:>16.6g} {}".format(name, entry["value"], entry["unit"]))
    for name, value in notes.items():
        print("# {}: {}".format(name, value))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
