"""Per-layer tracing from outside the program.

The traced run wraps the public entry point of each algorithm layer and
records one span per call.  Callers bind names at import time
(``from repro.weak.carving import weak_diameter_carving``), so patching the
defining module alone would miss them: :meth:`Tracer.install` replaces the
function in *every* loaded ``repro`` module that holds it.  Functions that
callers import inside a function body resolve through the defining module at
call time and are covered by the same sweep.

Spans are kept in memory (:attr:`Tracer.spans`) and written out when the
benchmark ends.  A span's self time is its duration minus the durations of
its direct children; every second of a traced unit is therefore counted
exactly once, either as some span's self time or as unattributed time.
"""

import contextlib
import dataclasses
import sys
import time

# (span name, defining module, function name): the layer boundaries.
LAYER_FUNCTIONS = (
    ("weak.carve", "repro.weak.carving", "weak_diameter_carving"),
    ("core.theorem21", "repro.core.strong_carving", "strong_carving_from_weak"),
    ("core.sparse_cut", "repro.core.sparse_cut", "sparse_cut_or_component"),
    ("core.materialise", "repro.core.strong_carving", "_materialise_clusters"),
    ("analysis.evaluate", "repro.analysis.metrics", "evaluate_decomposition"),
    ("analysis.evaluate", "repro.analysis.metrics", "evaluate_carving"),
    ("clustering.validate", "repro.clustering.validation", "check_network_decomposition"),
)

# Methods whose ``repro.decompose`` call is the baselines layer.
BASELINE_METHODS = ("ls93", "mpx", "sequential")

# Every span name, in report order.
SPAN_NAMES = (
    "weak.carve",
    "core.theorem21",
    "core.sparse_cut",
    "core.materialise",
    "baselines.decompose",
    "analysis.evaluate",
    "clustering.validate",
    "applications.task",
    "pipeline.store_append",
)


@dataclasses.dataclass
class Span:
    id: int
    parent: int  # 0 for a top-level span
    name: str
    unit: int  # index of the timed unit the span ran in
    start: float
    end: float


class Tracer:
    """Collects spans around wrapped layer functions."""

    def __init__(self):
        self.spans = []
        self.unit = 0
        self._stack = []
        self._patches = []

    def _record(self, name, call, *args, **kwargs):
        span_id = len(self.spans) + 1
        parent = self._stack[-1] if self._stack else 0
        self._stack.append(span_id)
        span = Span(span_id, parent, name, self.unit, time.perf_counter(), 0.0)
        self.spans.append(span)
        try:
            return call(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, name, function):
        def traced(*args, **kwargs):
            return self._record(name, function, *args, **kwargs)

        traced.__wrapped__ = function
        traced.__name__ = getattr(function, "__name__", name)
        return traced

    def _patch(self, owner, attribute, replacement):
        self._patches.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    def _patch_everywhere(self, original, replacement):
        """Replace ``original`` in every loaded repro module that binds it."""
        patched = 0
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "repro" or module_name.startswith("repro.")):
                continue
            for attribute, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attribute, replacement)
                    patched += 1
        if not patched:
            raise RuntimeError("no import site found for {!r}".format(original))

    def install(self):
        """Wrap every layer boundary; undo with :meth:`uninstall`."""
        import importlib

        import repro
        from repro.registry import TASKS

        for name, module_name, function_name in LAYER_FUNCTIONS:
            original = getattr(importlib.import_module(module_name), function_name)
            self._patch_everywhere(original, self.wrap(name, original))

        decompose = repro.decompose
        baseline = self.wrap("baselines.decompose", decompose)

        def routed_decompose(graph, *args, **kwargs):
            method = kwargs.get("method", args[0] if args else None)
            if method in BASELINE_METHODS:
                return baseline(graph, *args, **kwargs)
            return decompose(graph, *args, **kwargs)

        self._patch_everywhere(decompose, routed_decompose)

        for task in TASKS.names():
            spec = TASKS.get(task)
            if spec.solve is None:
                continue
            traced = dataclasses.replace(
                spec,
                solve=self.wrap("applications.task", spec.solve),
                verify=self.wrap("applications.task", spec.verify),
            )
            TASKS.register(traced, overwrite=True)
            self._patches.append((TASKS, ("task", task), spec))

    def uninstall(self):
        from repro.registry import TASKS

        while self._patches:
            owner, attribute, original = self._patches.pop()
            if owner is TASKS:
                TASKS.register(original, overwrite=True)
            else:
                setattr(owner, attribute, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def wrap_store(self, store):
        """Trace the store's ``add`` (the pipeline's append boundary)."""
        store.add = self.wrap("pipeline.store_append", store.add)
        return store

    def self_times(self, factors):
        """Per-name ``(calibrated self seconds, calls)``.

        ``factors[unit]`` converts the raw seconds of one timed unit into
        calibrated seconds.
        """
        child_s = {}
        for span in self.spans:
            if span.parent:
                child_s[span.parent] = child_s.get(span.parent, 0.0) + (span.end - span.start)
        totals = {name: [0.0, 0] for name in SPAN_NAMES}
        for span in self.spans:
            own = span.end - span.start - child_s.get(span.id, 0.0)
            entry = totals[span.name]
            entry[0] += own * factors[span.unit]
            entry[1] += 1
        return {name: (value[0], value[1]) for name, value in totals.items()}

    def dump(self, path):
        """Write the spans as JSON lines (one object per span)."""
        import json

        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dataclasses.asdict(span)) + "\n")
