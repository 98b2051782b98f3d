"""The benchmark's workloads, built from the workload seed.

Each workload is a list of *timed units*.  A unit is one :class:`SuiteSpec`
passed to :func:`repro.run_suite`: a single cell for the serial workloads, a
72-cell sub-suite for ``suite-grid``.  The benchmark times units one at a
time and calibrates each between units (see ``calib.py``), so pool workers
are never busy while the reference loop runs.

The workload seed becomes the suites' ``master_seed``; every graph and every
algorithm seed of the grid derives from it, so one seed gives one input set.
"""

import dataclasses
import itertools
import os

DEFAULT_SEED = 0
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Stores, captured stderr and span dumps; listed in the root .gitignore.
WORK_DIR = os.path.join(ROOT, ".perfbench")


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    # The whole grid, as ``SuiteSpec`` fields.
    grid: dict
    # Grid axes split into separate timed units (every combination is one
    # unit); the other axes stay whole inside each unit.
    unit_axes: tuple
    workers: int
    # Whether the timed run validates every cell.
    validate: bool
    # ``run_suite`` keyword arguments besides ``spec``/``store``/``workers``.
    options: tuple
    # Whether each unit writes a jsonl store on disk (else in memory).
    disk_store: bool

    def spec(self, seed, validate=None, name=None, **fields):
        """The :class:`SuiteSpec` of the whole grid, or of the part of it
        that ``fields`` select."""
        from repro.pipeline import SuiteSpec

        return SuiteSpec.from_dict(
            dict(
                self.grid,
                name=name or self.name,
                master_seed=seed,
                validate=self.validate if validate is None else validate,
                **fields,
            )
        )

    def units(self, seed, validate=None):
        """The timed units for ``seed``, in grid order."""
        units = []
        for values in itertools.product(*(self.grid[axis] for axis in self.unit_axes)):
            name = "-".join([self.name] + [str(value) for value in values])
            fields = {axis: [value] for axis, value in zip(self.unit_axes, values)}
            units.append(self.spec(seed, validate, name=name, **fields))
        return units

    def warmup_spec(self, seed):
        """A small suite touching every method and task of the workload,
        run once before timing so lazy imports and caches are filled."""
        return self.spec(
            seed, True, name=self.name + "-warmup", scenarios=["torus"], sizes=[36], seeds=[0]
        )


ALL_METHODS = ["strong-log3", "strong-log2", "weak-rg20", "ls93", "mpx", "sequential"]
ONE_CELL = ("scenarios", "sizes", "methods", "seeds")

WORKLOADS = {
    workload.name: workload
    for workload in (
        # Theorem 3.4's O(log^2 n) decomposition on long, thin graphs: its
        # base carving is Theorem 2.2 (weak carving + the Theorem 2.1 loop)
        # and its diameter fix is the Lemma 3.1 sparse-cut recursion.
        Workload(
            name="deep-carve",
            grid={
                "scenarios": ["cycle", "path"],
                "sizes": [2048],
                "methods": ["strong-log2"],
                "seeds": [0, 1],
            },
            unit_axes=ONE_CELL,
            workers=1,
            validate=False,
            options=(),
            disk_store=False,
        ),
        # The paper's Table 1 grid: all six methods on two graph families.
        Workload(
            name="table1",
            grid={
                "scenarios": ["torus", "regular"],
                "sizes": [1024],
                "methods": ALL_METHODS,
                "seeds": [0],
            },
            unit_axes=ONE_CELL,
            workers=1,
            validate=True,
            options=(),
            disk_store=False,
        ),
        # 432 small cells on the pool: one 72-cell sub-suite per scenario.
        Workload(
            name="suite-grid",
            grid={
                "scenarios": ["torus", "grid", "regular", "small-world", "power-law", "tree"],
                "sizes": [64, 144],
                "methods": ALL_METHODS,
                "seeds": [0, 1],
                "tasks": ["decompose", "mis", "coloring"],
            },
            unit_axes=("scenarios",),
            workers=2,
            validate=False,
            options=(("shared_graphs", "on"),),
            disk_store=True,
        ),
    )
}
