"""The numpy proposal engine's frontier against the pure full-scan oracle.

The ``numpy`` engine scans only a *frontier* each weak-carving step: the
alive blue neighbours of the previous step's joiners.  The ``pure`` tier
keeps the reference loop over the whole remaining blue set.  These tests
difference the two at the finest grain the driver exposes — the per-step
``(target, proposers, vias)`` stream and the final carving state — on
scan sets both below and well above the engine's scalar cutoff, and check
the frontier invariant itself on random graphs.
"""

from __future__ import annotations

import networkx as nx
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.weak.carving as weak_carving
import repro.weak.phases as phases
from repro.congest.rounds import RoundLedger
from repro.graphs.generators import (
    assign_unique_identifiers,
    cycle_graph,
    path_graph,
)
from repro.kernels import KERNELS, use_kernel
from repro.weak.carving import WeakCarvingParameters, weak_diameter_carving

pytestmark = pytest.mark.skipif(
    "numpy" not in KERNELS.available_names(), reason="numpy tier not installed"
)

if "numpy" in KERNELS.available_names():
    from repro.kernels.numpy_kernel import _SMALL_BLUE, _NumpyProposalEngine
else:  # pragma: no cover - numpy absent
    _SMALL_BLUE, _NumpyProposalEngine = 32, None

SIZES = (24, 600)
PRESETS = (
    (0.5, WeakCarvingParameters(mode="rg20")),
    # The aggressive threshold makes rejections (kills) common.
    (0.9, WeakCarvingParameters(mode="ggr21")),
)


def _tree(n):
    return assign_unique_identifiers(nx.random_labeled_tree(n, seed=n), seed=n)


def _striped_torus(n):
    """A row-major ``rows x cols`` torus whose participating set leaves out
    every fourth column: ``n`` nodes in disconnected width-3 strips."""
    cols = 8 if n == 24 else 32
    rows = n // (cols // 4 * 3)
    torus = nx.convert_node_labels_to_integers(
        nx.grid_2d_graph(rows, cols, periodic=True), ordering="sorted"
    )
    graph = assign_unique_identifiers(torus, seed=n)
    nodes = {node for node in graph if (node % cols) % 4 != 0}
    assert len(nodes) == n
    return graph, nodes


def _instances():
    for n in SIZES:
        yield "cycle", n, cycle_graph(n, seed=n), None
        yield "path", n, path_graph(n, seed=n), None
        yield "tree", n, _tree(n), None
        graph, nodes = _striped_torus(n)
        yield "striped-torus", n, graph, nodes


def _traced_carving(monkeypatch, tier, graph, nodes, eps, parameters):
    """Run one weak carving under ``tier``; return (steps, final state).

    ``steps`` is the stream of every proposal step in order, each as
    ``[(target label, proposers, vias)]`` sorted by target; each phase ends
    with one empty step.
    """
    steps = []
    states = []

    def scan_blue(*args):
        proposals = original_scan(*args)
        steps.append(
            [
                (target, [node for node, _ in pairs], [via for _, via in pairs])
                for target, pairs in sorted(proposals.items())
            ]
        )
        return proposals

    def propose_step(engine):
        groups = original_propose(engine)
        steps.append([(target, list(p), list(v)) for target, p, v in groups])
        return groups

    def run_phase(state, *args, **kwargs):
        if not states:
            states.append(state)
        return original_run_phase(state, *args, **kwargs)

    original_scan = phases._scan_blue
    original_propose = _NumpyProposalEngine.propose_step
    original_run_phase = weak_carving.run_phase
    with monkeypatch.context() as patch:
        patch.setattr(phases, "_scan_blue", scan_blue)
        patch.setattr(_NumpyProposalEngine, "propose_step", propose_step)
        patch.setattr(weak_carving, "run_phase", run_phase)
        with use_kernel(tier):
            weak_diameter_carving(
                graph, eps, nodes=nodes, ledger=RoundLedger(), parameters=parameters
            )
    (state,) = states
    if tier == "numpy":
        assert state.engine is not None, "numpy tier must run its engine"
    else:
        assert state.engine is None and state.adjacency is not None
    return steps, state


def _final_state(state):
    return (
        state.label,
        state.tree_parent,
        state.tree_depth,
        state.dead,
        state.acceptance_events,
        state.rejection_events,
        state.steps_executed,
    )


class TestStepStreamMatchesPure:
    @pytest.mark.parametrize("eps,parameters", PRESETS, ids=["rg20", "ggr21"])
    def test_step_streams_and_states_identical(self, monkeypatch, eps, parameters):
        large_steps = 0
        rejections = 0
        for family, n, graph, nodes in _instances():
            oracle_steps, oracle = _traced_carving(
                monkeypatch, "pure", graph, nodes, eps, parameters
            )
            steps, got = _traced_carving(
                monkeypatch, "numpy", graph, nodes, eps, parameters
            )
            context = "{} n={} eps={}".format(family, n, eps)
            assert steps == oracle_steps, context
            assert _final_state(got) == _final_state(oracle), context
            large_steps += sum(
                1 for step in steps if sum(len(p) for _, p, _ in step) >= _SMALL_BLUE
            )
            rejections += got.rejection_events
        # Both engine paths (scalar and vectorised) really ran.
        assert large_steps > 0
        if parameters.mode == "ggr21":
            assert rejections > 0


# --------------------------------------------------------------------- #
# Frontier invariant
# --------------------------------------------------------------------- #
@st.composite
def _carving_inputs(draw):
    n = draw(st.integers(min_value=2, max_value=120))
    probability = draw(st.floats(min_value=0.01, max_value=0.15))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    graph = assign_unique_identifiers(
        nx.gnp_random_graph(n, probability, seed=seed), seed=seed
    )
    keep = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    nodes = {node for node in graph if keep[node]} or set(graph)
    eps = draw(st.sampled_from([0.3, 0.6, 0.9]))
    mode = draw(st.sampled_from(["rg20", "ggr21"]))
    return graph, nodes, eps, WeakCarvingParameters(mode=mode)


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(inputs=_carving_inputs())
def test_scan_set_covers_every_possible_proposer(monkeypatch, inputs):
    """After every resolve_step, every alive blue node with an alive red
    neighbour is in the engine's next scan set, and the scan set holds only
    alive blue nodes in ascending engine index order."""
    graph, nodes, eps, parameters = inputs
    states = []
    checked = []

    def run_phase(state, *args, **kwargs):
        states.append((state, kwargs["bit"]))
        return original_run_phase(state, *args, **kwargs)

    def resolve_step(engine, decisions):
        original_resolve(engine, decisions)
        state, bit = states[-1]
        csr = engine._csr
        # The driver has already applied the step to its label dict, which
        # holds exactly the alive participating nodes.
        label = state.label

        def blue(node):
            return node in label and not (label[node] >> bit) & 1

        must_scan = {
            node
            for node in label
            if blue(node)
            and any(
                other in label and (label[other] >> bit) & 1
                for other in graph.neighbors(node)
            )
        }
        scan = [int(index) for index in engine._scan]
        assert scan == sorted(set(scan))
        scanned = {csr.nodes[index] for index in scan}
        assert must_scan <= scanned
        assert all(blue(node) for node in scanned)
        checked.append(len(scan))

    original_run_phase = weak_carving.run_phase
    original_resolve = _NumpyProposalEngine.resolve_step
    with monkeypatch.context() as patch:
        patch.setattr(weak_carving, "run_phase", run_phase)
        patch.setattr(_NumpyProposalEngine, "resolve_step", resolve_step)
        with use_kernel("numpy"):
            weak_diameter_carving(
                graph, eps, nodes=nodes, ledger=RoundLedger(), parameters=parameters
            )
    if any(graph.has_edge(u, v) for u in nodes for v in nodes if u != v):
        assert checked, "a carving with an internal edge must resolve a step"
