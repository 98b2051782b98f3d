"""Unit tests for the Linial–Saks randomized baseline."""

import random

import pytest

from repro.baselines.linial_saks import (
    _radius_cap,
    _truncated_geometric,
    linial_saks_carving,
    linial_saks_decomposition,
)
from repro.clustering.validation import (
    check_ball_carving,
    check_network_decomposition,
    check_steiner_trees,
    clusters_nonadjacent,
    weak_diameter,
)
from repro.pipeline import SuiteSpec, run_suite
from tests.conftest import RANDOMIZED_DEAD_SLACK


class TestHelpers:
    def test_truncated_geometric_respects_cap(self):
        rng = random.Random(0)
        draws = [_truncated_geometric(rng, 0.9, cap=5) for _ in range(200)]
        assert max(draws) <= 5
        assert min(draws) >= 0

    def test_truncated_geometric_zero_continuation(self):
        rng = random.Random(0)
        assert all(_truncated_geometric(rng, 0.0, cap=5) == 0 for _ in range(10))

    def test_radius_cap_grows_with_n(self):
        assert _radius_cap(1 << 16, 0.5) > _radius_cap(1 << 4, 0.5)

    def test_radius_cap_grows_as_eps_shrinks(self):
        assert _radius_cap(256, 0.1) > _radius_cap(256, 0.9)


class TestCarving:
    def test_structural_invariants(self, small_torus, rng):
        carving = linial_saks_carving(small_torus, 0.5, rng=rng)
        check_ball_carving(carving, max_dead_fraction=RANDOMIZED_DEAD_SLACK)

    def test_clusters_are_nonadjacent(self, small_regular, rng):
        carving = linial_saks_carving(small_regular, 0.5, rng=rng)
        assert clusters_nonadjacent(carving.graph, carving.clusters)

    def test_steiner_trees_valid(self, small_torus, rng):
        carving = linial_saks_carving(small_torus, 0.5, rng=rng)
        check_steiner_trees(carving.graph, carving.clusters)

    def test_weak_diameter_bounded_by_radius_cap(self, small_torus, rng):
        eps = 0.5
        carving = linial_saks_carving(small_torus, eps, rng=rng)
        cap = _radius_cap(small_torus.number_of_nodes(), eps)
        for cluster in carving.clusters:
            assert weak_diameter(carving.graph, cluster.nodes) <= 2 * cap

    def test_expected_dead_fraction_over_repetitions(self, small_torus):
        # Average over several independent runs: close to eps/2 + truncation.
        runs = 12
        total = 0.0
        for seed in range(runs):
            carving = linial_saks_carving(small_torus, 0.5, rng=random.Random(seed))
            total += carving.dead_fraction
        assert total / runs <= 0.55

    def test_reproducible_with_same_seed(self, small_grid):
        first = linial_saks_carving(small_grid, 0.5, rng=random.Random(7))
        second = linial_saks_carving(small_grid, 0.5, rng=random.Random(7))
        assert first.cluster_of() == second.cluster_of()

    def test_subset_restriction(self, small_torus, rng):
        nodes = set(list(small_torus.nodes())[:30])
        carving = linial_saks_carving(small_torus, 0.5, nodes=nodes, rng=rng)
        assert carving.clustered_nodes | carving.dead == nodes

    def test_rejects_bad_eps(self, small_grid):
        with pytest.raises(ValueError):
            linial_saks_carving(small_grid, 0.0)

    def test_rounds_charged(self, small_grid, rng):
        carving = linial_saks_carving(small_grid, 0.5, rng=rng)
        assert carving.rounds > 0


class TestDecomposition:
    def test_covers_all_nodes_with_valid_colors(self, small_torus, rng):
        decomposition = linial_saks_decomposition(small_torus, rng=rng)
        check_network_decomposition(decomposition)

    def test_color_count_is_logarithmic(self, small_regular, rng):
        decomposition = linial_saks_decomposition(small_regular, rng=rng)
        import math

        n = small_regular.number_of_nodes()
        assert decomposition.num_colors <= 4 * math.ceil(math.log2(n)) + 8

    def test_kind_is_weak(self, small_grid, rng):
        decomposition = linial_saks_decomposition(small_grid, rng=rng)
        assert decomposition.kind == "weak"

    def test_handles_disconnected_graphs(self, disconnected_graph, rng):
        decomposition = linial_saks_decomposition(disconnected_graph, rng=rng)
        check_network_decomposition(decomposition)

    def test_all_dead_repetition_keeps_adjacent_singletons_apart(self):
        # Master seed 2 draws a repetition on small-world n=144 that clusters
        # nobody; the singleton fallback once gave adjacent nodes one color.
        spec = SuiteSpec(
            name="ls93-all-dead-repetition",
            scenarios=("small-world",),
            sizes=(144,),
            methods=("ls93",),
            seeds=(0,),
            tasks=("decompose", "mis", "coloring"),
            master_seed=2,
            validate=True,
        )
        result = run_suite(spec)
        assert [record["cell"] for record in result.records] == [
            "small-world/n144/ls93/s0",
            "small-world/n144/ls93/mis/s0",
            "small-world/n144/ls93/coloring/s0",
        ]
        assert all(record["status"] == "ok" for record in result.records)
