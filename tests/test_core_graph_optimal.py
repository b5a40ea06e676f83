"""Tests for the constraint graph and the vertex-cover solvers (§4.2)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.constraint_graph import ConstraintGraph, build_constraint_graph
from repro.core.constraints import SecurityConstraint
from repro.core.optimal import (
    clarkson_greedy_cover,
    cover_weight,
    exact_min_cover,
    pricing_cover,
)


class TestConstraintGraph:
    def test_healthcare_graph_shape(self, healthcare_doc, healthcare_scs):
        graph = build_constraint_graph(healthcare_doc, healthcare_scs)
        assert set(graph.weights) == {"pname", "SSN", "disease", "doctor"}
        assert frozenset({"pname", "SSN"}) in graph.edges
        assert frozenset({"pname", "disease"}) in graph.edges
        assert frozenset({"disease", "doctor"}) in graph.edges
        assert len(graph.edges) == 3

    def test_node_type_constraints_excluded(self, healthcare_doc, healthcare_scs):
        graph = build_constraint_graph(healthcare_doc, healthcare_scs)
        assert "insurance" not in graph.weights

    def test_weights_reflect_binding_counts(self, healthcare_doc, healthcare_scs):
        graph = build_constraint_graph(healthcare_doc, healthcare_scs)
        # 2 pname leaves, each subtree size 2 (+1 decoy) = 3 -> weight 6.
        assert graph.weights["pname"] == 6
        # 3 disease leaves -> weight 9.
        assert graph.weights["disease"] == 9

    def test_degree_and_neighbors(self, healthcare_doc, healthcare_scs):
        graph = build_constraint_graph(healthcare_doc, healthcare_scs)
        assert graph.degree("pname") == 2
        touching = [edge for edge in graph.edges if "disease" in edge]
        assert set().union(*touching) - {"disease"} == {"pname", "doctor"}

    def test_is_vertex_cover(self, healthcare_doc, healthcare_scs):
        graph = build_constraint_graph(healthcare_doc, healthcare_scs)
        assert graph.is_vertex_cover({"pname", "disease"})
        assert graph.is_vertex_cover({"SSN", "disease"})
        assert not graph.is_vertex_cover({"pname"})

    def test_shared_endpoint_widens_bindings_once(self, healthcare_doc):
        constraints = [
            SecurityConstraint.parse("//patient:(/pname, /SSN)"),
            SecurityConstraint.parse("//patient:(/pname, /age)"),
        ]
        graph = build_constraint_graph(healthcare_doc, constraints)
        assert len(graph.bindings["pname"]) == 2  # not double counted


def _graph(weights: dict[str, int], edges: list[tuple[str, str]]) -> ConstraintGraph:
    graph = ConstraintGraph()
    graph.weights = dict(weights)
    graph.edges = {frozenset(edge) for edge in edges}
    return graph


class TestExactCover:
    def test_single_edge_picks_lighter(self):
        graph = _graph({"a": 5, "b": 2}, [("a", "b")])
        assert exact_min_cover(graph) == {"b"}

    def test_star_picks_center(self):
        graph = _graph(
            {"hub": 3, "x": 2, "y": 2, "z": 2},
            [("hub", "x"), ("hub", "y"), ("hub", "z")],
        )
        assert exact_min_cover(graph) == {"hub"}

    def test_triangle_needs_two(self):
        graph = _graph(
            {"a": 1, "b": 1, "c": 1}, [("a", "b"), ("b", "c"), ("a", "c")]
        )
        cover = exact_min_cover(graph)
        assert len(cover) == 2

    def test_weighted_tradeoff(self):
        # Covering via two cheap leaves beats one expensive hub.
        graph = _graph(
            {"hub": 100, "x": 1, "y": 1},
            [("hub", "x"), ("hub", "y")],
        )
        assert exact_min_cover(graph) == {"x", "y"}

    def test_self_loop_forced(self):
        graph = _graph({"a": 10, "b": 1}, [("a", "b")])
        graph.edges.add(frozenset({"a"}))
        cover = exact_min_cover(graph)
        assert "a" in cover

    def test_empty_graph(self):
        assert exact_min_cover(_graph({}, [])) == set()

    def test_size_limit_enforced(self):
        weights = {f"v{i}": 1 for i in range(30)}
        edges = [(f"v{i}", f"v{i+1}") for i in range(29)]
        with pytest.raises(ValueError):
            exact_min_cover(_graph(weights, edges), limit=24)


class TestApproximations:
    @pytest.mark.parametrize("algorithm", [clarkson_greedy_cover, pricing_cover])
    def test_produces_valid_cover(self, algorithm):
        graph = _graph(
            {"a": 3, "b": 1, "c": 2, "d": 5},
            [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")],
        )
        cover = algorithm(graph)
        assert graph.is_vertex_cover(cover)

    @pytest.mark.parametrize("algorithm", [clarkson_greedy_cover, pricing_cover])
    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_within_factor_two_of_optimal(self, algorithm, data):
        """The §4.2 approximation guarantee, on random graphs."""
        vertex_count = data.draw(st.integers(min_value=2, max_value=9))
        vertices = [f"v{i}" for i in range(vertex_count)]
        weights = {
            v: data.draw(st.integers(min_value=1, max_value=20)) for v in vertices
        }
        possible_edges = [
            (a, b)
            for i, a in enumerate(vertices)
            for b in vertices[i + 1 :]
        ]
        edges = data.draw(
            st.lists(st.sampled_from(possible_edges), min_size=1, max_size=12)
        )
        graph = _graph(weights, edges)
        optimal = cover_weight(graph, exact_min_cover(graph))
        approximate = cover_weight(graph, algorithm(graph))
        assert approximate <= 2 * optimal

    def test_clarkson_charging_prefers_cheap_dense(self):
        graph = _graph(
            {"cheap": 1, "far": 10, "near": 10},
            [("cheap", "far"), ("cheap", "near")],
        )
        assert clarkson_greedy_cover(graph) == {"cheap"}
