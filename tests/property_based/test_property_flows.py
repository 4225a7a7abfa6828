"""Property-based tests for the flow substrate."""

import hypothesis.strategies as st
import networkx as nx
import pytest
from hypothesis import HealthCheck, given, settings

from repro.flows.decomposition import decompose_flows, total_decomposed_flow
from repro.flows.demand_satisfaction import max_satisfiable_flow
from repro.flows.maxflow import max_flow_value
from repro.flows.routability import is_routable
from repro.network.demand import DemandGraph
from repro.network.paths import path_edges, shortest_path_cover
from repro.network.supply import SupplyGraph


def build_ladder(capacities):
    """A 2xN ladder graph whose rung/rail capacities come from the strategy."""
    supply = SupplyGraph()
    n = len(capacities)
    for i in range(n):
        supply.add_node(("top", i), pos=(float(i), 1.0))
        supply.add_node(("bot", i), pos=(float(i), 0.0))
    index = 0
    for i in range(n - 1):
        supply.add_edge(("top", i), ("top", i + 1), capacity=capacities[i])
        supply.add_edge(("bot", i), ("bot", i + 1), capacity=capacities[(i + 1) % n])
    for i in range(n):
        supply.add_edge(("top", i), ("bot", i), capacity=capacities[i])
    return supply


capacity_lists = st.lists(
    st.floats(min_value=1.0, max_value=20.0, allow_nan=False), min_size=3, max_size=5
)


class TestRoutabilityProperties:
    @given(capacity_lists, st.floats(min_value=0.1, max_value=1.0))
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_routable_demand_scales_down(self, capacities, shrink):
        """If a demand is routable, any smaller demand is routable too."""
        supply = build_ladder(capacities)
        graph = supply.working_graph()
        source, target = ("top", 0), ("bot", len(capacities) - 1)
        limit = max_flow_value(graph, source, target)
        demand = DemandGraph()
        demand.add(source, target, max(limit, 1e-3))
        assert is_routable(graph, demand)
        smaller = DemandGraph()
        smaller.add(source, target, max(limit * shrink, 1e-4))
        assert is_routable(graph, smaller)

    @given(capacity_lists)
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_demand_above_max_flow_is_unroutable(self, capacities):
        supply = build_ladder(capacities)
        graph = supply.working_graph()
        source, target = ("top", 0), ("bot", len(capacities) - 1)
        limit = max_flow_value(graph, source, target)
        demand = DemandGraph()
        demand.add(source, target, limit * 1.2 + 1.0)
        assert not is_routable(graph, demand)

    @given(capacity_lists)
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_max_satisfiable_single_pair_equals_max_flow(self, capacities):
        supply = build_ladder(capacities)
        graph = supply.working_graph()
        source, target = ("top", 0), ("bot", len(capacities) - 1)
        limit = max_flow_value(graph, source, target)
        demand = DemandGraph()
        demand.add(source, target, limit * 3.0)
        result = max_satisfiable_flow(graph, demand)
        assert result.total_satisfied == pytest.approx(limit, rel=1e-4)


class TestDecompositionProperties:
    @given(
        st.lists(st.floats(min_value=0.1, max_value=5.0, allow_nan=False), min_size=1, max_size=4)
    )
    @settings(max_examples=40, deadline=None)
    def test_decomposition_recovers_injected_path_flows(self, flows):
        """Injecting flow along known paths and decomposing gives the same total."""
        graph = nx.Graph()
        nodes = ["s", "x", "y", "z", "t"]
        for u, v in zip(nodes, nodes[1:]):
            graph.add_edge(u, v)
        graph.add_edge("s", "t")
        paths = [("s", "x", "y", "z", "t"), ("s", "t")]
        arc_flows = {}
        total = 0.0
        for index, amount in enumerate(flows):
            path = paths[index % len(paths)]
            total += amount
            for u, v in path_edges(list(path)):
                arc_flows[(u, v)] = arc_flows.get((u, v), 0.0) + amount
        decomposition = decompose_flows(arc_flows, "s", "t")
        assert total_decomposed_flow(decomposition) == pytest.approx(total, rel=1e-6)

    @given(
        st.lists(st.floats(min_value=0.1, max_value=5.0, allow_nan=False), min_size=1, max_size=4)
    )
    @settings(max_examples=40, deadline=None)
    def test_decomposed_paths_are_simple_source_target_paths(self, flows):
        arc_flows = {}
        for index, amount in enumerate(flows):
            arc_flows[("s", f"m{index}")] = amount
            arc_flows[(f"m{index}", "t")] = amount
        decomposition = decompose_flows(arc_flows, "s", "t")
        for path, flow in decomposition:
            assert path[0] == "s" and path[-1] == "t"
            assert len(set(path)) == len(path)
            assert flow > 0


class TestShortestPathCoverProperties:
    @given(capacity_lists, st.floats(min_value=0.5, max_value=40.0))
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_cover_paths_connect_endpoints_with_positive_capacity(self, capacities, demand):
        supply = build_ladder(capacities)
        graph = supply.working_graph()
        source, target = ("top", 0), ("bot", len(capacities) - 1)
        cover = shortest_path_cover(graph, source, target, demand, weight="missing")
        for path, capacity in cover:
            assert path[0] == source and path[-1] == target
            assert capacity > 0
            for u, v in path_edges(list(path)):
                assert graph.has_edge(u, v)

    @given(capacity_lists)
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_cover_capacity_never_exceeds_max_flow(self, capacities):
        supply = build_ladder(capacities)
        graph = supply.working_graph()
        source, target = ("top", 0), ("bot", len(capacities) - 1)
        cover = shortest_path_cover(graph, source, target, float("inf"), weight="missing")
        covered = sum(capacity for _, capacity in cover)
        limit = max_flow_value(graph, source, target)
        assert covered <= limit + 1e-6


@st.composite
def float_capacity_graphs(draw):
    """A random undirected graph on mixed nodes with float capacities."""
    count = draw(st.integers(min_value=2, max_value=10))
    nodes = [f"n{i}" if i % 2 else i for i in range(count)]
    candidates = [(u, v) for i, u in enumerate(nodes) for v in nodes[i + 1 :]]
    graph = nx.Graph()
    graph.add_nodes_from(nodes)
    for u, v in draw(st.lists(st.sampled_from(candidates), unique=True, max_size=len(candidates))):
        graph.add_edge(
            u, v, capacity=draw(st.floats(min_value=0.0, max_value=25.0, allow_nan=False))
        )
    source, target = draw(st.permutations(nodes))[:2]
    return graph, source, target


class TestMaxFlowValueEquivalence:
    @given(float_capacity_graphs())
    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_value_only_phase_equals_full_preflow_push(self, case):
        """The value-only first phase returns the very float of the full run."""
        graph, source, target = case
        if nx.has_path(graph, source, target):
            expected = float(nx.maximum_flow(graph, source, target, capacity="capacity")[0])
        else:
            expected = 0.0
        assert max_flow_value(graph, source, target) == expected
