"""Property-based tests for the network substrate (hypothesis)."""

import hypothesis.strategies as st
import networkx as nx
import pytest
from hypothesis import HealthCheck, given, settings

from repro.core.prune import find_bubble
from repro.network.demand import DemandGraph
from repro.network.paths import (
    CAPACITY_EPSILON,
    attach_dynamic_lengths,
    dynamic_edge_length,
    path_edges,
    shortest_path_cover,
)
from repro.network.supply import SupplyGraph, canonical_edge

NODE_NAMES = ["n0", "n1", "n2", "n3", "n4", "n5"]


@st.composite
def demand_operations(draw):
    """A random sequence of (add / reduce / split) operations on a DemandGraph."""
    operations = []
    for _ in range(draw(st.integers(min_value=1, max_value=12))):
        kind = draw(st.sampled_from(["add", "reduce", "split"]))
        u, v = draw(
            st.tuples(st.sampled_from(NODE_NAMES), st.sampled_from(NODE_NAMES)).filter(
                lambda pair: pair[0] != pair[1]
            )
        )
        amount = draw(st.floats(min_value=0.1, max_value=20.0, allow_nan=False))
        via = draw(st.sampled_from(NODE_NAMES))
        operations.append((kind, u, v, amount, via))
    return operations


class TestDemandGraphProperties:
    @given(demand_operations())
    @settings(max_examples=60, deadline=None)
    def test_demands_stay_positive_and_consistent(self, operations):
        demand = DemandGraph()
        for kind, u, v, amount, via in operations:
            if kind == "add":
                demand.add(u, v, amount)
            elif kind == "reduce":
                current = demand.demand(u, v)
                if current > 0:
                    demand.reduce(u, v, min(amount, current))
            elif kind == "split":
                current = demand.demand(u, v)
                if current > 0 and via not in (u, v):
                    demand.split(u, v, via, min(amount, current))
        # Invariants: every stored pair has positive demand, endpoints are
        # exactly the nodes of stored pairs, total equals the sum of pairs.
        pairs = demand.pairs()
        assert all(pair.demand > 0 for pair in pairs)
        assert demand.total_demand == pytest.approx(sum(p.demand for p in pairs))
        endpoint_union = set()
        for pair in pairs:
            endpoint_union.update((pair.source, pair.target))
        assert demand.endpoints == endpoint_union

    @given(
        st.floats(min_value=0.1, max_value=100.0),
        st.floats(min_value=0.01, max_value=0.99),
    )
    @settings(max_examples=50, deadline=None)
    def test_split_conserves_leg_symmetry(self, total, fraction):
        demand = DemandGraph()
        demand.add("s", "t", total)
        amount = total * fraction
        demand.split("s", "t", "v", amount)
        assert demand.demand("s", "v") == pytest.approx(amount)
        assert demand.demand("v", "t") == pytest.approx(amount)
        assert demand.demand("s", "t") == pytest.approx(total - amount, abs=1e-7)

    @given(st.floats(min_value=0.1, max_value=50.0), st.integers(min_value=1, max_value=8))
    @settings(max_examples=40, deadline=None)
    def test_repeated_reduce_terminates_at_zero(self, total, chunks):
        demand = DemandGraph()
        demand.add("a", "b", total)
        step = total / chunks
        for _ in range(chunks):
            if demand.has_pair("a", "b"):
                demand.reduce("a", "b", min(step, demand.demand("a", "b")))
        assert demand.demand("a", "b") == pytest.approx(0.0, abs=1e-6)


@st.composite
def capacity_operations(draw):
    operations = []
    for _ in range(draw(st.integers(min_value=1, max_value=15))):
        kind = draw(st.sampled_from(["consume", "release"]))
        amount = draw(st.floats(min_value=0.0, max_value=8.0, allow_nan=False))
        operations.append((kind, amount))
    return operations


class TestSupplyGraphProperties:
    @given(capacity_operations())
    @settings(max_examples=60, deadline=None)
    def test_residual_stays_within_bounds(self, operations):
        supply = SupplyGraph()
        supply.add_edge("a", "b", capacity=10.0)
        for kind, amount in operations:
            if kind == "consume":
                available = supply.residual("a", "b")
                supply.consume_capacity("a", "b", min(amount, available))
            else:
                supply.release_capacity("a", "b", amount)
            residual = supply.residual("a", "b")
            assert -1e-9 <= residual <= 10.0 + 1e-9

    @given(st.lists(st.sampled_from(NODE_NAMES), min_size=2, max_size=6, unique=True))
    @settings(max_examples=50, deadline=None)
    def test_break_all_then_repair_all_restores(self, nodes):
        supply = SupplyGraph()
        for node in nodes:
            supply.add_node(node)
        for u, v in zip(nodes, nodes[1:]):
            supply.add_edge(u, v, capacity=5.0)
        supply.break_all()
        assert len(supply.broken_nodes) == len(nodes)
        for node in list(supply.broken_nodes):
            supply.repair_node(node)
        for u, v in list(supply.broken_edges):
            supply.repair_edge(u, v)
        assert not supply.broken_nodes and not supply.broken_edges
        working = supply.working_graph()
        assert working.number_of_nodes() == len(nodes)
        assert working.number_of_edges() == len(nodes) - 1

    @given(
        st.sampled_from(NODE_NAMES),
        st.sampled_from(NODE_NAMES),
    )
    @settings(max_examples=30, deadline=None)
    def test_canonical_edge_symmetry(self, u, v):
        if u == v:
            return
        assert canonical_edge(u, v) == canonical_edge(v, u)


# ---------------------------------------------------------------------- #
# The ISP hot-path helpers against their earlier, slower definitions, kept
# here as references: every rewrite must give the same result.
# ---------------------------------------------------------------------- #
class _SameRepr:
    """Distinct nodes that share one repr (canonical_edge must stay stable)."""

    def __repr__(self) -> str:
        return "twin"


TWINS = (_SameRepr(), _SameRepr())

mixed_nodes = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.floats(allow_nan=False, allow_infinity=False, width=16),
    st.text(alphabet="ab1'", max_size=3),
    st.tuples(st.integers(min_value=0, max_value=2), st.text(alphabet="ab", max_size=2)),
    st.sampled_from(TWINS),
    st.none(),
)


def reference_canonical_edge(u, v):
    a, b = sorted((u, v), key=repr)
    return (a, b)


@st.composite
def random_graphs(draw, min_nodes=2, max_nodes=9):
    """A random undirected graph on string nodes with float capacities."""
    count = draw(st.integers(min_value=min_nodes, max_value=max_nodes))
    nodes = [f"v{i}" for i in range(count)]
    candidates = [(u, v) for i, u in enumerate(nodes) for v in nodes[i + 1 :]]
    chosen = draw(st.lists(st.sampled_from(candidates), unique=True, max_size=len(candidates)))
    graph = nx.Graph()
    graph.add_nodes_from(draw(st.permutations(nodes)))
    for u, v in chosen:
        graph.add_edge(
            u,
            v,
            capacity=draw(st.floats(min_value=0.0, max_value=30.0, allow_nan=False)),
            length=draw(st.floats(min_value=0.01, max_value=10.0, allow_nan=False)),
        )
    return graph


def reference_find_bubble(working_graph, demand, pair):
    source, target = pair
    bubble = {source, target}
    if source not in working_graph or target not in working_graph:
        return bubble
    other_endpoints = {node for node in demand.endpoints if node not in (source, target)}
    stripped = working_graph.copy()
    stripped.remove_nodes_from([source, target])
    contaminated = set()
    for endpoint in other_endpoints:
        if endpoint in stripped:
            contaminated |= nx.node_connected_component(stripped, endpoint)
        else:
            contaminated.add(endpoint)
    for node in working_graph.nodes:
        if node not in (source, target) and node not in contaminated:
            bubble.add(node)
    return bubble


def reference_shortest_path_cover(graph, source, target, demand, weight="length"):
    if source == target or source not in graph or target not in graph:
        return []
    residual = {
        canonical_edge(u, v): float(data.get("capacity", 0.0))
        for u, v, data in graph.edges(data=True)
    }
    cover = []
    covered = 0.0

    def edge_weight(u, v, data):
        if residual[canonical_edge(u, v)] <= CAPACITY_EPSILON:
            return None
        return float(data.get(weight, 1.0))

    while covered < demand - CAPACITY_EPSILON:
        try:
            path = nx.dijkstra_path(graph, source, target, weight=edge_weight)
        except nx.NetworkXNoPath:
            break
        bottleneck = min(residual[canonical_edge(u, v)] for u, v in path_edges(path))
        if bottleneck <= CAPACITY_EPSILON:
            break
        cover.append((tuple(path), bottleneck))
        covered += bottleneck
        for u, v in path_edges(path):
            residual[canonical_edge(u, v)] -= bottleneck
    return cover


class TestHotPathEquivalence:
    @given(mixed_nodes, mixed_nodes)
    @settings(max_examples=300, deadline=None)
    def test_canonical_edge_matches_sorted_by_repr(self, u, v):
        expected = reference_canonical_edge(u, v)
        result = canonical_edge(u, v)
        # Identity, not equality: 1 == 1.0 and the twins compare unequal but
        # print alike, so only ``is`` shows which object went first.
        assert result[0] is expected[0] and result[1] is expected[1]

    def test_canonical_edge_keeps_order_of_equal_reprs(self):
        first, second = TWINS
        assert canonical_edge(first, second) == (first, second)
        assert canonical_edge(second, first) == (second, first)

    @given(random_graphs(), st.data())
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_find_bubble_matches_copy_and_component(self, graph, data):
        # Endpoints may lie outside the graph (a broken demand endpoint).
        names = list(graph.nodes) + ["outside"]
        pairs = data.draw(
            st.lists(
                st.tuples(st.sampled_from(names), st.sampled_from(names)).filter(
                    lambda pair: pair[0] != pair[1]
                ),
                min_size=1,
                max_size=4,
            )
        )
        demand = DemandGraph()
        for u, v in pairs:
            demand.add(u, v, 1.0)
        snapshot = nx.to_dict_of_dicts(graph)
        for pair in demand.pairs():
            assert find_bubble(graph, demand, pair.pair) == reference_find_bubble(
                graph, demand, pair.pair
            )
        assert nx.to_dict_of_dicts(graph) == snapshot

    @given(random_graphs(), st.data())
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_shortest_path_cover_matches_canonical_keyed_version(self, graph, data):
        names = list(graph.nodes)
        source = data.draw(st.sampled_from(names))
        target = data.draw(st.sampled_from(names))
        demand = data.draw(
            st.one_of(
                st.floats(min_value=0.1, max_value=80.0, allow_nan=False),
                st.just(float("inf")),
            )
        )
        snapshot = nx.to_dict_of_dicts(graph)
        assert shortest_path_cover(graph, source, target, demand) == (
            reference_shortest_path_cover(graph, source, target, demand)
        )
        assert nx.to_dict_of_dicts(graph) == snapshot

    @given(random_graphs(min_nodes=3), st.data())
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_attach_dynamic_lengths_matches_per_edge_definition(self, graph, data):
        supply = SupplyGraph()
        for node in graph.nodes:
            supply.add_node(node, repair_cost=data.draw(st.floats(min_value=0.0, max_value=5.0)))
        for u, v, attrs in graph.edges(data=True):
            supply.add_edge(
                u,
                v,
                capacity=max(attrs["capacity"], 0.5),
                repair_cost=data.draw(st.floats(min_value=0.0, max_value=5.0)),
            )
        supply.break_all()
        repaired_nodes = data.draw(st.sets(st.sampled_from(list(graph.nodes))))
        repaired_edges = [
            (v, u) if data.draw(st.booleans()) else (u, v)
            for u, v in data.draw(st.sets(st.sampled_from(list(graph.edges) or [("x", "y")])))
        ]
        full = supply.full_graph(use_residual=True)
        attach_dynamic_lengths(supply, full, repaired_nodes, repaired_edges, const=1.5)
        for u, v, attrs in full.edges(data=True):
            assert attrs["length"] == dynamic_edge_length(
                supply, u, v, repaired_nodes, repaired_edges, const=1.5
            )
