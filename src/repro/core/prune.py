"""Pruning of demand over working "bubble" paths (Section IV-F, Theorem 3).

A demand ``(s_h, t_h)`` can be safely removed (pruned) from the instance when
it can be routed over working paths whose internal vertices form a *bubble*:
a set of vertices that no other demand endpoint can reach without traversing
``s_h`` or ``t_h``.  Routing inside a bubble can never steal capacity that a
conflicting demand strictly needs (Theorem 3), so pruning preserves
routability and never increases the number of repairs of the final solution.

The bubble is found with the modified breadth-first search the paper
describes: explore the working graph from the demand endpoints while
discarding every vertex reachable from another demand endpoint without
passing through ``s_h`` / ``t_h``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Set, Tuple

import networkx as nx

from repro.flows.decomposition import decompose_flows
from repro.flows.solver.tolerances import PRUNE_EPSILON
from repro.network.demand import DemandGraph, DemandPair
from repro.network.supply import canonical_edge

Node = Hashable
Pair = Tuple[Node, Node]
Path = Tuple[Node, ...]


@dataclass
class PruneAction:
    """A prune decision: route ``amount`` units of ``pair`` over ``routes``."""

    pair: Pair
    amount: float
    routes: List[Tuple[Path, float]] = field(default_factory=list)

    @property
    def edges_used(self) -> Set[Tuple[Node, Node]]:
        used: Set[Tuple[Node, Node]] = set()
        for path, _ in self.routes:
            for i in range(len(path) - 1):
                used.add(canonical_edge(path[i], path[i + 1]))
        return used


def find_bubble(
    working_graph: nx.Graph,
    demand: DemandGraph,
    pair: Pair,
) -> Set[Node]:
    """Return a bubble ``S_h`` for ``pair`` on the working graph.

    The returned set always contains the two endpoints.  A vertex ``v`` other
    than the endpoints belongs to the bubble iff it cannot be reached from
    any *other* demand endpoint in the working graph with ``s_h`` and ``t_h``
    removed.  By construction every edge leaving the bubble is incident to
    ``s_h`` or ``t_h``, which is exactly Definition 2 of the paper.

    The reachable ("contaminated") vertices come from one breadth-first
    search per other endpoint over the graph's adjacency, with ``s_h`` and
    ``t_h`` treated as blocked; the graph is neither copied nor modified.
    """
    source, target = pair
    bubble: Set[Node] = {source, target}
    if source not in working_graph or target not in working_graph:
        return bubble

    other_endpoints = {
        node for node in demand.endpoints if node not in (source, target)
    }

    # Vertices reachable from another demand endpoint without crossing s_h/t_h:
    # a BFS over the adjacency that never enters the two blocked endpoints.
    adjacency = working_graph._adj
    blocked = (source, target)
    contaminated: Set[Node] = set()
    for endpoint in other_endpoints:
        if endpoint in contaminated or endpoint not in adjacency:
            continue
        contaminated.add(endpoint)
        frontier = [endpoint]
        while frontier:
            for neighbour in adjacency[frontier.pop()]:
                if neighbour not in contaminated and neighbour not in blocked:
                    contaminated.add(neighbour)
                    frontier.append(neighbour)

    for node in working_graph.nodes:
        if node in (source, target):
            continue
        if node not in contaminated:
            bubble.add(node)
    return bubble


def find_prunable_routing(
    working_graph: nx.Graph,
    demand: DemandGraph,
    pair: Pair,
    require_bubble: bool = True,
) -> Optional[PruneAction]:
    """Compute the largest prune action available for ``pair``.

    Parameters
    ----------
    working_graph:
        Current working supply graph (residual capacities on ``capacity``).
    demand:
        Current demand graph.
    pair:
        Demand pair to prune.
    require_bubble:
        When true (default, the paper's behaviour) the routing is restricted
        to the pair's bubble so that Theorem 3 guarantees the prune is safe.
        When false the whole working graph is used — a more aggressive
        variant exercised by the ablation benches.

    Returns
    -------
    PruneAction or None
        ``None`` when nothing can be pruned (no working path, or zero
        capacity available inside the bubble).
    """
    source, target = pair
    requested = demand.demand(source, target)
    if requested <= PRUNE_EPSILON:
        return None
    if source not in working_graph or target not in working_graph:
        return None

    if require_bubble:
        region = find_bubble(working_graph, demand, pair)
        # A node-filter view iterates in the working graph's own order.
        # ``Graph.subgraph`` iterates a small region's *set*, whose order (and
        # with it the max-flow routes) follows the interpreter's hash seed.
        candidate_graph = nx.subgraph_view(working_graph, filter_node=region.__contains__)
    else:
        candidate_graph = working_graph

    if source not in candidate_graph or target not in candidate_graph:
        return None
    if not nx.has_path(candidate_graph, source, target):
        return None

    flow_value, flow_dict = nx.maximum_flow(
        candidate_graph, source, target, capacity="capacity"
    )
    prunable = min(flow_value, requested)
    if prunable <= PRUNE_EPSILON:
        return None

    # Convert the max-flow dictionary into directed arc flows and decompose
    # them into explicit paths, trimming the total to the prunable amount.
    arc_flows: Dict[Tuple[Node, Node], float] = {}
    for u, neighbours in flow_dict.items():
        for v, value in neighbours.items():
            if value > PRUNE_EPSILON:
                arc_flows[(u, v)] = arc_flows.get((u, v), 0.0) + value
    decomposition = decompose_flows(arc_flows, source, target)

    routes: List[Tuple[Path, float]] = []
    remaining = prunable
    for path, flow in decomposition:
        if remaining <= PRUNE_EPSILON:
            break
        used = min(flow, remaining)
        routes.append((path, used))
        remaining -= used

    routed = sum(flow for _, flow in routes)
    if routed <= PRUNE_EPSILON:
        return None
    return PruneAction(pair=pair, amount=routed, routes=routes)
