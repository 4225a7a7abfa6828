"""Maximum-flow helpers.

ISP needs two max-flow quantities (Section IV-C):

* ``f*(i, j)`` — the maximum flow between a demand pair on the *complete*
  supply graph (broken elements included) with the current residual
  capacities, used to decide which demand to split;
* the maximum flow restricted to a given set of paths (the candidate bubble
  paths), used to decide how much demand can be pruned (Theorem 3).

Both are thin, well-tested wrappers around networkx's preflow-push
implementation operating on the undirected capacitated graphs produced by
:class:`~repro.network.supply.SupplyGraph`.  :func:`max_flow_value` runs
only the value-only first phase (``nx.maximum_flow_value``) and builds no
flow dictionary: the second phase merely returns excess to the source and
leaves the sink's excess, the returned value, unchanged.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Sequence, Tuple

import networkx as nx

from repro.network.paths import path_edges
from repro.network.supply import canonical_edge

Node = Hashable
Path = Tuple[Node, ...]


def max_flow_value(graph: nx.Graph, source: Node, target: Node) -> float:
    """Maximum flow between ``source`` and ``target`` on an undirected graph.

    Edges must carry a ``capacity`` attribute.  Returns 0 when either
    endpoint is missing or the endpoints are disconnected.
    """
    if source == target:
        return float("inf")
    if source not in graph or target not in graph:
        return 0.0
    if not nx.has_path(graph, source, target):
        return 0.0
    return float(nx.maximum_flow_value(graph, source, target, capacity="capacity"))


def max_flow_over_path_set(
    graph: nx.Graph, paths: Sequence[Sequence[Node]], source: Node, target: Node
) -> float:
    """Maximum ``source``→``target`` flow using only the edges of ``paths``.

    Builds the subgraph induced by the union of the paths' edges (with the
    capacities of ``graph``) and runs a max-flow on it.  This is the
    ``f*(P(s_h, t_h))`` quantity of Theorem 3.
    """
    if not paths:
        return 0.0
    subgraph = nx.Graph()
    for path in paths:
        for u, v in path_edges(list(path)):
            if not graph.has_edge(u, v):
                raise KeyError(f"path edge ({u!r}, {v!r}) is not present in the graph")
            subgraph.add_edge(u, v, capacity=graph.edges[u, v].get("capacity", 0.0))
    if source not in subgraph or target not in subgraph:
        return 0.0
    return max_flow_value(subgraph, source, target)


def bottleneck_capacity(graph: nx.Graph, path: Sequence[Node]) -> float:
    """Bottleneck (minimum edge capacity) of a path on ``graph``."""
    if len(path) < 2:
        return float("inf")
    return min(graph.edges[u, v].get("capacity", 0.0) for u, v in path_edges(list(path)))
