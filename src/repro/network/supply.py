"""The supply graph ``G = (V, E)`` of the MinR problem.

The supply graph is the communication network to be recovered.  Every edge
has a *capacity* ``c_ij`` and a *repair cost* ``k^e_ij``; every node has a
repair cost ``k^v_i``.  A subset of the nodes (``V_B``) and edges (``E_B``)
is *broken*: the network cannot carry flow through them until they are
repaired.

The class additionally tracks a *residual capacity* per edge.  Residuals are
what the ISP algorithm consumes when it prunes demand onto working paths
(Section IV-F of the paper); the nominal capacity is never modified.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Set, Tuple

import networkx as nx

from repro.utils.validation import check_non_negative, check_positive

Node = Hashable
Edge = Tuple[Node, Node]

#: Default capacity assigned when an edge is added without an explicit one.
DEFAULT_CAPACITY = 1.0
#: Default repair cost for both nodes and edges (the paper uses unit costs).
DEFAULT_REPAIR_COST = 1.0


def canonical_edge(u: Node, v: Node) -> Edge:
    """Return the canonical (order independent) representation of an edge.

    The supply graph is undirected, so ``(u, v)`` and ``(v, u)`` refer to the
    same edge.  All bookkeeping dictionaries use the canonical form so that
    lookups never depend on the order in which endpoints are mentioned.
    Endpoints are ordered by ``repr``; equal reprs keep the given order.
    """
    return (v, u) if repr(v) < repr(u) else (u, v)


class SupplyGraph:
    """Undirected capacitated supply network with broken elements.

    Parameters
    ----------
    graph:
        Optional :class:`networkx.Graph` to initialise from.  Node attribute
        ``pos`` (a 2-tuple), node/edge attribute ``repair_cost`` and edge
        attribute ``capacity`` are honoured when present.

    Examples
    --------
    >>> g = SupplyGraph()
    >>> g.add_node("a", pos=(0.0, 0.0))
    >>> g.add_node("b", pos=(1.0, 0.0))
    >>> g.add_edge("a", "b", capacity=10.0)
    >>> g.break_edge("a", "b")
    >>> sorted(g.broken_edges)
    [('a', 'b')]
    """

    def __init__(self, graph: Optional[nx.Graph] = None) -> None:
        self._graph = nx.Graph()
        self._broken_nodes: Set[Node] = set()
        self._broken_edges: Set[Edge] = set()
        self._residual: Dict[Edge, float] = {}
        if graph is not None:
            self._init_from_networkx(graph)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def _init_from_networkx(self, graph: nx.Graph) -> None:
        if graph.is_directed():
            raise ValueError("SupplyGraph models an undirected network")
        if graph.is_multigraph():
            raise ValueError("SupplyGraph does not support multigraphs")
        for node, data in graph.nodes(data=True):
            self.add_node(
                node,
                pos=data.get("pos"),
                repair_cost=data.get("repair_cost", DEFAULT_REPAIR_COST),
                broken=bool(data.get("broken", False)),
            )
        for u, v, data in graph.edges(data=True):
            self.add_edge(
                u,
                v,
                capacity=data.get("capacity", DEFAULT_CAPACITY),
                repair_cost=data.get("repair_cost", DEFAULT_REPAIR_COST),
                broken=bool(data.get("broken", False)),
            )

    def add_node(
        self,
        node: Node,
        pos: Optional[Tuple[float, float]] = None,
        repair_cost: float = DEFAULT_REPAIR_COST,
        broken: bool = False,
    ) -> None:
        """Add ``node`` to the supply graph.

        Re-adding an existing node updates its attributes but keeps incident
        edges and its broken status unless ``broken`` is explicitly ``True``.
        """
        check_non_negative(repair_cost, "repair_cost")
        if pos is not None:
            pos = (float(pos[0]), float(pos[1]))
        self._graph.add_node(node, pos=pos, repair_cost=float(repair_cost))
        if broken:
            self._broken_nodes.add(node)

    def add_edge(
        self,
        u: Node,
        v: Node,
        capacity: float = DEFAULT_CAPACITY,
        repair_cost: float = DEFAULT_REPAIR_COST,
        broken: bool = False,
    ) -> None:
        """Add the undirected edge ``(u, v)``.

        Endpoints missing from the graph are created with default attributes.
        The edge residual capacity starts equal to its nominal capacity.
        """
        check_positive(capacity, "capacity")
        check_non_negative(repair_cost, "repair_cost")
        if u == v:
            raise ValueError("self loops carry no flow and are not allowed")
        for endpoint in (u, v):
            if endpoint not in self._graph:
                self.add_node(endpoint)
        self._graph.add_edge(u, v, capacity=float(capacity), repair_cost=float(repair_cost))
        self._residual[canonical_edge(u, v)] = float(capacity)
        if broken:
            self._broken_edges.add(canonical_edge(u, v))

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #
    @property
    def graph(self) -> nx.Graph:
        """The underlying :class:`networkx.Graph` (treat as read-only)."""
        return self._graph

    @property
    def nodes(self) -> List[Node]:
        """All nodes, including broken ones."""
        return list(self._graph.nodes)

    @property
    def edges(self) -> List[Edge]:
        """All edges in canonical form, including broken ones."""
        return [canonical_edge(u, v) for u, v in self._graph.edges]

    @property
    def broken_nodes(self) -> Set[Node]:
        """The set ``V_B`` of currently broken nodes (a copy)."""
        return set(self._broken_nodes)

    @property
    def broken_edges(self) -> Set[Edge]:
        """The set ``E_B`` of currently broken edges (a copy, canonical form)."""
        return set(self._broken_edges)

    @property
    def number_of_nodes(self) -> int:
        return self._graph.number_of_nodes()

    @property
    def number_of_edges(self) -> int:
        return self._graph.number_of_edges()

    def __contains__(self, node: Node) -> bool:
        return node in self._graph

    def __iter__(self) -> Iterator[Node]:
        return iter(self._graph.nodes)

    def has_edge(self, u: Node, v: Node) -> bool:
        return self._graph.has_edge(u, v)

    def neighbors(self, node: Node) -> List[Node]:
        return list(self._graph.neighbors(node))

    def degree(self, node: Node) -> int:
        return int(self._graph.degree(node))

    @property
    def max_degree(self) -> int:
        """Maximum node degree ``eta_max``, used in constraint 1(c) of the MILP."""
        if self._graph.number_of_nodes() == 0:
            return 0
        return max(dict(self._graph.degree).values())

    def position(self, node: Node) -> Optional[Tuple[float, float]]:
        """Geographic position of ``node`` or ``None`` when unknown."""
        return self._graph.nodes[node].get("pos")

    # ------------------------------------------------------------------ #
    # Capacities and repair costs
    # ------------------------------------------------------------------ #
    def capacity(self, u: Node, v: Node) -> float:
        """Nominal capacity ``c_ij`` of the edge ``(u, v)``."""
        return float(self._graph.edges[u, v]["capacity"])

    def residual(self, u: Node, v: Node) -> float:
        """Residual (still unassigned) capacity of the edge ``(u, v)``."""
        return self._residual[canonical_edge(u, v)]

    def set_capacity(self, u: Node, v: Node, capacity: float) -> None:
        """Overwrite the nominal capacity and reset the edge residual."""
        check_positive(capacity, "capacity")
        self._graph.edges[u, v]["capacity"] = float(capacity)
        self._residual[canonical_edge(u, v)] = float(capacity)

    def consume_capacity(self, u: Node, v: Node, amount: float, tolerance: float = 1e-9) -> None:
        """Reduce the residual capacity of ``(u, v)`` by ``amount``.

        Raises
        ------
        ValueError
            If ``amount`` exceeds the current residual beyond ``tolerance``.
        """
        check_non_negative(amount, "amount")
        key = canonical_edge(u, v)
        current = self._residual[key]
        if amount > current + tolerance:
            raise ValueError(
                f"cannot consume {amount} units on edge {key}: only {current} residual left"
            )
        self._residual[key] = max(0.0, current - amount)

    def release_capacity(self, u: Node, v: Node, amount: float) -> None:
        """Return ``amount`` units of residual capacity to ``(u, v)``.

        The residual never exceeds the nominal capacity.
        """
        check_non_negative(amount, "amount")
        key = canonical_edge(u, v)
        self._residual[key] = min(self.capacity(u, v), self._residual[key] + amount)

    def reset_residuals(self) -> None:
        """Restore every edge residual to its nominal capacity."""
        for u, v in self._graph.edges:
            self._residual[canonical_edge(u, v)] = self.capacity(u, v)

    def node_repair_cost(self, node: Node) -> float:
        """Repair cost ``k^v_i`` of ``node``."""
        return float(self._graph.nodes[node]["repair_cost"])

    def edge_repair_cost(self, u: Node, v: Node) -> float:
        """Repair cost ``k^e_ij`` of the edge ``(u, v)``."""
        return float(self._graph.edges[u, v]["repair_cost"])

    def set_node_repair_cost(self, node: Node, cost: float) -> None:
        check_non_negative(cost, "cost")
        self._graph.nodes[node]["repair_cost"] = float(cost)

    def set_edge_repair_cost(self, u: Node, v: Node, cost: float) -> None:
        check_non_negative(cost, "cost")
        self._graph.edges[u, v]["repair_cost"] = float(cost)

    def repair_cost_of(self, nodes: Iterable[Node], edges: Iterable[Edge]) -> float:
        """Total cost of repairing the given ``nodes`` and ``edges``."""
        total = sum(self.node_repair_cost(n) for n in nodes)
        total += sum(self.edge_repair_cost(u, v) for u, v in edges)
        return total

    # ------------------------------------------------------------------ #
    # Failure management
    # ------------------------------------------------------------------ #
    def break_node(self, node: Node) -> None:
        """Mark ``node`` as broken (member of ``V_B``)."""
        if node not in self._graph:
            raise KeyError(f"unknown node {node!r}")
        self._broken_nodes.add(node)

    def break_edge(self, u: Node, v: Node) -> None:
        """Mark the edge ``(u, v)`` as broken (member of ``E_B``)."""
        if not self._graph.has_edge(u, v):
            raise KeyError(f"unknown edge ({u!r}, {v!r})")
        self._broken_edges.add(canonical_edge(u, v))

    def break_all(self) -> None:
        """Destroy the entire network (the paper's "complete destruction")."""
        self._broken_nodes = set(self._graph.nodes)
        self._broken_edges = {canonical_edge(u, v) for u, v in self._graph.edges}

    def repair_node(self, node: Node) -> None:
        """Remove ``node`` from the broken set (no-op when already working)."""
        self._broken_nodes.discard(node)

    def repair_edge(self, u: Node, v: Node) -> None:
        """Remove the edge from the broken set (no-op when already working)."""
        self._broken_edges.discard(canonical_edge(u, v))

    def is_broken_node(self, node: Node) -> bool:
        return node in self._broken_nodes

    def is_broken_edge(self, u: Node, v: Node) -> bool:
        return canonical_edge(u, v) in self._broken_edges

    def is_working_edge(self, u: Node, v: Node) -> bool:
        """``True`` when the edge and both its endpoints are not broken."""
        return (
            not self.is_broken_edge(u, v)
            and u not in self._broken_nodes
            and v not in self._broken_nodes
        )

    # ------------------------------------------------------------------ #
    # Derived graphs
    # ------------------------------------------------------------------ #
    def working_graph(
        self,
        extra_nodes: Optional[Set[Node]] = None,
        extra_edges: Optional[Set[Edge]] = None,
        use_residual: bool = True,
    ) -> nx.Graph:
        """Return the operational subgraph ``G^(n)``.

        The working graph contains only non-broken nodes and edges.  Elements
        listed in ``extra_nodes`` / ``extra_edges`` are treated as already
        repaired (the ISP repair list ``L^(n)``), so they are included even if
        they are marked broken.  Edge ``capacity`` attributes carry the
        residual capacity when ``use_residual`` is true, the nominal capacity
        otherwise.
        """
        extra_nodes = extra_nodes or set()
        extra_edges = {canonical_edge(*e) for e in (extra_edges or set())}
        working = nx.Graph()
        for node, data in self._graph.nodes(data=True):
            if node not in self._broken_nodes or node in extra_nodes:
                working.add_node(node, **data)
        for u, v, data in self._graph.edges(data=True):
            key = canonical_edge(u, v)
            if key in self._broken_edges and key not in extra_edges:
                continue
            if u not in working or v not in working:
                continue
            capacity = self._residual[key] if use_residual else data["capacity"]
            working.add_edge(u, v, capacity=capacity, repair_cost=data["repair_cost"])
        return working

    def full_graph(self, use_residual: bool = True) -> nx.Graph:
        """Return the complete supply graph including broken elements.

        ISP computes its centrality ranking on the *complete* graph (broken
        elements included) with updated residual capacities — see Section
        IV-B of the paper.
        """
        full = nx.Graph()
        for node, data in self._graph.nodes(data=True):
            full.add_node(node, **data)
        for u, v, data in self._graph.edges(data=True):
            key = canonical_edge(u, v)
            capacity = self._residual[key] if use_residual else data["capacity"]
            full.add_edge(u, v, capacity=capacity, repair_cost=data["repair_cost"])
        return full

    # ------------------------------------------------------------------ #
    # Misc
    # ------------------------------------------------------------------ #
    def copy(self) -> "SupplyGraph":
        """Deep copy of the supply graph including failures and residuals."""
        clone = SupplyGraph()
        clone._graph = self._graph.copy()
        clone._broken_nodes = set(self._broken_nodes)
        clone._broken_edges = set(self._broken_edges)
        clone._residual = dict(self._residual)
        return clone

    def total_capacity(self) -> float:
        """Sum of nominal capacities over all edges."""
        return sum(data["capacity"] for _, _, data in self._graph.edges(data=True))

    def stats(self) -> Dict[str, float]:
        """Summary statistics used by reports and the Figure 8 bench."""
        graph = self._graph
        degrees = [d for _, d in graph.degree]
        return {
            "nodes": graph.number_of_nodes(),
            "edges": graph.number_of_edges(),
            "broken_nodes": len(self._broken_nodes),
            "broken_edges": len(self._broken_edges),
            "max_degree": max(degrees) if degrees else 0,
            "mean_degree": (sum(degrees) / len(degrees)) if degrees else 0.0,
            "total_capacity": self.total_capacity(),
            "connected": bool(nx.is_connected(graph)) if graph.number_of_nodes() else False,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"SupplyGraph(nodes={self.number_of_nodes}, edges={self.number_of_edges}, "
            f"broken_nodes={len(self._broken_nodes)}, broken_edges={len(self._broken_edges)})"
        )
