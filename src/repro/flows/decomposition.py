"""Decomposition attacks on the MinR MILP, plus classic flow decomposition.

Two different "decompositions" live here:

* :func:`decompose_flows` — the classic flow decomposition theorem, turning
  per-arc LP flows into explicit path assignments for recovery plans.
* The **exact-solve acceleration layer** (everything else): instead of
  handing the monolithic MILP of Eq. 1 to the solver, exploit its block
  structure the way exact OR methods do.

The acceleration layer attacks the model in stages, cheapest first:

1. **Per-commodity block relaxations.**  The constraint system is ``k``
   commodities sharing capacity; dropping all but one commodity (and its
   disaggregated variable-upper-bound rows, see below) yields a small LP
   whose optimum is a valid lower bound on MinR.  The blocks come straight
   from the :class:`~repro.flows.solver.incremental.StructureCache`.
2. **The strengthened joint relaxation.**  The LP relaxation of Eq. 1 is
   nearly useless when capacities dwarf demands (``delta = d/c`` is
   fractional-feasible), so it is tightened with disaggregated VUB cuts
   ``f^h_ij + f^h_ji <= min(c_ij, d_h) * delta_ij``: every cycle-free
   feasible flow satisfies them, and removing cycles never changes the
   repair vector or the objective, so the strengthened optimum is still a
   valid lower bound — usually a *tight* one under unit repair costs.
3. **A bound certificate.**  With integral repair costs the bound rounds up
   to an integer; when a verified heuristic incumbent already matches it,
   the incumbent is *proven optimal* with zero MILP solves.
4. **Combinatorial Benders.**  For small damage sets, search repair
   vectors directly: a master MILP over the broken-element binaries (with
   valid inequalities relating edge and node repairs), and a routability-LP
   subproblem per candidate.  Non-routable candidates generate feasibility
   cuts — connectivity *frontier* cuts when a commodity is disconnected,
   monotone no-good cuts otherwise (routability is monotone in the repair
   set, so excluding a set excludes all its subsets).
5. **The tightened monolithic model.**  When Benders is not attractive the
   full MILP is solved, but strengthened with the VUB rows, the proven
   bound window ``lb <= cost <= ub``, cost-free fixings of the non-broken
   binaries, and the heuristic incumbent as a warm start.

Bounds and learned cuts are cached per *instance signature* (topology
signature + damage + capacities + costs + commodities) and reused across
re-solves of the same scenario, e.g. across strategies or portfolio stages.
"""

from __future__ import annotations

import math
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence, Set, Tuple, Union

import networkx as nx
import numpy as np
from scipy import sparse

from repro.flows.routability import routability_test
from repro.flows.solver.backends import (
    LinearProgram,
    MILProgram,
    SolverBackend,
    get_backend,
)
from repro.flows.solver.stats import record_benders, record_bound_reuse
from repro.flows.solver.tolerances import BINARY_THRESHOLD, FLOW_TOLERANCE

Node = Hashable
Arc = Tuple[Node, Node]
Path = Tuple[Node, ...]

#: Flows below this value are treated as numerical noise.
FLOW_EPSILON = 1e-6

#: A broken element: ``("node", n)`` or ``("edge", (u, v))`` (canonical).
Element = Tuple[str, Union[Node, Tuple[Node, Node]]]

#: Damage sets up to this size go through the combinatorial Benders search.
BENDERS_MAX_ELEMENTS = 12

#: Master/subproblem rounds before Benders gives up and falls back.
BENDERS_MAX_ITERATIONS = 60

#: Retained instance entries in the shared bound cache.
_BOUND_CACHE_SIZE = 256


def decompose_flows(
    arc_flows: Dict[Arc, float],
    source: Node,
    target: Node,
    tolerance: float = FLOW_EPSILON,
) -> List[Tuple[Path, float]]:
    """Decompose a single-commodity arc flow into source→target paths.

    Parameters
    ----------
    arc_flows:
        Directed flow per arc ``(u, v)``.  Values below ``tolerance`` are
        ignored.  The flow does not have to be perfectly conserved (LP
        round-off is tolerated); any residual that cannot reach ``target`` is
        silently dropped.
    source, target:
        Commodity endpoints.

    Returns
    -------
    list of ``(path, flow)``
        Paths from ``source`` to ``target`` with positive flow, ordered by
        extraction.  The sum of the flows equals the net flow delivered to
        ``target`` (up to ``tolerance``).
    """
    residual: Dict[Arc, float] = {
        arc: flow for arc, flow in arc_flows.items() if flow > tolerance
    }
    adjacency: Dict[Node, List[Node]] = {}
    for u, v in residual:
        adjacency.setdefault(u, []).append(v)

    decomposition: List[Tuple[Path, float]] = []

    def find_path() -> List[Node]:
        """Greedy walk from source following positive-residual arcs."""
        path = [source]
        visited = {source}
        current = source
        while current != target:
            next_node = None
            for candidate in adjacency.get(current, []):
                if residual.get((current, candidate), 0.0) > tolerance and candidate not in visited:
                    next_node = candidate
                    break
            if next_node is None:
                return []  # dead end: remaining flow is a cycle or noise
            path.append(next_node)
            visited.add(next_node)
            current = next_node
        return path

    # Each iteration saturates at least one arc, so this terminates after at
    # most |arcs| iterations.
    for _ in range(len(residual) + 1):
        path = find_path()
        if not path:
            break
        bottleneck = min(
            residual[(path[i], path[i + 1])] for i in range(len(path) - 1)
        )
        if bottleneck <= tolerance:
            break
        decomposition.append((tuple(path), float(bottleneck)))
        for i in range(len(path) - 1):
            arc = (path[i], path[i + 1])
            residual[arc] -= bottleneck
            if residual[arc] <= tolerance:
                residual.pop(arc, None)
    return decomposition


def total_decomposed_flow(decomposition: List[Tuple[Path, float]]) -> float:
    """Total flow carried by a decomposition."""
    return sum(flow for _, flow in decomposition)


# --------------------------------------------------------------------------- #
# Instance signatures and the shared bound cache
# --------------------------------------------------------------------------- #
def instance_signature(model) -> Tuple:
    """A hashable key identifying one MinR instance exactly.

    Extends the topology signature with everything else the optimum depends
    on: the damage sets, per-edge capacities, repair costs and commodities.
    Two scenario deltas that happen to coincide (e.g. the same scenario
    re-solved under a different strategy, or the exact stage of a portfolio
    race) hit the same entry.
    """
    supply = model.supply
    capacities = tuple(round(float(c), 9) for c in model.capacity_rhs)
    costs = tuple(round(float(c), 9) for c in model.objective[model.num_flow:])
    commodities = tuple(
        (repr(c.source), repr(c.target), round(float(c.demand), 9))
        for c in model.commodities
    )
    return (
        model.problem.structure.signature,
        frozenset(supply.broken_nodes),
        frozenset(supply.broken_edges),
        capacities,
        costs,
        commodities,
    )


@dataclass
class BoundEntry:
    """Cached knowledge about one instance: bounds and learned Benders cuts."""

    lower_bound: Optional[float] = None
    #: Feasibility cuts as sets of elements, at least one of which must be
    #: repaired (``sum x_b >= 1``); valid for the instance forever.
    cuts: List[frozenset] = field(default_factory=list)


class BoundCache:
    """LRU cache of :class:`BoundEntry` objects keyed by instance signature."""

    def __init__(self, maxsize: int = _BOUND_CACHE_SIZE) -> None:
        self.maxsize = maxsize
        self._entries: "OrderedDict[Tuple, BoundEntry]" = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def entry_for(self, signature: Tuple) -> BoundEntry:
        """The (cached) entry of ``signature``; reuse of a bound is recorded."""
        with self._lock:
            entry = self._entries.get(signature)
            if entry is not None:
                self._entries.move_to_end(signature)
        if entry is not None:
            if entry.lower_bound is not None or entry.cuts:
                record_bound_reuse()
            return entry
        entry = BoundEntry()
        with self._lock:
            self._entries[signature] = entry
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
        return entry


_SHARED_BOUND_CACHE = BoundCache()


def shared_bound_cache() -> BoundCache:
    return _SHARED_BOUND_CACHE


def clear_bound_cache() -> None:
    """Drop all cached instance bounds and cuts (tests / memory pressure)."""
    _SHARED_BOUND_CACHE.clear()


# --------------------------------------------------------------------------- #
# Strengthened relaxations: disaggregated VUB rows and block bounds
# --------------------------------------------------------------------------- #
def vub_rows(model) -> Tuple[sparse.csr_matrix, np.ndarray, np.ndarray]:
    """Disaggregated variable-upper-bound rows over the full variable layout.

    One row per (commodity ``h``, edge ``e``)::

        f^h_uv + f^h_vu - min(c_e, d_h) * delta_e <= 0

    Validity: a cycle-free flow for commodity ``h`` carries at most ``d_h``
    across any single edge, and removing flow cycles changes neither the
    binaries nor the objective — so every optimal repair vector survives.
    These rows dominate the aggregated 1(b) rows as a *relaxation* whenever
    capacities exceed demands, which is exactly the regime (e.g. the paper's
    figure-7 instances, capacity 1000 vs unit demands) where the plain LP
    bound collapses to ~0.
    """
    structure = model.problem.structure
    num_edges = model.num_edges
    k = len(model.commodities)
    flow_part = sparse.block_diag([structure.capacity_block] * k, format="csr")
    # -min(c_e, d_h) on edge e's delta column, stacked per commodity.
    rows: List[int] = []
    cols: List[int] = []
    data: List[float] = []
    for h, commodity in enumerate(model.commodities):
        demand = float(commodity.demand)
        for i in range(num_edges):
            rows.append(h * num_edges + i)
            cols.append(model.num_flow + i)
            data.append(-min(float(model.capacity_rhs[i]), demand))
    delta_part = sparse.csr_matrix(
        (data, (rows, cols)), shape=(k * num_edges, model.num_vars)
    )
    flow_block = sparse.hstack(
        [flow_part, sparse.csr_matrix((k * num_edges, model.num_vars - model.num_flow))],
        format="csr",
    )
    matrix = (flow_block + delta_part).tocsr()
    total = k * num_edges
    return matrix, np.full(total, -np.inf), np.zeros(total)


def fixed_delta_bounds(model) -> Tuple[np.ndarray, np.ndarray]:
    """Variable bounds with the cost-free binaries fixed to 1.

    Non-broken nodes, and non-broken edges whose endpoints are both
    non-broken, can be switched on for free: doing so only relaxes 1(b) and
    never forces a paid repair through 1(c) (``sum_j delta_ij <= degree <=
    eta_max``).  At least one optimum has them at 1, so fixing them shrinks
    the search space without touching the optimal value.  Edges incident to
    a broken node stay free — forcing them on would force the node repair.
    """
    supply = model.supply
    lower = np.array(model.lower, dtype=float)
    upper = np.array(model.upper, dtype=float)
    for node, column in model.node_column.items():
        if not supply.is_broken_node(node):
            lower[column] = 1.0
    for edge, column in model.edge_column.items():
        u, v = edge
        if (
            not supply.is_broken_edge(u, v)
            and not supply.is_broken_node(u)
            and not supply.is_broken_node(v)
        ):
            lower[column] = 1.0
    return lower, upper


def _relaxation_program(
    model,
    constraints: Sequence[Tuple[sparse.spmatrix, np.ndarray, np.ndarray]],
) -> LinearProgram:
    """Assemble an :class:`LinearProgram` from row-bound constraint triples."""
    ub_blocks: List[sparse.spmatrix] = []
    ub_rhs: List[np.ndarray] = []
    eq_blocks: List[sparse.spmatrix] = []
    eq_rhs: List[np.ndarray] = []
    for matrix, lb, ub in constraints:
        lb = np.asarray(lb, dtype=float)
        ub = np.asarray(ub, dtype=float)
        if np.array_equal(lb, ub):
            eq_blocks.append(matrix)
            eq_rhs.append(ub)
            continue
        finite_ub = np.isfinite(ub)
        if finite_ub.any():
            ub_blocks.append(matrix[finite_ub] if not finite_ub.all() else matrix)
            ub_rhs.append(ub[finite_ub] if not finite_ub.all() else ub)
        finite_lb = np.isfinite(lb)
        if finite_lb.any():
            negated = (-matrix)[finite_lb] if not finite_lb.all() else -matrix
            ub_blocks.append(negated)
            ub_rhs.append(-(lb[finite_lb] if not finite_lb.all() else lb))
    return LinearProgram(
        c=model.objective,
        a_ub=sparse.vstack(ub_blocks, format="csr") if ub_blocks else None,
        b_ub=np.concatenate(ub_rhs) if ub_rhs else None,
        a_eq=sparse.vstack(eq_blocks, format="csr") if eq_blocks else None,
        b_eq=np.concatenate(eq_rhs) if eq_rhs else None,
        bounds=fixed_delta_bounds(model),
    )


def relaxation_bound(
    model, backend: Optional[Union[str, SolverBackend]] = None
) -> Tuple[str, Optional[float]]:
    """``(status, bound)`` of the VUB-strengthened joint LP relaxation.

    ``status`` is ``"optimal"`` (bound valid), ``"infeasible"`` (the MILP
    itself is infeasible: the relaxation contains every feasible solution)
    or ``"error"``.
    """
    constraints = list(model.constraints) + [vub_rows(model)]
    program = _relaxation_program(model, constraints)
    solution = get_backend(backend).solve_lp(program)
    if solution.success:
        return "optimal", float(solution.objective)
    if solution.status == "infeasible":
        return "infeasible", None
    return "error", None


def commodity_block_bound(
    model, index: int, backend: Optional[Union[str, SolverBackend]] = None
) -> Optional[float]:
    """Lower bound from commodity ``index``'s single-block relaxation.

    Any feasible repair vector must route each commodity *alone*, so the
    min-cost relaxation of one commodity block (its conservation rows, its
    VUB rows, the degree rows) bounds the joint optimum from below.  The
    block matrices are the cached single-commodity blocks — no assembly of
    the joint system is needed.  Returns ``None`` when the block LP fails
    (the caller just skips the bound).
    """
    structure = model.problem.structure
    commodity = model.commodities[index]
    num_arcs = structure.num_arcs
    num_vars = num_arcs + model.num_edges + model.num_nodes
    # Column layout: [commodity flows | edge deltas | node deltas].
    objective = np.concatenate([np.zeros(num_arcs), model.objective[model.num_flow:]])

    demand = float(commodity.demand)
    vub_flow = structure.capacity_block  # one row per edge, 1s on its arcs
    vub_delta_data = [
        -min(float(model.capacity_rhs[i]), demand) for i in range(model.num_edges)
    ]
    vub = sparse.hstack(
        [
            vub_flow,
            sparse.diags(vub_delta_data, format="csr"),
            sparse.csr_matrix((model.num_edges, model.num_nodes)),
        ],
        format="csr",
    )
    degree = sparse.hstack(
        [sparse.csr_matrix((model.num_nodes, num_arcs)), model.degree_block],
        format="csr",
    )
    conservation = sparse.hstack(
        [
            structure.conservation_block,
            sparse.csr_matrix((model.num_nodes, model.num_edges + model.num_nodes)),
        ],
        format="csr",
    )
    rhs = np.zeros(model.num_nodes)
    source_row = structure.node_index.get(commodity.source)
    target_row = structure.node_index.get(commodity.target)
    if source_row is None or target_row is None:
        return None
    rhs[source_row] = demand
    rhs[target_row] = -demand

    lower_full, upper_full = fixed_delta_bounds(model)
    lower = np.concatenate([np.zeros(num_arcs), lower_full[model.num_flow:]])
    upper = np.concatenate([np.full(num_arcs, np.inf), upper_full[model.num_flow:]])
    program = LinearProgram(
        c=objective,
        a_ub=sparse.vstack([vub, degree], format="csr"),
        b_ub=np.zeros(model.num_edges + model.num_nodes),
        a_eq=conservation,
        b_eq=rhs,
        bounds=(lower, upper),
    )
    solution = get_backend(backend).solve_lp(program)
    if not solution.success:
        return None
    return float(solution.objective)


def integral_bound(model, bound: float) -> float:
    """Round ``bound`` up to the next integer when every repair cost is.

    With integral costs (the paper uses unit costs) every feasible objective
    is an integer, so ``ceil`` of any valid lower bound is still valid — and
    it is what lets a heuristic incumbent close the gap exactly.
    """
    costs = model.objective[model.num_flow:]
    if all(float(c).is_integer() for c in costs):
        return float(math.ceil(bound - FLOW_TOLERANCE))
    return float(bound)


# --------------------------------------------------------------------------- #
# Combinatorial Benders on the repair binaries
# --------------------------------------------------------------------------- #
@dataclass
class BendersOutcome:
    """Result of the combinatorial Benders search."""

    status: str  #: ``"optimal"``, ``"incumbent"``, ``"infeasible"`` or ``"gave_up"``
    repaired_nodes: Set[Node] = field(default_factory=set)
    repaired_edges: Set[Tuple[Node, Node]] = field(default_factory=set)
    objective: Optional[float] = None
    bound: Optional[float] = None
    flows: List[Dict[Arc, float]] = field(default_factory=list)
    iterations: int = 0
    cuts: List[frozenset] = field(default_factory=list)


def _element_cost(model, element: Element) -> float:
    kind, value = element
    if kind == "node":
        return model.supply.node_repair_cost(value)
    return model.supply.edge_repair_cost(*value)


def _frontier_cuts(
    model,
    graph: nx.Graph,
    candidate_nodes: Set[Node],
) -> List[frozenset]:
    """Connectivity cuts for commodities disconnected under a candidate.

    For a commodity whose endpoints fall in different components of the
    candidate working graph, any routable repair set must open at least one
    broken element on the frontier of the source component: a broken edge
    crossing the boundary, or a broken node just outside it reachable over
    a non-broken edge.  ``sum_{b in frontier} x_b >= 1`` is therefore valid
    for every feasible repair vector, not just supersets of the candidate.
    """
    supply = model.supply
    cuts: List[frozenset] = []
    seen_components: List[Set[Node]] = []
    for commodity in model.commodities:
        source, target = commodity.source, commodity.target
        if source not in graph or target not in graph:
            continue  # master valid inequalities force broken endpoints
        if nx.has_path(graph, source, target):
            continue
        component = nx.node_connected_component(graph, source)
        if any(component == c for c in seen_components):
            continue
        seen_components.append(component)
        frontier: Set[Element] = set()
        for u, v in supply.broken_edges:
            if (u in component) != (v in component):
                frontier.add(("edge", (u, v)))
        for node in supply.broken_nodes:
            if node in component or node in candidate_nodes:
                continue
            for neighbor in supply.neighbors(node):
                if neighbor in component and not supply.is_broken_edge(node, neighbor):
                    frontier.add(("node", node))
                    break
        if frontier:
            cuts.append(frozenset(frontier))
    return cuts


def benders_search(
    model,
    upper_bound: Optional[float],
    lower_bound: float,
    deadline: Optional[float],
    backend: Optional[Union[str, SolverBackend]] = None,
    seed_cuts: Sequence[frozenset] = (),
) -> BendersOutcome:
    """Search repair vectors directly via master MILP + routability cuts.

    The master minimises repair cost over the broken-element binaries under
    valid inequalities only, so its optimum never exceeds the true optimum;
    the first master candidate whose repaired working graph routes the full
    demand is therefore *globally* optimal.  Returns ``status="gave_up"``
    when the iteration cap or deadline is hit (the caller falls back to the
    tightened monolithic model).
    """
    supply = model.supply
    demand = model.demand
    elements: List[Element] = sorted(
        [("node", node) for node in supply.broken_nodes]
        + [("edge", edge) for edge in supply.broken_edges],
        key=repr,
    )
    index = {element: i for i, element in enumerate(elements)}
    n = len(elements)
    costs = np.array([_element_cost(model, element) for element in elements])

    lower = np.zeros(n)
    upper = np.ones(n)
    # Broken commodity endpoints must be repaired: the source emits flow, so
    # some incident edge is used, which forces the node on through 1(c).
    for commodity in model.commodities:
        for endpoint in (commodity.source, commodity.target):
            column = index.get(("node", endpoint))
            if column is not None:
                lower[column] = 1.0

    rows: List[Tuple[sparse.spmatrix, np.ndarray, np.ndarray]] = []
    # delta_edge <= delta_node for broken edges with broken endpoints: any
    # feasible MILP solution with the edge on has the endpoint on (1(c)).
    pair_rows: List[Tuple[int, int]] = []
    for element in elements:
        if element[0] != "edge":
            continue
        u, v = element[1]
        for endpoint in (u, v):
            node_col = index.get(("node", endpoint))
            if node_col is not None:
                pair_rows.append((index[element], node_col))
    if pair_rows:
        matrix = sparse.lil_matrix((len(pair_rows), n))
        for row, (edge_col, node_col) in enumerate(pair_rows):
            matrix[row, edge_col] = 1.0
            matrix[row, node_col] = -1.0
        rows.append(
            (matrix.tocsr(), np.full(len(pair_rows), -np.inf), np.zeros(len(pair_rows)))
        )
    # The proven bound window: lb <= c^T x (<= ub).
    window_ub = float(upper_bound) + FLOW_TOLERANCE if upper_bound is not None else np.inf
    rows.append(
        (
            sparse.csr_matrix(costs.reshape(1, -1)),
            np.array([lower_bound - FLOW_TOLERANCE]),
            np.array([window_ub]),
        )
    )

    def cut_row(cut: frozenset) -> Optional[Tuple[sparse.spmatrix, np.ndarray, np.ndarray]]:
        columns = [index[element] for element in cut if element in index]
        if not columns:
            return None
        matrix = sparse.lil_matrix((1, n))
        for column in columns:
            matrix[0, column] = 1.0
        return matrix.tocsr(), np.array([1.0]), np.array([np.inf])

    cuts: List[frozenset] = []
    for cut in seed_cuts:
        row = cut_row(cut)
        if row is not None:
            rows.append(row)
            cuts.append(cut)

    solver = get_backend(backend)
    iterations = 0
    new_cuts: List[frozenset] = []
    for _ in range(BENDERS_MAX_ITERATIONS):
        if deadline is not None and time.perf_counter() >= deadline:
            break
        iterations += 1
        program = MILProgram(
            c=costs,
            constraints=list(rows),
            integrality=np.ones(n),
            lb=lower,
            ub=upper,
        )
        master = solver.solve_milp(program)
        if master.status == "infeasible":
            record_benders(iterations=iterations, cuts=len(new_cuts))
            if upper_bound is not None:
                # The incumbent satisfies every master row, so an infeasible
                # master can only mean numerical fuzz — treat it as proof.
                return BendersOutcome(
                    status="incumbent",
                    objective=upper_bound,
                    bound=upper_bound,
                    iterations=iterations,
                    cuts=new_cuts,
                )
            return BendersOutcome(
                status="infeasible", iterations=iterations, cuts=new_cuts
            )
        if not master.feasible or master.x is None:
            break
        candidate_cost = float(master.objective)
        if upper_bound is not None and candidate_cost >= upper_bound - FLOW_TOLERANCE:
            # No repair vector beats the incumbent: it is optimal.
            record_benders(iterations=iterations, cuts=len(new_cuts))
            return BendersOutcome(
                status="incumbent",
                objective=upper_bound,
                bound=candidate_cost if upper_bound is None else upper_bound,
                iterations=iterations,
                cuts=new_cuts,
            )
        selected = [
            element
            for element in elements
            if master.x[index[element]] > BINARY_THRESHOLD
        ]
        candidate_nodes = {value for kind, value in selected if kind == "node"}
        candidate_edges = {value for kind, value in selected if kind == "edge"}
        graph = supply.working_graph(
            extra_nodes=candidate_nodes,
            extra_edges=candidate_edges,
            use_residual=False,
        )
        verdict = routability_test(graph, demand, want_flows=True, backend=backend)
        if verdict.routable:
            record_benders(iterations=iterations, cuts=len(new_cuts))
            objective = supply.repair_cost_of(candidate_nodes, candidate_edges)
            return BendersOutcome(
                status="optimal",
                repaired_nodes=candidate_nodes,
                repaired_edges=candidate_edges,
                objective=float(objective),
                bound=float(objective),
                flows=verdict.flows,
                iterations=iterations,
                cuts=new_cuts,
            )
        # Feasibility cuts.  The no-good cut is always separating (routability
        # is monotone in the repair set, so the candidate and all its subsets
        # are excluded); frontier cuts add strength when disconnection is the
        # cause.
        no_good = frozenset(
            element for element in elements if element not in set(selected)
        )
        added = _frontier_cuts(model, graph, candidate_nodes)
        if no_good:
            added.append(no_good)
        progressed = False
        for cut in added:
            if cut in cuts:
                continue
            row = cut_row(cut)
            if row is None:
                continue
            rows.append(row)
            cuts.append(cut)
            new_cuts.append(cut)
            progressed = True
        if not progressed:
            break  # cannot separate the candidate: give up, don't spin
    record_benders(iterations=iterations, cuts=len(new_cuts))
    return BendersOutcome(status="gave_up", iterations=iterations, cuts=new_cuts)


# --------------------------------------------------------------------------- #
# The decomposed driver
# --------------------------------------------------------------------------- #
def solve_decomposed(
    model,
    time_limit: Optional[float] = None,
    mip_rel_gap: float = 0.0,
    backend: Optional[Union[str, SolverBackend]] = None,
    incumbent=None,
):
    """Drive the staged decomposition attack on a built MinR model.

    Returns a :class:`~repro.flows.milp.MinRSolution` or ``None`` when the
    attack declines the instance (the caller falls back to the monolithic
    path with identical semantics).  ``incumbent`` is an optional
    :class:`~repro.flows.milp.IncumbentStart` built from a heuristic plan.
    """
    from repro.flows import milp as _milp  # deferred: milp imports this module

    started = time.perf_counter()
    deadline = started + float(time_limit) if time_limit else None
    supply = model.supply
    if model.problem.infeasible_commodities:
        return None  # parity: let the monolithic model define the behaviour

    entry = shared_bound_cache().entry_for(instance_signature(model))
    upper = incumbent.cost if incumbent is not None else None

    def finish(solution):
        solution.elapsed_seconds = time.perf_counter() - started
        return solution

    def certificate_met(lower_value: float) -> bool:
        if upper is None:
            return False
        if upper <= lower_value + FLOW_TOLERANCE:
            return True
        if mip_rel_gap > 0.0:
            gap = (upper - lower_value) / max(abs(upper), FLOW_TOLERANCE)
            return gap <= mip_rel_gap
        return False

    # Stage 1: lower bounds — cached, then per-commodity blocks, then the
    # strengthened joint relaxation (skipped when a cheaper bound already
    # proves the incumbent).
    lower_bound = entry.lower_bound
    if lower_bound is None:
        block_bound = 0.0
        for index in range(len(model.commodities)):
            bound = commodity_block_bound(model, index, backend)
            if bound is not None:
                block_bound = max(block_bound, bound)
        lower_bound = block_bound
        if not certificate_met(integral_bound(model, lower_bound)):
            status, joint = relaxation_bound(model, backend)
            if status == "infeasible":
                entry.lower_bound = np.inf
                return finish(
                    _milp.MinRSolution(
                        status="infeasible",
                        strategy="decomposed",
                        seeded=incumbent is not None,
                    )
                )
            if joint is not None:
                lower_bound = max(lower_bound, joint)
        entry.lower_bound = lower_bound
    elif np.isinf(lower_bound):
        return finish(
            _milp.MinRSolution(
                status="infeasible",
                strategy="decomposed",
                seeded=incumbent is not None,
            )
        )
    lb_int = integral_bound(model, lower_bound)

    # Stage 2: a zero-cost optimum — nothing needs repairing at all.
    if lb_int <= FLOW_TOLERANCE:
        verdict = routability_test(
            supply.working_graph(use_residual=False),
            model.demand,
            want_flows=True,
            backend=backend,
        )
        if verdict.routable:
            return finish(
                _milp.MinRSolution(
                    status="optimal",
                    objective=0.0,
                    flows=verdict.flows,
                    commodities=list(model.commodities),
                    bound=0.0,
                    strategy="decomposed",
                    seeded=incumbent is not None,
                )
            )

    # Stage 3: the bound certificate — the heuristic incumbent matches the
    # proven lower bound, so it is optimal without any MILP solve.
    if certificate_met(lb_int):
        return finish(_milp.incumbent_solution(model, incumbent, bound=lb_int))

    # Stage 4: combinatorial Benders for small damage sets.
    damage = len(supply.broken_nodes) + len(supply.broken_edges)
    if damage <= BENDERS_MAX_ELEMENTS:
        outcome = benders_search(
            model, upper, lb_int, deadline, backend=backend, seed_cuts=entry.cuts
        )
        for cut in outcome.cuts:
            if cut not in entry.cuts:
                entry.cuts.append(cut)
        if outcome.status == "infeasible":
            entry.lower_bound = np.inf
            return finish(
                _milp.MinRSolution(
                    status="infeasible",
                    strategy="decomposed",
                    seeded=incumbent is not None,
                )
            )
        if outcome.status == "incumbent":
            return finish(
                _milp.incumbent_solution(model, incumbent, bound=outcome.bound)
            )
        if outcome.status == "optimal":
            solution = _milp.MinRSolution(
                status="optimal",
                objective=outcome.objective,
                repaired_nodes=set(outcome.repaired_nodes),
                repaired_edges=set(outcome.repaired_edges),
                flows=outcome.flows,
                commodities=list(model.commodities),
                bound=outcome.bound,
                strategy="decomposed",
                seeded=incumbent is not None,
            )
            return finish(solution)
        # "gave_up": fall through to the tightened monolithic model.

    # Stage 5: the tightened monolithic model — VUB rows, the proven bound
    # window, cost-free fixings, and the incumbent as a warm start.
    remaining = None
    if deadline is not None:
        remaining = deadline - time.perf_counter()
        if remaining <= 0.05:
            if incumbent is not None:
                solution = _milp.incumbent_solution(model, incumbent, bound=lb_int)
                solution.status = "feasible"
                solution.mip_gap = (upper - lb_int) / max(abs(upper), FLOW_TOLERANCE)
                return finish(solution)
            return None
    constraints = list(model.constraints) + [vub_rows(model)]
    window_ub = float(upper) + FLOW_TOLERANCE if upper is not None else np.inf
    constraints.append(
        (
            sparse.csr_matrix(model.objective.reshape(1, -1)),
            np.array([lb_int - FLOW_TOLERANCE]),
            np.array([window_ub]),
        )
    )
    lower_b, upper_b = fixed_delta_bounds(model)
    program = MILProgram(
        c=model.objective,
        constraints=constraints,
        integrality=model.integrality,
        lb=lower_b,
        ub=upper_b,
        time_limit=remaining,
        mip_rel_gap=mip_rel_gap,
    )
    warm = incumbent.x if incumbent is not None else None
    result = get_backend(backend).solve_milp(program, warm_start=warm)
    if not result.feasible or result.x is None:
        if result.status == "infeasible":
            # The tightened model only removes suboptimal/equivalent points,
            # so infeasibility transfers to the original model.
            entry.lower_bound = np.inf
            return finish(
                _milp.MinRSolution(
                    status="infeasible",
                    strategy="decomposed",
                    seeded=incumbent is not None,
                )
            )
        if incumbent is not None:
            solution = _milp.incumbent_solution(model, incumbent, bound=lb_int)
            solution.status = "feasible"
            solution.mip_gap = (upper - lb_int) / max(abs(upper), FLOW_TOLERANCE)
            return finish(solution)
        return None
    if (
        incumbent is not None
        and result.objective is not None
        and float(result.objective) > upper + FLOW_TOLERANCE
    ):
        # The incumbent is at least as good as the solver's answer (possible
        # only under a time limit): keep the better plan.
        solution = _milp.incumbent_solution(model, incumbent, bound=lb_int)
        solution.status = result.status if result.status == "optimal" else "feasible"
        return finish(solution)
    solution = _milp.solution_from_result(
        model, result, strategy="decomposed", seeded=incumbent is not None
    )
    if solution.bound is None or solution.bound < lb_int:
        solution.bound = lb_int if solution.status != "optimal" else solution.objective
    return finish(solution)


__all__ = [
    "FLOW_EPSILON",
    "decompose_flows",
    "total_decomposed_flow",
    "BENDERS_MAX_ELEMENTS",
    "BENDERS_MAX_ITERATIONS",
    "instance_signature",
    "BoundEntry",
    "BoundCache",
    "shared_bound_cache",
    "clear_bound_cache",
    "vub_rows",
    "fixed_delta_bounds",
    "relaxation_bound",
    "commodity_block_bound",
    "integral_bound",
    "BendersOutcome",
    "benders_search",
    "solve_decomposed",
]
