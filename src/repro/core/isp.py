"""The Iterative Split and Prune (ISP) recovery algorithm (Section IV).

ISP decides which broken elements to repair so that all demand flows can be
routed, while trying to keep the number of repairs as low as possible.  Each
iteration of the main loop performs, in this order:

1. **Termination test** — is the current demand routable on the working
   graph (non-broken elements plus everything already listed for repair)?
   This is the LP routability test of Section IV-A.
2. **Pruning** — every demand that can be routed inside a working *bubble*
   is routed there and removed from the instance, consuming residual
   capacity (Section IV-F, Theorem 3).
3. **Direct repairs** — a broken supply edge that directly connects the two
   endpoints of an unsatisfiable demand is listed for repair
   (Section IV-E).
4. **Split** — otherwise the node with the highest demand-based centrality
   is (virtually) repaired and the most constrained demand contributing to
   that centrality is split through it; the split amount is the maximum
   value that keeps the instance routable (Section IV-B/IV-C).

The algorithm returns a :class:`~repro.network.plan.RecoveryPlan` containing
both the repair list and the routing produced by prune actions and by the
final routability test, as the paper requires.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Literal, Optional, Set, Tuple

import networkx as nx

from repro.core.centrality import CentralityResult, demand_based_centrality
from repro.core.prune import PruneAction, find_prunable_routing
from repro.core.split import select_demand_to_split
from repro.flows.maxflow import max_flow_value
from repro.flows.routability import routability_test
from repro.flows.splitting_lp import maximum_splittable_amount
from repro.flows.decomposition import decompose_flows
from repro.flows.solver.incremental import SolverContext
from repro.flows.solver.stats import collect_solver_stats
from repro.flows.solver.tolerances import EPSILON
from repro.network.demand import DemandGraph
from repro.network.paths import (
    DEFAULT_LENGTH_CONSTANT,
    attach_dynamic_lengths,
    path_broken_elements,
    shortest_path_cover,
)
from repro.network.plan import RecoveryPlan
from repro.network.supply import SupplyGraph, canonical_edge
from repro.utils.timing import Timer

Node = Hashable
Pair = Tuple[Node, Node]


@dataclass
class ISPConfig:
    """Tunable parameters of the ISP algorithm.

    Attributes
    ----------
    length_const:
        Constant term of the dynamic path metric (Section IV-D).
    metric:
        ``"dynamic"`` for the paper's repair-cost/capacity path metric,
        ``"hop"`` for plain hop counts (ablation study).
    require_bubble:
        Restrict pruning to bubble paths (the paper's safe behaviour).  The
        ablation benches set this to ``False`` to measure the effect.
    split_amount_mode:
        How the split amount ``dx`` is computed:

        * ``"lp"`` — the exact LP of Decision 2 (paper behaviour);
        * ``"bottleneck"`` — a fast approximation using the capacity of the
          covering paths through the split node;
        * ``"auto"`` — LP on small graphs, bottleneck on graphs with more
          than ``lp_edge_threshold`` edges.
    lp_edge_threshold:
        Edge-count threshold for ``"auto"`` mode.
    max_iterations:
        Hard cap on main-loop iterations; ``None`` derives a generous bound
        from the instance size.  If the cap is hit, the remaining demand is
        handled by the shortest-path fallback so the algorithm always
        terminates with a plan.
    """

    length_const: float = DEFAULT_LENGTH_CONSTANT
    metric: str = "dynamic"
    require_bubble: bool = True
    split_amount_mode: Literal["lp", "bottleneck", "auto"] = "auto"
    lp_edge_threshold: int = 400
    max_iterations: Optional[int] = None


class _ISPState:
    """Mutable state of one ISP run (kept separate from the public plan)."""

    def __init__(self, supply: SupplyGraph, demand: DemandGraph, config: ISPConfig) -> None:
        self.supply = supply.copy()
        self.supply.reset_residuals()
        self.demand = demand.copy()
        self.config = config
        self.repaired_nodes: Set[Node] = set()
        self.repaired_edges: Set[Tuple[Node, Node]] = set()
        self.plan = RecoveryPlan(algorithm="ISP")
        self.splits = 0
        self.prunes = 0
        self.direct_repairs = 0
        self.fallback_used = False
        self.unsatisfiable_pairs: List[Pair] = []
        #: Warm-start store shared by the run's routability and split solves.
        self.solver_context = SolverContext()

    # ------------------------------------------------------------------ #
    def working_graph(self) -> nx.Graph:
        return self.supply.working_graph(
            extra_nodes=self.repaired_nodes,
            extra_edges=self.repaired_edges,
            use_residual=True,
        )

    def repair_node(self, node: Node) -> None:
        if self.supply.is_broken_node(node) and node not in self.repaired_nodes:
            self.repaired_nodes.add(node)
            self.plan.add_node_repair(node)

    def repair_edge(self, u: Node, v: Node) -> None:
        key = canonical_edge(u, v)
        if self.supply.is_broken_edge(u, v) and key not in self.repaired_edges:
            self.repaired_edges.add(key)
            self.plan.add_edge_repair(u, v)
        # Using an edge requires working endpoints (constraint 1(c)).
        self.repair_node(u)
        self.repair_node(v)

    def apply_prune(self, action: PruneAction) -> None:
        source, target = action.pair
        self.demand.reduce(source, target, action.amount)
        for path, flow in action.routes:
            self.plan.add_route(action.pair, path, flow)
            for i in range(len(path) - 1):
                self.supply.consume_capacity(path[i], path[i + 1], flow)
        self.prunes += 1


def iterative_split_prune(
    supply: SupplyGraph,
    demand: DemandGraph,
    config: Optional[ISPConfig] = None,
) -> RecoveryPlan:
    """Run ISP on ``supply`` / ``demand`` and return the recovery plan.

    The inputs are not modified; ISP operates on internal copies.

    Examples
    --------
    >>> from repro.topologies import grid_topology
    >>> from repro.failures import CompleteDestruction
    >>> from repro.network import DemandGraph
    >>> supply = grid_topology(3, 3, capacity=10.0)
    >>> CompleteDestruction().apply(supply)           # doctest: +ELLIPSIS
    FailureReport(...)
    >>> demand = DemandGraph()
    >>> demand.add((0, 0), (2, 2), 5.0)
    >>> plan = iterative_split_prune(supply, demand)
    >>> plan.total_repairs >= 7   # at least the 5 nodes and 4 edges of a path, minus nothing
    True
    """
    config = config or ISPConfig()
    state = _ISPState(supply, demand, config)

    with Timer() as timer, collect_solver_stats() as solver_stats:
        _initialise(state)
        iterations = _main_loop(state)
        _finalise_routing(state)

    plan = state.plan
    plan.iterations = iterations
    plan.elapsed_seconds = timer.elapsed
    plan.metadata.update(
        {
            "splits": state.splits,
            "prunes": state.prunes,
            "direct_edge_repairs": state.direct_repairs,
            "fallback_used": state.fallback_used,
            "unsatisfiable_pairs": list(state.unsatisfiable_pairs),
            "solver": solver_stats.as_dict(),
        }
    )
    return plan


# ---------------------------------------------------------------------- #
# Phases of the algorithm
# ---------------------------------------------------------------------- #
def _initialise(state: _ISPState) -> None:
    """Repair broken demand endpoints and drop structurally impossible pairs.

    Any feasible solution must repair a broken endpoint of a positive demand
    (flow has to enter/leave it), so listing them upfront loses nothing.
    Pairs whose endpoints are disconnected even in the full supply graph can
    never be satisfied and are removed so the LPs stay feasible.
    """
    full = state.supply.full_graph(use_residual=False)
    for pair in state.demand.pairs():
        if (
            pair.source not in full
            or pair.target not in full
            or not nx.has_path(full, pair.source, pair.target)
        ):
            state.unsatisfiable_pairs.append(pair.pair)
            state.demand.remove_pair(pair.source, pair.target)
            continue
        for endpoint in (pair.source, pair.target):
            state.repair_node(endpoint)


def _main_loop(state: _ISPState) -> int:
    config = state.config
    supply = state.supply
    if config.max_iterations is not None:
        max_iterations = config.max_iterations
    else:
        max_iterations = 20 * (supply.number_of_nodes + supply.number_of_edges) + 100

    iterations = 0
    while iterations < max_iterations:
        iterations += 1

        if state.demand.is_empty:
            return iterations
        working = state.working_graph()
        if routability_test(working, state.demand, context=state.solver_context).routable:
            return iterations

        if _prune_phase(state, working):
            continue
        if _direct_repair_phase(state):
            continue
        if _split_phase(state):
            continue

        # Nothing applicable: resolve the rest with the shortest-path fallback.
        _fallback(state)
        return iterations

    _fallback(state)
    return iterations


def _prune_phase(state: _ISPState, working: nx.Graph) -> bool:
    """Prune every demand that admits a bubble routing.  Returns True if any pruned."""
    pruned_any = False
    progress = True
    while progress:
        progress = False
        for pair in state.demand.pairs():
            action = find_prunable_routing(
                working,
                state.demand,
                pair.pair,
                require_bubble=state.config.require_bubble,
            )
            if action is None:
                continue
            state.apply_prune(action)
            pruned_any = True
            progress = True
            working = state.working_graph()
            break
    return pruned_any


def _direct_repair_phase(state: _ISPState) -> bool:
    """Repair broken edges that directly connect unsatisfiable demand pairs."""
    repaired_any = False
    # Built only for a pair that passes the broken-direct-edge checks, which
    # few do, and rebuilt after each repair.
    working: Optional[nx.Graph] = None
    for pair in state.demand.pairs():
        source, target = pair.source, pair.target
        if not state.supply.has_edge(source, target):
            continue
        if not state.supply.is_broken_edge(source, target):
            continue
        if canonical_edge(source, target) in state.repaired_edges:
            continue
        if working is None:
            working = state.working_graph()
        satisfiable = max_flow_value(working, source, target)
        if satisfiable + EPSILON >= pair.demand:
            continue
        state.repair_edge(source, target)
        state.direct_repairs += 1
        repaired_any = True
        working = None
    return repaired_any


def _split_phase(state: _ISPState) -> bool:
    """Perform one split action.  Returns True when a split was executed."""
    config = state.config
    centrality = demand_based_centrality(
        state.supply,
        state.demand,
        repaired_nodes=state.repaired_nodes,
        repaired_edges=state.repaired_edges,
        length_const=config.length_const,
        metric=config.metric,
    )
    full_graph = centrality.graph
    if full_graph is None:
        return False

    for candidate in centrality.ranked_nodes():
        if centrality.scores.get(candidate, 0.0) <= 0:
            break
        choice = select_demand_to_split(centrality, state.demand, candidate, full_graph)
        if choice is None:
            continue
        amount = _split_amount(state, full_graph, choice.pair, candidate, choice)
        if amount <= EPSILON:
            continue

        state.repair_node(candidate)
        source, target = choice.pair
        state.demand.split(source, target, candidate, amount)
        state.splits += 1
        return True
    return False


def _split_amount(
    state: _ISPState,
    full_graph: nx.Graph,
    pair: Pair,
    via: Node,
    choice,
) -> float:
    """Compute the split amount ``dx`` according to the configured mode."""
    config = state.config
    mode = config.split_amount_mode
    if mode == "auto":
        mode = "lp" if state.supply.number_of_edges <= config.lp_edge_threshold else "bottleneck"
    if mode == "lp":
        return maximum_splittable_amount(
            full_graph, state.demand, pair, via, context=state.solver_context
        )
    # Bottleneck approximation: what the covering paths through the node can
    # carry, capped by the pair's residual demand.
    source, target = pair
    requested = state.demand.demand(source, target)
    return min(requested, choice.routable_through_node)


def _fallback(state: _ISPState) -> None:
    """Shortest-path fallback guaranteeing termination.

    For every remaining demand, repair all broken elements on the shortest
    path cover (dynamic metric) of the full supply graph.  This mirrors the
    SRT baseline but is only reached when the split machinery can make no
    further progress (e.g. degenerate instances); the event is recorded in
    the plan metadata.
    """
    if state.demand.is_empty:
        return
    state.fallback_used = True
    full = state.supply.full_graph(use_residual=True)
    if state.config.metric == "dynamic":
        attach_dynamic_lengths(
            state.supply,
            full,
            repaired_nodes=state.repaired_nodes,
            repaired_edges=state.repaired_edges,
            const=state.config.length_const,
        )
    else:
        for u, v in full.edges:
            full.edges[u, v]["length"] = 1.0
    for pair in state.demand.pairs():
        cover = shortest_path_cover(full, pair.source, pair.target, pair.demand, weight="length")
        for path, _ in cover:
            nodes, edges = path_broken_elements(state.supply, path)
            for node in nodes:
                state.repair_node(node)
            for u, v in edges:
                state.repair_edge(u, v)


def _finalise_routing(state: _ISPState) -> None:
    """Route whatever demand is still pending on the final working graph.

    When the main loop terminates because the routability test succeeded,
    the remaining (non-pruned) demand still needs an explicit routing in the
    plan; we take it from the feasible LP solution of the final test.
    """
    if state.demand.is_empty:
        return
    working = state.working_graph()
    outcome = routability_test(
        working, state.demand, want_flows=True, context=state.solver_context
    )
    if not outcome.routable:
        return
    for commodity, arc_flows in zip(outcome.commodities, outcome.flows):
        for path, flow in decompose_flows(arc_flows, commodity.source, commodity.target):
            if flow > EPSILON:
                state.plan.add_route((commodity.source, commodity.target), path, flow)
