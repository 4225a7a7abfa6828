"""The traced run's span recorder, kept outside the program.

:class:`SpanRecorder` wraps each layer's public functions at the module
binding its callers actually use (``repro.core.isp.routability_test``, not
``repro.flows.routability.routability_test``), so the program runs
unmodified and no span is added inside ``src/``.  Spans are
``(name, start, end, parent)`` tuples held in memory — a single 7-pair ISP
solve makes well over a thousand prune calls, beyond the per-trace cap of
``repro.obs.trace`` — and written out once, when the run ends.

A span's self time is its duration minus the time its direct child spans
cover; the remainder of the timed phase that no span covers is reported
as unattributed.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

#: (layer, module, attribute) bindings wrapped in-process.
FUNCTION_BINDINGS = (
    ("core.centrality", "repro.core.isp", "demand_based_centrality"),
    ("core.prune", "repro.core.isp", "find_prunable_routing"),
    ("core.split", "repro.core.isp", "select_demand_to_split"),
    ("flows.splitting_lp", "repro.core.isp", "maximum_splittable_amount"),
    ("flows.maxflow", "repro.core.isp", "max_flow_value"),
    ("flows.maxflow", "repro.core.split", "max_flow_value"),
    ("flows.maxflow", "repro.heuristics.srt", "max_flow_over_path_set"),
    ("flows.routability", "repro.core.isp", "routability_test"),
    ("flows.routability", "repro.heuristics.greedy", "routability_test"),
    ("flows.routability", "repro.flows.milp", "routability_test"),
    ("flows.routability", "repro.flows.decomposition", "routability_test"),
    ("flows.milp", "repro.heuristics.optimal", "solve_minimum_recovery"),
    ("evaluation.metrics", "repro.api.service", "evaluate_plan"),
    ("api.service.build_instance", "repro.api.service", "RecoveryService.build_instance"),
)

#: (layer, algorithm) registry entries wrapped through the public
#: ``register_algorithm(..., overwrite=True)``: the service resolves
#: algorithms by name, so the registry is the binding its callers use.
ALGORITHM_BINDINGS = (
    ("core.isp", "ISP"),
    ("heuristics.srt", "SRT"),
    ("heuristics.greedy", "GRD-COM"),
    ("heuristics.greedy", "GRD-NC"),
    ("heuristics.opt", "OPT"),
)

Span = Tuple[str, float, float, int]


class SpanRecorder:
    """In-memory spans of one traced run; see the module docstring."""

    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self.hits: Dict[str, int] = defaultdict(int)
        self._stack: List[int] = []
        self._undo: List[Callable[[], None]] = []

    def wrap(self, name: str, function: Callable) -> Callable:
        spans, stack, hits = self.spans, self._stack, self.hits
        # a prune attempt is useful when it finds a prunable routing
        count_hits = name == "core.prune"

        @functools.wraps(function)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if count_hits and result is not None:
                hits[name] += 1
            return result

        return traced

    def install(self) -> None:
        """Wrap every binding; :meth:`uninstall` restores the originals."""
        from repro.heuristics.registry import get_algorithm, register_algorithm

        for layer, module_name, attribute in FUNCTION_BINDINGS:
            owner = importlib.import_module(module_name)
            *path, leaf = attribute.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            setattr(owner, leaf, self.wrap(layer, original))
            self._undo.append(functools.partial(setattr, owner, leaf, original))
        for layer, algorithm in ALGORITHM_BINDINGS:
            original = get_algorithm(algorithm).solver
            register_algorithm(algorithm, self.wrap(layer, original), overwrite=True)
            self._undo.append(
                functools.partial(register_algorithm, algorithm, original, overwrite=True)
            )

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def layer_totals(self) -> Dict[str, Dict[str, float]]:
        """Per layer: ``calls`` and ``self_s`` over all spans."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: Dict[str, Dict[str, float]] = defaultdict(lambda: {"calls": 0.0, "self_s": 0.0})
        for index, (name, start, end, parent) in enumerate(self.spans):
            totals[name]["calls"] += 1
            totals[name]["self_s"] += (end - start) - covered[index]
        return dict(totals)

    def write(self, path: Path, origin: float) -> None:
        """Write the spans as JSON lines, times relative to ``origin``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for name, start, end, parent in self.spans:
                handle.write(
                    json.dumps([name, round(start - origin, 9), round(end - origin, 9), parent])
                    + "\n"
                )
