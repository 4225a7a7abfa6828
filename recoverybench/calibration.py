"""Machine-speed calibration for the benchmark's timing metrics.

The benchmark runs in a small shared sandbox whose CPU speed drifts with
its neighbours' load: a fixed pure-Python loop timed in back-to-back blocks
reads up to 60 % slower in phases that last tens of seconds, so a run's raw
throughput moves by about 15 % between runs of identical code whatever the
run length.  To measure the program rather than the neighbours, a fixed
kernel that uses the same machinery as the program (Python interpretation,
a HiGHS LP through SciPy, a networkx max-flow), and nothing of the program
itself, is timed between requests.  Its mean over a phase, divided by
:data:`REFERENCE_S`, is the phase's *slowdown*; timing metrics are reported
at reference speed (raw time divided by the slowdown), and the raw figures
are printed beside them.
"""

from __future__ import annotations

import statistics
import time
from typing import List

#: Kernel seconds on a quiet 2-vCPU sandbox (2.0 GHz); only scales results.
REFERENCE_S = 0.0125

#: Minimum seconds between two kernel samples in a timed phase.
INTERVAL_S = 0.2


class Calibrator:
    """The fixed kernel, its inputs built once; :meth:`time_kernel` times it."""

    def __init__(self) -> None:
        import networkx as nx
        import numpy as np
        from scipy.optimize import linprog

        rng = np.random.default_rng(0)
        matrix = rng.random((40, 80))
        self._lp = (-rng.random(80), matrix, matrix.sum(axis=1))
        self._linprog = linprog
        self._graph = nx.gnm_random_graph(60, 180, seed=1)
        for u, v in self._graph.edges:
            self._graph.edges[u, v]["capacity"] = float((7 * u + 3 * v) % 11 + 1)
        self._max_flow = nx.maximum_flow_value
        self.time_kernel()  # the first call pays one-off costs

    def time_kernel(self) -> float:
        """Run the kernel once; returns its seconds."""
        started = time.perf_counter()
        total, table = 0, {}
        for index in range(40000):
            total += index * index
            table[index % 97] = total
        cost, matrix, rhs = self._lp
        self._linprog(cost, A_ub=matrix, b_ub=rhs, bounds=(0, 1), method="highs")
        self._max_flow(self._graph, 0, 59)
        return time.perf_counter() - started


def slowdown(samples: List[float]) -> float:
    """Mean kernel time over the reference kernel time (> 1: a slow phase)."""
    return statistics.fmean(samples) / REFERENCE_S
