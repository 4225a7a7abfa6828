"""The benchmark's request sets, generated from the workload seed.

Every workload solves a *fixed* set of requests; the ``--seed`` argument
only decides the order in which they are submitted (and, on
``served-srt``, which earlier request each repeat re-submits).  That keeps
``repairs_total`` and ``satisfied_pct`` identical across seeds, so they
double as correctness checks, while the timing figures still come from a
different submission sequence on every seed.

Requests are plain JSON payloads in the wire shape of
``repro.api.requests.RecoveryRequest.to_dict``: this module imports nothing
from the program, and the program only ever sees the generated payloads.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Tuple

WORKLOADS = ("isp-bell", "baselines-bell", "served-srt")

BASELINE_ALGORITHMS = ("SRT", "GRD-COM", "GRD-NC", "OPT")

#: Instance seeds of the direct workloads' first pass.  A later pass (only
#: run when one pass finishes inside ``--seconds``) shifts them by
#: ``PASS_SEED_STRIDE`` per pass, so no pass replays a cached answer.
ISP_SEEDS = (1, 2)
BASELINE_SEEDS = (1, 2, 3)
PASS_SEED_STRIDE = 1000

#: served-srt: distinct requests per pass and how often a repeat is sent.
SERVED_DISTINCT = 113
SERVED_REPEAT_EVERY = 4

#: Label suffix of a served-srt submission that repeats an earlier one.
REPEAT_SUFFIX = "+repeat"

#: Warm-up requests use a seed no timed request uses.
WARMUP_SEED = 999


def _request(disruption, demand, algorithms, seed: int) -> Dict[str, Any]:
    return {
        "schema_version": 1,
        "kind": "recovery",
        "topology": {"name": "bell-canada", "kwargs": {}},
        "disruption": disruption,
        "demand": demand,
        "algorithms": list(algorithms),
        "algorithm_kwargs": {},
        "seed": int(seed),
        "solver": {"lp_backend": None, "opt_time_limit": None},
    }


def _demand(num_pairs: int, units: float) -> Dict[str, Any]:
    return {
        "builder": "routable-far-apart",
        "num_pairs": int(num_pairs),
        "flow_per_pair": float(units),
        "kwargs": {},
    }


COMPLETE = {"kind": "complete", "kwargs": {}}


def bell_families() -> List[Tuple[str, Dict[str, Any], Dict[str, Any]]]:
    """The paper's Bell Canada instance families as (label, disruption, demand).

    Figure 4: 1-7 pairs x 10 units, complete destruction.  Figure 5: 4 pairs
    x 2/6/14/18 units.  Figure 6: gaussian disruption, variance 10-160.
    """
    families = [(f"f4-p{pairs}", COMPLETE, _demand(pairs, 10.0)) for pairs in range(1, 8)]
    families += [(f"f5-u{units}", COMPLETE, _demand(4, units)) for units in (2, 6, 14, 18)]
    families += [
        (
            f"f6-v{variance}",
            {"kind": "gaussian", "kwargs": {"variance": float(variance)}},
            _demand(4, 10.0),
        )
        for variance in (10, 40, 80, 120, 160)
    ]
    return families


def _family_requests(algorithms, seeds, pass_index: int) -> List[Tuple[str, Dict[str, Any]]]:
    requests = []
    for seed in seeds:
        instance = seed + PASS_SEED_STRIDE * pass_index
        for label, disruption, demand in bell_families():
            requests.append(
                (f"{label}-s{instance}", _request(disruption, demand, algorithms, instance))
            )
    return requests


def distinct_requests(workload: str, pass_index: int = 0) -> List[Tuple[str, Dict[str, Any]]]:
    """The workload's distinct ``(label, payload)`` requests of one pass."""
    if workload == "isp-bell":
        return _family_requests(("ISP",), ISP_SEEDS, pass_index)
    if workload == "baselines-bell":
        return _family_requests(BASELINE_ALGORITHMS, BASELINE_SEEDS, pass_index)
    if workload == "served-srt":
        first = 1 + SERVED_DISTINCT * pass_index
        return [
            (f"srt-s{seed}", _request(COMPLETE, _demand(4, 10.0), ("SRT",), seed))
            for seed in range(first, first + SERVED_DISTINCT)
        ]
    raise ValueError(f"unknown workload {workload!r}")


def submissions(workload: str, seed: int, pass_index: int = 0) -> List[Tuple[str, Dict[str, Any]]]:
    """One pass in submission order: a seeded shuffle of the distinct set.

    On ``served-srt`` every ``SERVED_REPEAT_EVERY``-th submission repeats
    a seeded choice among the requests already sent, so dedup fast-path
    reads run beside fresh writes.
    """
    rng = random.Random(f"{workload}/{seed}/{pass_index}")
    distinct = distinct_requests(workload, pass_index)
    rng.shuffle(distinct)
    if workload != "served-srt":
        return distinct
    order: List[Tuple[str, Dict[str, Any]]] = []
    for item in distinct:
        if len(order) % SERVED_REPEAT_EVERY == SERVED_REPEAT_EVERY - 1:
            sent = [entry for entry in order if not entry[0].endswith(REPEAT_SUFFIX)]
            label, payload = rng.choice(sent)
            order.append((label + REPEAT_SUFFIX, payload))
        order.append(item)
    return order


def warmup_request(workload: str) -> Dict[str, Any]:
    """The untimed request that ends set-up (same algorithms, unused seed)."""
    algorithms = {
        "isp-bell": ("ISP",),
        "baselines-bell": BASELINE_ALGORITHMS,
        "served-srt": ("SRT",),
    }[workload]
    return _request(COMPLETE, _demand(2, 10.0), algorithms, WARMUP_SEED)
