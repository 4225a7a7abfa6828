"""ISP plans must not depend on the interpreter's string-hash seed.

Bell Canada's node names are strings, so any set iteration that leaks into
ISP's decisions makes the routes differ between ``PYTHONHASHSEED`` values.
Each seed runs in its own interpreter (the seed is fixed at start-up), and
the full route lists, with every flow as ``float.hex``, must be identical.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

#: (disruption kind, disruption kwargs, pairs, units, instance seed).  The
#: gaussian instance routed 13 or 14 prune routes depending on the hash seed
#: while prune viewed its bubble through ``Graph.subgraph``.
INSTANCES = [
    ("gaussian", {"variance": 10.0}, 4, 10.0, 1),
    ("complete", {}, 3, 10.0, 1),
    ("complete", {}, 4, 6.0, 2),
]

SCRIPT = """
import json, sys
from repro import RecoveryService, RecoveryRequest, TopologySpec
from repro.api.requests import DemandSpec, DisruptionSpec
from repro.heuristics.registry import get_algorithm

service = RecoveryService()
out = []
for kind, kwargs, pairs, units, seed in json.loads(sys.argv[1]):
    request = RecoveryRequest(
        topology=TopologySpec("bell-canada"),
        disruption=DisruptionSpec(kind, tuple(sorted(kwargs.items()))),
        demand=DemandSpec(num_pairs=pairs, flow_per_pair=units),
        seed=seed,
    )
    supply, demand, _ = service.build_instance(request)
    plan = get_algorithm("ISP").solve(supply, demand)
    out.append({
        "repairs": sorted(map(repr, plan.repaired_nodes | plan.repaired_edges)),
        "routes": [
            [repr(route.pair), repr(route.path), float(route.flow).hex()]
            for route in plan.routes
        ],
    })
print(json.dumps(out))
"""


def _plans_under(hash_seed: str):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps(INSTANCES)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def test_isp_routes_identical_across_hash_seeds():
    reference = _plans_under("0")
    assert len(reference) == len(INSTANCES)
    assert all(plan["routes"] for plan in reference)
    assert _plans_under("4") == reference
