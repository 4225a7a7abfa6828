"""Server overhead: end-to-end served solves/sec vs the direct batch path.

The same request set is solved twice:

* **direct** — :meth:`RecoveryService.solve_batch` with a 2-process pool,
  the fastest in-process path a library client has;
* **served** — submitted over HTTP to a live ``repro.cli serve`` daemon
  with 2 workers, waiting until every job is ``done``.

The gap between the two is the cost of the service layer (HTTP framing,
durable store writes, claim dispatch); the printed table and the results
artefact record it so regressions in the serving hot path show up as a
growing overhead percentage.

The served clock starts once ``/healthz`` reports the full fleet *ready*
(workers have finished their solver warm-up and are claiming), mirroring
the direct path where ``solve_batch`` is timed after the library is
imported: both sides measure steady-state throughput, not interpreter
start-up.

``test_tracing_overhead_budget`` measures a second, orthogonal cost: the
per-job tracing added by ``repro.obs`` (a ``trace_context`` per request
plus the solver substrate's ``record_timed`` hooks).  It solves every
warm request twice back to back, once with and once without an active
trace, and holds the median traced/untraced ratio of those pairs under
the **2% budget** — tracing is supposed to be invisible.  Pairing each
request with itself a few milliseconds apart cancels the machine's
speed drift, which whole back-to-back passes do not: on a shared host
two passes of the same untraced code can differ by 20%.  Solves are
timed in process CPU seconds, because tracing adds work, not waiting,
and time spent descheduled behind other tenants is neither side's cost.

Set ``$REPRO_BENCH_RECORD`` to a ``BENCH_server.json`` path to merge an
``overhead_benchmark`` (and ``tracing_benchmark``) section into that
artefact — CI uses this to feed the tracked trajectory checked by
``scripts/benchmark_regression_check.py``.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path

from bench_utils import print_figure

from repro.api.service import RecoveryService
from repro.obs.trace import trace_context
from repro.scenarios import ScenarioGenerator
from repro.server.client import ServiceClient
from repro.server.loadtest import TINY_SPACE
from repro.utils.jsonio import write_json

#: Solved requests per measured path (small: the point is the overhead
#: ratio, not load — the loadtest harness covers sustained traffic).
NUM_REQUESTS = int(os.environ.get("REPRO_BENCH_SERVER_REQUESTS", "8"))

REPO_SRC = str(Path(__file__).resolve().parents[1] / "src")


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _sample_requests():
    return ScenarioGenerator(space=TINY_SPACE, seed=42).requests(NUM_REQUESTS)


def _measure_direct(requests) -> float:
    service = RecoveryService()
    started = time.perf_counter()
    envelopes = service.solve_batch(requests, jobs=2)
    elapsed = time.perf_counter() - started
    assert len(envelopes) == len(requests)
    return elapsed


def _measure_served(requests, tmp_path: Path) -> float:
    port = _free_port()
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    daemon = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "serve",
            "--db",
            str(tmp_path / "bench.db"),
            "--port",
            str(port),
            "--workers",
            "2",
            "--poll-interval",
            "0.05",
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    client = ServiceClient(f"http://127.0.0.1:{port}", timeout=10.0)
    try:
        # wait for the *fleet*, not just the socket: workers_ready counts
        # workers that finished importing the solver stack and wrote their
        # first counter snapshot, so the measurement below starts warm on
        # both paths
        deadline = time.monotonic() + 120
        while True:
            try:
                health = client.healthz()
                if health.get("workers_ready", 0) >= 2:
                    break
            except OSError:
                pass
            if time.monotonic() > deadline or daemon.poll() is not None:
                raise RuntimeError("bench daemon failed to become ready") from None
            time.sleep(0.1)
        started = time.perf_counter()
        client.batch(requests)
        for request in requests:
            view = client.wait(request.digest(), timeout=120, poll_interval=0.02)
            assert view["state"] == "done", view.get("error")
        return time.perf_counter() - started
    finally:
        daemon.send_signal(signal.SIGTERM)
        try:
            daemon.wait(timeout=30)
        except subprocess.TimeoutExpired:
            daemon.kill()
            daemon.wait(timeout=5)


def _record_trajectory(rows) -> None:
    """Merge the overhead section into $REPRO_BENCH_RECORD (if set)."""
    target = os.environ.get("REPRO_BENCH_RECORD")
    if not target:
        return
    payload = {}
    path = Path(target)
    if path.exists():
        payload = json.loads(path.read_text())
    payload["overhead_benchmark"] = {
        "requests": NUM_REQUESTS,
        "paths": {row["path"]: dict(row) for row in rows},
        "served_solves_per_sec": rows[1]["solves_per_sec"],
        "direct_solves_per_sec": rows[0]["solves_per_sec"],
        "overhead_pct": rows[1]["overhead_pct"],
    }
    write_json(payload, path)


#: Tracing may slow the solve path by at most this much (percent).
TRACING_BUDGET_PCT = 2.0

#: Rounds of the tracing comparison.  Each round solves every request
#: twice, traced and untraced, in an order that alternates between
#: requests and rounds so neither side always runs second.
TRACING_ROUNDS = int(os.environ.get("REPRO_BENCH_TRACING_ROUNDS", "30"))


def _timed_solve(service, request, traced: bool) -> float:
    """CPU seconds of one solve, inside its own trace when ``traced``."""
    started = time.process_time()
    if traced:
        # one trace per request, exactly like the worker loop
        with trace_context():
            service.solve(request)
    else:
        service.solve(request)
    return time.process_time() - started


def _record_tracing(untraced: float, traced: float, overhead_pct: float) -> None:
    """Merge the tracing section into $REPRO_BENCH_RECORD (if set)."""
    target = os.environ.get("REPRO_BENCH_RECORD")
    if not target:
        return
    payload = {}
    path = Path(target)
    if path.exists():
        payload = json.loads(path.read_text())
    payload["tracing_benchmark"] = {
        "requests": NUM_REQUESTS,
        "rounds": TRACING_ROUNDS,
        "untraced_seconds": round(untraced, 4),
        "traced_seconds": round(traced, 4),
        "overhead_pct": round(overhead_pct, 2),
        "budget_pct": TRACING_BUDGET_PCT,
    }
    write_json(payload, path)


def test_tracing_overhead_budget():
    requests = _sample_requests()
    service = RecoveryService()
    # warm both sides: imports, topology cache, solver structures
    for request in requests:
        _timed_solve(service, request, traced=False)
        _timed_solve(service, request, traced=True)
    # the two solves of a pair run milliseconds apart, so drift (thermal,
    # cache, background load) hits both alike; the median over all pairs
    # ignores the pairs a burst of noise landed in
    ratios = []
    pass_seconds = {False: [], True: []}
    for round_index in range(TRACING_ROUNDS):
        round_seconds = {False: 0.0, True: 0.0}
        for index, request in enumerate(requests):
            order = (True, False) if (round_index + index) % 2 else (False, True)
            seconds = {side: _timed_solve(service, request, side) for side in order}
            ratios.append(seconds[True] / seconds[False])
            for side in order:
                round_seconds[side] += seconds[side]
        for side, total in round_seconds.items():
            pass_seconds[side].append(total)
    overhead_pct = 100.0 * (statistics.median(ratios) - 1.0)
    # a median round of the request set per side, for the table
    untraced = statistics.median(pass_seconds[False])
    traced = statistics.median(pass_seconds[True])

    print_figure(
        f"Tracing overhead — traced vs untraced in-process solves "
        f"({len(requests)} ISP requests, {TRACING_ROUNDS} paired rounds)",
        [
            {
                "path": "untraced",
                "seconds": round(untraced, 4),
                "solves_per_sec": round(len(requests) / untraced, 2),
            },
            {
                "path": "traced",
                "seconds": round(traced, 4),
                "solves_per_sec": round(len(requests) / traced, 2),
                "overhead_pct": round(overhead_pct, 2),
            },
        ],
        columns=["path", "seconds", "solves_per_sec", "overhead_pct"],
    )
    _record_tracing(untraced, traced, overhead_pct)
    assert overhead_pct < TRACING_BUDGET_PCT, (
        f"tracing added {overhead_pct:.2f}% to the solve path "
        f"(budget {TRACING_BUDGET_PCT:.1f}%)"
    )


def test_served_throughput_vs_direct_batch(tmp_path):
    requests = _sample_requests()
    direct_seconds = _measure_direct(requests)
    served_seconds = _measure_served(requests, tmp_path)

    rows = []
    for path, seconds in (("direct", direct_seconds), ("served", served_seconds)):
        rows.append(
            {
                "path": path,
                "requests": len(requests),
                "seconds": round(seconds, 3),
                "solves_per_sec": round(len(requests) / seconds, 3),
                "overhead_pct": round(100.0 * (seconds / direct_seconds - 1.0), 1),
            }
        )
    print_figure(
        "Server overhead — served solves vs direct solve_batch "
        f"({len(requests)} ISP requests, 2 workers)",
        rows,
        columns=["path", "requests", "seconds", "solves_per_sec", "overhead_pct"],
    )
    _record_trajectory(rows)

    assert direct_seconds > 0 and served_seconds > 0
    # The serve path is warm (keep-alive client, event-driven dispatch,
    # batched claims, shared topology cache), so served throughput must
    # stay within 2x of direct — i.e. <=100% overhead — plus a small
    # constant for store writes on a tiny batch.  The PR 5 baseline was
    # ~560%; a return above 100% means the serving hot path regressed.
    assert served_seconds < direct_seconds * 2.0 + 1.0
