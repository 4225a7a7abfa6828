"""Recovery benchmark: end-to-end and per-layer metrics on three workloads.

Run from the repository root::

    python3 recoverybench/run.py --workload isp-bell --seed 1 --seconds 12 --trace 0

``--workload all`` runs ``isp-bell``, ``baselines-bell`` and ``served-srt``
in turn.  Each workload is a closed loop (one client, one request in
flight).  The run starts ``SETUP_REPEATS`` fresh processes, times each
one's set-up (imports, service or daemon boot with a ready worker, one
untimed warm-up request) and lets the last one run the timed phase.
``--trace 1`` adds a traced measurement (see ``tracer.py``) and reports the
per-layer metrics instead of the end-to-end ones.

Outputs are checked outside the timed phase: every request's
``total_repairs`` and ``satisfied_pct`` against ``expected.json``, and every
served envelope, scrubbed of wall-clock and cache-warmth fields, against
the in-process envelope of the same request.  Any mismatch counts as a
failed request and makes the command exit 1.  The last stdout line is the
JSON result; the tables above it are for people.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from calibration import slowdown
from workloads import REPEAT_SUFFIX, WORKLOADS, submissions, warmup_request

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
TRACES = HERE / "_traces"
EXPECTED = HERE / "expected.json"

#: Fresh processes per run whose set-up is timed; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Passes generated per run.  Pass 0 always runs; a further pass only starts
#: while the timed phase is shorter than ``--seconds``.
MAX_PASSES = 6

#: Tail samples: the tail percentile is the highest with this many beyond it.
TAIL_BEYOND = 10


@functools.lru_cache(maxsize=None)
def metric_spec(kind: str) -> Tuple[Tuple[str, str], ...]:
    """``(name, unit)`` of the ``end_to_end`` or ``per_layer`` metrics that
    ``BENCHMARK.json`` declares — the one list both this script and the
    benchmark contract read."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return tuple((metric["name"], metric["unit"]) for metric in spec[kind])


class BenchmarkError(RuntimeError):
    """A benchmark process failed before producing a result."""


# ---------------------------------------------------------------------- #
# Processes
# ---------------------------------------------------------------------- #
def _spawn(workload: str, job: Path, seconds: float, work_dir: Path, spans: Optional[Path]):
    """Start one benchmark process; return it, its set-up seconds and the
    set-up's calibration samples."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    work_dir.mkdir(parents=True, exist_ok=True)
    command = [
        sys.executable,
        str(HERE / "child.py"),
        "--workload", workload,
        "--job", str(job),
        "--seconds", repr(seconds),
        "--work-dir", str(work_dir),
    ]
    if spans is not None:
        command += ["--spans", str(spans)]
    started = time.monotonic()
    child = subprocess.Popen(
        command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT
    )
    line = child.stdout.readline()
    setup = time.monotonic() - started
    if not line.startswith("READY "):
        child.kill()
        child.wait()
        raise BenchmarkError(f"{workload}: benchmark process failed during set-up")
    calibration = json.loads(line[len("READY "):])
    return child, setup - calibration["calibration_s"], calibration["kernel_samples"]


def _finish(child, go: bool) -> Optional[Dict[str, Any]]:
    """Tell a set-up process to run the timed phase (or to stop)."""
    output, _ = child.communicate("go\n" if go else "quit\n")
    if child.returncode != 0:
        raise BenchmarkError(f"benchmark process exited with {child.returncode}")
    if not go:
        return None
    lines = output.strip().splitlines()
    if not lines:
        raise BenchmarkError("benchmark process returned no result")
    return json.loads(lines[-1])


def collect(workload: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    """Run the processes of one workload and return what they observed."""
    run_dir = WORK / f"{workload}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    job = run_dir / "job.json"
    job.write_text(
        json.dumps(
            {
                "warmup": warmup_request(workload),
                "passes": [submissions(workload, seed, index) for index in range(MAX_PASSES)],
            }
        )
    )
    spans = TRACES / f"{workload}.spans.jsonl" if trace else None
    served = workload == "served-srt"
    setups: List[float] = []
    setup_samples: List[List[float]] = []
    try:
        for index in range(SETUP_REPEATS):
            last = index == SETUP_REPEATS - 1
            child, setup, samples = _spawn(
                workload, job, seconds, run_dir / str(index), spans if served and last else None
            )
            setups.append(setup)
            setup_samples.append(samples)
            result = _finish(child, go=last)
        traced = None
        if trace and not served:
            child, _, _ = _spawn(workload, job, seconds, run_dir / "traced", spans)
            traced = _finish(child, go=True)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        if WORK.exists() and not any(WORK.iterdir()):
            WORK.rmdir()
    return {
        "setups": setups,
        "setup_samples": setup_samples,
        "result": result,
        "traced": traced,
    }


# ---------------------------------------------------------------------- #
# Correctness
# ---------------------------------------------------------------------- #
def _base_label(label: str) -> str:
    return label[: -len(REPEAT_SUFFIX)] if label.endswith(REPEAT_SUFFIX) else label


def _outcome(envelope: Dict[str, Any]) -> List[List[Any]]:
    """Per run: algorithm, total repairs, satisfied percentage (6 decimals)."""
    return [
        [
            run["algorithm"],
            run["metrics"]["total_repairs"],
            round(run["metrics"]["satisfied_pct"], 6),
        ]
        for run in envelope["results"]
    ]


def scrubbed(envelope: Dict[str, Any]) -> str:
    """Canonical JSON of an envelope without wall-clock and cache-warmth fields."""
    payload = json.loads(json.dumps(envelope))
    payload.pop("wall_seconds", None)
    for run in payload.get("results", []):
        run.pop("solver", None)
        run.pop("cached", None)
        run.get("metrics", {}).pop("elapsed_seconds", None)
    return json.dumps(payload, sort_keys=True)


def check(workload: str, collected: Dict[str, Any]) -> List[str]:
    """One line per failed request (errors and every kind of mismatch)."""
    expected = json.loads(EXPECTED.read_text())[workload]
    result = collected["result"]
    replay: Dict[str, str] = {}
    if workload == "served-srt":
        replayed = result["replays"]["untraced"]["records"]
        replay = {
            record["label"]: scrubbed(record["envelope"])
            for record in replayed
            if record["envelope"] is not None
        }
    failures = []
    for record in result["records"]:
        label = _base_label(record["label"])
        envelope = record["envelope"]
        if record["error"] is not None or envelope is None:
            failures.append(f"{record['label']}: {record['error']}")
        elif record["pass"] == 0 and _outcome(envelope) != expected.get(label):
            failures.append(
                f"{record['label']}: got {_outcome(envelope)}, expected {expected.get(label)}"
            )
        elif workload == "served-srt" and scrubbed(envelope) != replay.get(label):
            failures.append(f"{record['label']}: served envelope differs from the direct one")
    return failures


# ---------------------------------------------------------------------- #
# Metrics
# ---------------------------------------------------------------------- #
def tail(values: List[float]) -> Tuple[float, float, int]:
    """(value, percentile, samples beyond) of the highest percentile that
    still has ``TAIL_BEYOND`` samples beyond it (the maximum when fewer)."""
    ordered = sorted(values)
    index = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[index], 100.0 * (index + 1) / len(ordered), len(ordered) - index - 1


def at_reference(phase: Dict[str, Any]) -> Tuple[List[float], float]:
    """Each record's latency at reference speed, and the phase's slowdown.

    A latency is divided by the slowdown around it: the mean of the kernel
    samples just before and just after it.  The phase's slowdown weighs
    those by latency, so throughput scales exactly as the latencies do.
    """
    samples = phase["kernel_samples"]
    latencies, scaled = [], []
    for record in phase["records"]:
        index = record["kernel_before"]
        latencies.append(record["latency_s"])
        scaled.append(record["latency_s"] / slowdown(samples[index : index + 2]))
    return scaled, sum(latencies) / sum(scaled)


def _throughput(phase: Dict[str, Any]) -> float:
    """Requests per second of a phase, at reference machine speed."""
    return len(phase["records"]) / phase["elapsed_s"] * at_reference(phase)[1]


def end_to_end(collected: Dict[str, Any], failures: List[str]) -> Dict[str, Any]:
    result = collected["result"]
    records = result["records"]
    scaled, factor = at_reference(result)
    passes = 1 + max(record["pass"] for record in records)

    def latency_stats(latencies: List[float]):
        tails = [
            tail([value for value, record in zip(latencies, records) if record["pass"] == index])
            for index in range(passes)
        ]
        return statistics.median(latencies), statistics.median(t[0] for t in tails), tails

    p50, tail_value, tails = latency_stats(scaled)
    raw_p50, raw_tail, _ = latency_stats([record["latency_s"] for record in records])
    first_pass = {}
    for record in records:
        if record["pass"] == 0 and record["envelope"] is not None:
            first_pass.setdefault(_base_label(record["label"]), record["envelope"])
    runs = [run for envelope in first_pass.values() for run in envelope["results"]]
    attempted = len(records)
    raw_throughput = (attempted - len(failures)) / result["elapsed_s"]
    return {
        "values": {
            "setup_s": statistics.median(
                setup / slowdown(samples)
                for setup, samples in zip(collected["setups"], collected["setup_samples"])
            ),
            "throughput_per_s": raw_throughput * factor,
            "latency_p50_s": p50,
            "latency_tail_s": tail_value,
            "peak_rss_mb": result["peak_rss_mb"],
            "repairs_total": sum(run["metrics"]["total_repairs"] for run in runs),
            "satisfied_pct": (
                statistics.fmean(run["metrics"]["satisfied_pct"] for run in runs) if runs else 0.0
            ),
            "succeeded_pct": 100.0 * (attempted - len(failures)) / attempted,
        },
        "raw": {
            "setup_s": statistics.median(collected["setups"]),
            "throughput_per_s": raw_throughput,
            "latency_p50_s": raw_p50,
            "latency_tail_s": raw_tail,
        },
        "slowdown": factor,
        "tails": tails,
        "attempted": attempted,
        "passes": passes,
    }


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _span_durations(nodes, name: str) -> List[float]:
    found = []
    for node in nodes:
        if node["name"] == name:
            found.append(node["wall_seconds"])
        found += _span_durations(node.get("children", []), name)
    return found


def solver_layer(envelopes: List[Dict[str, Any]]) -> Dict[str, float]:
    """``flows.solver.*`` and ``flows.decomposition.proved_by.*`` from envelopes.

    Solver effort is read from each run's ``solver`` stats.  How an OPT run
    was proved is read from its plan payload and stats: a monolithic
    strategy, or a decomposed one that fell through to a MILP, counts as
    ``monolithic``; Benders rounds without a MILP as ``benders``; the rest
    (bound certificate, zero-cost optimum) as ``certificate``.
    """
    sums: Dict[str, float] = defaultdict(float)
    proved = {"certificate": 0.0, "benders": 0.0, "monolithic": 0.0}
    for envelope in envelopes:
        for run in envelope["results"]:
            solver = run.get("solver", {})
            for key, value in solver.items():
                sums[key] += float(value)
            if run["algorithm"] != "OPT":
                continue
            if run["plan"].get("strategy") == "monolithic" or solver.get("milp_solves", 0) > 0:
                proved["monolithic"] += 1
            elif solver.get("benders_iterations", 0) > 0:
                proved["benders"] += 1
            else:
                proved["certificate"] += 1
    lookups = sums["structure_hits"] + sums["structure_misses"]
    offers = sums["warm_start_attempts"]
    metrics = {
        "flows.solver.lp_solves": sums["lp_solves"],
        "flows.solver.build_s": sums["build_seconds"],
        "flows.solver.solve_s": sums["solve_seconds"],
        "flows.solver.structure_hit_ratio": sums["structure_hits"] / lookups if lookups else 0.0,
        "flows.solver.warm_start_ratio": sums["warm_start_hits"] / offers if offers else 0.0,
    }
    for way, count in proved.items():
        metrics[f"flows.decomposition.proved_by.{way}"] = count
    return metrics


def _counter(metrics_text: str, name: str) -> float:
    total = 0.0
    for line in metrics_text.splitlines():
        if line.startswith(name + " ") or line.startswith(name + "{"):
            total += float(line.rsplit(" ", 1)[1])
    return total


def server_layer(result: Dict[str, Any]) -> Dict[str, float]:
    """``server.*`` from outside the daemon: client timings, job views,
    ``/v1/trace`` spans and one ``/metrics`` scrape."""
    fresh = [r for r in result["records"] if not r["deduplicated"] and r["envelope"]]
    repeats = [r for r in result["records"] if r["deduplicated"]]
    executions = [r["first_finished_at"] - r["started_at"] for r in fresh]
    worker_spans = [
        doc["sources"].get("worker", {}).get("spans", []) for doc in result["job_traces"]
    ]
    text = result["metrics_text"]
    claims = _counter(text, "repro_claim_batches_total")
    lookups = _counter(text, "repro_topology_cache_hits_total") + _counter(
        text, "repro_topology_cache_misses_total"
    )
    return {
        "server.http.submit_s": _median(r["submit_s"] for r in fresh),
        "server.http.poll_s": _median(poll for r in fresh for poll in r["polls"]),
        "server.http.polls_per_job": statistics.fmean(len(r["polls"]) for r in fresh),
        "server.http.dedup_hit_s": _median(r["submit_s"] for r in repeats),
        "server.stores.queue_wait_s": _median(r["started_at"] - r["created_at"] for r in fresh),
        "server.stores.serialize_s": _median(
            d for spans in worker_spans for d in _span_durations(spans, "store.serialize")
        ),
        "server.workers.claim_s": _median(
            d for spans in worker_spans for d in _span_durations(spans, "worker.claim")
        ),
        "server.workers.exec_s": _median(executions),
        "server.workers.jobs_per_claim": (
            _counter(text, "repro_claim_batch_jobs_total") / claims if claims else 0.0
        ),
        "server.overhead_s": _median(
            r["latency_s"] - execution for r, execution in zip(fresh, executions)
        ),
        "api.service.topology_hit_ratio": (
            _counter(text, "repro_topology_cache_hits_total") / lookups if lookups else 0.0
        ),
    }


def per_layer(workload: str, collected: Dict[str, Any]) -> Dict[str, float]:
    """Every per-layer metric; layers a workload does not reach read 0."""
    if workload == "served-srt":
        untraced = collected["result"]["replays"]["untraced"]
        traced = collected["result"]["replays"]["traced"]
        envelopes = [r["envelope"] for r in collected["result"]["records"] if r["envelope"]]
    else:
        untraced = collected["result"]
        traced = collected["traced"]
        envelopes = [r["envelope"] for r in traced["records"] if r["envelope"]]
    layers = traced["layers"]
    values = {name: 0.0 for name, _ in metric_spec("per_layer")}
    for layer, totals in layers.items():
        if f"{layer}.calls" in values:
            values[f"{layer}.calls"] = totals["calls"]
        if f"{layer}.self_s" in values:
            values[f"{layer}.self_s"] = totals["self_s"]
    prune_calls = layers.get("core.prune", {}).get("calls", 0)
    if prune_calls:
        values["core.prune.hit_ratio"] = traced["hits"].get("core.prune", 0) / prune_calls
    lookups = traced["topology_hits"] + traced["topology_misses"]
    if lookups:
        values["api.service.topology_hit_ratio"] = traced["topology_hits"] / lookups
    values.update(solver_layer(envelopes))
    if workload == "served-srt":
        values.update(server_layer(collected["result"]))
    values["bench.traced_s"] = traced["elapsed_s"]
    values["bench.machine_slowdown"] = at_reference(traced)[1]
    values["bench.unattributed_s"] = traced["elapsed_s"] - sum(
        totals["self_s"] for totals in layers.values()
    )
    values["bench.tracing_overhead_pct"] = 100.0 * (
        1.0 - _throughput(traced) / _throughput(untraced)
    )
    undeclared = set(values) - {name for name, _ in metric_spec("per_layer")}
    if undeclared:
        raise BenchmarkError(f"metrics missing from BENCHMARK.json: {sorted(undeclared)}")
    return values


# ---------------------------------------------------------------------- #
# Output
# ---------------------------------------------------------------------- #
def report(workload: str, seed: int, collected, failures, summary, layers) -> None:
    values, raw = summary["values"], summary["raw"]
    print(
        f"\n== {workload} (seed {seed}): {summary['attempted']} requests, "
        f"{summary['passes']} pass(es), closed loop, 1 client; machine slowdown "
        f"{summary['slowdown']:.3f} (timed phase)"
    )
    print(f"  {'metric':<20} {'reference speed':>16} {'unit':<6} {'raw':>12}  note")
    for name, unit in metric_spec("end_to_end"):
        note = ""
        if name == "setup_s":
            note = "median of " + ", ".join(
                f"{setup:.3f}/{slowdown(samples):.3f}"
                for setup, samples in zip(collected["setups"], collected["setup_samples"])
            ) + " (raw/slowdown)"
        elif name == "latency_tail_s":
            _, pct, beyond = summary["tails"][0]
            note = (
                f"p{pct:.1f} of each pass ({beyond} samples beyond), "
                f"median of {summary['passes']} pass(es)"
            )
        shown_raw = f"{raw[name]:>12.6f}" if name in raw else " " * 12
        print(f"  {name:<20} {values[name]:>16.6f} {unit:<6} {shown_raw}  {note}")
    failed_pct = 100.0 - values["succeeded_pct"]
    print(f"  {'failed_pct':<20} {failed_pct:>16.6f} {'%':<6} {'':>12}  {len(failures)} failed")
    for line in failures[:20]:
        print(f"  FAILED {line}")
    if layers is not None:
        print(f"  -- per layer (traced run, raw; spans in {TRACES.relative_to(ROOT)}) --")
        for name, unit in metric_spec("per_layer"):
            print(f"  {name:<44} {layers[name]:>14.6f} {unit}")


def measure(workload: str, seed: int, seconds: float, trace: bool):
    collected = collect(workload, seed, seconds, trace)
    failures = check(workload, collected)
    summary = end_to_end(collected, failures)
    layers = per_layer(workload, collected) if trace else None
    report(workload, seed, collected, failures, summary, layers)
    return failures, summary, layers


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in names:
        try:
            failures, summary, layers = measure(
                workload, args.seed, args.seconds, bool(args.trace)
            )
        except BenchmarkError as error:
            print(f"{workload}: {error}", file=sys.stderr)
            return 1
        correct = correct and not failures
        attempted += summary["attempted"]
        failed += len(failures)
        prefix = "" if len(names) == 1 else f"{workload}/"
        if args.trace:
            chosen = [(name, unit, layers[name]) for name, unit in metric_spec("per_layer")]
        else:
            chosen = [
                (name, unit, summary["values"][name]) for name, unit in metric_spec("end_to_end")
            ]
        for name, unit, value in chosen:
            metrics[prefix + name] = {"value": value, "unit": unit}
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
