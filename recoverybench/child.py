"""One benchmark process: set up, warm up, then run the timed phase on cue.

``run.py`` starts this script once per set-up measurement.  It reads the
generated job (warm-up request plus the timed passes) from ``--job``, does
its set-up — imports, service or daemon boot with a ready worker, one
untimed warm-up request — and prints ``READY``.  On ``go`` it runs the timed
phase and prints one JSON line with what it observed; on ``quit`` it stops.
It checks nothing: every correctness check and metric is computed by
``run.py`` from the returned envelopes and timings.

Protocol lines are the only output on stdout; the program's own output is
sent to stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import resource
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from calibration import INTERVAL_S, Calibrator
from tracer import SpanRecorder
from workloads import REPEAT_SUFFIX

#: Seconds between job polls of a served request.  Fine enough that
#: latency is not a staircase of the client's default 0.1 s poll.
POLL_INTERVAL = 0.003

#: Upper bound on waiting for one served job or for the daemon to boot.
SERVED_TIMEOUT = 120.0

#: Calibration kernel samples at the end of set-up.
SETUP_KERNEL_SAMPLES = 5


def _calibrate():
    """The phase calibrator, plus the set-up's own kernel samples.

    Sampled right after the warm-up, in the same phase of machine speed as
    the rest of set-up.  ``calibration_s`` is what building and sampling the
    kernel cost; the parent takes it out of the set-up time.
    """
    started = time.perf_counter()
    calibrator = Calibrator()
    samples = [calibrator.time_kernel() for _ in range(SETUP_KERNEL_SAMPLES)]
    return calibrator, {
        "kernel_samples": samples,
        "calibration_s": time.perf_counter() - started,
    }


def _ready_and_wait(protocol, calibration: Dict[str, Any]) -> bool:
    """Announce the end of set-up; True when the parent says ``go``."""
    protocol.write("READY " + json.dumps(calibration) + "\n")
    protocol.flush()
    return sys.stdin.readline().strip() == "go"


def _peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set size of this process, or of ``pid`` via /proc."""
    if pid is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def _timed_passes(passes, seconds: float, run_one, calibrator: Calibrator) -> Dict[str, Any]:
    """Run pass 0, then further passes until ``seconds`` have elapsed.

    The calibration kernel is timed before the first request, after the
    last, and between requests whenever ``INTERVAL_S`` has passed since the
    previous sample; each record keeps the index of the sample before it
    (the next sample follows it).  Kernel time is left out of ``elapsed_s``.
    """
    samples: List[float] = []
    records: List[Dict[str, Any]] = []
    kernel_s = 0.0
    started = time.perf_counter()

    def sample() -> None:
        nonlocal kernel_s
        seconds_taken = calibrator.time_kernel()
        samples.append(seconds_taken)
        kernel_s += seconds_taken

    sample()
    last_sample = time.perf_counter()
    for pass_index, submissions in enumerate(passes):
        if pass_index and time.perf_counter() - started - kernel_s >= seconds:
            break
        for label, request in submissions:
            record = run_one(request)
            record.update({"label": label, "pass": pass_index, "kernel_before": len(samples) - 1})
            records.append(record)
            if time.perf_counter() - last_sample >= INTERVAL_S:
                sample()
                last_sample = time.perf_counter()
    if records[-1]["kernel_before"] == len(samples) - 1:
        sample()
    return {
        "records": records,
        "elapsed_s": time.perf_counter() - started - kernel_s,
        "started": started,
        "kernel_samples": samples,
    }


def _solve_one(service, request) -> Dict[str, Any]:
    started = time.perf_counter()
    try:
        envelope, error = service.solve(request), None
    except Exception as exc:  # counted as a failed request by run.py
        envelope, error = None, f"{type(exc).__name__}: {exc}"
    return {"latency_s": time.perf_counter() - started, "envelope": envelope, "error": error}


def _run_phase(recorder: Optional[SpanRecorder], service, phase) -> Dict[str, Any]:
    """Run ``phase()``, under the span recorder when one is given, and turn
    its envelopes into plain data; a recorder's layer totals are added."""
    before = service.cache_info()
    if recorder is not None:
        recorder.install()
    try:
        result = phase()
    finally:
        if recorder is not None:
            recorder.uninstall()
    for record in result["records"]:
        if record["envelope"] is not None:
            record["envelope"] = record["envelope"].to_dict()
    if recorder is not None:
        after = service.cache_info()
        result["layers"] = recorder.layer_totals()
        result["hits"] = dict(recorder.hits)
        result["topology_hits"] = after["topology_cache_hits"] - before["topology_cache_hits"]
        result["topology_misses"] = (
            after["topology_cache_misses"] - before["topology_cache_misses"]
        )
    return result


def run_direct(job, seconds: float, spans_path: Optional[Path], protocol) -> Optional[Dict]:
    from repro import RecoveryService
    from repro.api.requests import RecoveryRequest

    service = RecoveryService()
    service.solve(RecoveryRequest.from_dict(job["warmup"]))
    passes = [
        [(label, RecoveryRequest.from_dict(payload)) for label, payload in submissions]
        for submissions in job["passes"]
    ]
    calibrator, calibration = _calibrate()
    if not _ready_and_wait(protocol, calibration):
        return None
    recorder = SpanRecorder() if spans_path is not None else None
    result = _run_phase(
        recorder,
        service,
        lambda: _timed_passes(
            passes, seconds, functools.partial(_solve_one, service), calibrator
        ),
    )
    result["peak_rss_mb"] = _peak_rss_mb()
    if recorder is not None:
        recorder.write(spans_path, result["started"])
    return result


# ---------------------------------------------------------------------- #
# served-srt: a daemon with one worker, driven over one keep-alive socket
# ---------------------------------------------------------------------- #
def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _start_daemon(work_dir: Path):
    from repro.server.client import ServiceClient

    port = _free_port()
    log = (work_dir / "daemon.log").open("ab")
    daemon = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "serve",
            "--db",
            str(work_dir / "store.db"),
            "--port",
            str(port),
            "--workers",
            "1",
            "--shards",
            "1",
        ],
        stdout=subprocess.DEVNULL,
        stderr=log,
    )
    log.close()
    client = ServiceClient(f"http://127.0.0.1:{port}", timeout=SERVED_TIMEOUT)
    deadline = time.monotonic() + SERVED_TIMEOUT
    while True:
        try:
            if client.healthz().get("workers_ready", 0) >= 1:
                return daemon, client
        except OSError:
            pass
        if daemon.poll() is not None or time.monotonic() > deadline:
            _stop_daemon(daemon)
            raise RuntimeError(f"daemon did not become ready; see {work_dir / 'daemon.log'}")
        time.sleep(0.02)


def _stop_daemon(daemon) -> None:
    if daemon.poll() is None:
        daemon.send_signal(signal.SIGTERM)
        try:
            daemon.wait(timeout=60)
        except subprocess.TimeoutExpired:
            daemon.kill()
            daemon.wait(timeout=10)


def _worker_pid(daemon_pid: int) -> int:
    """The fleet worker among the daemon's children (not the resource tracker)."""
    children = Path(f"/proc/{daemon_pid}/task/{daemon_pid}/children").read_text().split()
    for child in children:
        command = Path(f"/proc/{child}/cmdline").read_bytes().replace(b"\0", b" ")
        if b"spawn_main" in command and b"resource_tracker" not in command:
            return int(child)
    raise RuntimeError(f"no worker process under daemon {daemon_pid}")


def _served_one(client, payload) -> Dict[str, Any]:
    """POST one request, then poll its job until done; errors are recorded."""
    from repro.server.client import ServiceError

    started = time.perf_counter()
    submitted = started
    deduplicated, polls = False, []
    view: Dict[str, Any] = {"state": "unsent"}
    try:
        answer = client.solve(payload)
        submitted = time.perf_counter()
        deduplicated, view = bool(answer.get("deduplicated")), answer["job"]
        while view["state"] not in ("done", "failed"):
            if time.perf_counter() - started > SERVED_TIMEOUT:
                break
            time.sleep(POLL_INTERVAL)
            begin = time.perf_counter()
            view = client.job(view["digest"])
            polls.append(time.perf_counter() - begin)
        error = None if view["state"] == "done" else view.get("error") or f"job {view['state']}"
    except (ServiceError, OSError) as exc:  # refused or unreachable: a failed request
        error = f"{type(exc).__name__}: {exc}"
    return {
        "latency_s": time.perf_counter() - started,
        "submit_s": submitted - started,
        "deduplicated": deduplicated,
        "polls": polls,
        "digest": view.get("digest"),
        "created_at": view.get("created_at"),
        "started_at": view.get("started_at"),
        "first_finished_at": view.get("first_finished_at"),
        "envelope": view.get("result") if error is None else None,
        "error": error,
    }


def run_served(job, seconds: float, spans_path: Optional[Path], work_dir: Path, protocol):
    daemon, client = _start_daemon(work_dir)
    try:
        _served_one(client, job["warmup"])
        calibrator, calibration = _calibrate()
        if not _ready_and_wait(protocol, calibration):
            return None
        result = _timed_passes(
            job["passes"], seconds, functools.partial(_served_one, client), calibrator
        )
        result["peak_rss_mb"] = _peak_rss_mb(_worker_pid(daemon.pid))
        if spans_path is not None:
            # outside the timed phase: the daemon's own spans and counters
            fresh = {
                r["digest"] for r in result["records"] if r["envelope"] and not r["deduplicated"]
            }
            result["job_traces"] = [client.trace(digest) for digest in sorted(fresh)]
            result["metrics_text"] = client.metrics()
    finally:
        client.close()
        _stop_daemon(daemon)

    # The in-process replay the served envelopes are checked against; with
    # tracing on it runs twice, the second time under the span recorder.
    from repro import RecoveryService
    from repro.api.requests import RecoveryRequest

    payloads = {label: payload for submissions in job["passes"] for label, payload in submissions}
    distinct = dict.fromkeys(record["label"] for record in result["records"])
    requests = [
        (label, RecoveryRequest.from_dict(payloads[label]))
        for label in distinct
        if not label.endswith(REPEAT_SUFFIX)
    ]
    replays = {}
    for mode in ("untraced",) if spans_path is None else ("untraced", "traced"):
        # a fresh session per replay: the second must not find the first's
        # solver structures cached
        service = RecoveryService()
        service.solve(RecoveryRequest.from_dict(job["warmup"]))
        recorder = SpanRecorder() if mode == "traced" else None
        replays[mode] = _run_phase(
            recorder,
            service,
            lambda: _timed_passes(
                [requests], 0.0, functools.partial(_solve_one, service), calibrator
            ),
        )
        if recorder is not None:
            recorder.write(spans_path, replays[mode]["started"])
    result["replays"] = replays
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--job", required=True, type=Path)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--work-dir", required=True, type=Path)
    parser.add_argument("--spans", type=Path, help="trace the run; write spans here")
    args = parser.parse_args()
    protocol = sys.stdout
    sys.stdout = sys.stderr
    job = json.loads(args.job.read_text())
    if args.workload == "served-srt":
        result = run_served(job, args.seconds, args.spans, args.work_dir, protocol)
    else:
        result = run_direct(job, args.seconds, args.spans, protocol)
    if result is not None:
        protocol.write(json.dumps(result) + "\n")
        protocol.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
