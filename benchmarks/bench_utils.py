"""Shared helpers for the benchmark harness.

Every benchmark module regenerates one figure of the paper's evaluation
section (see DESIGN.md for the per-experiment index).  By default the
benches run at *reduced scale* — fewer repetitions, coarser sweeps, smaller
MILP time limits — so the whole harness finishes on a laptop in minutes.
Set the environment variable ``REPRO_BENCH_SCALE=full`` to run the paper's
full parameters (expect hours, dominated by the exact MILP).

The benches both *print* the reproduced rows (the same series the paper's
figures plot) and *assert* the qualitative claims, so a green benchmark run
doubles as a reproduction check.
"""

from __future__ import annotations

import os
import re
from pathlib import Path
from typing import Dict, Sequence

from repro.evaluation.reporting import format_table

#: Set REPRO_BENCH_SCALE=full to run the paper-scale parameters.
FULL_SCALE = os.environ.get("REPRO_BENCH_SCALE", "quick").lower() == "full"

#: Worker processes for the sweep benches (they run through the experiment
#: engine).  1 keeps everything in-process; 0 means one worker per CPU.
#: Results are bit-identical for any value — only wall-clock changes.
BENCH_JOBS = int(os.environ.get("REPRO_BENCH_JOBS", "1"))

#: Optional result-cache directory: set REPRO_BENCH_CACHE to a path to make
#: interrupted/repeated bench runs resume from completed cells.
BENCH_CACHE = os.environ.get("REPRO_BENCH_CACHE") or None

#: Reproduced figure tables are also written here so they survive pytest's
#: output capturing and can be diffed across runs / quoted in EXPERIMENTS.md.
RESULTS_DIR = Path(__file__).resolve().parent / "results"

#: Column-name endings of wall-clock measurements and of ratios between
#: them.  Such columns change on every run, so they are printed but left out
#: of the files in ``RESULTS_DIR``: a tracked file then changes only when a
#: reproduced number (repairs, satisfaction, solve counts) does.
TIMING_COLUMN_SUFFIXES = ("seconds", "_s", "_per_sec", "speedup", "overhead_pct", "vs_single_pct")


def is_timing_column(name: str) -> bool:
    """Whether column ``name`` holds a timing (see TIMING_COLUMN_SUFFIXES)."""
    return name.endswith(TIMING_COLUMN_SUFFIXES)


def print_figure(title: str, rows: Sequence[Dict[str, object]], columns: Sequence[str]) -> None:
    """Print one reproduced figure as an aligned table and save it to disk.

    Stdout gets every column; the saved file leaves out the timing columns.
    """
    print()
    print(format_table(rows, columns=columns, title=title))
    tracked = [column for column in columns if not is_timing_column(column)]
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    slug = re.sub(r"[^a-z0-9]+", "-", title.lower()).strip("-")[:60]
    scale = "full" if FULL_SCALE else "quick"
    (RESULTS_DIR / f"{slug}.{scale}.txt").write_text(
        format_table(rows, columns=tracked, title=title)
    )


def series_of(result, value_key: str) -> Dict[str, Dict[object, object]]:
    """Shortcut for ScenarioResult.series used by assertions."""
    return result.series(value_key)
