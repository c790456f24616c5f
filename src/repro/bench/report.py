"""Benchmark trajectory report: committed baselines vs fresh records.

The repo commits one JSON baseline per benchmark family
(``BENCH_solver.json``, ``BENCH_fleet.json``, ``BENCH_sim.json``; CI
also produces ``BENCH_service.json``) and CI writes fresh records into a
scratch directory (``REPRO_BENCH_DIR``, conventionally ``bench-out/``).
This module turns any pile of such records into one table per family of
the numbers the rows of :mod:`repro.bench.gates` hold (its
:func:`~repro.bench.gates.headline_metrics`), with a delta column when
both a committed and a fresh record exist.

``repro bench report`` is the CLI face; everything here is pure
dict-in/lines-out so tests can drive it on fixture records.
"""

from __future__ import annotations

import json
from pathlib import Path

from .gates import bench_kind, headline_metrics

__all__ = [
    "BENCH_FILES",
    "bench_kind",
    "headline_metrics",
    "load_records",
    "report_lines",
]

#: Committed baseline filenames, in display order.
BENCH_FILES = (
    "BENCH_solver.json", "BENCH_fleet.json", "BENCH_sim.json", "BENCH_service.json",
)


def load_records(root: str | Path, names: tuple[str, ...] = BENCH_FILES) -> dict[str, dict]:
    """Read ``names`` under ``root``; missing or unparsable files are skipped."""
    root = Path(root)
    records: dict[str, dict] = {}
    for name in names:
        path = root / name
        if not path.is_file():
            continue
        try:
            records[name] = json.loads(path.read_text())
        except (json.JSONDecodeError, OSError):
            continue
    return records


def _fmt(value: float) -> str:
    return f"{value:.4f}"


def report_lines(committed_dir: str | Path = ".",
                 fresh_dir: str | Path | None = None) -> list[str]:
    """Render the committed-vs-fresh headline table, one family per block.

    ``fresh_dir`` (``bench-out/`` in CI) is optional: without it, or for
    families it lacks, only the committed column is shown.  Returns
    human-readable lines; empty input yields a single explanatory line.
    """
    committed = load_records(committed_dir)
    fresh = load_records(fresh_dir) if fresh_dir is not None else {}
    names = [n for n in BENCH_FILES if n in committed or n in fresh]
    if not names:
        return [f"no BENCH_*.json records found under {committed_dir}"
                + (f" or {fresh_dir}" if fresh_dir is not None else "")]

    lines: list[str] = []
    for name in names:
        base = committed.get(name)
        new = fresh.get(name)
        kind = bench_kind(base or new)
        lines.append(f"{kind} ({name})")
        base_metrics = headline_metrics(base) if base else {}
        new_metrics = headline_metrics(new) if new else {}
        keys = list(base_metrics) + [k for k in new_metrics if k not in base_metrics]
        if not keys:
            lines.append("  (no headline metrics)")
            continue
        width = max(len(k) for k in keys)
        for key in keys:
            b = base_metrics.get(key)
            f = new_metrics.get(key)
            row = f"  {key:<{width}}  "
            row += f"{_fmt(b):>10}" if b is not None else f"{'-':>10}"
            row += f"  {_fmt(f):>10}" if f is not None else ("" if new is None else f"  {'-':>10}")
            if b is not None and f is not None and b != 0:
                row += f"  {100.0 * (f - b) / abs(b):+7.1f}%"
            lines.append(row)
    return lines
