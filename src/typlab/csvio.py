"""CSV emission and parsing for run outputs.

Numbers are written as the shortest decimal that round-trips binary64
(Python's ``repr``), so files are a bit-exact interface: equal runs produce
byte-identical files, and reading them back loses nothing.  Both files are
written by one writer and read by one reader, and each file's writer takes
what its reader returns.  The reader accepts only finite values and at
least two rows of strictly increasing ``t``: what a plot needs.
"""
from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

from .errors import TyplabError

STATS_HEADER = ["t", "mean", "variance", "bound"]


def format_number(x: float) -> str:
    return repr(float(x))


def trajectories_header(num_trajectories: int) -> list[str]:
    return ["t"] + [f"traj_{i}" for i in range(num_trajectories)]


def _write_table(path: str | Path, header: list[str], columns) -> None:
    """Write ``header``, then row k of the equal-length ``columns``."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(map(format_number, row) for row in zip(*columns))


def write_stats_csv(path: str | Path, stats: dict[str, np.ndarray]) -> None:
    """Write the per-time ensemble statistics, arrays keyed by column name as
    :func:`read_stats_csv` returns them."""
    _write_table(path, STATS_HEADER, [stats[name] for name in STATS_HEADER])


def write_trajectories_csv(path: str | Path, times: np.ndarray, values: np.ndarray) -> None:
    """Write per-trajectory series; ``values`` has shape (M, len(times))."""
    _write_table(path, trajectories_header(values.shape[0]), [times, *values])


def _parse_float(cell: str, row: int) -> float:
    try:
        value = float(cell)
    except ValueError as exc:
        raise TyplabError(f"non-numeric value {cell!r} (row {row})") from exc
    if not math.isfinite(value):
        raise TyplabError(f"non-finite value {cell!r} (row {row})")
    return value


def _read_table(path: str | Path, expected_header) -> np.ndarray:
    """The data rows of a CSV file as a (rows, columns) float array.

    ``expected_header(header)`` gives the header the file must have.  Every
    row must be that wide and every cell finite; there must be at least 2
    rows, with the first column ``t`` strictly increasing.
    """
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
    except (OSError, UnicodeDecodeError) as exc:
        raise TyplabError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise TyplabError(f"{path} is empty")
    header = expected_header(rows[0])
    if rows[0] != header:
        raise TyplabError(
            f"expected header {','.join(header[:4])!r}, got {','.join(rows[0][:4])!r} (row 1)"
        )
    data = []
    for k, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise TyplabError(f"expected {len(header)} columns, got {len(row)} (row {k})")
        data.append([_parse_float(cell, k) for cell in row])
        if len(data) > 1 and not data[-1][0] > data[-2][0]:
            t, previous = data[-1][0], data[-2][0]
            raise TyplabError(f"t = {t!r} does not increase on {previous!r} (row {k})")
    if len(data) < 2:
        raise TyplabError(
            f"{path} has {['no data rows', 'one data row'][len(data)]}, needs at least 2 "
            f"(row {len(rows)})"
        )
    return np.asarray(data)


def read_stats_csv(path: str | Path) -> dict[str, np.ndarray]:
    """Read a stats file back into arrays keyed by column name."""
    arr = _read_table(path, lambda header: STATS_HEADER)
    return {name: arr[:, i] for i, name in enumerate(STATS_HEADER)}


def read_trajectories_csv(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """Read a trajectories file; returns (times, values) with values shaped
    (M, len(times))."""
    arr = _read_table(path, lambda header: trajectories_header(max(len(header) - 1, 1)))
    return arr[:, 0], arr[:, 1:].T
