"""On-disk formats: field snapshots, band-mask CSV, norm report CSV.

Field snapshot: one JSON header line (n, N, L, dt, slice index), a newline,
then raw little-endian IEEE-754 double pairs (re, im) in row-major spatial
order.  CSV column contracts are frozen; see the writer docstrings.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .grid import Grid
from .lp import band_mask

__all__ = [
    "write_field_snapshot",
    "read_field_snapshot",
    "write_band_mask_csv",
    "write_norm_report_csv",
    "write_y_report_csv",
    "write_check_rows_csv",
]


def write_field_snapshot(path, grid: Grid, values: np.ndarray, slice_index: int = 0) -> None:
    """Single spatial slice -> JSON header + raw (re, im) doubles."""
    values = np.ascontiguousarray(values, dtype=complex)
    if values.shape != grid.shape:
        raise ValueError(f"slice shape {values.shape} != {grid.shape}")
    header = {
        "n": grid.n,
        "N": grid.N,
        "L": grid.L,
        "dt": grid.dt,
        "slice_index": slice_index,
    }
    interleaved = np.empty(values.size * 2, dtype="<f8")
    interleaved[0::2] = values.real.ravel()
    interleaved[1::2] = values.imag.ravel()
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode("utf-8"))
        fh.write(b"\n")
        fh.write(interleaved.tobytes())


def read_field_snapshot(path) -> tuple[dict, np.ndarray]:
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode("utf-8"))
        raw = np.frombuffer(fh.read(), dtype="<f8")
    shape = (header["N"],) * header["n"]
    values = (raw[0::2] + 1j * raw[1::2]).reshape(shape)
    return header, values


def write_band_mask_csv(path, grid: Grid, k: int) -> None:
    """Rows: (xi_1, ..., xi_n, mask value), physical frequency order."""
    mask = band_mask(grid, k)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow([f"xi_{j+1}" for j in range(grid.n)] + ["mask"])
        flat_mask = mask.ravel()
        comps = [grid.xi[j].ravel() for j in range(grid.n)]
        for i in range(flat_mask.size):
            w.writerow([f"{comps[j][i]:.12g}" for j in range(grid.n)] + [f"{flat_mask[i]:.12g}"])


def write_norm_report_csv(path, rows: list[dict]) -> None:
    """Frozen columns: (norm_id, q, r, p_inner, U_index, value)."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["norm_id", "q", "r", "p_inner", "U_index", "value"])
        for r in rows:
            w.writerow(
                [
                    r["norm_id"],
                    r.get("q", ""),
                    r.get("r", ""),
                    r.get("p_inner", ""),
                    r.get("U_index", ""),
                    f"{r['value']:.17g}",
                ]
            )


def write_y_report_csv(path, rows: list[dict]) -> None:
    """Frozen columns: (norm, component, k, value)."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["norm", "component", "k", "value"])
        for r in rows:
            w.writerow([r["norm"], r["component"], r.get("k", ""), f"{r['value']:.17g}"])


def write_check_rows_csv(path, rows: list[dict]) -> None:
    """Frozen columns: (check_id, param_json, value, threshold, pass)."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["check_id", "param_json", "value", "threshold", "pass"])
        for r in rows:
            w.writerow(
                [
                    r["check_id"],
                    json.dumps(r.get("params", {}), sort_keys=True),
                    f"{r['value']:.17g}",
                    f"{r['threshold']:.17g}",
                    str(bool(r["pass"])).lower(),
                ]
            )
