"""Raw field dumps: little-endian float64 payload plus a text sidecar header.

The sidecar (<name>.hdr) records the dtype, shape, and layout order so
external tooling can reassemble the array without guessing.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np


def write_field(path, array) -> None:
    path = Path(path)
    arr = np.asarray(array, dtype="<f8")
    path.write_bytes(arr.tobytes(order="C"))
    lines = [
        f"dtype float64 little-endian",
        f"shape {' '.join(str(n) for n in arr.shape)}",
        f"layout row-major",
    ]
    Path(str(path) + ".hdr").write_text("\n".join(lines) + "\n")


def read_field(path) -> np.ndarray:
    path = Path(path)
    header = Path(str(path) + ".hdr").read_text().splitlines()
    shape = None
    for line in header:
        parts = line.split()
        if parts and parts[0] == "shape":
            shape = tuple(int(n) for n in parts[1:])
    if shape is None:
        raise ValueError(f"sidecar header for {path} lacks a shape line")
    data = np.frombuffer(path.read_bytes(), dtype="<f8")
    return data.reshape(shape).astype(float)
