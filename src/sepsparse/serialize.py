"""Plain-text serialization: vectors one number per line, supports one CSV line."""

from __future__ import annotations

import warnings
from pathlib import Path

import numpy as np

from .model import as_signal, as_support

__all__ = [
    "format_support",
    "read_vector",
    "write_support",
    "write_vector",
]


def write_vector(path, v) -> None:
    arr = as_signal(v)
    Path(path).write_text("".join(f"{value!r}\n" for value in arr.tolist()))


def read_vector(path) -> np.ndarray:
    """Read one number per line; blank lines are skipped, an empty file gives ``[]``."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        table = np.loadtxt(path, dtype=np.float64, ndmin=2, comments=None)
    if table.shape[1] != 1:
        raise ValueError(f"{path} holds {table.shape[1]} numbers per line, expected one")
    arr = table.ravel()
    if not np.isfinite(arr).all():
        raise ValueError(f"{path} contains a NaN or infinite value")
    return arr


def format_support(support) -> str:
    return ",".join(str(i) for i in as_support(support))


def write_support(path, support) -> None:
    Path(path).write_text(format_support(support) + "\n")
