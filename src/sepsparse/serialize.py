"""Plain-text serialization: vectors one number per line, supports one CSV line."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .model import as_signal, as_support

__all__ = [
    "format_support",
    "parse_support",
    "read_support",
    "read_vector",
    "write_support",
    "write_vector",
]


def write_vector(path, v) -> None:
    arr = as_signal(v)
    Path(path).write_text("".join(f"{value!r}\n" for value in arr.tolist()))


def read_vector(path) -> np.ndarray:
    lines = [line.strip() for line in Path(path).read_text().splitlines()]
    arr = np.asarray([float(line) for line in lines if line], dtype=np.float64)
    if not np.isfinite(arr).all():
        raise ValueError(f"{path} contains a NaN or infinite value")
    return arr


def format_support(support) -> str:
    return ",".join(str(i) for i in as_support(support))


def parse_support(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    return as_support(int(part) for part in text.split(","))


def write_support(path, support) -> None:
    Path(path).write_text(format_support(support) + "\n")


def read_support(path) -> tuple[int, ...]:
    return parse_support(Path(path).read_text())
