"""Replay recorded solver outputs bit for bit.

The oracle tests check that every support is optimal; they do not pin which
optimal support wins a tie, or the exact floating-point value.  The cases in
``data/dp_golden.json`` do: for each seeded instance they hold the values
and every-level supports of ``dp_solve`` and ``dp_solve_2spike``, the
output of ``dp_solve_unrestricted`` on every position, and the supports of ``head_project``
(p = 1 and 2) and ``tail_project``.

Running this file as a script (``PYTHONPATH=src python tests/test_dp_golden.py``)
writes the JSON again from the current package; do that only to extend the
case set, on a commit whose outputs are trusted.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from sepsparse.dp import dp_solve, dp_solve_2spike, dp_solve_unrestricted
from sepsparse.head import head_project
from sepsparse.tail import tail_project

GOLDEN = Path(__file__).resolve().parent / "data" / "dp_golden.json"
HEAD_EPS = 0.4
TAIL_EPS = 0.5


def dense(case) -> np.ndarray:
    x = np.zeros(case["n"])
    x[case["at"]] = case["val"]
    return x


def every_level(values: np.ndarray, table, k: int) -> list:
    """Values and supports for budgets 1..k, as recorded.

    A table stops at the packing limit; every budget past it has the last
    level's value, and ``table.support`` answers it.
    """
    padded = values.tolist() + values[-1:].tolist() * (k - values.size)
    past = [table.support(ell) for ell in range(len(table) + 1, k + 1)]
    return [padded, [list(s) for s in [*table, *past]]]


def outputs(x: np.ndarray, k: int, delta: int) -> dict:
    value_u, sol_u = dp_solve_unrestricted(np.arange(1, x.size + 1), x, delta)
    return {
        "dp": every_level(*dp_solve(x, k, delta), k),
        "dp2": every_level(*dp_solve_2spike(x, k, delta), k),
        "unrestricted": [value_u, list(sol_u)],
        "head1": list(head_project(x, k, delta, 1, HEAD_EPS)),
        "head2": list(head_project(x, k, delta, 2, HEAD_EPS)),
        "tail": list(tail_project(x, k, delta, TAIL_EPS)),
    }


def test_outputs_match_recording():
    cases = json.loads(GOLDEN.read_text())
    assert len(cases) >= 300
    for case in cases:
        got = outputs(dense(case), case["k"], case["delta"])
        for solver, want in case["out"].items():
            assert got[solver] == want, (case["name"], solver)


# -- recording ----------------------------------------------------------


def generate_cases() -> list[tuple[str, np.ndarray, int, int]]:
    """Seeded instances aimed at tie-breaking and the flag layout."""
    rng = np.random.default_rng(20170611)
    cases: list[tuple[str, np.ndarray, int, int]] = []

    def styled(n: int, style: int) -> np.ndarray:
        if style == 0:
            return np.round(rng.random(n), 6)
        if style == 1:
            return np.round(rng.random(n) * 3)  # ties and zero runs
        if style == 2:
            return np.where(rng.random(n) < 0.5, 0.0, np.round(rng.random(n), 3))
        if style == 3:
            return np.ones(n)
        return 10.0 ** rng.uniform(-300, 300, n)  # huge dynamic range

    for t in range(150):
        n = int(rng.integers(1, 37))
        delta = int(rng.integers(1, 9)) if t % 5 else n + int(rng.integers(0, 4))
        cases.append((f"small{t}", styled(n, t % 5), int(rng.integers(1, min(n, 12) + 1)), delta))
    for n in (7, 8, 9, 15, 16, 17, 23, 24, 25, 31, 32, 33, 63, 64, 65):
        for style in range(5):
            delta = int(rng.integers(1, 7))
            cases.append((f"byte{n}s{style}", styled(n, style), int(rng.integers(1, 9)), delta))
    for t in range(40):
        n = int(rng.integers(2, 30))
        cases.append((f"delta1_{t}", styled(n, t % 5), int(rng.integers(1, min(n, 12) + 1)), 1))
    for t in range(30):
        # A few spikes separated by zero runs longer than 512 positions.
        spikes = int(rng.integers(1, 4))
        gaps = rng.integers(513, 900, spikes + 1)
        x = np.zeros(int(gaps.sum()) + spikes)
        x[np.cumsum(gaps[:-1] + 1) - 1] = styled(spikes, t % 5)
        if t % 3 == 0:
            x[int(rng.integers(0, 40))] = 0.5  # one early spike as well
        cases.append((f"gap{t}", x, int(rng.integers(1, 5)), int(rng.integers(1, 5))))
    for t in range(20):
        n = int(rng.integers(40, 90))
        cases.append((f"mid{t}", styled(n, t % 5), int(rng.integers(1, 9)), int(rng.integers(2, 10))))
    return cases


def record() -> None:
    records = []
    for name, x, k, delta in generate_cases():
        at = np.flatnonzero(x)
        records.append({
            "name": name,
            "n": int(x.size),
            "k": k,
            "delta": delta,
            "at": at.tolist(),
            "val": x[at].tolist(),
            "out": outputs(x, k, delta),
        })
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(records, separators=(",", ":")) + "\n")
    print(f"wrote {len(records)} cases to {GOLDEN} ({GOLDEN.stat().st_size} bytes)")


if __name__ == "__main__":
    record()
