"""Outside-in tracing: spans and counts around calls into the package.

The tracer replaces module and class attributes of ``sepsparse`` with thin
wrappers for the duration of a traced pass and puts the originals back
afterwards.  No package code changes; a span only sees the calls that go
through the attribute it wraps, which is why every patch below names the
module whose callers look the function up there.

A span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span (``-1`` for a root).  Spans and counts stay in memory until
the run writes them out.
"""

from __future__ import annotations

import gzip
import json
import statistics
from collections import Counter, defaultdict
from time import perf_counter

from sepsparse import cli, dp, head, recovery, tail

SLICE_SPANS = ("head.slice", "tail.slice")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self._last_budgets: list[int] = []

    # -- recording -------------------------------------------------------
    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        sid = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(sid)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[sid][1] = start
            self.spans[sid][2] = end

    def _patch(self, owner, attr: str, name: str, after=None) -> None:
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            out = self.call(name, original, *args, **kwargs)
            if after is not None:
                after(out, args)
            return out

        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        c = self.counts

        def parent_name() -> str | None:
            return self.spans[self._stack[-1]][0] if self._stack else None

        def on_support(_out, _args):
            # Supports rebuilt inside a slice are all used by the slice.
            if parent_name() in SLICE_SPANS:
                c["dp.support.kept"] += 1

        def on_exact_solve(_out, _args):
            # Callers of dp_solve / dp_solve_2spike keep only the top level.
            c["dp.support.kept"] += 1

        def on_table1(_out, args):
            c["dp.table1.cells"] += int(args[1]) * len(args[0])

        def on_table2(_out, args):
            c["dp.table2.cells"] += int(args[1]) * len(args[0]) * int(args[2])

        def on_decompose(out, _args):
            c["head.blocks"] += len(out.blocks)
            for lo, hi in out.blocks:
                c["head.block_len_max"] = max(c["head.block_len_max"], hi - lo + 1)
            self._last_budgets = out.budgets

        def on_slice(out, args):
            k = int(args[2])
            c["head.gains_computed"] += sum(min(b, k) for b in self._last_budgets)
            c["head.gains_picked"] += len(out)
            self._last_budgets = []

        def on_reduce(out, _args):
            c["tail.strong"] += len(out.strong)

        def on_iht(out, _args):
            c["recovery.iterations"] += out[1].iterations

        self._patch(dp, "build_table_1spike", "dp.table1", on_table1)
        self._patch(dp, "build_table_2spike", "dp.table2", on_table2)
        self._patch(dp.DpTable1, "support", "dp.support", on_support)
        self._patch(dp.DpTable2, "support", "dp.support", on_support)
        self._patch(dp, "dp_solve", "dp.solve", on_exact_solve)
        self._patch(dp, "dp_solve_2spike", "dp.solve", on_exact_solve)
        self._patch(dp, "dp_solve_unrestricted", "dp.unrestricted")
        self._patch(head, "block_decompose", "head.decompose", on_decompose)
        self._patch(head, "slice_solve", "head.slice", on_slice)
        self._patch(tail, "slice_solve", "tail.slice", on_slice)
        self._patch(head, "objective", "model.objective")
        self._patch(tail, "objective", "model.objective")
        self._patch(head, "head_project", "head.project")
        self._patch(cli, "head_project", "head.project")
        self._patch(recovery, "head_project", "head.project")
        self._patch(tail, "tail_project", "tail.project")
        self._patch(recovery, "tail_project", "tail.project")
        self._patch(tail, "strong_and_reduced", "tail.reduce", on_reduce)
        self._patch(tail, "topk_tail_project", "tail.topk")
        self._patch(recovery, "am_iht", "recovery.iht", on_iht)
        self._patch(cli, "read_vector", "serialize.read_vector")
        self._patch(cli, "main", "cli.project")

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- analysis --------------------------------------------------------
    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i] for i, (_n, start, end, _p) in enumerate(self.spans)]

    def layer_metrics(self, rounds: list[tuple[int, int]]) -> dict[str, float]:
        """Per-layer figures over the traced rounds.

        ``rounds`` holds the half-open span-index range of each round.
        ``*.self_ms`` and ``*.calls`` are per round (median over rounds);
        cell counts are per round; the rest are ratios or per-call means.
        """
        selfs = self.self_times()
        per_round_self: list[dict[str, float]] = []
        per_round_calls: list[Counter[str]] = []
        for lo, hi in rounds:
            acc: dict[str, float] = defaultdict(float)
            calls: Counter[str] = Counter()
            for i in range(lo, hi):
                name = self.spans[i][0]
                acc[name] += selfs[i]
                calls[name] += 1
            per_round_self.append(acc)
            per_round_calls.append(calls)
        n_rounds = max(1, len(rounds))

        def self_ms(name: str) -> float:
            return 1000.0 * statistics.median(r.get(name, 0.0) for r in per_round_self)

        def calls(name: str) -> float:
            return float(statistics.median(r[name] for r in per_round_calls))

        total = Counter()
        for r in per_round_calls:
            total.update(r)

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        c = self.counts
        out = {
            "dp.support.self_ms": self_ms("dp.support"),
            "dp.support.calls": calls("dp.support"),
            "dp.support.used_ratio": ratio(c["dp.support.kept"], total["dp.support"]),
            "dp.table1.self_ms": self_ms("dp.table1"),
            "dp.table1.calls": calls("dp.table1"),
            "dp.table1.cells": c["dp.table1.cells"] / n_rounds,
            "dp.table2.self_ms": self_ms("dp.table2"),
            "dp.table2.calls": calls("dp.table2"),
            "dp.table2.cells": c["dp.table2.cells"] / n_rounds,
            "dp.unrestricted.self_ms": self_ms("dp.unrestricted"),
            "head.project.self_ms": self_ms("head.project"),
            "head.windows": ratio(total["head.slice"], total["head.project"]),
            "head.slice.self_ms": self_ms("head.slice") + self_ms("tail.slice"),
            "head.slice.calls": calls("head.slice") + calls("tail.slice"),
            "head.gains_used_ratio": ratio(c["head.gains_picked"], c["head.gains_computed"]),
            "head.decompose.self_ms": self_ms("head.decompose"),
            "head.blocks": ratio(c["head.blocks"], total["head.decompose"]),
            "head.block_len_max": float(c["head.block_len_max"]),
            "tail.reduce.self_ms": self_ms("tail.reduce"),
            "tail.strong": ratio(c["tail.strong"], total["tail.reduce"]),
            "tail.project.self_ms": self_ms("tail.project"),
            "tail.windows": ratio(total["tail.slice"], total["tail.project"]),
            "tail.topk.self_ms": self_ms("tail.topk"),
            "model.objective.self_ms": self_ms("model.objective"),
            "model.objective.calls": calls("model.objective"),
            "recovery.iht.self_ms": self_ms("recovery.iht"),
            "recovery.iterations": ratio(c["recovery.iterations"], total["recovery.iht"]),
            "serialize.read_vector.self_ms": self_ms("serialize.read_vector"),
            "cli.project.self_ms": self_ms("cli.project"),
        }
        head_ms, tail_ms = self.child_ms_per_parent("recovery.iht", ("head.project", "tail.project"))
        out["recovery.head_ms"] = head_ms
        out["recovery.tail_ms"] = tail_ms
        return out

    def child_ms_per_parent(self, parent: str, children: tuple[str, ...]) -> list[float]:
        """Median over ``parent`` spans of the time spent in each direct child name."""
        per_parent: dict[int, dict[str, float]] = {
            i: dict.fromkeys(children, 0.0) for i, s in enumerate(self.spans) if s[0] == parent
        }
        for name, start, end, par in self.spans:
            if par in per_parent and name in children:
                per_parent[par][name] += end - start
        if not per_parent:
            return [0.0] * len(children)
        return [
            1000.0 * statistics.median(v[name] for v in per_parent.values()) for name in children
        ]

    def share_within(self, parent: str, child: str) -> float | None:
        """Share of all ``parent`` span time covered by ``child`` descendants."""
        ancestor_of = {}
        total_parent = 0.0
        covered = 0.0
        for i, (name, start, end, par) in enumerate(self.spans):
            anc = i if name == parent else ancestor_of.get(par)
            if anc is not None:
                ancestor_of[i] = anc
            if name == parent:
                total_parent += end - start
            elif name == child and anc is not None:
                covered += end - start
        return covered / total_parent if total_parent else None

    def write(self, path) -> None:
        """Write the spans as gzipped JSON lines."""
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
