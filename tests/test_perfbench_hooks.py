"""The benchmark's tracer patches package attributes by name.

``perfbench/tracing.py`` wraps module and class attributes of ``sepsparse``
to time each layer.  These tests fail when a patched name disappears, when
a traced call no longer goes through it, or when the originals are not put
back afterwards.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from sepsparse import cli, dp, head, tail
from sepsparse.serialize import write_vector

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def test_install_then_restore_puts_every_original_back():
    tracer = load_tracer()
    tracer.install()
    try:
        patched = list(tracer._undo)
        assert patched
        for owner, attr, original in patched:
            assert getattr(owner, attr) is not original
    finally:
        tracer.restore()
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, f"{owner.__name__}.{attr} not restored"


def test_traced_projections_pass_through_the_hooks():
    tracer = load_tracer()
    x = np.array([0.0, 5.0, 1.0, 0.0, 3.0, 0.5, 2.0, 0.0])
    tracer.install()
    try:
        head.head_project(x, 2, 2, 1, 0.5)
        tail.tail_project(x, 2, 2, 0.5)
        tail.topk_tail_project(x, 2, 2)
    finally:
        tracer.restore()
    names = {span[0] for span in tracer.spans}
    for name in ("head.project", "tail.project", "tail.reduce", "head.slice",
                 "head.decompose", "dp.table1", "dp.support",
                 "tail.topk", "dp.unrestricted"):
        assert name in names, name
    # best_over_windows scores its slices with model's unchecked sum, not
    # through the objective the tracer wraps.
    assert "model.objective" not in names


@pytest.mark.parametrize("solve, table_span", [("dp_solve", "dp.table1"), ("dp_solve_2spike", "dp.table2")])
def test_traced_exact_solve_builds_one_support(solve, table_span):
    tracer = load_tracer()
    x = np.array([0.0, 5.0, 1.0, 0.0, 3.0, 0.5, 2.0, 0.0])
    tracer.install()
    try:
        _, sols = getattr(dp, solve)(x, 3, 2)
    finally:
        tracer.restore()
    names = [span[0] for span in tracer.spans]
    assert names.count("dp.solve") == 1
    assert table_span in names
    assert names.count("dp.support") == 1
    assert tracer.layer_metrics([(0, len(names))])["dp.support.used_ratio"] == 1.0
    assert len(sols) == 3


def test_traced_block_figures_match_block_decompose():
    # The tracer reads the blocks and budgets that block_decompose returns
    # as arrays; its figures must equal those worked out from them here,
    # and its layer metrics must serialise as JSON.
    x = np.array([0.0, 5.0, 1.0, 0.0, 3.0, 0.5, 2.0, 0.0, 0.0, 4.0, 1.5, 0.0, 2.5])
    k, delta, lam = 3, 2, 2
    blocks, gains_computed, gains_picked, len_max = 0, 0, 0, 0
    phase = head.drop_phase(np.arange(1, x.size + 1), delta, lam)
    for nu in range(lam + 1):
        kept = np.flatnonzero((phase != nu) & (x != 0.0)) + 1
        dec = head.block_decompose(kept, delta, 1)
        blocks += len(dec.blocks)
        len_max = max([len_max] + [int(hi - lo + 1) for lo, hi in dec.blocks])
        gains_computed += sum(min(int(b), k) for b in dec.budgets)
        gains_picked += len(head.slice_solve(kept, x, k, delta, 1))

    tracer = load_tracer()
    tracer.install()
    try:
        head.head_project(x, k, delta, 1, 1 / lam)
    finally:
        tracer.restore()
    metrics = tracer.layer_metrics([(0, len(tracer.spans))])
    assert [span[0] for span in tracer.spans].count("head.decompose") == lam + 1
    assert metrics["head.blocks"] == blocks / (lam + 1)
    assert metrics["head.block_len_max"] == len_max
    assert metrics["head.gains_used_ratio"] == gains_picked / gains_computed
    json.dumps(metrics)


def test_traced_tail_counts_the_strong_positions_it_forces():
    # tail_project hands strong_and_reduced's strong positions to the
    # window loop as they are; the tracer counts that same array.
    x = np.array([0.0, 9.0, 0.5, 0.0, 0.0, 0.3, 7.0, 0.2, 0.0, 1.0, 1.0, 0.0, 8.0])
    delta = 3
    strong = tail.strong_and_reduced(x, delta).strong
    assert len(strong) >= 3
    tracer = load_tracer()
    tracer.install()
    try:
        tail.tail_project(x, 4, delta, 0.5)
    finally:
        tracer.restore()
    assert [span[0] for span in tracer.spans].count("tail.reduce") == 1
    assert tracer.counts["tail.strong"] == len(strong)


def test_traced_project_command_opens_one_head_span(tmp_path):
    # project runs head through bench.solve, which calls head.head_project
    # by its module: the traced command opens exactly one head span, and
    # opens it under the command's own span.
    path = tmp_path / "x.txt"
    write_vector(path, [0.0, 5.0, 1.0, 0.0, 3.0, 0.5, 2.0, 0.0])
    argv = ["project", "--in", str(path), "--k", "2", "--delta", "2", "--algo", "head",
            "--epsilon", "0.5", "--out", str(tmp_path / "result.json")]
    tracer = load_tracer()
    tracer.install()
    try:
        assert cli.main(argv) == 0
    finally:
        tracer.restore()
    names = [span[0] for span in tracer.spans]
    heads = [span for span in tracer.spans if span[0] == "head.project"]
    assert len(heads) == 1
    assert names[heads[0][3]] == "cli.project"
