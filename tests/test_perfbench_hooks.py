"""The benchmark's tracer patches package attributes by name.

``perfbench/tracing.py`` wraps module and class attributes of ``sepsparse``
to time each layer.  These tests fail when a patched name disappears, when
a traced call no longer goes through it, or when the originals are not put
back afterwards.
"""

import importlib.util
from pathlib import Path

import numpy as np

from sepsparse import head, tail

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
    finally:
        tracer.restore()
    names = {span[0] for span in tracer.spans}
    for name in ("head.project", "tail.project", "tail.reduce", "head.slice",
                 "head.decompose", "dp.table1", "dp.support", "model.objective"):
        assert name in names, name
