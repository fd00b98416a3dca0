"""Projection and recovery toolkit for budgeted separated-sparsity models.

The top level re-exports the quick-start names; everything else is imported
from its module (``sepsparse.dp``, ``sepsparse.head``, ``sepsparse.tail``,
``sepsparse.recovery``, ...).
"""

from .dp import dp_solve
from .head import head_project
from .model import is_feasible, objective
from .tail import tail_project

__version__ = "0.1.0"

__all__ = [
    "dp_solve",
    "head_project",
    "is_feasible",
    "objective",
    "tail_project",
]
