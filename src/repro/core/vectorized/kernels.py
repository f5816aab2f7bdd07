"""The operator → batch-kernel registries of the block variation path.

The kernels live with their operators in :mod:`repro.core.operators`
(each scalar operator that has a bit-identical kernel is a one-row call
of it); this module maps operators to them.  Selection kernels map a fitness
*vector* to parent rows.  Crossover kernels map ``(p, L)`` parent blocks
to two ``(p, L)`` child blocks; mutation kernels map an ``(m, L)`` block
to a mutated copy.  Two-point crossover and swap/inversion mutation draw
their positions per row, so they are *distributionally* equivalent to
their scalar operators: identical distributions, different streams.

Every kernel is loop-free by contract — no ``for``/``while`` statements
and no comprehensions, here, in :mod:`repro.core.vectorized.variation`
or in any ``*_batch``/``*_indices`` kernel; the rule is enforced by
``scripts/check_engine_contract.py`` so the block path can never silently
regress to per-individual Python dispatch.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..operators import selection as sel_ops
from ..variation import row_loop_crossover, row_loop_mutation

__all__ = ["selection_kernel", "stacked_selection_kernel", "crossover_kernel", "mutation_kernel"]


# -- operator → kernel registries ---------------------------------------------
# A built-in operator with a kernel defines ``indices`` (selection) or
# ``batch`` (crossover, mutation).

def selection_kernel(
    op,
) -> Callable[[np.random.Generator, np.ndarray, int, bool], np.ndarray] | None:
    """Index-returning kernel for a selection operator, or ``None``.

    An operator without one picks from the population's object view
    through :func:`repro.core.variation.row_loop_selection` (see
    :meth:`EvolutionEngine._select_indices`).
    """
    return getattr(op, "indices", None)


def stacked_selection_kernel(
    op,
) -> Callable[[np.random.Generator, np.ndarray, int, bool], np.ndarray] | None:
    """Kernel for a ``(d, m)`` fitness block of ``d`` stacked demes, or
    ``None`` when the operator's kernel selects for one deme at a time."""
    return op.indices if isinstance(op, sel_ops.TournamentSelection) else None


def crossover_kernel(
    op,
) -> Callable[[np.random.Generator, np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """Block kernel for a crossover operator; the row-loop adapter for an
    operator without one."""
    return getattr(op, "batch", None) or row_loop_crossover(op)


def mutation_kernel(op) -> Callable[[np.random.Generator, np.ndarray], np.ndarray]:
    """Block kernel for a mutation operator; the row-loop adapter for an
    operator without one."""
    return getattr(op, "batch", None) or row_loop_mutation(op)
