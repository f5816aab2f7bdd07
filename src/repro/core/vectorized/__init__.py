"""``repro.core.vectorized`` — the block variation path.

The engines run the survey's selection-crossover-mutation cycle ("there
is always a selection-crossover-mutation cycle as in GAs", §1.1) on the
array-backed :class:`~repro.core.population.Population`: an ``(n, L)``
genome matrix per deme, or a ``(d, n, L)`` block for stacked demes, with
each operator applied to whole offspring blocks under per-row
probability masks.

Layout
------
:mod:`~repro.core.vectorized.kernels`
    Batched NumPy kernels: index-returning selection, block crossover,
    block mutation, plus the operator → kernel registries.  Operators
    without a kernel get the row-loop adapter of
    :mod:`repro.core.variation`.  Loop-free by contract (enforced by
    ``scripts/check_engine_contract.py``).
:mod:`~repro.core.vectorized.variation`
    :func:`vector_offspring` — the whole cycle on parent blocks,
    producing *exactly* the requested offspring count.  Loop-free by the
    same contract.

See ``docs/variation_path.md``.
"""

from .kernels import (
    crossover_kernel,
    mutation_kernel,
    selection_kernel,
    stacked_selection_kernel,
)
from .variation import vector_offspring

__all__ = [
    "crossover_kernel",
    "mutation_kernel",
    "selection_kernel",
    "stacked_selection_kernel",
    "vector_offspring",
]
