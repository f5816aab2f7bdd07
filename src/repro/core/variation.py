"""Variation pipeline: selection-crossover-mutation as reusable functions.

"In PGA, there is always a selection-crossover-mutation cycle as in GAs"
(survey §1.1).  The engines run the cycle on genome blocks
(:func:`repro.core.vectorized.vector_offspring`); cellular cells, pool
agents and the asynchronous farm breed one pair at a time through
:func:`offspring_pair`.

This module is also the *row-loop adapter*: operators without a batch
kernel (user-defined ones) enter the block cycle through
:func:`row_loop_crossover`, :func:`row_loop_mutation` and
:func:`row_loop_selection`, which call the scalar operator once per row
(or pair) with that row's deme generator.  The kernel registry in
:mod:`repro.core.vectorized.kernels` hands these out, so there is one
engine path whatever the operators.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .config import GAConfig
from .genome import GenomeSpec
from .individual import Individual
from .rng import DemeStreams, row_generators

__all__ = [
    "offspring_pair",
    "make_offspring",
    "row_loop_crossover",
    "row_loop_mutation",
    "row_loop_selection",
]

Generators = np.random.Generator | DemeStreams


def offspring_pair(
    rng: np.random.Generator,
    config: GAConfig,
    spec: GenomeSpec,
    parent_a: Individual,
    parent_b: Individual,
    *,
    generation: int = 0,
) -> tuple[Individual, Individual]:
    """Recombine (with probability) and mutate (with probability) one pair.

    Parents are never modified; children are unevaluated.
    """
    if config.crossover is None or config.mutation is None:
        raise ValueError("config operators unresolved; call config.resolved_for(spec)")
    if rng.random() < config.crossover_prob:
        ga, gb = config.crossover(rng, parent_a.genome, parent_b.genome)
        origin = "cx"
    else:
        ga, gb = parent_a.genome.copy(), parent_b.genome.copy()
        origin = "clone"
    children = []
    for g in (ga, gb):
        if rng.random() < config.mutation_prob:
            g = config.mutation(rng, g)
            child_origin = origin + "+mut"
        else:
            child_origin = origin
        g = spec.repair(g, rng)
        children.append(
            Individual(genome=g, birth_generation=generation, origin=child_origin)
        )
    return children[0], children[1]


def make_offspring(
    rng: np.random.Generator,
    config: GAConfig,
    spec: GenomeSpec,
    parents: Sequence[Individual],
    count: int,
    *,
    generation: int = 0,
) -> list[Individual]:
    """Produce exactly ``count`` unevaluated offspring from a parent pool.

    Parents are consumed pairwise in order; the pool wraps around if it is
    smaller than needed.  The block cycle
    (:func:`repro.core.vectorized.vector_offspring`) does the work.
    """
    from .vectorized import vector_offspring  # its kernel registry imports this module

    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if count == 0:
        return []
    genomes, origins = vector_offspring(
        rng, config, spec, np.stack([p.genome for p in parents]), count
    )
    return [
        Individual(genome=g, birth_generation=generation, origin=o)
        for g, o in zip(genomes, origins)
    ]


def row_loop_crossover(
    op,
) -> Callable[[Generators, np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """Block-kernel form of a scalar crossover operator: ``op`` per pair."""

    def kernel(rng: Generators, A: np.ndarray, B: np.ndarray):
        pairs = [op(g, a, b) for g, a, b in zip(row_generators(rng, len(A)), A, B)]
        if not pairs:
            return A.copy(), B.copy()
        return np.stack([p[0] for p in pairs]), np.stack([p[1] for p in pairs])

    return kernel


def row_loop_mutation(op) -> Callable[[Generators, np.ndarray], np.ndarray]:
    """Block-kernel form of a scalar mutation operator: ``op`` per row."""

    def kernel(rng: Generators, G: np.ndarray) -> np.ndarray:
        if len(G) == 0:
            return G.copy()
        return np.stack([op(g, row) for g, row in zip(row_generators(rng, len(G)), G)])

    return kernel


def row_loop_selection(
    op, rng: np.random.Generator, members: Sequence[Individual], n: int, maximize: bool
) -> np.ndarray:
    """Run a scalar selection operator and map its picks back to rows.

    Selection operators return references into ``members`` (never
    copies), so each pick is located by identity.
    """
    picked = op(rng, members, n, maximize)
    index_of = {id(ind): i for i, ind in enumerate(members)}
    return np.asarray([index_of[id(ind)] for ind in picked], dtype=np.int64)
