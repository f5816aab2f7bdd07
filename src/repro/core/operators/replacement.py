"""Replacement (survivor-selection) policies.

Generational engines replace the whole population (optionally keeping an
elite); steady-state engines insert offspring one at a time, evicting a
victim chosen by one of these policies.  The survey's island studies (Alba &
Troya) compare *generational* and *steady-state* reproduction loops, which
differ exactly here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

from ..individual import Individual
from ..population import Population

__all__ = [
    "Replacement",
    "ReplaceWorst",
    "ReplaceRandom",
    "ReplaceOldest",
    "ReplaceWorstIfBetter",
    "elitist_merge",
]


class Replacement(Protocol):
    """Insert ``newcomer`` into ``population``; return the evicted individual
    (or ``None`` when the newcomer was rejected)."""

    def __call__(
        self,
        rng: np.random.Generator,
        population: Population,
        newcomer: Individual,
    ) -> Individual | None: ...


@dataclass(frozen=True)
class ReplaceWorst:
    """Always evict the current worst member."""

    def __call__(
        self, rng: np.random.Generator, population: Population, newcomer: Individual
    ) -> Individual | None:
        return population.replace_worst(newcomer)


@dataclass(frozen=True)
class ReplaceWorstIfBetter:
    """Evict the worst member only when the newcomer improves on it.

    The classic steady-state insertion used in Alba & Troya's island
    experiments: a deme never gets worse.
    """

    def __call__(
        self, rng: np.random.Generator, population: Population, newcomer: Individual
    ) -> Individual | None:
        nf = newcomer.require_fitness()
        idx = population.worst_index()
        wf = float(population.fitnesses[idx])
        improves = nf > wf if population.maximize else nf < wf
        if not improves:
            return None
        return population.replace(idx, newcomer)


@dataclass(frozen=True)
class ReplaceRandom:
    """Evict a uniformly random member (no elitist pressure)."""

    def __call__(
        self, rng: np.random.Generator, population: Population, newcomer: Individual
    ) -> Individual | None:
        return population.replace(int(rng.integers(0, len(population))), newcomer)


@dataclass(frozen=True)
class ReplaceOldest:
    """Evict the member with the smallest birth generation (FIFO ageing);
    among equally old members, the lowest row."""

    def __call__(
        self, rng: np.random.Generator, population: Population, newcomer: Individual
    ) -> Individual | None:
        return population.replace(int(np.argmin(population.birth_generations)), newcomer)


def elitist_merge(
    old: Population,
    offspring: Sequence[Individual],
    elite_count: int,
) -> list[Individual]:
    """Build the next generation: ``elite_count`` best parents survive
    unconditionally, the rest of the slots are filled by offspring.

    Offspring are assumed evaluated.  Raises if there are not enough
    offspring to fill the remainder.
    """
    if elite_count < 0:
        raise ValueError(f"elite_count must be >= 0, got {elite_count}")
    n = len(old)
    elite_count = min(elite_count, n)
    needed = n - elite_count
    if len(offspring) < needed:
        raise ValueError(
            f"need {needed} offspring to fill generation, got {len(offspring)}"
        )
    elite = old.sorted()[:elite_count]
    return list(elite) + list(offspring[:needed])
