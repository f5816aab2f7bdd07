"""Migration policies: which individuals leave, and who they replace.

"Migration … is a new process which describes how many migrants will be
exchanged between the demes, when there is the right time for migration and
which type of the migration schemes is useful." — survey §1.1.

A :class:`MigrationPolicy` answers the *which* questions; schedules
(:mod:`repro.migration.schedule`) answer *when*; synchrony
(:mod:`repro.migration.synchrony`) answers *how* the exchange is timed.
Alba & Troya (2000) found migrant selection (best vs random) and the
replacement rule to be key knobs — exactly the fields here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from ..core.individual import Individual
from ..core.population import Population

__all__ = ["MigrationPolicy", "select_migrant_rows", "select_migrants", "integrate_immigrants"]

MigrantSelection = Literal["best", "random", "roulette", "worst"]
ImmigrantReplacement = Literal["worst", "random", "worst-if-better", "similar"]


@dataclass(frozen=True)
class MigrationPolicy:
    """Everything about a migration event except its timing.

    Parameters
    ----------
    rate:
        Migrants sent per event per outgoing link.
    selection:
        How emigrants are chosen: ``"best"`` (elitist — the common choice),
        ``"random"`` (diversity-preserving), ``"roulette"``
        (fitness-proportional), ``"worst"`` (a pathological control).
    replacement:
        How immigrants enter: ``"worst"`` (displace the worst locals),
        ``"random"``, ``"worst-if-better"`` (only accept improving
        immigrants), ``"similar"`` (displace the genotypically closest —
        crowding-flavoured).
    copy:
        If True (pollination model) the emigrant also stays home.  If False
        it genuinely leaves: :class:`~repro.parallel.island.IslandModel`
        (and its master-slave hybrid) refill the emigrants' rows with fresh
        random members scored by the deme's own evaluator, so the deme
        keeps its size.  Engines whose migrants are always copies (the
        timed deme runtime, the specialized and cellular-island models)
        reject ``copy=False`` at construction.
    """

    rate: int = 1
    selection: MigrantSelection = "best"
    replacement: ImmigrantReplacement = "worst-if-better"
    copy: bool = True

    def __post_init__(self) -> None:
        if self.rate < 0:
            raise ValueError(f"migration rate must be >= 0, got {self.rate}")


def select_migrant_rows(
    rng: np.random.Generator,
    population: Population,
    policy: MigrationPolicy,
) -> np.ndarray:
    """Row indices of the ``policy.rate`` emigrants in ``population``."""
    k = min(policy.rate, len(population))
    if k == 0:
        return np.empty(0, dtype=np.int64)
    if policy.selection == "best":
        return population.order()[:k]
    if policy.selection == "worst":
        return population.order()[-k:]
    if policy.selection == "random":
        return rng.choice(len(population), size=k, replace=False)
    if policy.selection == "roulette":
        f = population.fitness_array()
        w = f - f.min() if population.maximize else f.max() - f
        total = w.sum()
        probs = (w / total) if total > 0 else np.full(len(population), 1.0 / len(population))
        return rng.choice(len(population), size=k, replace=False, p=probs)
    raise ValueError(f"unknown migrant selection {policy.selection!r}")


def select_migrants(
    rng: np.random.Generator,
    population: Population,
    policy: MigrationPolicy,
) -> list[Individual]:
    """Choose ``policy.rate`` emigrant *copies* from ``population``."""
    return [population.member(int(i)) for i in select_migrant_rows(rng, population, policy)]


def integrate_immigrants(
    rng: np.random.Generator,
    population: Population,
    immigrants: list[Individual],
    policy: MigrationPolicy,
    *,
    source: int | None = None,
) -> int:
    """Insert ``immigrants`` into ``population`` per the replacement rule.

    Returns the number actually accepted.  Immigrants must be evaluated.
    """
    accepted = 0
    for imm in immigrants:
        imm = imm.copy(origin=f"migrant:{source}" if source is not None else "migrant")
        fi = imm.require_fitness()
        if policy.replacement == "worst":
            idx = population.worst_index()
        elif policy.replacement == "random":
            idx = int(rng.integers(0, len(population)))
        elif policy.replacement == "worst-if-better":
            idx = population.worst_index()
            fw = float(population.fitness_array()[idx])
            if not (fi > fw if population.maximize else fi < fw):
                continue
        elif policy.replacement == "similar":
            # displace the genotypically nearest member (restricted tournament)
            genomes = population.genomes.astype(float)
            d = np.abs(genomes - imm.genome.astype(float)[None, :]).sum(axis=1)
            idx = int(np.argmin(d))
            fv = float(population.fitness_array()[idx])
            if not (fi >= fv if population.maximize else fi <= fv):
                continue
        else:
            raise ValueError(f"unknown immigrant replacement {policy.replacement!r}")
        population[idx] = imm
        accepted += 1
    return accepted
