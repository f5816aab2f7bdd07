"""Sequential evolution engines: generational and steady-state.

These are the survey's two *panmictic* reproduction loops ("a set of popular
evolution schemes relating to panmictic (steady-state or generational) …
GAs"; Alba & Troya 2002 analyze exactly this pair).  Parallel models reuse
them: an island runs one engine per deme; a master-slave farm runs one
engine whose fitness evaluation is delegated to an evaluator.

The *evaluator* seam (``evaluate(problem, genomes) -> fitnesses``) is where
parallel fitness evaluation plugs in without the engine knowing.

Both engines run one array path: selection kernel → :func:`vector_offspring`
→ batch evaluation → elitism or replacement on the population's arrays.
:meth:`EvolutionEngine.step_stack` advances several equal-shaped engines
(an island model's demes) as one ``(d, n, L)`` block; each engine still
draws only from its own generator, so a stacked step is bit-identical to
stepping the engines one at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol, Sequence

import numpy as np

from ..obs.session import current_obs
from .callbacks import Callback, CallbackList, History
from .config import GAConfig
from .individual import Individual
from .population import (
    Population,
    assign_stack,
    bind_stack,
    stack_fitnesses,
    stack_stats,
)
from .problem import Problem
from .rng import DemeStreams, ensure_rng
from .termination import EvolutionState, MaxGenerations, Termination
from .variation import row_loop_selection
from .vectorized import selection_kernel, stacked_selection_kernel, vector_offspring

__all__ = [
    "FitnessEvaluator",
    "SerialEvaluator",
    "EvolutionResult",
    "EvolutionEngine",
    "GenerationalEngine",
    "SteadyStateEngine",
]


class FitnessEvaluator(Protocol):
    """Maps genomes to fitnesses, possibly in parallel."""

    def evaluate(self, problem: Problem, genomes: Sequence[np.ndarray]) -> list[float]: ...


class SerialEvaluator:
    """Evaluate genomes in the calling process, one after another."""

    def evaluate(self, problem: Problem, genomes: Sequence[np.ndarray]) -> list[float]:
        return problem.evaluate_many(genomes)


@dataclass
class EvolutionResult:
    """Outcome of one engine run."""

    best: Individual
    population: Population
    generations: int
    evaluations: int
    solved: bool
    stop_reason: str
    history: History = field(repr=False, default_factory=History)

    @property
    def best_fitness(self) -> float:
        return self.best.require_fitness()


class EvolutionEngine:
    """Shared machinery for the two sequential engines.

    Subclasses implement :meth:`_advance`, which moves a stack of engines
    of the subclass's type one generation on (a single engine is the
    batch-of-one case).
    """

    def __init__(
        self,
        problem: Problem,
        config: GAConfig | None = None,
        *,
        seed: int | np.random.Generator | None = None,
        evaluator: FitnessEvaluator | None = None,
        callbacks: list[Callback] | None = None,
    ) -> None:
        self.problem = problem
        base = config if config is not None else GAConfig()
        self.config = base.resolved_for(problem.spec)
        self.rng = ensure_rng(seed)
        self.evaluator: FitnessEvaluator = evaluator or SerialEvaluator()
        self.history = History()
        self.callbacks = CallbackList([self.history, *(callbacks or [])])
        self.population: Population | None = None
        self.state = EvolutionState(maximize=problem.maximize)
        self._best_so_far: Individual | None = None

    # -- lifecycle -------------------------------------------------------------
    def initialize(self, individuals: list[Individual] | None = None) -> Population:
        """Create and evaluate generation 0.

        ``individuals`` lets callers seed the initial population (e.g. with
        phase-1 solutions in the 2-phase image-registration workload).
        """
        maximize = self.problem.maximize
        if individuals is None:
            genomes = np.stack(
                self.problem.spec.sample_population(self.rng, self.config.population_size)
            )
            pop = Population.from_arrays(genomes, self._evaluate(genomes), maximize=maximize)
        else:
            todo = [ind for ind in individuals if not ind.evaluated]
            if todo:
                fitnesses = self._evaluate(np.stack([ind.genome for ind in todo]))
                for ind, f in zip(todo, fitnesses.tolist()):
                    ind.fitness = f
            pop = Population(individuals, maximize=maximize)
        self.population = pop
        self.state = EvolutionState(
            generation=0,
            evaluations=self.state.evaluations,
            best_fitness=pop.best_fitness(),
            maximize=maximize,
        )
        self._best_so_far = pop.member(pop.best_index())
        self.callbacks.on_generation(self.state, pop)
        return pop

    def step(self) -> Population:
        """Advance one generation (initialising lazily)."""
        if self.population is None:
            self.initialize()
            return self.population  # generation 0 counts as the first step
        self.step_stack([self])
        return self.population

    @classmethod
    def step_stack(cls, engines: Sequence["EvolutionEngine"]) -> None:
        """Advance every engine in ``engines`` one generation in one pass.

        The engines must be initialised instances of ``cls`` on the same
        problem with equal population sizes.  Selection, variation,
        evaluation, replacement and statistics run on the stacked
        ``(d, n, L)`` block; every draw comes from the owning engine's own
        generator, so the result is bit-identical to stepping each engine
        alone.
        """
        if not engines:
            return
        if any(type(e) is not cls or e.population is None for e in engines):
            raise ValueError(f"step_stack needs initialised {cls.__name__} engines")
        cls._advance(engines)
        F = stack_stats([e.population for e in engines])
        rows = F.argmax(axis=1) if engines[0].problem.maximize else F.argmin(axis=1)
        bests = F[np.arange(len(engines)), rows].tolist()
        for e, row, best in zip(engines, rows.tolist(), bests):
            e.state.generation += 1
            if e._best_so_far is None or e.problem.is_improvement(
                best, e._best_so_far.require_fitness()
            ):
                e._best_so_far = e.population.member(row)
                e.state.stagnant_generations = 0
            else:
                e.state.stagnant_generations += 1
            e.state.best_fitness = e._best_so_far.require_fitness()
            e.callbacks.on_generation(e.state, e.population)

    def run(self, termination: Termination | int | None = None) -> EvolutionResult:
        """Run until the termination criterion fires.

        An ``int`` is shorthand for :class:`MaxGenerations`.
        """
        if termination is None:
            termination = MaxGenerations(100)
        elif isinstance(termination, int):
            termination = MaxGenerations(termination)
        if self.population is None:
            self.initialize()
        while not termination.should_stop(self.state) and not self._solved():
            self.step()
        return self.result(stop_reason="solved" if self._solved() else termination.reason())

    def result(self, stop_reason: str = "manual") -> EvolutionResult:
        """Snapshot the current outcome."""
        if self.population is None or self._best_so_far is None:
            raise RuntimeError("engine has not been initialised")
        return EvolutionResult(
            best=self._best_so_far.copy(),
            population=self.population,
            generations=self.state.generation,
            evaluations=self.state.evaluations,
            solved=self._solved(),
            stop_reason=stop_reason,
            history=self.history,
        )

    @property
    def best_so_far(self) -> Individual:
        """Best individual seen over the whole run (not just current pop)."""
        if self._best_so_far is None:
            raise RuntimeError("engine has not been initialised")
        return self._best_so_far

    # -- internals ---------------------------------------------------------------
    def _solved(self) -> bool:
        return self.state.best_fitness is not None and self.problem.is_solved(
            self.state.best_fitness
        )

    def _evaluate(self, genomes: np.ndarray) -> np.ndarray:
        """Fitnesses of an ``(m, L)`` block through this engine's evaluator."""
        fitnesses = _fitnesses(self.evaluator, self.problem, genomes)
        self.state.evaluations += len(genomes)
        return fitnesses

    def _select_indices(self, fitnesses: np.ndarray, n: int) -> np.ndarray:
        """Select ``n`` parent row indices from the current population.

        Uses the operator's index kernel when one exists; a custom operator
        picks from the population's object view through the row-loop
        adapter.
        """
        assert self.population is not None
        kernel = selection_kernel(self.config.selection)
        if kernel is not None:
            return kernel(self.rng, fitnesses, n, self.problem.maximize)
        return row_loop_selection(
            self.config.selection,
            self.rng,
            self.population.individuals,
            n,
            self.problem.maximize,
        )

    @classmethod
    def _advance(cls, engines: Sequence["EvolutionEngine"]) -> None:
        raise NotImplementedError


def _fitnesses(evaluator: FitnessEvaluator, problem: Problem, genomes: np.ndarray) -> np.ndarray:
    fitnesses = evaluator.evaluate(problem, genomes)
    if len(fitnesses) != len(genomes):
        raise RuntimeError(
            f"evaluator returned {len(fitnesses)} fitnesses for {len(genomes)} genomes"
        )
    return np.asarray(fitnesses, dtype=float)


def _select_stack(engines: Sequence[EvolutionEngine], F: np.ndarray, n: int) -> np.ndarray:
    """``(d, n)`` parent rows for stacked engines, one row of picks per deme."""
    kernel = stacked_selection_kernel(engines[0].config.selection) if len(engines) > 1 else None
    if kernel is not None:
        streams = DemeStreams([e.rng for e in engines], np.ones(len(engines), dtype=int))
        return kernel(streams, F, n, engines[0].problem.maximize)
    return np.stack([e._select_indices(F[i], n) for i, e in enumerate(engines)])


def _evaluate_stack(engines: Sequence[EvolutionEngine], children: np.ndarray) -> np.ndarray:
    """``(d, c)`` fitnesses of a ``(d, c, L)`` child block.

    Engines that evaluate serially on one shared problem get a single
    batch call; each engine is still charged its own ``c`` evaluations.
    """
    lead = engines[0]
    d, c = children.shape[:2]
    shared = all(
        type(e.evaluator) is SerialEvaluator and e.problem is lead.problem for e in engines
    )
    if d == 1 or not shared:
        return np.stack([e._evaluate(children[i]) for i, e in enumerate(engines)])
    fits = _fitnesses(lead.evaluator, lead.problem, children.reshape(d * c, -1))
    for e in engines:
        e.state.evaluations += c
    return fits.reshape(d, c)


def _record_variation(obs, t0: float, engine: str, offspring: int) -> None:
    obs.spans.record(
        "variation", t0, obs.wall_now(), clock="wall", track="variation",
        engine=engine, offspring=offspring,
    )
    obs.metrics.counter("variation.offspring").inc(offspring)


class GenerationalEngine(EvolutionEngine):
    """Whole-population replacement each generation, with elitism."""

    @classmethod
    def _advance(cls, engines: Sequence[EvolutionEngine]) -> None:
        lead = engines[0]
        cfg = lead.config
        obs = current_obs()
        t0 = obs.wall_now() if obs is not None else 0.0
        pops = [e.population for e in engines]
        n = len(pops[0])
        elite = min(cfg.elitism, n)
        needed = n - elite
        G = bind_stack(pops)["genomes"]
        F = stack_fitnesses(pops)
        parent_idx = _select_stack(engines, F, needed + needed % 2)
        parents = G[np.arange(len(engines))[:, None], parent_idx]
        children, origins = vector_offspring(
            [e.rng for e in engines], cfg, lead.problem.spec, parents, needed
        )
        if obs is not None:
            _record_variation(obs, t0, "generational", needed * len(engines))
        fits = _evaluate_stack(engines, children)
        # elites: each deme's best `elite` rows, best-first, ties in row order
        keep = np.argsort(-F if lead.problem.maximize else F, axis=1, kind="stable")[:, :elite]
        born = np.asarray([e.state.generation + 1 for e in engines])[:, None]
        assign_stack(
            pops,
            keep,
            {
                "genomes": children,
                "fitnesses": fits,
                "births": np.broadcast_to(born, fits.shape),
                "origins": origins,
            },
        )


class SteadyStateEngine(EvolutionEngine):
    """Insert offspring one at a time, evicting via the replacement policy.

    One *generation* is defined as ``population_size`` insertions scaled by
    ``offspring_per_step`` — i.e. one full population's worth of births —
    so convergence curves are comparable with the generational engine.
    Each birth depends on the previous insertion, so stacked engines step
    their births in lockstep: birth ``b`` of every deme is one array pass.
    """

    @classmethod
    def _advance(cls, engines: Sequence[EvolutionEngine]) -> None:
        lead = engines[0]
        cfg = lead.config
        obs = current_obs()
        pops = [e.population for e in engines]
        births_per_generation = len(pops[0])
        generation = [e.state.generation + 1 for e in engines]
        demes = np.arange(len(engines))[:, None]
        born = 0
        spent = 0.0
        while born < births_per_generation:
            k = min(cfg.offspring_per_step, births_per_generation - born)
            t0 = obs.wall_now() if obs is not None else 0.0
            # the replacements write rows through to the resident block,
            # so it is stacked once, not once per birth
            G = bind_stack(pops)["genomes"]
            F = stack_fitnesses(pops)
            parent_idx = _select_stack(engines, F, 2)
            parents = G[demes, parent_idx]
            children, origins = vector_offspring(
                [e.rng for e in engines], cfg, lead.problem.spec, parents, k
            )
            if obs is not None:
                spent += obs.wall_now() - t0
            fits = _evaluate_stack(engines, children).tolist()
            for i, e in enumerate(engines):
                for genome, fitness, origin in zip(children[i], fits[i], origins[i]):
                    child = Individual(
                        genome=genome,
                        fitness=fitness,
                        birth_generation=generation[i],
                        origin=origin,
                    )
                    cfg.replacement(e.rng, pops[i], child)
            born += k
        if obs is not None:
            # one aggregated span per generation: duration = the summed
            # variation fragments of all steady-state steps
            _record_variation(obs, obs.wall_now() - spent, "steady-state", born * len(engines))
