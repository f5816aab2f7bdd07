"""Differential tests: a stacked step equals per-deme steps, bit for bit.

Stacking shares the array arithmetic between demes, never the random
streams: every draw is cut into per-deme segments from each deme's own
generator.  So stepping ``d`` engines as one ``(d, n, L)`` block must
leave exactly the genomes, fitnesses, counters and generator states that
``d`` batch-of-one steps leave.
"""

import numpy as np
import pytest

from repro.core import EvolutionEngine, GAConfig, GenerationalEngine
from repro.core.rng import DemeStreams, spawn_rngs
from repro.migration import MigrationPolicy
from repro.parallel import IslandModel
from repro.problems import DeceptiveTrap, OneMax

PROBLEMS = [OneMax(48), DeceptiveTrap(8, 4)]


def _engines(problem, d, n, seed):
    return [
        GenerationalEngine(problem, GAConfig(population_size=n, elitism=1), seed=rng)
        for rng in spawn_rngs(seed, d)
    ]


def _same(a, b):
    pa, pb = a.population, b.population
    return (
        np.array_equal(pa.genomes, pb.genomes)
        and np.array_equal(pa.fitnesses, pb.fitnesses)
        and pa.origins.tolist() == pb.origins.tolist()
        and pa.birth_generations.tolist() == pb.birth_generations.tolist()
        and a.state.evaluations == b.state.evaluations
        and a.state.stagnant_generations == b.state.stagnant_generations
        and a.best_so_far.fitness == b.best_so_far.fitness
        and a.rng.bit_generator.state == b.rng.bit_generator.state
    )


@pytest.mark.parametrize("problem", PROBLEMS, ids=lambda p: p.name)
def test_stacked_engine_step_equals_batch_of_one_steps(problem):
    stacked, alone = _engines(problem, 8, 20, 3), _engines(problem, 8, 20, 3)
    for e in stacked + alone:
        e.initialize()
    for _ in range(12):
        GenerationalEngine.step_stack(stacked)
        for e in alone:
            e.step()
    assert all(_same(a, b) for a, b in zip(stacked, alone))
    assert [r.stats for r in stacked[0].history.records] == [
        r.stats for r in alone[0].history.records
    ]


@pytest.mark.parametrize("engine", ["generational", "steady-state"])
@pytest.mark.parametrize("problem", PROBLEMS, ids=lambda p: p.name)
def test_island_model_stacked_equals_unstacked(problem, engine, monkeypatch):
    def run():
        model = IslandModel(
            problem,
            8,
            GAConfig(population_size=20, elitism=1),
            policy=MigrationPolicy(rate=1, replacement="worst-if-better"),
            engine=engine,
            seed=17,
        )
        return model, model.run(15)

    a, ra = run()
    stack = EvolutionEngine.step_stack.__func__
    with monkeypatch.context() as m:
        # every deme as its own batch of one
        m.setattr(
            EvolutionEngine,
            "step_stack",
            classmethod(lambda cls, engines: [stack(cls, [e]) for e in engines]),
        )
        b, rb = run()
    assert all(_same(x, y) for x, y in zip(a.demes, b.demes))
    assert a.rng.bit_generator.state == b.rng.bit_generator.state
    assert ra.evaluations == rb.evaluations
    assert ra.best_fitness == rb.best_fitness


def test_deme_streams_draw_like_separate_generators():
    rngs, solo = spawn_rngs(5, 3), spawn_rngs(5, 3)
    streams = DemeStreams(rngs).split([2, 0, 3])
    drawn = streams.random((5, 4))
    expected = np.concatenate([r.random((k, 4)) for r, k in zip(solo, [2, 0, 3])])
    assert np.array_equal(drawn, expected)
    low = np.zeros((5, 2))
    assert np.array_equal(
        streams.uniform(low, low + 1.0),
        np.concatenate([r.uniform(low[:k], low[:k] + 1.0) for r, k in zip(solo, [2, 0, 3])]),
    )
    with pytest.raises(ValueError, match="deme rows"):
        streams.random(4)
