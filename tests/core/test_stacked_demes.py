"""Differential tests: a stacked step equals per-deme steps, bit for bit.

Stacking shares the array arithmetic between demes, never the random
streams: every draw is cut into per-deme segments from each deme's own
generator.  So stepping ``d`` engines as one ``(d, n, L)`` block must
leave exactly the genomes, fitnesses, counters and generator states that
``d`` batch-of-one steps leave.

Stacked demes stay resident in one ``(d, n, ...)`` block between steps.
Row writes go through to it; array writes and held object views detach a
population, and the next stacked step stacks afresh.  The coherence tests
interleave steps with every such write and still demand bit-identity.
"""

import copy
import pickle

import numpy as np
import pytest

from repro.core import (
    EvolutionEngine,
    GAConfig,
    GenerationalEngine,
    Individual,
    SteadyStateEngine,
)
from repro.core.rng import DemeStreams, spawn_rngs
from repro.migration import MigrationPolicy, integrate_immigrants
from repro.migration.policy import select_migrant_rows
from repro.migration.synchrony import Synchrony
from repro.parallel import IslandModel
from repro.problems import DeceptiveTrap, OneMax

PROBLEMS = [OneMax(48), DeceptiveTrap(8, 4)]


def _engines(problem, d, n, seed, engine=GenerationalEngine):
    return [
        engine(problem, GAConfig(population_size=n, elitism=1), seed=rng)
        for rng in spawn_rngs(seed, d)
    ]


def _unstacked(monkeypatch):
    """Every ``step_stack`` call steps its engines as batches of one."""
    stack = EvolutionEngine.step_stack.__func__
    monkeypatch.setattr(
        EvolutionEngine,
        "step_stack",
        classmethod(lambda cls, engines: [stack(cls, [e]) for e in engines]),
    )


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
    with monkeypatch.context() as m:
        _unstacked(m)
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


def _island(problem, engine, **kwargs):
    return IslandModel(
        problem,
        8,
        GAConfig(population_size=20, elitism=1),
        engine=engine,
        seed=23,
        **kwargs,
    )


@pytest.mark.parametrize("engine", ["generational", "steady-state"])
@pytest.mark.parametrize(
    "kwargs",
    [
        # emigrants leave and their rows are refilled in place
        dict(policy=MigrationPolicy(rate=2, replacement="worst", copy=False)),
        # a subset of demes steps each epoch, so blocks go stale
        dict(
            policy=MigrationPolicy(rate=1, replacement="random"),
            synchrony=Synchrony(synchronous=False, delay=1),
            step_prob=[1.0, 0.5, 0.9, 0.3, 1.0, 0.7, 0.6, 1.0],
        ),
    ],
    ids=["copy-false-refill", "async-step-prob"],
)
def test_island_block_writes_equal_unstacked(engine, kwargs, monkeypatch):
    a = _island(DeceptiveTrap(8, 4), engine, **kwargs)
    ra = a.run(12)
    with monkeypatch.context() as m:
        _unstacked(m)
        b = _island(DeceptiveTrap(8, 4), engine, **kwargs)
        rb = b.run(12)
    assert all(_same(x, y) for x, y in zip(a.demes, b.demes))
    assert a.rng.bit_generator.state == b.rng.bit_generator.state
    assert [r.deme_bests for r in ra.records] == [r.deme_bests for r in rb.records]
    assert ra.migrants_accepted == rb.migrants_accepted


def _write_row(pops, rng, problem):
    """``pop[i] = ind`` into every deme (writes through to the block)."""
    for pop in pops:
        genome = problem.spec.sample(rng)
        ind = Individual(genome=genome, origin="written")
        ind.fitness = problem.evaluate(genome)
        pop[int(rng.integers(len(pop)))] = ind


def _integrate(pops, rng, problem):
    """Ring migration through ``integrate_immigrants``."""
    policy = MigrationPolicy(rate=2, replacement="worst")
    parcels = [[p.member(int(r)) for r in select_migrant_rows(rng, p, policy)] for p in pops]
    for i, pop in enumerate(pops):
        integrate_immigrants(rng, pop, parcels[i - 1], policy, source=i - 1)


def _refill(pops, rng, problem):
    """The copy=False emigrant refill: rows overwritten in place."""
    for pop in pops:
        for r in select_migrant_rows(rng, pop, MigrationPolicy(rate=2, copy=False)).tolist():
            genome = problem.spec.sample(rng)
            pop[r] = Individual(genome=genome, fitness=problem.evaluate(genome), origin="refill")


def _held_view(pops, rng, problem):
    """Hold every object view and edit members through it (detaches)."""
    for pop in pops:
        view = pop.individuals
        victim = view[int(rng.integers(len(view)))]
        victim.fitness = float(victim.fitness) + 0.25


def _truncate(pops, rng, problem):
    """Re-order every deme best-first (an array write: detaches)."""
    for pop in pops[::2]:
        pop.truncate(len(pop))


def _copy(pops, rng, problem):
    """Copies are independent of the block, both ways."""
    for pop in pops:
        before = pop.genomes.copy()
        clone = pop.copy()
        clone.genomes[:] = 1 - clone.genomes
        clone[0] = clone.member(1)
        assert np.array_equal(pop.genomes, before)
        shallow = copy.copy(pop)
        assert shallow._block is None


OPS = [_write_row, _integrate, _refill, _held_view, _truncate, _copy]
ENGINES = [GenerationalEngine, SteadyStateEngine]


@pytest.mark.parametrize("engine", ENGINES, ids=lambda e: e.__name__)
@pytest.mark.parametrize("op", OPS, ids=lambda f: f.__name__.strip("_"))
def test_block_writes_between_steps_equal_alone(op, engine):
    problem = DeceptiveTrap(8, 4)
    stacked, alone = _engines(problem, 6, 12, 9, engine), _engines(problem, 6, 12, 9, engine)
    for e in stacked + alone:
        e.initialize()
    rng_s, rng_a = np.random.default_rng(4), np.random.default_rng(4)

    def step():
        engine.step_stack(stacked)
        for e in alone:
            # the reference never reads a block: a detached copy each step
            e.population = e.population.copy()
            e.step()

    for _ in range(5):
        step()
        op([e.population for e in stacked], rng_s, problem)
        op([e.population for e in alone], rng_a, problem)
        # step before comparing: reading the arrays re-packs a held view
        step()
        assert all(_same(a, b) for a, b in zip(stacked, alone))
    for a, b in zip(stacked, alone):
        assert [r.stats for r in a.history.records] == [r.stats for r in b.history.records]


def test_bound_population_pickles_its_own_rows_only():
    engines = _engines(OneMax(64), 8, 16, 2)
    for e in engines:
        e.initialize()
    GenerationalEngine.step_stack(engines)
    pop = engines[3].population
    assert pop._block is not None and pop._block[1] == 3
    unbound = pop.copy()
    unbound.stats()  # the bound population carries its cached stats too
    assert unbound._block is None
    assert len(pickle.dumps(pop)) <= len(pickle.dumps(unbound))
    for clone in (pickle.loads(pickle.dumps(pop)), copy.deepcopy(pop)):
        assert clone._block is None
        assert np.array_equal(clone.genomes, pop.genomes)
        clone[0] = clone.member(1)
    # the clones wrote nothing into the block
    assert np.array_equal(engines[3].population.genomes, unbound.genomes)


@pytest.mark.parametrize("engine", ENGINES, ids=lambda e: e.__name__)
def test_coherent_stacked_step_restacks_nothing(engine, monkeypatch):
    """While the demes view their block, a stacked step gathers from it
    directly: no ``np.stack`` and no ``np.take_along_axis`` call."""
    engines = _engines(DeceptiveTrap(8, 4), 8, 20, 5, engine)
    for e in engines:
        e.initialize()
    engine.step_stack(engines)  # binds the demes to a resident block
    calls = []
    for name in ("stack", "take_along_axis"):
        real = getattr(np, name)
        monkeypatch.setattr(
            np, name, lambda *a, _real=real, _name=name, **k: calls.append(_name) or _real(*a, **k)
        )
    for _ in range(3):
        engine.step_stack(engines)
    assert calls == []
    # a detached deme is the cache miss: the next step stacks afresh
    engines[2].population.truncate(20)
    engine.step_stack(engines)
    assert "stack" in calls


def test_reordered_stack_equals_alone():
    """A block is read only in its own slot order: the same demes handed
    over in another order are stacked afresh."""
    problem = OneMax(40)
    stacked, alone = _engines(problem, 5, 10, 8), _engines(problem, 5, 10, 8)
    for e in stacked + alone:
        e.initialize()
    for order in ([0, 1, 2, 3, 4], [4, 3, 2, 1, 0], [1, 0, 2, 3, 4], [1, 0, 2, 3, 4]):
        GenerationalEngine.step_stack([stacked[i] for i in order])
        for e in alone:
            e.step()
    assert all(_same(a, b) for a, b in zip(stacked, alone))
