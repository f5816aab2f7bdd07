"""Property-based tests (hypothesis) for the array-backed Population.

Storage is one genome matrix plus per-member vectors; ``Individual``
objects are a lazily built view.  The properties: the view round-trips
through the arrays, every object-level writer lands in the arrays, and a
non-finite fitness is rejected at the fitness-vector write exactly as
``Individual`` rejects it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import GenerationalEngine, GAConfig, Individual, Population
from repro.core.operators.replacement import (
    ReplaceOldest,
    ReplaceRandom,
    ReplaceWorst,
    ReplaceWorstIfBetter,
)
from repro.core.problem import Problem
from repro.core.genome import BinarySpec
from repro.migration import MigrationPolicy, integrate_immigrants

seeds = st.integers(min_value=0, max_value=2**31 - 1)
fitness_lists = st.lists(
    st.floats(-100, 100, allow_nan=False, allow_infinity=False), min_size=1, max_size=10
)


def _members(fits, rng):
    out = []
    for k, f in enumerate(fits):
        ind = Individual(
            genome=rng.integers(0, 2, size=6).astype(np.int8),
            birth_generation=int(rng.integers(0, 5)),
            origin=f"o{k}",
        )
        ind.fitness = f
        out.append(ind)
    return out


def _arrays(pop):
    return Population.from_arrays(
        pop.genomes.copy(),
        pop.fitnesses.copy(),
        maximize=pop.maximize,
        evaluated=pop.evaluated.copy(),
        birth_generations=pop.birth_generations.copy(),
        origins=pop.origins.copy(),
    )


def _row(pop, i):
    return (
        pop.genomes[i].tolist(),
        float(pop.fitnesses[i]),
        bool(pop.evaluated[i]),
        int(pop.birth_generations[i]),
        str(pop.origins[i]),
    )


def _state(ind):
    return (
        ind.genome.tolist(),
        ind.fitness,
        ind.fitness is not None,
        ind.birth_generation,
        ind.origin,
    )


@given(seed=seeds, fits=fitness_lists, maximize=st.booleans())
@settings(max_examples=50, deadline=None)
def test_object_view_round_trips(seed, fits, maximize):
    members = _members(fits, np.random.default_rng(seed))
    pop = _arrays(Population(members, maximize=maximize))
    assert [_state(i) for i in pop] == [_state(m) for m in members]
    assert [_row(pop, i) for i in range(len(pop))] == [_state(m) for m in members]
    assert pop.best_index() == int(np.argmax(fits) if maximize else np.argmin(fits))
    # the view is held (same objects) until the next array write
    first = pop[0]
    assert pop[0] is first
    pop.truncate(len(pop))
    assert pop[0] is not first


@given(seed=seeds, fits=fitness_lists, f=st.floats(-200, 200), maximize=st.booleans())
@settings(max_examples=50, deadline=None)
def test_writers_land_in_the_arrays(seed, fits, f, maximize):
    rng = np.random.default_rng(seed)
    newcomer = Individual(genome=np.ones(6, dtype=np.int8), birth_generation=9, origin="new")
    newcomer.fitness = f
    for write in (
        lambda p: p.replace_worst(newcomer),
        lambda p: p.__setitem__(len(p) - 1, newcomer),
        lambda p: ReplaceWorst()(rng, p, newcomer),
        lambda p: ReplaceWorstIfBetter()(rng, p, newcomer),
        lambda p: ReplaceRandom()(rng, p, newcomer),
        lambda p: ReplaceOldest()(rng, p, newcomer),
        lambda p: integrate_immigrants(
            rng, p, [newcomer], MigrationPolicy(replacement="worst")
        ),
    ):
        for pop in (
            _arrays(Population(_members(fits, rng), maximize=maximize)),  # array-backed
            Population(_members(fits, rng), maximize=maximize),  # view held
        ):
            before = [_row(pop, i) for i in range(len(pop))]
            write(pop)
            after = [_row(pop, i) for i in range(len(pop))]
            changed = [i for i in range(len(pop)) if before[i] != after[i]]
            assert len(pop) == len(fits) and len(changed) <= 1
            for i in changed:
                assert after[i][:4] == _state(newcomer)[:4]
            assert [_state(ind) for ind in pop] == after


class _Broken(Problem):
    spec = BinarySpec(6)

    def __init__(self, bad):
        self.bad = bad

    def evaluate(self, genome):
        return float(genome.sum())

    def evaluate_batch(self, genomes):
        out = genomes.sum(axis=1).astype(float)
        out[-1] = self.bad
        return out


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_nonfinite_batch_fitness_raises_like_individual(bad):
    with pytest.raises(ValueError, match="fitness must be finite or None"):
        Individual(genome=np.zeros(2)).fitness = bad
    with pytest.raises(ValueError, match="fitness must be finite or None"):
        GenerationalEngine(_Broken(bad), GAConfig(population_size=4), seed=0).initialize()
