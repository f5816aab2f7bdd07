"""Edge-case coverage for island-model variants."""

import numpy as np
import pytest

from repro.core import GAConfig, MaxGenerations, SteadyStateEngine
from repro.migration import MigrationPolicy, PeriodicSchedule
from repro.parallel import IslandModel
from repro.problems import OneMax
from repro.topology import RandomRewiringTopology, ScheduleTopology, RingTopology, CompleteTopology


class TestNonCopyingMigration:
    def test_emigrants_leave_home_deme(self):
        """policy.copy=False: the emigrant is replaced at home by a fresh
        random individual (deme size stays constant, diversity re-injected)."""
        model = IslandModel(
            OneMax(16),
            2,
            GAConfig(population_size=6),
            policy=MigrationPolicy(rate=1, selection="best", replacement="worst",
                                   copy=False),
            schedule=PeriodicSchedule(1),
            seed=1,
        )
        model.initialize()
        best_before = model.demes[0].population.best().require_fitness()
        model.step_epoch()
        # sizes unchanged, refill individuals present somewhere over time
        assert all(len(d.population) == 6 for d in model.demes)
        origins = {
            i.origin for d in model.demes for i in d.population
        }
        assert any(o.startswith("migrant") for o in origins)
        assert "refill" in origins

    def test_refill_individuals_are_evaluated(self):
        model = IslandModel(
            OneMax(16), 2, GAConfig(population_size=6),
            policy=MigrationPolicy(rate=2, selection="best", copy=False,
                                   replacement="worst"),
            schedule=PeriodicSchedule(1),
            seed=2,
        )
        model.run(MaxGenerations(4))
        for deme in model.demes:
            assert deme.population.all_evaluated


    @pytest.mark.parametrize("copy", [True, False])
    def test_every_evaluation_is_counted(self, copy):
        """Refills are scored through the deme's evaluator, so the report's
        count matches the bulk-path telemetry with and without copying."""
        from repro.core.problem import evaluations_observed

        model = IslandModel(
            OneMax(64), 4, GAConfig(population_size=12),
            policy=MigrationPolicy(rate=2, selection="best", copy=copy),
            schedule=PeriodicSchedule(1),
            seed=3,
        )
        before = evaluations_observed()
        report = model.run(MaxGenerations(10))
        assert evaluations_observed() - before == model.total_evaluations()
        assert report.evaluations == model.total_evaluations()
        assert model.migrants_sent > 0

    def test_emigrant_rows_are_refilled(self):
        """copy=False takes the emigrants' own rows (not a genome match)."""
        model = IslandModel(
            OneMax(16), 2, GAConfig(population_size=6),
            policy=MigrationPolicy(rate=2, selection="best", copy=False),
            schedule=PeriodicSchedule(1),
            seed=4,
        )
        model.initialize()
        pop = model.demes[0].population
        best_rows = pop.order()[:2].tolist()
        model._emigrate(0, now=0)
        assert [pop.origins[r] for r in best_rows] == ["refill", "refill"]
        assert sum(o == "refill" for o in pop.origins) == 2


class TestDynamicTopologyIntegration:
    def test_rewiring_topology_advances_per_epoch(self):
        topo = RandomRewiringTopology(4, k=1, seed=3)
        before = topo.edges()
        model = IslandModel(
            OneMax(16), 4, GAConfig(population_size=6),
            topology=topo, schedule=PeriodicSchedule(1), seed=3,
        )
        model.run(MaxGenerations(5))
        assert topo.epoch == 5
        assert topo.edges() != before or topo.epoch > 0

    def test_schedule_topology_alternates(self):
        topo = ScheduleTopology([RingTopology(4), CompleteTopology(4)])
        model = IslandModel(
            OneMax(16), 4, GAConfig(population_size=6),
            topology=topo,
            schedule=PeriodicSchedule(1),
            policy=MigrationPolicy(rate=1, replacement="worst"),
            seed=4,
        )
        model.step_epoch()  # ring phase: 4 links
        sent_ring = model.migrants_sent
        model.step_epoch()  # complete phase: 12 links
        sent_complete = model.migrants_sent - sent_ring
        assert sent_ring == 4
        assert sent_complete == 12

    def test_rewired_islands_still_solve(self):
        model = IslandModel(
            OneMax(24), 4, GAConfig(population_size=10),
            topology=RandomRewiringTopology(4, k=1, seed=5),
            schedule=PeriodicSchedule(2),
            seed=5,
        )
        res = model.run(MaxGenerations(80))
        assert res.solved


class TestSteadyStateVariants:
    def test_offspring_per_step_two_keeps_both_children(self):
        eng = SteadyStateEngine(
            OneMax(16),
            GAConfig(population_size=9, offspring_per_step=2),
            seed=6,
        )
        eng.initialize()
        before = eng.state.evaluations
        eng.step()
        # one generation = pop_size births regardless of batching
        assert eng.state.evaluations - before == 9

    def test_island_of_steady_state_demes_with_batching(self):
        model = IslandModel(
            OneMax(20), 3,
            GAConfig(population_size=8, offspring_per_step=2),
            engine="steady-state",
            seed=7,
        )
        res = model.run(MaxGenerations(50))
        assert res.solved


class TestSingleIslandDegenerate:
    def test_one_island_ring_is_just_a_ga(self):
        model = IslandModel(OneMax(16), 1, GAConfig(population_size=10), seed=8)
        res = model.run(MaxGenerations(60))
        assert res.solved
        assert res.migrants_sent == 0  # ring of one has no links
