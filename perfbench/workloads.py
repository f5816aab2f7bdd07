"""Seeded workload generators and the trial body every workload runs.

A workload is a list of :class:`Item` s: one ``repro-runspec/v1`` document
(plain JSON data, decoded by the program through ``RunSpec.from_dict``)
plus the evaluation ceiling the correctness gate holds the run to.  The
documents are a pure function of ``(workload, seed)``; the program never
sees the seed itself.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.cluster.faults import sample_fault_plan
from repro.spec import (
    RunSpec,
    cluster,
    engine,
    ga_config,
    operator,
    problem,
    run_spec,
    topology,
)

__all__ = ["Item", "Workload", "WORKLOADS", "make", "run_trial"]


@dataclass(frozen=True)
class Item:
    """One run: its spec document and the most evaluations it may spend."""

    spec: dict
    max_evals: int


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``run_sweep`` worker processes; 1 runs every trial in this process
    jobs: int
    #: passes the timings are taken over, one at the start of each equal
    #: slice of ``--seconds``; fixed, so that the statistic does not depend
    #: on how many passes fit into ``--seconds``
    passes: int
    items: tuple[Item, ...]


def _seeds(rng: np.random.Generator, n: int) -> list[int]:
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=n)]


# -- island-trap: E6 quality runs (8 demes x 20 on an 8x4 deceptive trap) ----------

TRAP_RUNS = 8
#: E6 uses 25k.  Cut to 5k, fewer than one run in ten solves before the
#: budget, so nearly every run costs the same and the workload's cost does
#: not swing with the seed; solve-or-budget is kept.
TRAP_BUDGET = 5_000
TRAP_DEMES, TRAP_DEME_SIZE = 8, 20


def _island_trap(rng: np.random.Generator, scale: float) -> Workload:
    items = []
    for seed in _seeds(rng, max(2, round(TRAP_RUNS * scale))):
        spec = RunSpec(
            engine=engine(
                "island",
                problem=problem("deceptive-trap", blocks=8, k=4),
                n_islands=TRAP_DEMES,
                config=ga_config(population_size=TRAP_DEME_SIZE, elitism=1),
                topology=topology("ring", size=TRAP_DEMES),
                policy=operator(
                    "migration-policy", rate=1, selection="best", replacement="worst-if-better"
                ),
                schedule=operator("periodic", interval=4),
            ),
            seed=seed,
            run={"termination": operator("max-evaluations", limit=TRAP_BUDGET)},
        )
        # the stop test runs between epochs: one epoch may overshoot
        items.append(Item(spec.to_dict(), TRAP_BUDGET + TRAP_DEMES * TRAP_DEME_SIZE))
    return Workload("island-trap", 1, 16, tuple(items))


# -- reactor: E12 reactor-core runs, island and generational, budget cut -----------

REACTOR_BUDGET = 200
REACTOR_POP = 96


def _reactor(rng: np.random.Generator, scale: float) -> Workload:
    core = problem("reactor-core", mesh_points=40)
    budget = REACTOR_BUDGET if scale >= 1 else 100
    termination = {"termination": operator("max-evaluations", limit=budget)}
    island_seed, seq_seed = _seeds(rng, 2)
    island = RunSpec(
        engine=engine(
            "island",
            problem=core,
            n_islands=6,
            total_population=REACTOR_POP,
            config=ga_config(elitism=1),
            policy=operator("migration-policy", rate=1, selection="best"),
            schedule=operator("periodic", interval=4),
        ),
        seed=island_seed,
        run=termination,
    )
    sequential = RunSpec(
        engine=engine(
            "generational",
            problem=core,
            config=ga_config(population_size=REACTOR_POP, elitism=1),
        ),
        seed=seq_seed,
        run=termination,
    )
    ceiling = budget + REACTOR_POP
    return Workload(
        "reactor", 1, 12, (Item(island.to_dict(), ceiling), Item(sequential.to_dict(), ceiling))
    )


# -- sim-sweep: heterogeneous master-slave farms + E13 fault-injected islands -------

FARMS = 9
FARM_NODES = 17  # master + 16 heterogeneous slaves
FARM_POP, FARM_GENERATIONS = 64, 12
ISLAND_ARMS = ("none", "reliable", "reliable+supervisor")
#: E13's link-loss rates; every arm runs at each, so the grid's cost does
#: not swing with which rates a seed happens to draw
ISLAND_LOSSES = (0.1, 0.3)
ISLANDS, ISLAND_POP, ISLAND_EPOCHS = 4, 16, 20
EVAL_COST = 2e-3


def _farm(rng: np.random.Generator, seed: int) -> Item:
    speeds = [1.0] + [round(float(s), 3) for s in rng.uniform(0.5, 2.0, FARM_NODES - 1)]
    spec = RunSpec(
        engine=engine(
            "sim-master-slave",
            problem=problem("onemax", length=96),
            config=ga_config(population_size=FARM_POP, elitism=1),
            cluster=cluster(FARM_NODES, speeds=speeds, latency=1e-3, bandwidth=1e6),
            eval_cost=EVAL_COST,
            chunks_per_worker=3,
        ),
        seed=seed,
        run={"termination": FARM_GENERATIONS},
    )
    return Item(spec.to_dict(), FARM_POP * (FARM_GENERATIONS + 1))


def _faulty_island(seed: int, arm: str, loss: float) -> Item:
    n_nodes = ISLANDS + 3  # + supervisor + two spares, as in E13
    horizon = (ISLAND_EPOCHS + 1) * ISLAND_POP * EVAL_COST
    plan = sample_fault_plan(
        n_nodes,
        horizon=horizon,
        mtbf=None,
        seed=seed,
        spare_node_zero=False,
        spare_nodes=tuple(range(ISLANDS, n_nodes)),
        loss_rate=loss,
        dup_rate=loss / 2.0,  # as in E13, on every arm
        link_seed=seed,
    )
    spec = RunSpec(
        engine=engine(
            "sim-island",
            problem=problem("deceptive-trap", blocks=12, k=4),
            n_islands=ISLANDS,
            config=ga_config(population_size=ISLAND_POP, elitism=1),
            cluster=cluster(n_nodes, latency=1e-3, bandwidth=1e6, fault_plan=plan),
            eval_cost=EVAL_COST,
            migration_payload=64.0,
            max_epochs=ISLAND_EPOCHS,
            policy=operator("migration-policy", rate=1, replacement="worst-if-better"),
            stop_when_any_solves=False,
            reliable_migration=arm != "none",
            supervised=arm == "reliable+supervisor",
            checkpoint_every=3,
        ),
        seed=seed,
    )
    return Item(spec.to_dict(), ISLANDS * ISLAND_POP * (ISLAND_EPOCHS + 1))


def _sim_sweep(rng: np.random.Generator, scale: float) -> Workload:
    # farms are the majority, so the median trial is a farm trial
    items = [_farm(rng, s) for s in _seeds(rng, max(1, round(FARMS * scale)))]
    arms = [(arm, loss) for arm in ISLAND_ARMS for loss in ISLAND_LOSSES]
    for (arm, loss), seed in zip(arms, _seeds(rng, len(arms))):
        items.append(_faulty_island(seed, arm, loss))
    return Workload("sim-sweep", 2, 40, tuple(items))


#: ``BENCHMARK.json`` declares island-trap and sim-sweep.  reactor stays
#: runnable by hand: its fitness-bound runs swing by up to 1.7x with other
#: tenants' load on a shared host, past the largest bound a gate may use.
WORKLOADS = {
    "island-trap": _island_trap,
    "sim-sweep": _sim_sweep,
    "reactor": _reactor,
}


def make(name: str, seed: int, *, scale: float = 1.0) -> Workload:
    """The workload ``name`` for ``seed``; ``scale < 1`` shrinks it (smoke mode)."""
    return WORKLOADS[name](np.random.default_rng([seed, len(name)]), scale)


def run_trial(spec: dict) -> dict:
    """Sweep trial body: decode and execute one spec, timing its CPU.

    The ``RunReport`` itself is returned, so cache entries and pipe
    payloads are realistic.
    """
    start = time.process_time()
    report = run_spec(RunSpec.from_dict(spec))
    return {"report": report, "cpu_s": time.process_time() - start}
