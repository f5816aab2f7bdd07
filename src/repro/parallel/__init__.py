"""Parallel GA models: the survey's full taxonomy.

- global / master-slave  → :class:`MasterSlaveGA`, :class:`SimulatedMasterSlave`
- coarse-grained (island) → :class:`IslandModel`, :class:`SimulatedIslandModel`
- fine-grained (cellular) → :class:`CellularGA`
- hierarchical multi-fidelity → :class:`HierarchicalGA`
- specialized island model → :class:`SpecializedIslandModel`
- hybrids → :class:`CellularIslandModel`, :class:`MasterSlaveIslandModel`,
  :class:`SimulatedMasterSlaveIslandModel`

Every engine returns the shared :class:`RunReport` schema.  The table at
the end of this module declares each engine once in
:data:`ENGINE_REGISTRY` (see :mod:`repro.parallel.base`): its class, a
seeded exemplar run in ``repro-runspec/v1`` form and the message kinds
its wire conserves.  The spec layer builds engines from it, the contract
audit (``python -m repro.verify engines``) runs every exemplar, and the
engine-contract lint reads the class names from it.
"""

from ..core.engine import GenerationalEngine, SteadyStateEngine
from .async_master_slave import SimulatedAsyncMasterSlave
from .base import (
    ENGINE_REGISTRY,
    EngineInfo,
    ParallelEngine,
    RunReport,
    contract_run,
    engine_info,
    engine_names,
    register_engine,
    validate_report,
)
from .cellular import UPDATE_POLICIES, CellularGA, CellularResult
from .cellular_distributed import DistributedCellularGA
from .classification import (
    GrainModel,
    ModelClassification,
    ParallelismKind,
    ProgrammingModel,
    WalkStrategy,
)
from .hierarchical import HierarchicalGA
from .hybrid import (
    CellularIslandModel,
    MasterSlaveIslandModel,
    SimulatedMasterSlaveIslandModel,
)
from .island import (
    EpochRecord,
    IslandModel,
    SimulatedIslandModel,
    engine_class_by_name,
)
from .pool import PooledEvolution
from .master_slave import MasterSlaveGA, SimulatedMasterSlave
from .specialized import (
    SIMScenario,
    SimulatedSpecializedIslandModel,
    SpecializedIslandModel,
    standard_scenarios,
)

__all__ = [
    "RunReport",
    "ParallelEngine",
    "EngineInfo",
    "ENGINE_REGISTRY",
    "register_engine",
    "engine_info",
    "engine_names",
    "contract_run",
    "validate_report",
    "GrainModel",
    "WalkStrategy",
    "ParallelismKind",
    "ProgrammingModel",
    "ModelClassification",
    "IslandModel",
    "SimulatedIslandModel",
    "EpochRecord",
    "engine_class_by_name",
    "MasterSlaveGA",
    "SimulatedMasterSlave",
    "CellularGA",
    "CellularResult",
    "UPDATE_POLICIES",
    "HierarchicalGA",
    "SpecializedIslandModel",
    "SimulatedSpecializedIslandModel",
    "SIMScenario",
    "standard_scenarios",
    "CellularIslandModel",
    "MasterSlaveIslandModel",
    "SimulatedMasterSlaveIslandModel",
    "PooledEvolution",
    "DistributedCellularGA",
    "SimulatedAsyncMasterSlave",
]


# -- the engine registry: one entry per engine ---------------------------------
#
# Each exemplar is a small, fully seeded standard run written as
# ``repro-runspec/v1`` JSON data (``{"$spec": ...}`` tags are component
# references, see repro.spec.components): ``params`` are the engine's
# constructor arguments and ``run`` its run() arguments.  Every engine
# that migrates sends migrants within its exemplar run.


def _config(population_size: int, **params) -> dict:
    return {"$spec": "config", "params": {"population_size": population_size, **params}}


def _cluster(n_nodes: int) -> dict:
    return {"$spec": "cluster", "n_nodes": n_nodes}


_ONEMAX = {"$spec": "problem", "name": "onemax", "params": {"length": 24}}
_SMALL = _config(12, elitism=1)
_ISLANDS = {
    "problem": _ONEMAX,
    "n_islands": 3,
    "config": _SMALL,
    "policy": {
        "$spec": "operator",
        "name": "migration-policy",
        "params": {"rate": 1, "replacement": "worst-if-better"},
    },
}
_SIM = {
    "problem": {"$spec": "problem", "name": "schaffer-f2", "params": {}},
    "scenario": {"$spec": "operator", "name": "standard-scenario", "params": {"index": 2}},
    "config": _config(12),
}
_MIGRATION = ("migration",)

register_engine(
    "island", IslandModel, exemplar={"params": _ISLANDS, "run": {"termination": 8}}
)
register_engine(
    "sim-island",
    SimulatedIslandModel,
    exemplar={"params": {**_ISLANDS, "cluster": _cluster(3), "max_epochs": 8}},
    conserved_kinds=_MIGRATION,
)
register_engine(
    "master-slave-island",
    MasterSlaveIslandModel,
    exemplar={"params": _ISLANDS, "run": {"termination": 6}},
)
register_engine(
    "sim-master-slave-island",
    SimulatedMasterSlaveIslandModel,
    exemplar={
        "params": {**_ISLANDS, "cluster": _cluster(3), "max_epochs": 8, "local_workers": 4}
    },
    conserved_kinds=_MIGRATION,
)
register_engine(
    "cellular-island",
    CellularIslandModel,
    exemplar={
        "params": {"problem": _ONEMAX, "n_islands": 2, "rows": 4, "cols": 4},
        "run": {"epochs": 6},
    },
)
register_engine(
    "specialized", SpecializedIslandModel, exemplar={"params": _SIM, "run": {"epochs": 6}}
)
register_engine(
    "sim-specialized",
    SimulatedSpecializedIslandModel,
    exemplar={"params": {**_SIM, "cluster": _cluster(2), "max_epochs": 6}},
    conserved_kinds=_MIGRATION,
)
register_engine(
    "sim-master-slave",
    SimulatedMasterSlave,
    exemplar={
        "params": {"problem": _ONEMAX, "config": _config(16, elitism=1), "cluster": _cluster(4)},
        "run": {"termination": 6},
    },
)
register_engine(
    "async-master-slave",
    SimulatedAsyncMasterSlave,
    exemplar={
        "params": {"problem": _ONEMAX, "config": _config(16), "cluster": _cluster(4)},
        "run": {"max_evaluations": 200},
    },
)
register_engine(
    "pool",
    PooledEvolution,
    exemplar={
        "params": {
            "problem": _ONEMAX,
            "config": _config(20),
            "cluster": _cluster(4),
            "max_transactions": 40,
        }
    },
)
register_engine(
    "distributed-cellular",
    DistributedCellularGA,
    exemplar={
        "params": {"problem": _ONEMAX, "rows": 8, "cols": 8, "cluster": _cluster(4)},
        "run": {"max_sweeps": 6},
    },
)
register_engine(
    "hierarchical",
    HierarchicalGA,
    exemplar={
        "params": {
            "problem": {"$spec": "problem", "name": "transonic-wing", "params": {}},
            "config": _config(10, elitism=1),
            "layers": 2,
            "branching": 2,
        },
        "run": {"max_epochs": 6},
    },
)
# the two sequential engines every deme is built from
for _name, _cls in [("generational", GenerationalEngine), ("steady-state", SteadyStateEngine)]:
    register_engine(
        _name,
        _cls,
        exemplar={"params": {"problem": _ONEMAX, "config": _SMALL}, "run": {"termination": 3}},
    )
