"""Declarative run specs: every run is serializable data built through
one registry.

The paper's taxonomy (master-slave, island, cellular, hierarchical,
specialized) is a *configuration space*; this package makes each point in
it a typed, versioned, content-addressed document (schema
``repro-runspec/v1``) instead of a hand-written Python closure:

    >>> from repro.spec import RunSpec, engine, problem, ga_config, run_spec
    >>> spec = RunSpec(
    ...     engine=engine(
    ...         "island",
    ...         problem=problem("onemax", length=64),
    ...         n_islands=4,
    ...         config=ga_config(population_size=16, elitism=1),
    ...     ),
    ...     seed=7,
    ...     run={"termination": 20},
    ... )
    >>> report = run_spec(spec)          # execute it
    >>> doc = spec.to_json()             # ship it
    >>> RunSpec.from_json(doc) == spec   # round-trip it
    True
    >>> spec.digest()                    # content-address it (cache key)
    '...'

Every built-in problem, operator and topology resolves through the
registries in :mod:`repro.spec.registry`, and every engine through
:data:`repro.parallel.base.ENGINE_REGISTRY`; registering a component
makes it constructible from JSON and coverable by the round-trip
property suite.  See ``docs/run_specs.md``.
"""

from __future__ import annotations

from typing import Any

from .components import (
    SCHEMA,
    ClusterSpec,
    ComponentSpec,
    EngineSpec,
    GAConfigSpec,
    OperatorSpec,
    ProblemSpec,
    RunSpec,
    TopologySpec,
    build_value,
    canonical_json,
    decode_value,
    encode_value,
    spec_digest,
)
from .registry import (
    OPERATORS,
    PROBLEMS,
    TOPOLOGIES,
    Registry,
    RegistryEntry,
    UnknownComponentError,
    register_operator,
    register_problem,
    register_topology,
    suggest,
)

# populate the registries with every built-in component
from . import builtins as _builtins  # noqa: F401  (import for side effects)
from .engines import build_run, run_spec

__all__ = [
    "SCHEMA",
    "RunSpec",
    "EngineSpec",
    "ProblemSpec",
    "OperatorSpec",
    "TopologySpec",
    "GAConfigSpec",
    "ClusterSpec",
    "ComponentSpec",
    "build_run",
    "run_spec",
    "build_value",
    "encode_value",
    "decode_value",
    "canonical_json",
    "spec_digest",
    "Registry",
    "RegistryEntry",
    "UnknownComponentError",
    "suggest",
    "PROBLEMS",
    "OPERATORS",
    "TOPOLOGIES",
    "register_problem",
    "register_operator",
    "register_topology",
    "problem",
    "operator",
    "topology",
    "ga_config",
    "cluster",
    "engine",
]


# -- shorthand constructors (keep experiment modules terse) ------------------------


def problem(name: str, /, **params: Any) -> ProblemSpec:
    return ProblemSpec(name, params)


def operator(name: str, /, **params: Any) -> OperatorSpec:
    return OperatorSpec(name, params)


def topology(name: str, /, **params: Any) -> TopologySpec:
    return TopologySpec(name, params)


def ga_config(**params: Any) -> GAConfigSpec:
    return GAConfigSpec(params)


def cluster(n_nodes: int, /, **params: Any) -> ClusterSpec:
    return ClusterSpec(n_nodes, **params)


def engine(name: str, /, **params: Any) -> EngineSpec:
    return EngineSpec(name, params)
