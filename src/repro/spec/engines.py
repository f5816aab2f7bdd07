"""Building and running engines from run specs.

Every name in :data:`repro.parallel.base.ENGINE_REGISTRY` (the parallel
engines plus the two sequential ones, ``generational`` and
``steady-state``) builds through one generic path,
:meth:`~repro.spec.components.EngineSpec.build`: the spec's params —
problems, configs, clusters and operators already lowered by
:func:`~repro.spec.components.build_value` — go straight to the engine
class, so a spec-built engine is *the same object graph* a hand-written
construction produces and same-seed runs are fingerprint-identical
either way.

``run_spec`` stamps ``extras["spec_digest"]`` on the returned
:class:`~repro.parallel.base.RunReport` — the provenance companion to
the trace digest: the report names both what ran (spec digest) and what
it did (trace digest).
"""

from __future__ import annotations

from typing import Any

from ..parallel.base import RunReport
from .components import RunSpec, build_value

__all__ = ["build_run", "run_spec"]


def build_run(spec: RunSpec) -> Any:
    """Construct the engine a :class:`RunSpec` describes (without running).

    Pure construction: the returned engine is indistinguishable from a
    hand-written one, so callers that need mid-run access (stepping
    loops, trace audits, population inspection) drive it exactly as
    before.
    """
    return spec.engine.build(seed=spec.seed)


def run_spec(spec: RunSpec) -> Any:
    """Build and execute one :class:`RunSpec`.

    Parallel engines return a :class:`~repro.parallel.base.RunReport`
    with ``extras["spec_digest"]`` stamped for provenance; the two
    sequential engines return their native
    :class:`~repro.core.engine.EvolutionResult` unchanged.
    """
    engine = build_run(spec)
    run_kwargs = {k: build_value(v) for k, v in spec.run.items()}
    report = engine.run(**run_kwargs)
    if isinstance(report, RunReport):
        report.extras["spec_digest"] = spec.digest()
    return report
