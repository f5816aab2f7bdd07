"""Engine-generic contract auditing over the engine registry.

Every engine in :data:`~repro.parallel.base.ENGINE_REGISTRY` — the
parallel engines and the two sequential ones — is audited generically by
running its registered exemplar through the spec layer
(:func:`~repro.parallel.base.contract_run`):

* **spec** — the exemplar survives the canonical JSON round-trip with a
  stable digest (:func:`~repro.verify.specs.round_trip_problems`);
* **schema** — a parallel run returns a schema-valid
  :class:`~repro.parallel.base.RunReport`
  (:func:`~repro.parallel.base.validate_report`);
* **determinism** — two runs from the same seed produce identical result
  fingerprints and trace digests;
* **invariants** — the emitted trace passes the streaming rules of
  :mod:`~repro.verify.invariants`, with message conservation over the
  kinds the registry entry names;
* **observability** — a third run under an active
  :func:`~repro.obs.session.obs_session` must be *transparent* (same
  trace digest and result fingerprint as the unobserved runs), its spans
  must nest properly, and every trace-emitted ``generation`` event must
  be covered by a sim-time span (:mod:`repro.obs.validate`).

The cross-engine contract test suite and ``python -m repro.verify
engines`` are both thin wrappers over :func:`audit_engine`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..obs.session import obs_session
from ..obs.validate import check_generation_coverage, check_spans
from ..parallel.base import (
    EngineInfo,
    RunReport,
    contract_run,
    engine_info,
    engine_names,
    validate_report,
)
from .digest import result_fingerprint, trace_digest
from .invariants import CheckContext, Violation, check_trace
from .specs import round_trip_problems

__all__ = ["EngineAudit", "audit_engine", "audit_engines"]


@dataclass
class EngineAudit:
    """Outcome of one engine's generic contract audit."""

    engine: str
    #: the run's result: a RunReport, or a sequential engine's native result
    report: Any
    fingerprint: str
    deterministic: bool
    schema_problems: list[str] = field(default_factory=list)
    violations: list[Violation] = field(default_factory=list)
    obs_problems: list[str] = field(default_factory=list)
    #: span count of the observed run (0 for untimed engines)
    span_count: int = 0

    @property
    def ok(self) -> bool:
        return (
            self.deterministic
            and not self.schema_problems
            and not self.violations
            and not self.obs_problems
        )

    def describe(self) -> str:
        if self.ok:
            return f"{self.engine}: ok (fingerprint {self.fingerprint[:12]})"
        parts = []
        if not self.deterministic:
            parts.append("nondeterministic across same-seed runs")
        parts.extend(self.schema_problems)
        parts.extend(str(v) for v in self.violations)
        parts.extend(self.obs_problems)
        return f"{self.engine}: FAILED — " + "; ".join(parts)


def audit_engine(name: str, seed: int = 0) -> EngineAudit:
    """Run engine ``name``'s exemplar twice (and once observed) and audit it."""
    info = engine_info(name)
    trace_a, report_a = contract_run(name, seed)
    trace_b, report_b = contract_run(name, seed)
    fp_a, fp_b = result_fingerprint(report_a), result_fingerprint(report_b)
    deterministic = fp_a == fp_b
    if trace_a is not None and trace_b is not None:
        deterministic = deterministic and trace_digest(trace_a) == trace_digest(trace_b)
    problems = round_trip_problems(info.exemplar_spec(seed))
    if isinstance(report_a, RunReport):
        problems += validate_report(report_a, engine=name)
    violations = []
    if trace_a is not None:
        context = CheckContext(conserved_kinds=info.conserved_kinds)
        violations = check_trace(trace_a, context)
    obs_problems, span_count = _audit_observability(info, seed, trace_a, fp_a)
    return EngineAudit(
        engine=name,
        report=report_a,
        fingerprint=fp_a,
        deterministic=deterministic,
        schema_problems=problems,
        violations=violations,
        obs_problems=obs_problems,
        span_count=span_count,
    )


def _audit_observability(
    info: EngineInfo, seed: int, trace_plain, fingerprint_plain: str
) -> tuple[list[str], int]:
    """Third contract run with observability *enabled*: the run must be
    behaviourally untouched and its span timeline structurally sound."""
    with obs_session(label=f"audit-{info.name}") as session:
        trace_obs, report_obs = contract_run(info.name, seed)
    problems: list[str] = []
    if result_fingerprint(report_obs) != fingerprint_plain:
        problems.append("enabling observability changed the result fingerprint")
    if trace_plain is not None and trace_obs is not None:
        if trace_digest(trace_obs) != trace_digest(trace_plain):
            problems.append("enabling observability changed the trace digest")
    problems.extend(check_spans(session.spans))
    if trace_obs is not None:
        problems.extend(check_generation_coverage(session.spans, trace_obs))
    return problems, len(session.spans)


def audit_engines(
    names: list[str] | None = None, seed: int = 0
) -> dict[str, EngineAudit]:
    """Audit each named engine (default: every registered engine)."""
    return {n: audit_engine(n, seed) for n in (names or engine_names())}
