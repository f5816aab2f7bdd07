"""Deterministic-simulation verification subsystem.

FoundationDB-style testing for the simulated parallel machine: every
run is a pure function of its :class:`~repro.verify.replay.ReplaySpec`
(seed, topology, fault plan, tie-break jitter), so bugs found by random
fuzzing are reproduced from one printed line and shrunk to a minimal
fault plan.  Four pieces:

- :mod:`~repro.verify.invariants` — streaming trace-invariant rules
  (time monotonicity, no dispatch to dead nodes, message conservation,
  generation/best monotonicity), runnable post-hoc or inline.
- :mod:`~repro.verify.digest` — canonical trace digests and result
  fingerprints for same-seed determinism audits.
- :mod:`~repro.verify.replay` / :mod:`~repro.verify.harness` /
  :mod:`~repro.verify.shrink` — one-line replay specs, the scenario
  harness that reconstructs and checks a run, and the greedy fault-plan
  shrinker.
- :mod:`~repro.verify.fuzzer` — randomised scenario sampling + the
  fuzz driver (``python -m repro.verify fuzz --seed 0 --runs 25``).
- :mod:`~repro.verify.engines` — generic contract audits (spec
  round-trip, schema, determinism, invariants, observability
  transparency) over every registered engine's exemplar
  (``python -m repro.verify engines``).

The observability invariants themselves (spans nest properly; every
trace-emitted generation is covered by a sim-time span) live in
:mod:`repro.obs.validate` and are re-exported here for symmetry.
"""

from ..obs.validate import check_generation_coverage, check_spans

from .digest import AuditResult, audit_determinism, result_fingerprint, trace_digest
from .engines import EngineAudit, audit_engine, audit_engines
from .fuzzer import FuzzFailure, FuzzReport, fuzz, sample_spec
from .harness import RunOutcome, execute, run_replay
from .invariants import (
    INVARIANTS,
    CheckContext,
    InvariantViolation,
    Rule,
    TraceChecker,
    Violation,
    check_trace,
    default_rules,
)
from .replay import SCENARIOS, ReplaySpec
from .shrink import ShrinkResult, shrink_spec

__all__ = [
    "AuditResult",
    "EngineAudit",
    "audit_engine",
    "audit_engines",
    "audit_determinism",
    "result_fingerprint",
    "trace_digest",
    "FuzzFailure",
    "FuzzReport",
    "fuzz",
    "sample_spec",
    "RunOutcome",
    "execute",
    "run_replay",
    "INVARIANTS",
    "CheckContext",
    "InvariantViolation",
    "Rule",
    "TraceChecker",
    "Violation",
    "check_trace",
    "check_generation_coverage",
    "check_spans",
    "default_rules",
    "SCENARIOS",
    "ReplaySpec",
    "ShrinkResult",
    "shrink_spec",
]
