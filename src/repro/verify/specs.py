"""Spec-level verification: replay serialized run specs.

"Every run is data" (see ``docs/run_specs.md``), so a
``repro-runspec/v1`` document must survive the canonical JSON round-trip
unchanged and execute to the same result fingerprint every time — the
spec digest is only a trustworthy cache/provenance key if the document
pins the behaviour.  :func:`check_spec` checks exactly that and backs
``python -m repro.verify spec-replay``; the engine audit
(``python -m repro.verify engines``, :mod:`repro.verify.engines`) applies
the same round-trip check to every registered engine's exemplar.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..parallel.base import RunReport, validate_report
from ..spec import RunSpec, run_spec
from .digest import result_fingerprint

__all__ = ["SpecCheckResult", "check_spec", "round_trip_problems"]


@dataclass
class SpecCheckResult:
    """Outcome of replaying one spec: digest, fingerprint, problems."""

    label: str
    digest: str
    fingerprint: str = ""
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    def describe(self) -> str:
        head = f"{self.label}: digest {self.digest[:16]}…"
        if self.ok:
            return f"{head} ok (result {self.fingerprint[:16]}…)"
        lines = "\n".join(f"  - {p}" for p in self.problems)
        return f"{head} FAILED\n{lines}"


def round_trip_problems(spec: RunSpec) -> list[str]:
    """Problems with ``spec``'s canonical JSON round-trip (empty = none)."""
    problems: list[str] = []
    revived = RunSpec.from_json(spec.to_json())
    if revived != spec:
        problems.append("round-trip: from_json(to_json(spec)) != spec")
    if revived.digest() != spec.digest():
        problems.append(
            f"digest unstable across round-trip: {spec.digest()[:16]}… != "
            f"{revived.digest()[:16]}…"
        )
    return problems


def check_spec(spec: RunSpec, *, label: str | None = None, runs: int = 2) -> SpecCheckResult:
    """Round-trip ``spec`` through canonical JSON, execute it ``runs``
    times from the revived document, and validate every report."""
    problems = round_trip_problems(spec)
    digest = spec.digest()
    doc = spec.to_json()
    fingerprints: list[str] = []
    for _ in range(max(1, runs)):
        result = run_spec(RunSpec.from_json(doc))
        fingerprints.append(result_fingerprint(result))
        if isinstance(result, RunReport):
            problems.extend(f"report: {p}" for p in validate_report(result))
            if result.extras.get("spec_digest") != digest:
                problems.append(
                    "extras['spec_digest'] missing or != the spec's digest"
                )
    if len(set(fingerprints)) > 1:
        problems.append(
            "nondeterministic: same spec produced fingerprints "
            + ", ".join(f"{f[:16]}…" for f in dict.fromkeys(fingerprints))
        )
    return SpecCheckResult(
        label=label or spec.engine.name,
        digest=digest,
        fingerprint=fingerprints[0],
        problems=problems,
    )
