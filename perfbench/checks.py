"""Correctness gate: every result the benchmark times is checked.

No fingerprint value is pinned: determinism is checked by comparing runs
of the same spec with each other, so a deliberate change of the random
streams needs no benchmark edit.
"""

from __future__ import annotations

from typing import Any

from repro.parallel.base import RunReport, validate_report
from repro.spec import RunSpec, build_value
from repro.verify.digest import result_fingerprint

__all__ = ["ReportChecker", "fingerprint"]


def fingerprint(result: dict) -> str:
    """Fingerprint of a trial's report (its CPU time is not part of it)."""
    return result_fingerprint(result["report"])


class ReportChecker:
    """Checks one trial result against the item that produced it."""

    def __init__(self) -> None:
        self._problems: dict[str, Any] = {}

    def _problem(self, spec_doc: dict) -> Any:
        key = repr(spec_doc["engine"]["params"]["problem"])
        if key not in self._problems:
            problem_spec = RunSpec.from_dict(spec_doc).engine.params["problem"]
            self._problems[key] = build_value(problem_spec)
        return self._problems[key]

    def check(self, item: Any, result: Any) -> list[str]:
        """Problems found in ``result`` (empty when it passes)."""
        if not isinstance(result, dict) or "report" not in result:
            return [f"trial returned {type(result).__name__}, not a result dict"]
        report = result["report"]
        problems: list[str] = []
        if isinstance(report, RunReport):
            problems.extend(validate_report(report))
        elif report.best is None or not report.best.evaluated or not report.stop_reason:
            problems.append(f"{type(report).__name__} lacks an evaluated best or a stop reason")
        if not 0 < report.evaluations <= item.max_evals:
            problems.append(
                f"evaluations {report.evaluations} outside (0, {item.max_evals}]"
            )
        if report.best is not None and report.best.evaluated:
            again = self._problem(item.spec).evaluate(report.best.genome)
            if again != report.best_fitness:
                problems.append(
                    f"best fitness {report.best_fitness!r} re-evaluates to {again!r}"
                )
        if not result.get("cpu_s", 0.0) > 0.0:
            problems.append("trial CPU time not measured")
        return problems
