"""Component registries: name -> factory, one per component kind.

The spec layer's premise is that a run is *data*: every problem,
operator, topology and engine a :class:`~repro.spec.components.RunSpec`
can reference must resolve through a named registry, so a JSON document
produced on one machine builds the identical object graph on another.
Engines resolve through :data:`repro.parallel.base.ENGINE_REGISTRY`, the
one place each engine is declared; the other kinds resolve here.

Each registry entry carries the factory plus an *exemplar* — a params
dict known to build a valid instance — which is what lets the round-trip
property suite exercise every registered component generically instead
of maintaining a parallel table by hand.

Lookups never raise a bare ``KeyError``: an unknown name produces an
:class:`UnknownComponentError` carrying a did-you-mean suggestion
(closest registered name via :func:`difflib.get_close_matches`).
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping

__all__ = [
    "UnknownComponentError",
    "RegistryEntry",
    "Registry",
    "PROBLEMS",
    "OPERATORS",
    "TOPOLOGIES",
    "register_problem",
    "register_operator",
    "register_topology",
    "suggest",
]


def suggest(name: str, known: Iterable[str]) -> str:
    """``" — did you mean 'x'?"`` for the closest known name, or ``""``."""
    matches = difflib.get_close_matches(name, list(known), n=1, cutoff=0.5)
    return f" — did you mean {matches[0]!r}?" if matches else ""


class UnknownComponentError(KeyError):
    """Unknown component name, with a did-you-mean suggestion.

    Subclasses ``KeyError`` so existing ``except KeyError`` callers keep
    working, but ``str()`` renders the full message (plain ``KeyError``
    would show only the repr of its first arg).
    """

    def __init__(self, message: str) -> None:
        super().__init__(message)
        self.message = message

    def __str__(self) -> str:
        return self.message


@dataclass(frozen=True)
class RegistryEntry:
    """One registered component: its factory plus a buildable exemplar."""

    name: str
    factory: Callable[..., Any]
    exemplar: Mapping[str, Any] = field(default_factory=dict)


class Registry:
    """Name -> :class:`RegistryEntry` map for one component kind."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._entries: dict[str, RegistryEntry] = {}

    def register(
        self,
        name: str,
        factory: Callable[..., Any] | None = None,
        *,
        exemplar: Mapping[str, Any] | None = None,
    ):
        """Register ``factory`` under ``name`` (usable as a decorator)."""

        def _add(fn: Callable[..., Any]) -> Callable[..., Any]:
            if name in self._entries:
                raise ValueError(f"duplicate {self.kind} registration {name!r}")
            self._entries[name] = RegistryEntry(
                name=name, factory=fn, exemplar=dict(exemplar or {})
            )
            return fn

        if factory is not None:
            return _add(factory)
        return _add

    def get(self, name: str) -> RegistryEntry:
        try:
            return self._entries[name]
        except KeyError:
            raise UnknownComponentError(
                f"unknown {self.kind} {name!r}{suggest(name, self._entries)}"
            ) from None

    def build(self, name: str, /, **params: Any) -> Any:
        return self.get(name).factory(**params)

    def names(self) -> list[str]:
        return sorted(self._entries)

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __iter__(self):
        return iter(sorted(self._entries))

    def __len__(self) -> int:
        return len(self._entries)


PROBLEMS = Registry("problem")
OPERATORS = Registry("operator")
TOPOLOGIES = Registry("topology")

register_problem = PROBLEMS.register
register_operator = OPERATORS.register
register_topology = TOPOLOGIES.register
