"""Population container with summary statistics.

A :class:`Population` is the unit the survey calls a *generation* when
time-indexed, and a *deme* when it lives on one node of a parallel model.

Storage is array-native: an ``(n, L)`` genome matrix plus parallel
per-member columns (fitness, evaluated mask, birth generation, origin,
attrs).  The engines select, vary, evaluate and replace on those arrays.
:class:`~repro.core.individual.Individual` objects exist only as a lazily
built *object view* for callers that index or iterate.  While the view is
held its members are live, as in a plain list: every array read re-packs
the arrays from the view.  The next array write drops the view.

Stacked demes share a *resident block*: :func:`assign_stack` writes the
next generation of ``d`` populations into one ``(d, n, ...)`` array per
column and binds population ``i``'s columns to views of row ``i``.  Row
writes (``pop[i] = ind``) land in the block; an array write or a re-pack
from a held object view detaches the population.  Readers that take the
block (:func:`stack_stats`, :func:`assign_stack`, the engines) use it as
is while every population still views it in slot order, and otherwise
stack the populations' columns afresh.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .individual import Individual

__all__ = [
    "Population",
    "PopulationStats",
    "stack_fitnesses",
    "stack_stats",
    "best_fitnesses",
    "bind_stack",
    "assign_stack",
]

#: per-member columns; ``attrs`` holds None for a member without attrs
_COLUMNS = ("genomes", "fitnesses", "evaluated", "births", "origins", "attrs")


@dataclass(frozen=True)
class PopulationStats:
    """Snapshot statistics of an evaluated population."""

    size: int
    best: float
    worst: float
    mean: float
    std: float
    median: float

    def as_dict(self) -> dict[str, float]:
        return asdict(self)


def _resident(pops: Sequence["Population"]) -> dict[str, np.ndarray] | None:
    """The block every population in ``pops`` views, in slot order, or
    ``None`` when one of them is detached, holds an object view or sits
    in another slot."""
    bound = pops[0]._block
    if bound is None or len(bound[0]["fitnesses"]) != len(pops):
        return None
    block = bound[0]
    for i, p in enumerate(pops):
        b = p._block
        if p._members is not None or b is None or b[0] is not block or b[1] != i:
            return None
    return block


def stack_fitnesses(pops: Sequence["Population"]) -> np.ndarray:
    """The populations' fitness vectors as one ``(d, n)`` block (every
    member must be evaluated, as for :meth:`Population.fitness_array`)."""
    block = _resident(pops)
    if block is None:
        return np.stack([p.fitness_array() for p in pops])
    if not block["evaluated"].all():
        next(p for p in pops if not p.all_evaluated).fitness_array()  # raises
    return block["fitnesses"]


def stack_stats(pops: Sequence["Population"]) -> np.ndarray:
    """The populations' fitness vectors as one ``(d, n)`` block.

    Every population's statistics are computed in the same pass and
    cached until its next write, so stacked demes pay for one set of
    reductions per epoch, not ``d``.  Best, worst and median come from
    one row-wise sort (the median exactly as :func:`numpy.median` forms
    it: the middle value, or the mean of the two middle values).
    """
    F = stack_fitnesses(pops)
    n = F.shape[1]
    if n == 0:
        raise ValueError("cannot compute stats of empty population")
    S = np.sort(F, axis=1)
    hi, lo = S[:, -1], S[:, 0]
    best, worst = (hi, lo) if pops[0].maximize else (lo, hi)
    h = n // 2
    median = S[:, h] if n % 2 else (S[:, h - 1] + S[:, h]) / 2
    columns = (best, worst, F.mean(axis=1), F.std(axis=1), median)
    for p, row in zip(pops, zip(*(c.tolist() for c in columns))):
        p._stats = PopulationStats(n, *row)
    return F


def best_fitnesses(pops: Sequence["Population"]) -> list[float]:
    """Each population's best fitness: one reduction over the resident
    block, else one :meth:`Population.best_fitness` per population."""
    if _resident(pops) is None:
        return [p.best_fitness() for p in pops]
    F = stack_fitnesses(pops)
    return (F.max(axis=1) if pops[0].maximize else F.min(axis=1)).tolist()


def _check_finite(fitnesses: np.ndarray, evaluated: np.ndarray | bool = True) -> None:
    # Fitness flows straight into selection arithmetic; a NaN there
    # silently wins every np.argmax tournament, so reject it at the write.
    bad = evaluated & ~np.isfinite(fitnesses)
    if np.any(bad):
        raise ValueError(
            f"fitness must be finite or None, got {np.asarray(fitnesses)[bad].tolist()}"
        )


def _objects(n: int, items=None) -> np.ndarray:
    """An ``(n,)`` object column holding ``items`` (a sequence or a scalar)."""
    out = np.empty(n, dtype=object)
    out[:] = items
    return out


class Population:
    """A deme's members, stored as parallel arrays.

    Parameters
    ----------
    individuals:
        Initial members.  They become the object view (indexing returns
        these very objects) until the first array write.
    maximize:
        Direction of improvement, shared by all statistics helpers.
    """

    #: ``(block, slot)`` while the columns are row ``slot`` of a resident
    #: block (see :func:`assign_stack`), else ``None``
    _block: tuple[dict[str, np.ndarray], int] | None = None

    def __init__(self, individuals: Sequence[Individual] = (), *, maximize: bool = True) -> None:
        self.maximize = maximize
        self._members: list[Individual] | None = list(individuals)
        self._pack()

    @classmethod
    def from_arrays(
        cls,
        genomes: np.ndarray,
        fitnesses: np.ndarray | None = None,
        *,
        maximize: bool = True,
        evaluated: np.ndarray | None = None,
        birth_generations: np.ndarray | int = 0,
        origins: np.ndarray | str = "init",
        attrs: Sequence[dict] | None = None,
    ) -> "Population":
        """A population over an ``(n, L)`` genome matrix (not copied).

        ``fitnesses`` of ``None`` leaves every member unevaluated; when
        given, ``evaluated`` defaults to all-True.
        """
        G = np.asarray(genomes)
        if G.ndim != 2:
            raise ValueError(f"genomes must be 2-D (n, L), got ndim={G.ndim}")
        n = len(G)
        F = np.zeros(n) if fitnesses is None else np.asarray(fitnesses, dtype=float)
        if F.shape != (n,):
            raise ValueError(f"fitnesses must have shape ({n},), got {F.shape}")
        if evaluated is None:
            evaluated = fitnesses is not None
        E = np.broadcast_to(np.asarray(evaluated, dtype=bool), (n,)).copy()
        _check_finite(F, E)
        pop = cls.__new__(cls)
        pop.maximize = maximize
        pop._write(
            {
                "genomes": G,
                "fitnesses": F,
                "evaluated": E,
                "births": np.broadcast_to(np.asarray(birth_generations, np.int64), (n,)).copy(),
                "origins": _objects(n, origins),
                "attrs": _objects(n, None if attrs is None else [dict(a) or None for a in attrs]),
            }
        )
        return pop

    # -- array storage -----------------------------------------------------------
    def _write(self, cols: dict[str, np.ndarray], block: tuple[dict, int] | None = None) -> None:
        """Replace every column at once (an array write: drops the view).

        ``block`` is the resident ``(columns, slot)`` pair the new
        columns are row views of; without one the population is detached.
        """
        self._cols = cols
        self._block = block
        self._members = None
        self._stats: PopulationStats | None = None

    def _pack(self) -> None:
        """Rebuild the columns from the held object view."""
        members = self._members
        n = len(members)
        self._cols = {
            "genomes": np.stack([m.genome for m in members]) if n else np.empty((0, 0)),
            "fitnesses": np.array([m.fitness or 0.0 for m in members], dtype=float),
            "evaluated": np.array([m.fitness is not None for m in members], dtype=bool),
            "births": np.array([m.birth_generation for m in members], dtype=np.int64),
            "origins": _objects(n, [m.origin for m in members]),
            "attrs": _objects(n, [m.attrs or None for m in members]),
        }
        self._block = None
        self._stats = None

    def __getstate__(self) -> dict:
        # the resident block holds every other deme's rows: a pickled or
        # copied population carries its own columns only
        return {**self.__dict__, "_block": None}

    def _column(self, name: str) -> np.ndarray:
        if self._members is not None:
            self._pack()
        return self._cols[name]

    @property
    def genomes(self) -> np.ndarray:
        """``(n, L)`` genome matrix, one member per row."""
        return self._column("genomes")

    @property
    def fitnesses(self) -> np.ndarray:
        """``(n,)`` fitness vector; unevaluated rows hold 0.0 placeholders."""
        return self._column("fitnesses")

    @property
    def evaluated(self) -> np.ndarray:
        """``(n,)`` mask: the array analogue of ``fitness is not None``."""
        return self._column("evaluated")

    @property
    def birth_generations(self) -> np.ndarray:
        return self._column("births")

    @property
    def origins(self) -> np.ndarray:
        """``(n,)`` object array of provenance tags."""
        return self._column("origins")

    def _take(self, rows) -> dict[str, np.ndarray]:
        """Every column restricted to ``rows``."""
        self._column("genomes")
        return {k: v[rows] for k, v in self._cols.items()}

    def member(self, i: int) -> Individual:
        """A detached :class:`Individual` copy of row ``i``."""
        self._column("genomes")  # re-packs a held view
        c = self._cols
        return Individual(
            genome=c["genomes"][i].copy(),
            fitness=float(c["fitnesses"][i]) if c["evaluated"][i] else None,
            birth_generation=int(c["births"][i]),
            origin=str(c["origins"][i]),
            attrs=dict(c["attrs"][i] or {}),
        )

    # -- object view ---------------------------------------------------------------
    @property
    def individuals(self) -> list[Individual]:
        """The object view: one live :class:`Individual` per row, built on
        first access and held until the next array write."""
        if self._members is None:
            self._members = [self.member(i) for i in range(len(self))]
        return self._members

    @individuals.setter
    def individuals(self, members: Sequence[Individual]) -> None:
        self._members = list(members)
        self._pack()

    # -- container protocol -------------------------------------------------
    def __len__(self) -> int:
        return len(self._members if self._members is not None else self._cols["genomes"])

    def __iter__(self) -> Iterator[Individual]:
        return iter(self.individuals)

    def __getitem__(self, idx: int) -> Individual:
        return self.individuals[idx]

    def __setitem__(self, idx: int, ind: Individual) -> None:
        if self._members is not None:
            self._members[idx] = ind
            return
        row = {
            "genomes": ind.genome,
            "fitnesses": ind.fitness or 0.0,
            "evaluated": ind.fitness is not None,
            "births": ind.birth_generation,
            "origins": ind.origin,
            "attrs": dict(ind.attrs) or None,
        }
        for k, v in row.items():
            self._cols[k][idx] = v
        self._stats = None

    def append(self, ind: Individual) -> None:
        self.individuals.append(ind)

    def extend(self, inds: list[Individual]) -> None:
        self.individuals.extend(inds)

    # -- evaluation state ----------------------------------------------------
    @property
    def all_evaluated(self) -> bool:
        return bool(self.evaluated.all())

    def unevaluated(self) -> list[Individual]:
        """Members whose fitness is stale or missing."""
        return [ind for ind in self.individuals if not ind.evaluated]

    # -- statistics -----------------------------------------------------------
    def fitness_array(self) -> np.ndarray:
        """All fitness values as a float array (requires full evaluation)."""
        if not self.all_evaluated:
            missing = np.nonzero(~self._cols["evaluated"])[0].tolist()
            raise ValueError(f"unevaluated members at rows {missing}")
        return self._cols["fitnesses"]

    def order(self) -> np.ndarray:
        """Row indices best-first (stable: ties keep row order)."""
        f = self.fitness_array()
        return np.argsort(-f if self.maximize else f, kind="stable")

    def best_index(self) -> int:
        f = self.fitness_array()
        return int(np.argmax(f) if self.maximize else np.argmin(f))

    def worst_index(self) -> int:
        f = self.fitness_array()
        return int(np.argmin(f) if self.maximize else np.argmax(f))

    def best_fitness(self) -> float:
        f = self.fitness_array()
        return float(f.max() if self.maximize else f.min())

    def best(self) -> Individual:
        return self.individuals[self.best_index()]

    def worst(self) -> Individual:
        return self.individuals[self.worst_index()]

    def sorted(self) -> list[Individual]:
        """Members sorted best-first."""
        members = self.individuals
        return [members[i] for i in self.order().tolist()]

    def stats(self) -> PopulationStats:
        if self._members is not None:
            self._pack()  # a held view may have changed: clears the cache
        if self._stats is None:
            stack_stats([self])
        return self._stats

    # -- transformation -------------------------------------------------------
    def copy(self) -> "Population":
        """Deep copy (genomes and per-member state cloned)."""
        if self._members is not None:
            return Population([ind.copy() for ind in self._members], maximize=self.maximize)
        cols = {k: v.copy() for k, v in self._take(slice(None)).items()}
        cols["attrs"] = _objects(len(self), [a and dict(a) for a in cols["attrs"]])
        clone = Population.__new__(Population)
        clone.maximize = self.maximize
        clone._write(cols)
        return clone

    def replace(self, idx: int, newcomer: Individual) -> Individual:
        """Put ``newcomer`` in row ``idx``; return the evictee (the live
        member while the object view is held, else a detached copy)."""
        evicted = self._members[idx] if self._members is not None else self.member(idx)
        self[idx] = newcomer
        return evicted

    def replace_worst(self, newcomer: Individual) -> Individual:
        """Replace the worst member with ``newcomer``; return the evictee."""
        return self.replace(self.worst_index(), newcomer)

    def truncate(self, n: int) -> None:
        """Keep only the ``n`` best members."""
        if n < 0:
            raise ValueError(f"cannot truncate to negative size {n}")
        self._write(self._take(self.order()[:n]))

    def map_genomes(self, fn: Callable[[np.ndarray], np.ndarray]) -> None:
        """Apply ``fn`` to each genome, invalidating fitness."""
        cols = self._take(slice(None))
        cols["genomes"] = np.stack([fn(g) for g in cols["genomes"]])
        cols["evaluated"] = np.zeros(len(self), dtype=bool)
        self._write(cols)


def bind_stack(pops: Sequence[Population]) -> dict[str, np.ndarray]:
    """The populations' resident block, stacking every column afresh and
    binding the populations to it when they do not view one."""
    block = _resident(pops)
    if block is None:
        block = {k: np.stack([p._column(k) for p in pops]) for k in _COLUMNS}
        _bind(pops, block)
    return block


def _bind(pops: Sequence[Population], block: dict[str, np.ndarray]) -> None:
    for i, pop in enumerate(pops):
        pop._write({k: v[i] for k, v in block.items()}, (block, i))


def assign_stack(
    pops: Sequence[Population], keep: np.ndarray, children: dict[str, np.ndarray]
) -> None:
    """Write the next generation of ``d`` stacked populations at once.

    Population ``i`` keeps its rows ``keep[i]`` (the elites), followed by
    its new members: ``children`` maps ``genomes``, ``fitnesses``,
    ``births`` and ``origins`` to ``(d, c, ...)`` blocks of evaluated
    offspring.  The generation is one new resident block that every
    population is bound to.  An array write: every object view is dropped.
    """
    _check_finite(children["fitnesses"])
    d, c = children["fitnesses"].shape
    e = keep.shape[1]
    demes = np.arange(d)[:, None]
    block = {}
    for k, old in bind_stack(pops).items():
        new = children.get(k)
        dtype = old.dtype if new is None else np.result_type(old.dtype, new.dtype)
        out = np.empty((d, e + c) + old.shape[2:], dtype=dtype)
        out[:, :e] = old[demes, keep]
        if new is not None:
            out[:, e:] = new
        block[k] = out
    block["evaluated"][:, e:] = True  # np.empty left the children's attrs None
    _bind(pops, block)
