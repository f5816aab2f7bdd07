"""Parent-selection operators.

The survey: "Selection identifies the fittest individuals.  The higher the
fitness, the bigger the probability to become a parent in the next
generation.  There are different types of selection, but the basic
functionality is the same."

Every operator is a callable
``(rng, population, n, maximize) -> list[Individual]`` drawing ``n``
parents *with replacement*.  Returned individuals are references (not
copies); engines copy before modifying.

Each operator is a thin shell over an index kernel here
(``tournament_indices`` …), which maps a fitness vector to parent rows;
the engines call the kernels directly on their fitness arrays (see
:mod:`repro.core.vectorized.kernels`), so both entry points draw the
same parents from the same generator state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

from ..individual import Individual

__all__ = [
    "Selection",
    "TournamentSelection",
    "RouletteWheelSelection",
    "LinearRankSelection",
    "StochasticUniversalSampling",
    "TruncationSelection",
    "BoltzmannSelection",
    "RandomSelection",
    "BestSelection",
    "tournament_indices",
    "roulette_indices",
    "linear_rank_indices",
    "sus_indices",
    "truncation_indices",
    "boltzmann_indices",
    "random_indices",
    "best_indices",
]


class Selection(Protocol):
    """Callable protocol all selection operators satisfy."""

    def __call__(
        self,
        rng: np.random.Generator,
        individuals: Sequence[Individual],
        n: int,
        maximize: bool,
    ) -> list[Individual]: ...


def _check_fitnesses(fitnesses: np.ndarray, ndims: tuple[int, ...] = (1,)) -> np.ndarray:
    f = np.asarray(fitnesses, dtype=float)
    if f.ndim not in ndims or f.shape[-1] == 0:
        dims = " or ".join(f"{d}-D" for d in ndims)
        raise ValueError(f"fitnesses must be {dims} and non-empty, got shape {f.shape}")
    # np.argmax over a score matrix containing NaN returns the NaN's
    # position, so one bad fitness would silently win every tournament
    if not np.all(np.isfinite(f)):
        bad = np.nonzero(~np.isfinite(f))[-1].tolist()
        raise ValueError(f"non-finite fitness in selection pool at positions {bad}")
    return f


#: share of probability mass spread uniformly so the worst member never has
#: exactly zero selection chance after the min-shift
_FLOOR = 0.05


def _minimization_to_weights(f: np.ndarray, maximize: bool) -> np.ndarray:
    """Shift fitnesses into selection probabilities, respecting direction.

    Uses the classic min-shift (so weights are scale-invariant) blended with
    a small uniform floor: pure min-shifting gives the worst member exactly
    zero probability, which starves small populations.
    """
    n = f.shape[0]
    if maximize:
        w = f - f.min()
    else:
        w = f.max() - f
    total = w.sum()
    if total <= 0.0:  # all equal — uniform weights
        return np.full(n, 1.0 / n)
    return (1.0 - _FLOOR) * (w / total) + _FLOOR / n


# -- index kernels: fitness vector -> parent rows ---------------------------------

def tournament_indices(
    rng: np.random.Generator, fitnesses: np.ndarray, n: int, maximize: bool, *, size: int = 2
) -> np.ndarray:
    """Winners of ``n`` uniform tournaments of ``size`` contestants.

    A ``(d, m)`` fitness block (stacked demes, drawn from a
    :class:`~repro.core.rng.DemeStreams` split one row per deme) gives a
    ``(d, n)`` block of per-deme row indices.
    """
    f = _check_fitnesses(fitnesses, (1, 2))
    m = f.shape[-1]
    k = min(size, m)
    contestants = rng.integers(0, m, size=f.shape[:-1] + (n, k))
    # direct gathers: deme i's contestants index row i of the block
    demes = np.arange(f.size // m).reshape(f.shape[:-1] + (1, 1))
    scores = f.reshape(-1, m)[demes, contestants]
    winners = np.argmax(scores, axis=-1) if maximize else np.argmin(scores, axis=-1)
    picks = contestants.reshape(-1, k)[np.arange(winners.size), winners.reshape(-1)]
    return picks.reshape(winners.shape)


def roulette_indices(
    rng: np.random.Generator, fitnesses: np.ndarray, n: int, maximize: bool
) -> np.ndarray:
    """Fitness-proportionate draws (min-shift + uniform floor weights)."""
    f = _check_fitnesses(fitnesses)
    probs = _minimization_to_weights(f, maximize)
    return rng.choice(f.shape[0], size=n, replace=True, p=probs)


def linear_rank_indices(
    rng: np.random.Generator, fitnesses: np.ndarray, n: int, maximize: bool, *, sp: float = 1.7
) -> np.ndarray:
    """Linear-rank probabilities with selection bias ``sp`` in [1, 2]."""
    f = _check_fitnesses(fitnesses)
    m = f.shape[0]
    order = np.argsort(f) if maximize else np.argsort(-f)
    # rank 0 = worst … rank m-1 = best
    ranks = np.empty(m, dtype=float)
    ranks[order] = np.arange(m, dtype=float)
    if m > 1:
        probs = (2.0 - sp) / m + 2.0 * ranks * (sp - 1.0) / (m * (m - 1.0))
    else:
        probs = np.ones(1)
    return rng.choice(m, size=n, replace=True, p=probs / probs.sum())


def sus_indices(
    rng: np.random.Generator, fitnesses: np.ndarray, n: int, maximize: bool
) -> np.ndarray:
    """Stochastic universal sampling: one spin, ``n`` equal-spaced pointers."""
    f = _check_fitnesses(fitnesses)
    cum = np.cumsum(_minimization_to_weights(f, maximize))
    pointers = rng.random() / n + np.arange(n) / n
    idx = np.clip(np.searchsorted(cum, pointers, side="right"), 0, f.shape[0] - 1)
    rng.shuffle(idx)  # SUS traditionally shuffles the mating pool
    return idx


def truncation_indices(
    rng: np.random.Generator,
    fitnesses: np.ndarray,
    n: int,
    maximize: bool,
    *,
    fraction: float = 0.5,
) -> np.ndarray:
    """Uniform draws from the top ``fraction`` of the pool."""
    f = _check_fitnesses(fitnesses)
    order = np.argsort(-f) if maximize else np.argsort(f)
    k = max(1, int(np.ceil(fraction * f.shape[0])))
    return order[rng.integers(0, k, size=n)]


def boltzmann_indices(
    rng: np.random.Generator,
    fitnesses: np.ndarray,
    n: int,
    maximize: bool,
    *,
    temperature: float = 1.0,
) -> np.ndarray:
    """Softmax selection with the given temperature (stabilised)."""
    f = _check_fitnesses(fitnesses)
    z = f if maximize else -f
    w = np.exp((z - z.max()) / temperature)
    return rng.choice(f.shape[0], size=n, replace=True, p=w / w.sum())


def random_indices(
    rng: np.random.Generator, fitnesses: np.ndarray, n: int, maximize: bool
) -> np.ndarray:
    """Uniform random parents — the zero-pressure control."""
    return rng.integers(0, _check_fitnesses(fitnesses).shape[0], size=n)


def best_indices(
    rng: np.random.Generator, fitnesses: np.ndarray, n: int, maximize: bool
) -> np.ndarray:
    """The single best index, ``n`` times (maximal-pressure control)."""
    f = _check_fitnesses(fitnesses)
    return np.full(n, int(np.argmax(f) if maximize else np.argmin(f)), dtype=np.int64)


# -- operators ----------------------------------------------------------------------

class _IndexSelection:
    """Selection through :meth:`indices`, this operator's index kernel."""

    def indices(self, rng, fitnesses, n, maximize) -> np.ndarray:
        raise NotImplementedError

    def __call__(
        self,
        rng: np.random.Generator,
        individuals: Sequence[Individual],
        n: int,
        maximize: bool,
    ) -> list[Individual]:
        if not individuals:
            raise ValueError("cannot select from empty population")
        f = np.asarray([ind.require_fitness() for ind in individuals], dtype=float)
        return [individuals[int(i)] for i in self.indices(rng, f, n, maximize)]


@dataclass(frozen=True)
class TournamentSelection(_IndexSelection):
    """Pick the best of ``size`` uniform random contestants, ``n`` times.

    Tournament size controls selection pressure; size 2 is the survey-era
    default and the one Giacobini et al.'s cellular pressure study builds on
    ("binary tournament").
    """

    size: int = 2

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError(f"tournament size must be >= 1, got {self.size}")

    def indices(self, rng, fitnesses, n, maximize):
        return tournament_indices(rng, fitnesses, n, maximize, size=self.size)


@dataclass(frozen=True)
class RouletteWheelSelection(_IndexSelection):
    """Fitness-proportionate selection (Holland's original scheme)."""

    def indices(self, rng, fitnesses, n, maximize):
        return roulette_indices(rng, fitnesses, n, maximize)


@dataclass(frozen=True)
class LinearRankSelection(_IndexSelection):
    """Rank-based probabilities with selection bias ``sp`` in [1, 2]."""

    sp: float = 1.7

    def __post_init__(self) -> None:
        if not 1.0 <= self.sp <= 2.0:
            raise ValueError(f"selection pressure sp must be in [1,2], got {self.sp}")

    def indices(self, rng, fitnesses, n, maximize):
        return linear_rank_indices(rng, fitnesses, n, maximize, sp=self.sp)


@dataclass(frozen=True)
class StochasticUniversalSampling(_IndexSelection):
    """SUS (Baker 1987): one spin, ``n`` equally spaced pointers — lower
    variance than roulette for the same expected counts."""

    def indices(self, rng, fitnesses, n, maximize):
        return sus_indices(rng, fitnesses, n, maximize)


@dataclass(frozen=True)
class TruncationSelection(_IndexSelection):
    """Select uniformly from the top ``fraction`` of the population."""

    fraction: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 < self.fraction <= 1.0:
            raise ValueError(f"fraction must be in (0,1], got {self.fraction}")

    def indices(self, rng, fitnesses, n, maximize):
        return truncation_indices(rng, fitnesses, n, maximize, fraction=self.fraction)


@dataclass(frozen=True)
class BoltzmannSelection(_IndexSelection):
    """Softmax selection with temperature ``temperature``.

    High temperature → near-uniform; low temperature → near-greedy.  The
    classic annealing-flavoured scheme from the survey's operator theory
    thread.
    """

    temperature: float = 1.0

    def __post_init__(self) -> None:
        if self.temperature <= 0:
            raise ValueError(f"temperature must be positive, got {self.temperature}")

    def indices(self, rng, fitnesses, n, maximize):
        return boltzmann_indices(rng, fitnesses, n, maximize, temperature=self.temperature)


@dataclass(frozen=True)
class RandomSelection(_IndexSelection):
    """Uniform random parents — the zero-pressure control."""

    def indices(self, rng, fitnesses, n, maximize):
        return random_indices(rng, fitnesses, n, maximize)


@dataclass(frozen=True)
class BestSelection(_IndexSelection):
    """Deterministically return the single best individual ``n`` times.

    Used for migrant selection ("send your best") and as the maximal
    pressure control in takeover-time studies.
    """

    def indices(self, rng, fitnesses, n, maximize):
        return best_indices(rng, fitnesses, n, maximize)
