"""Mutation operators.

The survey: "Mutation is an operator for a slight change of one
individual … It is random, so it is against staying in the local minimum.
Low mutation parameter means low probability of mutation."

Every operator is a callable ``(rng, genome) -> genome`` returning a *new*
array; inputs are never modified in place.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

import numpy as np

__all__ = [
    "Mutation",
    "BitFlipMutation",
    "GaussianMutation",
    "UniformResetMutation",
    "PolynomialMutation",
    "CreepMutation",
    "SwapMutation",
    "InversionMutation",
    "ScrambleMutation",
    "InsertionMutation",
    "mutation_for_spec",
    "bit_flip_mutation_batch",
    "gaussian_mutation_batch",
    "uniform_reset_mutation_batch",
    "polynomial_mutation_batch",
    "creep_mutation_batch",
    "swap_mutation_batch",
    "inversion_mutation_batch",
]


class Mutation(Protocol):
    """Callable protocol all mutation operators satisfy."""

    def __call__(self, rng: np.random.Generator, genome: np.ndarray) -> np.ndarray: ...


def _per_gene_rate(rate: float | None, n: int) -> float:
    """Default per-gene rate 1/L, the classic GA setting."""
    return (1.0 / n) if rate is None else rate


def _distinct_pairs(
    rng: np.random.Generator, p: int, low: int, high: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row uniform distinct ordered pairs from ``[low, high)``.

    ``i`` is uniform over the range; ``j`` is uniform over the range minus
    ``i`` (drawn from a one-smaller range and shifted past ``i``), which is
    exactly the distribution of sampling two values without replacement.
    """
    i = rng.integers(low, high, size=p)
    j = rng.integers(low, high - 1, size=p)
    j = j + (j >= i)
    return np.minimum(i, j), np.maximum(i, j)


# -- block kernels: an (m, L) block -> a mutated copy ---------------------------------

def _check_block(G: np.ndarray) -> None:
    if G.ndim != 2:
        raise ValueError(f"genome block must be 2-D (m, L), got ndim={G.ndim}")


def bit_flip_mutation_batch(
    rng: np.random.Generator, G: np.ndarray, *, rate: float | None = None
) -> np.ndarray:
    """Independent per-bit flips at ``rate`` (default 1/L) over the block."""
    _check_block(G)
    r = _per_gene_rate(rate, G.shape[1])
    flip = rng.random(G.shape) < r
    if np.issubdtype(G.dtype, np.integer):
        return G + flip * (1 - 2 * G)  # exact 1 - G where flipped, no np.where
    return np.where(flip, 1 - G, G)


def gaussian_mutation_batch(
    rng: np.random.Generator,
    G: np.ndarray,
    *,
    sigma: float = 0.1,
    rate: float | None = None,
    lower: float | np.ndarray | None = None,
    upper: float | np.ndarray | None = None,
) -> np.ndarray:
    """Per-gene N(0, sigma) noise at ``rate``, clipped to optional bounds."""
    _check_block(G)
    r = _per_gene_rate(rate, G.shape[1])
    mask = rng.random(G.shape) < r
    noise = rng.normal(0.0, sigma, size=G.shape)
    out = G.astype(float) + np.where(mask, noise, 0.0)
    if lower is not None or upper is not None:
        out = np.clip(
            out,
            -np.inf if lower is None else lower,
            np.inf if upper is None else upper,
        )
    return out


def uniform_reset_mutation_batch(
    rng: np.random.Generator,
    G: np.ndarray,
    *,
    lower: float | np.ndarray,
    upper: float | np.ndarray,
    rate: float | None = None,
) -> np.ndarray:
    """Uniform per-gene resample from the box at ``rate``."""
    _check_block(G)
    m, L = G.shape
    r = _per_gene_rate(rate, L)
    mask = rng.random(G.shape) < r
    lo = np.broadcast_to(np.asarray(lower, dtype=float), (L,))
    hi = np.broadcast_to(np.asarray(upper, dtype=float), (L,))
    fresh = rng.uniform(np.broadcast_to(lo, (m, L)), np.broadcast_to(hi, (m, L)))
    return np.where(mask, fresh, G.astype(float))


def polynomial_mutation_batch(
    rng: np.random.Generator,
    G: np.ndarray,
    *,
    lower: float | np.ndarray,
    upper: float | np.ndarray,
    eta: float = 20.0,
    rate: float | None = None,
) -> np.ndarray:
    """Deb's polynomial mutation over the whole block."""
    _check_block(G)
    m, L = G.shape
    r = _per_gene_rate(rate, L)
    lo = np.broadcast_to(np.asarray(lower, dtype=float), (L,))
    hi = np.broadcast_to(np.asarray(upper, dtype=float), (L,))
    span = hi - lo
    x = G.astype(float)
    mask = rng.random(G.shape) < r
    u = rng.random(G.shape)
    mpow = 1.0 / (eta + 1.0)
    d_lo = (x - lo) / span
    d_hi = (hi - x) / span
    delta = np.where(
        u < 0.5,
        (2.0 * u + (1.0 - 2.0 * u) * (1.0 - d_lo) ** (eta + 1.0)) ** mpow - 1.0,
        1.0 - (2.0 * (1.0 - u) + 2.0 * (u - 0.5) * (1.0 - d_hi) ** (eta + 1.0)) ** mpow,
    )
    out = x + np.where(mask, delta * span, 0.0)
    return np.clip(out, lo, hi)


def creep_mutation_batch(
    rng: np.random.Generator,
    G: np.ndarray,
    *,
    low: int,
    high: int,
    step: int = 1,
    rate: float | None = None,
) -> np.ndarray:
    """Integer creep: +/- small steps at ``rate``, clipped to [low, high]."""
    _check_block(G)
    r = _per_gene_rate(rate, G.shape[1])
    mask = rng.random(G.shape) < r
    steps = rng.integers(1, step + 1, size=G.shape) * rng.choice([-1, 1], size=G.shape)
    out = G.astype(np.int64) + np.where(mask, steps, 0)
    return np.clip(out, low, high)


def swap_mutation_batch(rng: np.random.Generator, G: np.ndarray) -> np.ndarray:
    """Exchange two distinct positions per row (permutation-safe)."""
    _check_block(G)
    m, L = G.shape
    if L < 2 or m == 0:
        return G.copy()
    i, j = _distinct_pairs(rng, m, 0, L)
    out = G.copy()
    rows = np.arange(m)
    out[rows, i], out[rows, j] = G[rows, j], G[rows, i]
    return out


def inversion_mutation_batch(rng: np.random.Generator, G: np.ndarray) -> np.ndarray:
    """Reverse one random segment per row (2-opt style, permutation-safe)."""
    _check_block(G)
    m, L = G.shape
    if L < 2 or m == 0:
        return G.copy()
    i, j = _distinct_pairs(rng, m, 0, L)
    cols = np.broadcast_to(np.arange(L)[None, :], (m, L))
    inside = (cols >= i[:, None]) & (cols <= j[:, None])
    src = np.where(inside, (i + j)[:, None] - cols, cols)
    return G[np.arange(m)[:, None], src]


# -- operators ---------------------------------------------------------------------
# An operator with a ``batch(rng, G)`` method has a block kernel; the
# engines call it on whole offspring blocks (repro.core.vectorized.kernels).


class _BlockMutation:
    """A mutation whose genome call is its block kernel on one row."""

    def __call__(self, rng: np.random.Generator, genome: np.ndarray) -> np.ndarray:
        return self.batch(rng, genome[None])[0]


@dataclass(frozen=True)
class BitFlipMutation(_BlockMutation):
    """Flip each bit independently with probability ``rate`` (default 1/L)."""

    rate: float | None = None

    def batch(self, rng, G):
        return bit_flip_mutation_batch(rng, G, rate=self.rate)


@dataclass(frozen=True)
class GaussianMutation(_BlockMutation):
    """Add N(0, sigma) noise per gene with probability ``rate``; clip to bounds."""

    sigma: float = 0.1
    rate: float | None = None
    lower: float | np.ndarray | None = None
    upper: float | np.ndarray | None = None

    def batch(self, rng, G):
        return gaussian_mutation_batch(
            rng, G, sigma=self.sigma, rate=self.rate, lower=self.lower, upper=self.upper
        )


@dataclass(frozen=True)
class UniformResetMutation(_BlockMutation):
    """Resample a gene uniformly from its box with probability ``rate``."""

    lower: float | np.ndarray
    upper: float | np.ndarray
    rate: float | None = None

    def batch(self, rng, G):
        return uniform_reset_mutation_batch(
            rng, G, lower=self.lower, upper=self.upper, rate=self.rate
        )


@dataclass(frozen=True)
class PolynomialMutation(_BlockMutation):
    """Deb's polynomial mutation: bounded perturbation with shape ``eta``."""

    lower: float | np.ndarray
    upper: float | np.ndarray
    eta: float = 20.0
    rate: float | None = None

    def batch(self, rng, G):
        return polynomial_mutation_batch(
            rng, G, lower=self.lower, upper=self.upper, eta=self.eta, rate=self.rate
        )


@dataclass(frozen=True)
class CreepMutation(_BlockMutation):
    """Integer creep: +/- a small step, clipped to ``[low, high]``."""

    low: int
    high: int
    step: int = 1
    rate: float | None = None

    def batch(self, rng, G):
        return creep_mutation_batch(
            rng, G, low=self.low, high=self.high, step=self.step, rate=self.rate
        )


@dataclass(frozen=True)
class SwapMutation:
    """Exchange two random positions (permutation-safe)."""

    def batch(self, rng, G):
        return swap_mutation_batch(rng, G)

    def __call__(self, rng: np.random.Generator, genome: np.ndarray) -> np.ndarray:
        out = genome.copy()
        n = out.shape[0]
        if n < 2:
            return out
        i, j = rng.choice(n, size=2, replace=False)
        out[i], out[j] = out[j], out[i]
        return out


@dataclass(frozen=True)
class InversionMutation:
    """Reverse a random segment (2-opt style; permutation-safe)."""

    def batch(self, rng, G):
        return inversion_mutation_batch(rng, G)

    def __call__(self, rng: np.random.Generator, genome: np.ndarray) -> np.ndarray:
        out = genome.copy()
        n = out.shape[0]
        if n < 2:
            return out
        i, j = sorted(rng.choice(n, size=2, replace=False).tolist())
        out[i : j + 1] = out[i : j + 1][::-1]
        return out


@dataclass(frozen=True)
class ScrambleMutation:
    """Shuffle a random segment (permutation-safe)."""

    def __call__(self, rng: np.random.Generator, genome: np.ndarray) -> np.ndarray:
        out = genome.copy()
        n = out.shape[0]
        if n < 2:
            return out
        i, j = sorted(rng.choice(n, size=2, replace=False).tolist())
        segment = out[i : j + 1].copy()
        rng.shuffle(segment)
        out[i : j + 1] = segment
        return out


@dataclass(frozen=True)
class InsertionMutation:
    """Remove one element and reinsert it elsewhere (permutation-safe)."""

    def __call__(self, rng: np.random.Generator, genome: np.ndarray) -> np.ndarray:
        n = genome.shape[0]
        if n < 2:
            return genome.copy()
        src = int(rng.integers(0, n))
        dst = int(rng.integers(0, n - 1))
        out = np.delete(genome, src)
        return np.insert(out, dst, genome[src])


def mutation_for_spec(spec) -> Mutation:
    """Sensible default mutation for a genome spec (used by quickstart)."""
    from ..genome import BinarySpec, IntegerVectorSpec, PermutationSpec, RealVectorSpec

    if isinstance(spec, BinarySpec):
        return BitFlipMutation()
    if isinstance(spec, RealVectorSpec):
        lo, hi = spec.bounds()
        return GaussianMutation(sigma=float(np.mean(hi - lo)) * 0.1, lower=lo, upper=hi)
    if isinstance(spec, PermutationSpec):
        return SwapMutation()
    if isinstance(spec, IntegerVectorSpec):
        return CreepMutation(low=spec.low, high=spec.high)
    raise TypeError(f"no default mutation for spec type {type(spec).__name__}")
