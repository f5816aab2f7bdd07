"""Deterministic random-number management for sequential and parallel GAs.

Every stochastic component in :mod:`repro` draws from a
:class:`numpy.random.Generator`.  Parallel models need *independent*
streams per deme/worker that are nevertheless reproducible from a single
seed; we use NumPy's ``SeedSequence.spawn`` mechanism, which guarantees
statistically independent child streams.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = [
    "ensure_rng",
    "spawn_rngs",
    "spawn_seeds",
    "derive_rng",
    "DemeStreams",
    "segments",
    "row_generators",
]


def ensure_rng(seed: int | np.random.Generator | None = None) -> np.random.Generator:
    """Coerce ``seed`` into a :class:`numpy.random.Generator`.

    Parameters
    ----------
    seed:
        ``None`` (fresh nondeterministic generator), an ``int`` seed, or an
        existing generator (returned unchanged).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_rngs(seed: int | np.random.SeedSequence | None, n: int) -> list[np.random.Generator]:
    """Create ``n`` independent generators derived from one root seed.

    The streams are independent in the cryptographic-hash sense provided by
    :class:`numpy.random.SeedSequence`, so demes seeded this way do not share
    correlated randomness.
    """
    if n < 0:
        raise ValueError(f"cannot spawn {n} generators")
    if isinstance(seed, np.random.SeedSequence):
        root = seed
    else:
        root = np.random.SeedSequence(seed)
    return [np.random.default_rng(s) for s in root.spawn(n)]


def spawn_seeds(seed: int | None, n: int) -> list[np.random.SeedSequence]:
    """Spawn ``n`` child seed sequences (picklable, for multiprocessing)."""
    if n < 0:
        raise ValueError(f"cannot spawn {n} seeds")
    return np.random.SeedSequence(seed).spawn(n)


def derive_rng(rng: np.random.Generator) -> np.random.Generator:
    """Fork one additional independent generator off an existing one.

    Used when a component must hand private randomness to a sub-component
    without perturbing its own stream consumption pattern.
    """
    seed = rng.integers(0, 2**63 - 1, dtype=np.int64)
    return np.random.default_rng(int(seed))


def pairwise_indices(rng: np.random.Generator, n: int) -> Sequence[tuple[int, int]]:
    """Random disjoint index pairs covering ``0..n-1`` (n even) for mating."""
    perm = rng.permutation(n)
    return [(int(perm[i]), int(perm[i + 1])) for i in range(0, n - n % 2, 2)]


class DemeStreams:
    """Several demes' generators behind one ``Generator``-like draw API.

    A draw's leading axis is cut into consecutive per-deme segments of
    ``rows[i]`` rows, and deme ``i``'s segment comes from ``rngs[i]``
    alone: each deme consumes exactly the draws it would consume if its
    rows were drawn on their own.  This is what makes a stacked deme step
    bit-identical to stepping each deme separately.  Each deme's draw is
    written straight into its segment of one preallocated output.
    """

    def __init__(self, rngs: Sequence[np.random.Generator], rows: Sequence[int] = ()) -> None:
        self.rngs = list(rngs)
        self.rows = [int(k) for k in rows]

    def split(self, rows: Sequence[int] | np.ndarray) -> "DemeStreams":
        """The same generators with new per-deme row counts."""
        if len(rows) != len(self.rngs):
            raise ValueError(f"{len(rows)} row counts for {len(self.rngs)} demes")
        out = DemeStreams.__new__(DemeStreams)
        out.rngs = self.rngs
        out.rows = rows.tolist() if isinstance(rows, np.ndarray) else [int(k) for k in rows]
        return out

    def _shape(self, size) -> tuple[int, ...]:
        shape = (int(size),) if isinstance(size, (int, np.integer)) else tuple(size)
        if not shape or shape[0] != sum(self.rows):
            raise ValueError(f"draw of shape {shape} does not split into deme rows {self.rows}")
        return shape

    def _slices(self):
        """``(generator, its deme's slice of the leading axis)``, in order."""
        start = 0
        for rng, k in zip(self.rngs, self.rows):
            yield rng, slice(start, start + k)
            start += k

    def _draw(self, method: str, size, *args, **kwargs) -> np.ndarray:
        shape = self._shape(size)
        out = None
        for rng, rows in self._slices():
            k = rows.stop - rows.start
            seg = getattr(rng, method)(*args, size=(k,) + shape[1:], **kwargs)
            if out is None:
                out = np.empty(shape, dtype=seg.dtype)
            out[rows] = seg
        return out

    def random(self, size) -> np.ndarray:
        out = np.empty(self._shape(size))
        for rng, rows in self._slices():
            rng.random(out=out[rows])
        return out

    def integers(self, low, high=None, size=None, dtype=np.int64) -> np.ndarray:
        return self._draw("integers", size, low, high, dtype=dtype)

    def normal(self, loc=0.0, scale=1.0, size=None) -> np.ndarray:
        return self._draw("normal", size, loc, scale)

    def choice(self, a, size=None) -> np.ndarray:
        return self._draw("choice", size, a)

    def uniform(self, low=0.0, high=1.0, size=None) -> np.ndarray:
        if size is not None:
            return self._draw("uniform", size, low, high)
        # per-element bounds: each deme draws over its own rows of them
        lo, hi = np.broadcast_arrays(np.asarray(low, float), np.asarray(high, float))
        out = np.empty(self._shape(lo.shape))
        for rng, rows in self._slices():
            out[rows] = rng.uniform(lo[rows], hi[rows])
        return out


def segments(
    rng: np.random.Generator | DemeStreams, rows: Sequence[int] | np.ndarray
) -> np.random.Generator | DemeStreams:
    """``rng`` prepared for a draw over per-deme ``rows`` (a plain
    generator, i.e. one deme, is returned as is)."""
    return rng.split(rows) if isinstance(rng, DemeStreams) else rng


def row_generators(rng: np.random.Generator | DemeStreams, n: int) -> list[np.random.Generator]:
    """The generator each of ``n`` rows draws from."""
    if not isinstance(rng, DemeStreams):
        return [rng] * n
    if sum(rng.rows) != n:
        raise ValueError(f"{n} rows for deme rows {rng.rows}")
    return [r for r, k in zip(rng.rngs, rng.rows) for _ in range(k)]
