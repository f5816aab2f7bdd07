"""Property-based tests (hypothesis) pinning the resident-block rewrites.

The stacked step gathers with direct fancy indexing and takes best, worst
and median from one row-wise sort.  These properties hold the rewrites to
the formulations they replaced: ``np.take_along_axis`` gathers for the
tournament kernel, and ``max``/``min``/``np.median`` for the statistics.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Population
from repro.core.operators.selection import tournament_indices
from repro.core.population import stack_stats
from repro.core.rng import DemeStreams, spawn_rngs

seeds = st.integers(min_value=0, max_value=2**31 - 1)

# ties, negatives and mixed magnitudes in one pool
values = st.one_of(
    st.sampled_from([0.0, 1.0, 1.0, 2.0, -3.0, -3.0]),
    st.floats(-1e12, 1e12, allow_nan=False, allow_infinity=False),
    st.floats(-1e-9, 1e-9, allow_nan=False, allow_infinity=False),
)


def _take_along_tournament(rng, fitnesses, n, maximize, *, size=2):
    """The ``np.take_along_axis`` formulation the kernel replaced."""
    f = np.asarray(fitnesses, dtype=float)
    m = f.shape[-1]
    k = min(size, m)
    contestants = rng.integers(0, m, size=f.shape[:-1] + (n, k))
    lead = f.shape[:-1] + (n * k,)
    scores = np.take_along_axis(f, contestants.reshape(lead), axis=-1)
    scores = scores.reshape(contestants.shape)
    winners = np.argmax(scores, axis=-1) if maximize else np.argmin(scores, axis=-1)
    return np.take_along_axis(contestants, winners[..., None], axis=-1)[..., 0]


@given(
    seed=seeds,
    d=st.integers(1, 5),
    m=st.integers(1, 9),
    n=st.integers(0, 12),
    size=st.integers(1, 5),
    maximize=st.booleans(),
    stacked=st.booleans(),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_tournament_gather_equals_take_along_axis(seed, d, m, n, size, maximize, stacked, data):
    shape = (d, m) if stacked else (m,)
    fits = np.array(
        data.draw(st.lists(values, min_size=d * m, max_size=d * m))[: int(np.prod(shape))]
    ).reshape(shape)

    def rng():
        if stacked:
            return DemeStreams(spawn_rngs(seed, d), [1] * d)
        return np.random.default_rng(seed)

    got = tournament_indices(rng(), fits, n, maximize, size=size)
    want = _take_along_tournament(rng(), fits, n, maximize, size=size)
    assert got.shape == want.shape
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


@given(
    rows=st.integers(1, 4),
    n=st.integers(1, 11),
    maximize=st.booleans(),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_sort_stats_equal_numpy_reductions(rows, n, maximize, data):
    F = np.array(data.draw(st.lists(values, min_size=rows * n, max_size=rows * n))).reshape(
        rows, n
    )
    pops = [
        Population.from_arrays(np.zeros((n, 3), dtype=np.int8), f, maximize=maximize) for f in F
    ]
    stack_stats(pops)
    for p, f in zip(pops, F):
        s = p.stats()
        best, worst = (f.max(), f.min()) if maximize else (f.min(), f.max())
        assert (s.best, s.worst) == (best, worst)
        assert s.median == np.median(f)
        assert (s.mean, s.std) == (f.mean(), f.std())
        # one population alone computes the same statistics
        alone = Population.from_arrays(np.zeros((n, 3), dtype=np.int8), f, maximize=maximize)
        assert alone.stats() == s


@pytest.mark.parametrize("shape", [(0,), (2, 0), (2, 2, 2)])
def test_fitness_shape_error_names_accepted_shapes(shape):
    with pytest.raises(ValueError, match=r"1-D or 2-D and non-empty"):
        tournament_indices(np.random.default_rng(0), np.zeros(shape), 3, True)
