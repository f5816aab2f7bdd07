"""The whole crossover–mutation–repair cycle on genome blocks.

:func:`vector_offspring` is the block counterpart of
:func:`repro.core.variation.make_offspring`: same pairwise parent
consumption (with wrap-around), same per-pair crossover probability, same
per-child mutation probability, same origin tags — but applied to whole
blocks through the kernels in :mod:`.kernels`, and producing *exactly*
``count`` children: the final pair is sliced to ``count`` before
mutation, so no discarded-sibling work (or rng draws for it) happens.

Stacked demes pass a ``(d, m, L)`` parent block and one generator per
deme.  The arithmetic runs once over all ``d`` demes; every draw is cut
into per-deme segments by :class:`~repro.core.rng.DemeStreams`, so each
deme's children are bit-identical to a batch-of-one call with its own
generator.

Loop-free by contract — enforced by ``scripts/check_engine_contract.py``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..rng import DemeStreams, segments
from .kernels import crossover_kernel, mutation_kernel

__all__ = ["vector_offspring"]

#: origin tag by (crossed + 2 * mutated)
_ORIGIN_TAGS = np.array(["clone", "cx", "clone+mut", "cx+mut"], dtype=object)


def vector_offspring(
    rng: np.random.Generator | Sequence[np.random.Generator],
    config,
    spec,
    parent_genomes: np.ndarray,
    count: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Produce exactly ``count`` unevaluated child genomes per parent block.

    Parameters
    ----------
    rng:
        One generator, or one per deme for a stacked ``(d, m, L)`` block.
    parent_genomes:
        ``(m, L)`` block, or ``(d, m, L)`` for ``d`` stacked demes.  Rows
        are consumed pairwise in order (rows 0+1 mate, rows 2+3 mate, …),
        wrapping around if fewer than ``2*ceil(count/2)`` rows are
        supplied — the same pooling rule as the scalar ``make_offspring``.
    count:
        Children per deme; the pair block is sliced to this before
        mutation/repair, so exactly this much work is done.

    Returns
    -------
    ``(children, origins)``: ``(count, L)`` and ``(count,)`` (or
    ``(d, count, L)`` and ``(d, count)`` when stacked), the origins being
    ``"cx"``/``"clone"`` tags with ``"+mut"`` appended where mutation
    fired.
    """
    if config.crossover is None or config.mutation is None:
        raise ValueError("config operators unresolved; call config.resolved_for(spec)")
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    P = np.asarray(parent_genomes)
    stacked = not isinstance(rng, np.random.Generator)
    if P.ndim != 2 + stacked:
        raise ValueError(
            f"parent_genomes must be {'3-D (d, m, L)' if stacked else '2-D (m, L)'}, "
            f"got ndim={P.ndim}"
        )
    blocks = P if stacked else P[None]
    d, m, L = blocks.shape
    if stacked and len(rng) != d:
        raise ValueError(f"{len(rng)} generators for {d} stacked demes")
    if count == 0:
        out = blocks[:, :0].copy(), np.empty((d, 0), dtype=object)
        return out if stacked else (out[0][0], out[1][0])
    if m < 2:
        raise ValueError("need at least two parent rows to produce offspring")
    streams = (rng[0] if d == 1 else DemeStreams(rng)) if stacked else rng

    cx = crossover_kernel(config.crossover)
    mut = mutation_kernel(config.mutation)

    pairs = (count + 1) // 2
    # pair-major parent block: pair j of deme i is row i * pairs + j, its
    # two parents at [:, 0] and [:, 1]; crossover writes into it in place
    # and it becomes the child block (a gather, so never the parents' rows)
    AB = blocks[:, np.arange(2 * pairs) % m].reshape(d * pairs, 2, L)

    cx_mask = segments(streams, [pairs] * d).random(d * pairs) < config.crossover_prob
    if cx_mask.any():
        cx_rows = np.add.reduce(cx_mask.reshape(d, pairs), axis=1)
        ca_x, cb_x = cx(segments(streams, cx_rows), AB[cx_mask, 0], AB[cx_mask, 1])
        AB = AB.astype(np.result_type(AB.dtype, ca_x.dtype), copy=False)
        AB[cx_mask, 0] = ca_x
        AB[cx_mask, 1] = cb_x

    # exactly `count` children survive — the odd sibling is dropped *before*
    # mutation, so no work is wasted on it
    children = AB.reshape(d, 2 * pairs, L)[:, :count]
    child_cx = np.repeat(cx_mask.reshape(d, pairs), 2, axis=1)[:, :count]

    per_deme = [count] * d
    mut_mask = (segments(streams, per_deme).random(d * count) < config.mutation_prob).reshape(
        d, count
    )
    if mut_mask.any():
        mut_rows = np.add.reduce(mut_mask, axis=1)
        mutated = mut(segments(streams, mut_rows), children[mut_mask])
        if mut_mask.all():
            children = mutated
        else:
            children = children.astype(np.result_type(children.dtype, mutated.dtype))
            children[mut_mask] = mutated

    children = spec.repair_batch(children.reshape(d * count, L), segments(streams, per_deme))

    origins = _ORIGIN_TAGS[child_cx + 2 * mut_mask]
    children = children.reshape(d, count, -1)
    return (children, origins) if stacked else (children[0], origins[0])
