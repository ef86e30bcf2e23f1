"""Classes of equal closed balls at a fixed radius, on a scaled-integer grid.

Points come as an integer cell array, one row (edge, offset * S) per point,
where S is a common denominator with R = r * S an integer.  All coverage
endpoints are then integers, and each ball becomes one row of integers:

* per edge, its part [0, h] u [l, S] as (h, l), with h = -1 or l = S + 1
  for an uncovered side and (S, 0) for the whole edge;
* on the centre's own edge, the union with [t - R, t + R], encoded the same
  way, or as (-2, -2) when a middle component is left; the 4 trailing
  columns then hold (h, l, lo, hi), and are -3 in every other row.

A middle component can only lie on the centre's edge, which the (-2, -2)
marks, so the encoding is injective on sets: rows are equal iff balls are.
Rows are built in chunks of points from the point-to-vertex distances, in
the narrowest signed integer type that holds every intermediate, and stored
in the narrowest one that holds [-3, S + 1] (int8 for every level, whose
S is at most 32).  Equal rows are grouped exactly, with no hash, by `np.unique` on a
`np.void` view of the rows.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .errors import InternalConsistencyError, ValidationError
from .graph import _CHUNK_ENTRIES, MetricGraph

INT64_SAFE = 1 << 60
_NO_MIDDLE = -3


def ball_keys(g: MetricGraph, r: Fraction, cells, S: int):
    """Classes of equal closed balls of radius r about the points `cells`,
    an (P, 2) integer array of rows (edge, offset * S).

    Returns labels: labels[i] is the least j with ball(j) == ball(i).
    """
    rows = key_rows(g, r, cells, S)
    void = rows.view(np.dtype((np.void, rows.dtype.itemsize * rows.shape[1]))).ravel()
    _, index, inverse = np.unique(void, return_index=True, return_inverse=True)
    return index[inverse]


def key_rows(g: MetricGraph, r: Fraction, cells, S: int) -> np.ndarray:
    """The (P, 2E + 4) rows of the module docstring, one per cell."""
    r = Fraction(r)
    E = g.num_edges
    P = len(cells)
    if (r * S).denominator != 1:
        raise InternalConsistencyError(
            f"{g.name}: radius {r} is off the 1/{S} grid of the cells"
        )
    R = int(r * S)
    cells = np.asarray(cells).reshape(P, 2)
    off = np.flatnonzero(
        (cells[:, 0] < 0) | (cells[:, 0] >= E) | (cells[:, 1] < 0) | (cells[:, 1] > S)
    )
    if len(off):
        raise InternalConsistencyError(
            f"{g.name}: cells {off[:8].tolist()} lie off the graph at radius {r}"
        )
    tails, heads = np.array(g.edges, dtype=np.int64).T
    D = g.vertex_distance_matrix()
    # every intermediate below lies within +-bound
    bound = S * (int(D.max()) + 2) + R
    if bound >= INT64_SAFE:
        raise ValidationError(f"{g.name}: the 1/{S} grid at radius {r} is too fine for int64 key rows")
    work = next(t for t in (np.int16, np.int32, np.int64) if bound < np.iinfo(t).max)
    narrow = next(t for t in (np.int8, np.int16, np.int32, np.int64) if S < np.iinfo(t).max)
    SD = S * D.astype(work)
    rows = np.empty((P, 2 * E + 4), dtype=narrow)
    rows[:, 2 * E :] = _NO_MIDDLE
    step = max(1, _CHUNK_ENTRIES // max(E, g.num_vertices))
    for lo in range(0, P, step):
        e = cells[lo : lo + step, 0].astype(np.int64)
        t = cells[lo : lo + step, 1].astype(work)
        # distance from each point to each vertex, scaled by S
        dp = np.minimum(t[:, None] + SD[tails[e]], (S - t)[:, None] + SD[heads[e]])
        h = rows[lo : lo + step, :E]
        l = rows[lo : lo + step, E : 2 * E]
        np.clip(R - dp[:, tails], -1, S, out=h, casting="unsafe")
        np.clip((S - R) + dp[:, heads], 0, S + 1, out=l, casting="unsafe")
        whole = (h >= l) | (h == S) | (l == 0)
        h[whole] = S
        l[whole] = 0
        inner = np.flatnonzero((t > 0) & (t < S))
        ce = e[inner]
        h[inner, ce], l[inner, ce], rows[lo + inner, 2 * E :] = _center_edge(
            S, R, t[inner], h[inner, ce], l[inner, ce]
        )
    return rows


def _center_edge(S: int, R: int, t, h, l):
    """[0, h] u [l, S] u [t - R, t + R] on the centre's edge, for arrays of
    centres t and side encodings (h, l): returns the merged (h, l) pair, or
    (-2, -2) and the 4 trailing columns when a middle component is left."""
    lo = np.maximum(t - R, 0)
    hi = np.minimum(t + R, S)
    joins_left = (lo == 0) | ((h >= 0) & (lo <= h))
    joins_right = (hi == S) | ((l <= S) & (hi >= l))
    middle = ~joins_left & ~joins_right
    mh = np.where(joins_left, np.maximum(h, hi), h)
    ml = np.where(joins_right, np.minimum(l, lo), l)
    whole = mh >= ml
    mh = np.where(whole, S, np.where(middle, -2, mh))
    ml = np.where(whole, 0, np.where(middle, -2, ml))
    extra = np.where(middle[:, None], np.stack([h, l, lo, hi], axis=1), _NO_MIDDLE)
    return mh, ml, extra
