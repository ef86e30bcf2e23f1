"""Classes of equal closed balls at a fixed radius, on a scaled-integer grid.

Points come as an integer cell array, one row (edge, offset * S) per point,
where S is a common denominator with R = r * S an integer, or as the rows
of `with_distances`, which append the point's distance to every vertex,
scaled by S.  Those distances do not depend on R, so a caller that keys one
set of points at many radii (a timeline layout, the merge sweep) computes
them once, and each call only clips and gathers.  All coverage
endpoints are then integers, and each ball becomes one row of integers, two
per edge: its part [0, h] u [l, S] as (h, l), with h = -1 or l = S + 1 for
an uncovered side and (S, 0) for the whole edge, merged on the centre's edge
(e, t) with [t - R, t + R].

The middle ball: if R < t < S - R, the ball reaches neither end of e, and
every path off e passes an end, so it is [t - R, t + R] alone, holds no
vertex, and every pair of its row reads (-1, S + 1).  At one R, t fixes
the ball, which is encoded as (-2 - t, S + 1) in e's pair; rows keyed at
several radii in one call (the merge sweep) are grouped with their R.
Every other ball holds a vertex, so its centre interval joins a side and
its row is the exact (h, l) form of the set: rows are equal iff balls are.

Values lie in [-S - 1, S + 1].  Rows are built in chunks of points, in the
narrowest signed integer type that holds every intermediate, and stored in
the narrowest one that holds that range (int8 for every level, whose S is
at most 32).  Equal rows are grouped by a dict over each row's bytes, the
first index winning: exact, as a dict compares whole keys on a hash match,
with no sort and one copy of the rows.

With d scaled by S, the sides of an edge (u, v) are h = clip(R - d(p, u),
-1, S) and l = clip(S - R + d(p, v), 0, S + 1).  As clip(S - x, 0, S + 1) =
S - clip(x, -1, S) for every integer x (both are S - x on [-1, S], S + 1
below it and 0 above it), h = c(u) and l = S - c(v) with the reach
c(w) = clip(R - d(p, w), -1, S): a row is one gather from the 2V values c(w)
and S - c(w).  A unit edge's end distances differ by at most S, so h = S
gives c(v) >= 0 and l <= S = h, and l = 0 gives h >= 0 = l: the sides
cover the edge iff h >= l.  Its pair then becomes (S, 0), written with no branch as
h + (S - h) w and l (1 - w) with w = [h >= l], every intermediate in
[-1, S + 1].
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .errors import InternalConsistencyError, ValidationError
from .graph import _CHUNK_ENTRIES, MetricGraph

INT64_SAFE = 1 << 60


def ball_keys(g: MetricGraph, r, cells, S: int):
    """Classes of equal closed balls of radius r about the points `cells`,
    the rows and radii that `key_rows` takes.

    Returns labels: labels[i] is the least j with ball(j) == ball(i) at the
    same radius.
    """
    rows = key_rows(g, r, cells, S)
    if isinstance(r, np.ndarray):  # R's bytes lead each key, as a middle ball's row leaves R out
        rows = np.hstack([np.asarray(r, np.int64)[:, None].view(rows.dtype), rows])
    return group_rows(rows)


def group_rows(rows: np.ndarray) -> np.ndarray:
    """labels[i], the least j with rows[j] == rows[i]: a dict over each row's
    bytes in which the first index wins."""
    first: dict[bytes, int] = {}
    void = rows.view(np.dtype((np.void, rows.dtype.itemsize * rows.shape[1]))).ravel()
    return np.array([first.setdefault(k, i) for i, k in enumerate(void.tolist())], dtype=np.int64)


def with_distances(g: MetricGraph, cells, S: int) -> np.ndarray:
    """The rows (edge, offset * S) of `cells`, each followed by its point's
    distance to every vertex w scaled by S, min(t + d(tail, w), S - t + d(head, w)):
    the rows that `key_rows` keys at any R up to S * (max d + 2), in the
    narrowest signed type that holds R - d, in C order: a caller that keys a
    subset of the points (a timeline level, the merge sweep's class
    representatives) gathers whole rows."""
    D = g.vertex_distance_matrix()
    bound = max(2 * S * (int(D.max()) + 2), g.num_edges)
    if bound >= INT64_SAFE:
        raise ValidationError(f"{g.name}: the 1/{S} grid is too fine for int64 key rows")
    work = next(t for t in (np.int16, np.int32, np.int64) if bound < np.iinfo(t).max)
    cells, SD = np.asarray(cells).reshape(-1, 2), S * D.astype(work)
    out = np.empty((len(cells), 2 + g.num_vertices), dtype=work)
    out[:, :2] = cells
    step = max(1, _CHUNK_ENTRIES // g.num_vertices)
    for lo in range(0, len(cells), step):
        e, t = cells[lo : lo + step, 0], cells[lo : lo + step, 1].astype(work)
        np.minimum(t[:, None] + SD[g.tails[e]], (S - t)[:, None] + SD[g.heads[e]], out=out[lo : lo + step, 2:])
    return out


def key_rows(g: MetricGraph, r, cells, S: int) -> np.ndarray:
    """The (P, 2E) rows of the module docstring, one per cell: `cells` are
    rows (edge, offset * S), or the rows of `with_distances`; r is one radius
    for every row, or an integer ndarray of each row's R = r * S."""
    E, V, P = g.num_edges, g.num_vertices, len(cells)
    per_row = isinstance(r, np.ndarray)
    R = r if per_row else Fraction(r) * S
    if not per_row and R.denominator != 1:
        raise InternalConsistencyError(f"{g.name}: radius {r} is off the 1/{S} grid of the cells")
    cells = np.asarray(cells)
    off = np.flatnonzero((cells[:, :2] < 0).any(axis=1) | (cells[:, 0] >= E) | (cells[:, 1] > S))[:8]
    if len(off):
        raise InternalConsistencyError(f"{g.name}: cells {off.tolist()} lie off the graph at radius {r}")
    if cells.shape[1] == 2:
        cells = with_distances(g, cells, S)
    R = R.astype(cells.dtype) if per_row else int(R)
    narrow = next(t for t in (np.int8, np.int16, np.int32, np.int64) if S < np.iinfo(t).max)
    ends = np.concatenate([g.tails, V + g.heads])  # the reach rows of h's columns, then l's
    rows = np.empty((P, 2 * E), dtype=narrow)
    step = max(1, _CHUNK_ENTRIES // max(E, V))
    for lo in range(0, P, step):
        e = cells[lo : lo + step, 0].astype(np.int64)
        t, Rc = cells[lo : lo + step, 1], R[lo : lo + step] if per_row else R
        # c(w), then S - c(w), vertex-major so that the gather copies whole rows
        reach = np.empty((2 * V, len(e)), dtype=narrow)
        np.clip(Rc - cells[lo : lo + step, 2:].T, -1, S, out=reach[:V], casting="unsafe")
        np.subtract(S, reach[:V], out=reach[V:])
        # the rows edge-major, then one transposed copy
        cols = reach[ends]
        h, l = cols[:E], cols[E:]
        w = (h >= l).view(np.int8)
        h += (S - h) * w
        l *= 1 - w
        own = np.arange(len(e))
        h[e, own], l[e, own] = _center_edge(S, Rc, t, h[e, own], l[e, own])
        rows[lo : lo + step] = cols.T
    return rows


def _center_edge(S: int, R: int, t, h, l):
    """[0, h] u [l, S] u [t - R, t + R] on the centre's edge, for arrays of
    centres t and side encodings (h, l): the merged (h, l) pair, or the
    marker (-2 - t, S + 1) of a middle ball.  At t = 0 or S the centre
    interval lies inside a side already, and the pair is unchanged."""
    lo = np.maximum(t - R, 0)
    hi = np.minimum(t + R, S)
    joins_left = lo <= np.maximum(h, 0)
    joins_right = hi >= np.minimum(l, S)
    middle = ~joins_left & ~joins_right
    mh = np.where(joins_left, np.maximum(h, hi), h)
    ml = np.where(joins_right, np.minimum(l, lo), l)
    whole = mh >= ml
    return np.where(whole, S, np.where(middle, -2 - t, mh)), np.where(whole, 0, ml)
