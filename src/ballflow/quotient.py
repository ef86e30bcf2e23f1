"""Projection levels: the radius-dependent subdivision, the quotient
multigraph by ball equality, and its topological fingerprint.

Identification of cells is all-or-nothing per open segment cell, so the
quotient is computed from one representative ball per cell (the midpoint),
with quarter-point representatives fixing the gluing orientation inside
multi-member classes.

A level keys only the balls whose class it cannot tell otherwise:

* B(p, r) = X iff Phi(p) <= r, and Phi is linear between quarter points
  (proof in `graph`), so the full cells, the class X, come from exact
  integer interpolation of the quarter-point table.  A full segment has
  full ends (Phi is continuous), so X's least cell is a vertex cell.
* The other vertex cells are keyed in one `ball_keys` call.
* If two open segment cells have equal midpoint balls they are identified
  whole, and as p -> B(p, r) is 1-Lipschitz into the Hausdorff metric, so
  are their ends: their unordered pairs of endpoint classes (X for a full
  end) are equal.  A segment cell identified with a vertex cell has both
  ends in that cell's class.  So a non-full midpoint is keyed only when its
  pair is shared with another non-full segment, or when both ends lie in
  one class other than X, whose least cell joins the call.  Any other
  non-full midpoint has a ball of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import NamedTuple, Sequence

import numpy as np

from .canon import canonical_multigraph_code, smooth_multigraph
from .errors import InternalConsistencyError, ValidationError
from .graph import GraphPoint, MetricGraph
from .levelkeys import INT64_SAFE, ball_keys

ONE = Fraction(1)
HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)


@dataclass(frozen=True)
class SegmentCell:
    edge: int
    lo: Fraction
    hi: Fraction
    tail_cell: int  # vertex cell id
    head_cell: int

    @property
    def midpoint(self) -> GraphPoint:
        return GraphPoint(self.edge, (self.lo + self.hi) / 2)

    @property
    def quarter(self) -> GraphPoint:
        return GraphPoint(self.edge, self.lo + (self.hi - self.lo) / 4)

    @property
    def three_quarter(self) -> GraphPoint:
        return GraphPoint(self.edge, self.lo + 3 * (self.hi - self.lo) / 4)


@dataclass(frozen=True)
class Subdivision:
    radius: Fraction
    vertex_cells: tuple[GraphPoint, ...]
    segment_cells: tuple[SegmentCell, ...]


def cut_offsets(r: Fraction) -> list[Fraction]:
    """Interior cut offsets of one unit edge for radius r = k/2 + r0."""
    r = Fraction(r)
    r0 = r - (r * 2).__floor__() * HALF
    if r0 == 0:
        return [HALF]
    if r0 == QUARTER:
        return [QUARTER, HALF, 3 * QUARTER]
    if r0 < QUARTER:
        return [r0, HALF - r0, HALF, HALF + r0, ONE - r0]
    return [HALF - r0, r0, HALF, ONE - r0, HALF + r0]


def subdivision(g: MetricGraph, r: Fraction) -> Subdivision:
    """The cells of the level at r as points and segments, vertices first."""
    r = Fraction(r)
    c = _cells(g, r)
    V = g.num_vertices
    cuts = [GraphPoint(e, Fraction(t, c.S)) for e, t in c.vertex[V:].tolist()]
    segments = zip(*(a.tolist() for a in (c.edge, c.lo, c.hi, c.tail_cell, c.head_cell)))
    return Subdivision(
        r,
        tuple([g.vertex_point(v) for v in range(V)] + cuts),
        tuple(SegmentCell(e, Fraction(lo, c.S), Fraction(hi, c.S), a, b) for e, lo, hi, a, b in segments),
    )


@dataclass(frozen=True)
class QuotientGraph:
    """The level at radius r as a multigraph of cell classes."""

    radius: Fraction
    q_vertices: tuple[tuple[int, ...], ...]  # vertex-cell ids per class
    q_edges: tuple[tuple[int, int], ...]  # endpoint q-vertex ids per edge class
    edge_classes: tuple[tuple[int, ...], ...]  # segment-cell ids per edge class
    x_vertex: int | None  # q-vertex id of the collapsed ball-X region
    n0: int  # number of ball-X segment cells
    x_segments: tuple[int, ...]  # the ball-X segment-cell ids
    injective: bool  # the projection at this radius is an embedding

    @property
    def num_vertices(self) -> int:
        return len(self.q_vertices)

    @property
    def num_edges(self) -> int:
        return len(self.q_edges)


@dataclass(frozen=True)
class Fingerprint:
    b0: int
    b1: int
    chi: int
    n0: int
    degree_multiset: tuple[int, ...]
    canonical_code: str
    is_point: bool


class _Cells(NamedTuple):
    """The subdivision's cells as integer arrays, offsets times S, in
    `subdivision`'s order and with its cell ids."""

    S: int
    vertex: np.ndarray  # (vertex cells, 2): (edge, offset); a vertex at any incident end
    edge: np.ndarray  # per segment cell: its edge, end offsets and end cell ids
    lo: np.ndarray
    hi: np.ndarray
    tail_cell: np.ndarray
    head_cell: np.ndarray


def _cells(g: MetricGraph, r: Fraction) -> _Cells:
    if r <= 0:
        raise ValidationError(f"subdivision radius must be positive, got {r}")
    # midpoints and quarter points of the cuts' 1/lcm(2, den r) grid lie on 1/S
    S = 4 * lcm(2, r.denominator)
    cuts = [int(c * S) for c in cut_offsets(r)]
    n, E, V = len(cuts), g.num_edges, g.num_vertices
    dtype = np.int64 if S < INT64_SAFE else object
    tails, heads = np.array(g.edges, dtype=np.int64).T
    edges = np.arange(E)
    vertex = np.empty((V + n * E, 2), dtype=dtype)
    vertex[heads, 0], vertex[heads, 1] = edges, S
    vertex[tails, 0], vertex[tails, 1] = edges, 0
    vertex[V:, 0] = np.repeat(edges, n)
    vertex[V:, 1] = np.tile(np.array(cuts, dtype=dtype), E)
    bounds = np.array([0, *cuts, S], dtype=dtype)
    edge = np.repeat(edges, n + 1)
    k = np.tile(np.arange(n + 1), E)
    return _Cells(
        S,
        vertex,
        edge,
        np.tile(bounds[:-1], E),
        np.tile(bounds[1:], E),
        np.where(k == 0, tails[edge], V + edge * n + k - 1),
        np.where(k == n, heads[edge], V + edge * n + k),
    )


def _level(g: MetricGraph, r: Fraction):
    """The cells, and per cell (vertex cells, then segment midpoints) the
    least cell with an equal ball and whether that ball is X."""
    c = _cells(g, r)
    nv = len(c.vertex)
    points = np.concatenate([c.vertex, np.stack([c.edge, (c.lo + c.hi) // 2], axis=1)])
    full = _full(g, r, points, c.S)
    labels = np.arange(len(full))
    labels[full] = np.argmax(full)
    open_v = np.flatnonzero(~full[:nv])
    if len(open_v):
        labels[open_v] = open_v[ball_keys(g, r, c.vertex[open_v], c.S)]
    # unordered pairs of endpoint classes of the open segments; full ends carry X's label
    seg = np.flatnonzero(~full[nv:])
    a, b = labels[c.tail_cell[seg]], labels[c.head_cell[seg]]
    pairs = np.minimum(a, b) * nv + np.maximum(a, b)
    _, pair, count = np.unique(pairs, return_inverse=True, return_counts=True)
    loop = (a == b) & ~full[a]
    keyed = seg[(count[pair] > 1) | loop]
    ids = np.concatenate([np.unique(a[loop]), nv + keyed])
    if len(keyed):
        labels[nv + keyed] = ids[ball_keys(g, r, points[ids], c.S)][-len(keyed) :]
    return c, labels, full


def _full(g: MetricGraph, r: Fraction, cells, S: int) -> np.ndarray:
    """Whether Phi <= r, i.e. the ball is X, at each cell (edge, offset * S):
    8q * Phi interpolated between the quarter-point table's eighths, q = S / 4."""
    T = g._quarter_eccentricities()
    q, bound = S // 4, int(2 * S * r)  # bound = 8q * r
    if max(int(T.max()) * q, bound) >= INT64_SAFE:
        T = T.astype(object)
    e, t = cells[:, 0].astype(np.int64), cells[:, 1]
    k = np.minimum(t // q, 3)
    f = t - k * q
    k = k.astype(np.int64)
    return T[e, k] * (q - f) + T[e, k + 1] * f <= bound


def _classes(ids: np.ndarray, labels: np.ndarray):
    """The ids grouped by equal label, as tuples ordered by least member,
    and each id's group number."""
    if not len(ids):
        return ids, []
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    number = np.argsort(np.argsort(first))[inverse]
    flat = ids[np.argsort(number, kind="stable")].tolist()
    ends = np.cumsum(np.bincount(number)).tolist()
    return number, [tuple(flat[a:b]) for a, b in zip([0, *ends], ends)]


def project(g: MetricGraph, r: Fraction) -> QuotientGraph:
    r = Fraction(r)
    c, labels, full = _level(g, r)
    nv = len(c.vertex)
    seg_full = full[nv:]
    x_segments = np.flatnonzero(seg_full)
    seg_ids = np.flatnonzero(~seg_full)
    _, seg_classes = _classes(seg_ids, labels[nv:][seg_ids])
    _check_orientation(g, r, c, seg_classes)

    vert_ids = np.flatnonzero(~full[:nv])
    vert_number, vert_classes = _classes(vert_ids, labels[vert_ids])
    x_vertex_cells = tuple(np.flatnonzero(full[:nv]).tolist())
    q_vertices = list(vert_classes)
    cell_to_q = np.empty(nv, dtype=np.int64)
    cell_to_q[vert_ids] = vert_number
    x_vertex = None
    if len(x_segments) or x_vertex_cells:
        x_vertex = len(q_vertices)
        q_vertices.append(x_vertex_cells)
        cell_to_q[list(x_vertex_cells)] = x_vertex

    reps = [cls[0] for cls in seg_classes]
    q_edges = zip(cell_to_q[c.tail_cell[reps]].tolist(), cell_to_q[c.head_cell[reps]].tolist())
    return QuotientGraph(
        radius=r,
        q_vertices=tuple(q_vertices),
        q_edges=tuple(q_edges),
        edge_classes=tuple(seg_classes),
        x_vertex=x_vertex,
        n0=len(x_segments),
        x_segments=tuple(x_segments.tolist()),
        injective=_injective(labels, full, nv),
    )


def _check_orientation(g: MetricGraph, r: Fraction, c: _Cells, seg_classes) -> None:
    """Resolve the gluing direction inside multi-member segment classes.

    For every member, the quarter-point ball must match either the
    representative's quarter or three-quarter ball; anything else would
    contradict the all-or-nothing identification and is a hard error.
    """
    multi = [cls for cls in seg_classes if len(cls) > 1]
    if not multi:
        return
    members = np.array([i for cls in multi for i in cls])
    sizes = [len(cls) for cls in multi]
    lead = np.repeat(np.cumsum([0, *sizes[:-1]]), sizes)  # position of each class's lead
    lo, hi, edge = c.lo[members], c.hi[members], c.edge[members]
    quarter = np.stack([edge, lo + (hi - lo) // 4], axis=1)
    three_quarter = np.stack([edge, lo + 3 * (hi - lo) // 4], axis=1)
    labels = ball_keys(g, r, np.concatenate([quarter, three_quarter]), c.S)
    kq, k3q = labels[: len(members)], labels[len(members) :]
    bad = np.flatnonzero((kq != kq[lead]) & (k3q != kq[lead]))
    if len(bad):
        i = bad[0]
        raise InternalConsistencyError(
            f"{g.name}: segment class at radius {r} has no consistent gluing "
            f"orientation (segment cells {members[lead[i]]} and {members[i]})"
        )


def fingerprint(q: QuotientGraph) -> Fingerprint:
    V = q.num_vertices
    E = q.num_edges
    chi = V - E
    n_sm, sm_edges, _kept = smooth_multigraph(V, q.q_edges)
    b0 = _components(n_sm, sm_edges)  # smoothing keeps the components
    b1 = E - V + b0
    is_point = E == 0 and V == 1
    degs = [0] * n_sm
    for a, b in sm_edges:
        degs[a] += 1
        degs[b] += 1
    degree_multiset = tuple(sorted(degs))
    code = canonical_multigraph_code(n_sm, sm_edges)
    return Fingerprint(
        b0=b0,
        b1=b1,
        chi=chi,
        n0=q.n0,
        degree_multiset=degree_multiset,
        canonical_code=code,
        is_point=is_point,
    )


def _components(n: int, edges: Sequence[tuple[int, int]]) -> int:
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    return len({find(v) for v in range(n)})


def is_injective(g: MetricGraph, r: Fraction) -> bool:
    """True iff the projection at radius r is a topological embedding.

    Equal to ``project(g, r).injective``, from the cell classes alone.
    """
    c, labels, full = _level(g, Fraction(r))
    return _injective(labels, full, len(c.vertex))


def _injective(labels: np.ndarray, full: np.ndarray, nv: int) -> bool:
    """No segment cell collapses into ball X and no two cells share a ball
    (so at most one vertex cell is ball X)."""
    return not full[nv:].any() and bool((labels == np.arange(len(labels))).all())


def euler_bounds_check(g: MetricGraph, f: Fingerprint) -> dict:
    """Check the Euler-characteristic and first-Betti bounds of a level.

    Enforced (a violation means the engine is broken, not the input):
    chi >= 1 - 6|E|, chi >= 1 + n0 - 6|E|, b1 <= 6|E| - n0.  These follow
    from counting: the level has at most 6|E| - n0 edges and at least one
    vertex.  The doubled-count variant chi >= 1 + 2*n0 - 6|E| is false: a
    connected level has chi = b0 - b1 <= 1, so it would need n0 <= 3|E|,
    and near-collapse levels break that (the two-edge path at r = 17/8 has
    chi = 1, n0 = 12, |E| = 2; comb5 at r = 121/4 is a connected, acyclic,
    non-point level with chi = 1, n0 = 149, |E| = 47).  Its margin is
    reported but not enforced.
    """
    E = g.num_edges
    basic = f.chi - (1 - 6 * E)
    refined = f.chi - (1 + f.n0 - 6 * E)
    refined_doubled = f.chi - (1 + 2 * f.n0 - 6 * E)
    betti = (6 * E - f.n0) - f.b1
    report = {
        "edges": E,
        "chi": f.chi,
        "n0": f.n0,
        "b1": f.b1,
        "margin_basic": basic,
        "margin_refined": refined,
        "margin_refined_doubled": refined_doubled,
        "margin_betti": betti,
        "ok": basic >= 0 and refined >= 0 and betti >= 0,
    }
    if not report["ok"]:
        raise InternalConsistencyError(f"Euler bound violated: {report}")
    return report
