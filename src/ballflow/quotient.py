"""Projection levels: the radius-dependent subdivision, the quotient
multigraph by ball equality, and its topological fingerprint.

Identification of cells is all-or-nothing per open segment cell, so the
quotient is computed from one representative ball per cell (the midpoint),
with quarter-point representatives fixing the gluing orientation inside
multi-member classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .canon import canonical_multigraph_code, smooth_multigraph
from .errors import InternalConsistencyError, ValidationError
from .graph import GraphPoint, MetricGraph
from .levelkeys import ball_keys

ZERO = Fraction(0)
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
    r = Fraction(r)
    if r <= 0:
        raise ValidationError(f"subdivision radius must be positive, got {r}")
    cuts = cut_offsets(r)
    vertex_cells: list[GraphPoint] = [g.vertex_point(v) for v in range(g.num_vertices)]
    segment_cells: list[SegmentCell] = []
    for e in range(g.num_edges):
        u, v = g.edges[e]
        boundary_ids = [u]
        for c in cuts:
            vertex_cells.append(GraphPoint(e, c))
            boundary_ids.append(len(vertex_cells) - 1)
        boundary_ids.append(v)
        offsets = [ZERO] + cuts + [ONE]
        for k in range(len(offsets) - 1):
            segment_cells.append(
                SegmentCell(e, offsets[k], offsets[k + 1], boundary_ids[k], boundary_ids[k + 1])
            )
    return Subdivision(r, tuple(vertex_cells), tuple(segment_cells))


@dataclass(frozen=True)
class QuotientGraph:
    """The level at radius r as a multigraph of cell classes."""

    radius: Fraction
    sub: Subdivision
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

    def cell_partition(self) -> list[set[int]]:
        """Partition of all cell ids (vertex cells first, then segment cells
        offset by the vertex-cell count) into identification classes."""
        nv = len(self.sub.vertex_cells)
        parts = [set(cls) for cls in self.q_vertices]
        if self.x_vertex is not None:
            parts[self.x_vertex] |= {nv + s for s in self.x_segments}
        for cls in self.edge_classes:
            parts.append({nv + s for s in cls})
        return parts


@dataclass(frozen=True)
class Fingerprint:
    b0: int
    b1: int
    chi: int
    n0: int
    degree_multiset: tuple[int, ...]
    canonical_code: str
    is_point: bool


def _cell_keys(g: MetricGraph, r: Fraction, sub: Subdivision):
    points = [c.midpoint for c in sub.segment_cells] + list(sub.vertex_cells)
    keys, full = ball_keys(g, r, points)
    nseg = len(sub.segment_cells)
    return keys[:nseg], keys[nseg:], full


def project(g: MetricGraph, r: Fraction) -> QuotientGraph:
    r = Fraction(r)
    sub = subdivision(g, r)
    seg_keys, vert_keys, full = _cell_keys(g, r, sub)

    x_segments = tuple(i for i, k in enumerate(seg_keys) if k == full)
    n0 = len(x_segments)

    seg_groups: dict = {}
    for i, k in enumerate(seg_keys):
        if k == full:
            continue
        seg_groups.setdefault(k, []).append(i)

    vert_groups: dict = {}
    for i, k in enumerate(vert_keys):
        vert_groups.setdefault(k, []).append(i)

    # deterministic class order: by smallest member
    seg_classes = sorted(seg_groups.values(), key=lambda cls: cls[0])
    vert_classes = sorted(
        (cls for k, cls in vert_groups.items() if k != full), key=lambda cls: cls[0]
    )
    x_vertex_cells = tuple(vert_groups.get(full, []))

    _check_orientation(g, r, sub, seg_classes)

    q_vertices: list[tuple[int, ...]] = [tuple(cls) for cls in vert_classes]
    x_vertex = None
    if n0 > 0 or x_vertex_cells:
        x_vertex = len(q_vertices)
        q_vertices.append(x_vertex_cells)

    cell_to_q = {}
    for qid, cls in enumerate(q_vertices):
        for cid in cls:
            cell_to_q[cid] = qid
    if x_vertex is not None:
        for cid in x_vertex_cells:
            cell_to_q[cid] = x_vertex

    q_edges = []
    for cls in seg_classes:
        rep = sub.segment_cells[cls[0]]
        q_edges.append((cell_to_q[rep.tail_cell], cell_to_q[rep.head_cell]))

    return QuotientGraph(
        radius=r,
        sub=sub,
        q_vertices=tuple(q_vertices),
        q_edges=tuple(q_edges),
        edge_classes=tuple(tuple(cls) for cls in seg_classes),
        x_vertex=x_vertex,
        n0=n0,
        x_segments=x_segments,
        injective=_injective(seg_keys, vert_keys, full),
    )


def _check_orientation(g, r, sub, seg_classes) -> None:
    """Resolve the gluing direction inside multi-member segment classes.

    For every member, the quarter-point ball must match either the
    representative's quarter or three-quarter ball; anything else would
    contradict the all-or-nothing identification and is a hard error.
    """
    multi = [cls for cls in seg_classes if len(cls) > 1]
    if not multi:
        return
    wanted: list[GraphPoint] = []
    index: dict[int, int] = {}
    for cls in multi:
        for i in cls:
            c = sub.segment_cells[i]
            index[i] = len(wanted)
            wanted.append(c.quarter)
            wanted.append(c.three_quarter)
    keys, _full = ball_keys(g, r, wanted)
    for cls in multi:
        rep_q = keys[index[cls[0]]]
        for i in cls[1:]:
            kq, k3q = keys[index[i]], keys[index[i] + 1]
            if kq != rep_q and k3q != rep_q:
                raise InternalConsistencyError(
                    f"segment class at radius {r} has no consistent gluing "
                    f"orientation (cells {cls[0]} and {i})"
                )


def fingerprint(q: QuotientGraph) -> Fingerprint:
    V = q.num_vertices
    E = q.num_edges
    chi = V - E
    b0 = _components(V, q.q_edges)
    b1 = E - V + b0
    is_point = E == 0 and V == 1
    n_sm, sm_edges, _kept = smooth_multigraph(V, list(q.q_edges))
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

    Equal to ``project(g, r).injective``, from the cell keys alone.
    """
    r = Fraction(r)
    return _injective(*_cell_keys(g, r, subdivision(g, r)))


def _injective(seg_keys, vert_keys, full) -> bool:
    """No segment cell collapses into ball X, at most one vertex cell does,
    and no two cells share a ball."""
    if any(k == full for k in seg_keys):
        return False
    if sum(1 for k in vert_keys if k == full) > 1:
        return False
    all_keys = seg_keys + vert_keys
    return len(set(all_keys)) == len(all_keys)


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
