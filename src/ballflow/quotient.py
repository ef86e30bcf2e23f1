"""Projection levels: the radius-dependent subdivision, the quotient
multigraph by ball equality, and its topological fingerprint.

Identification of cells is all-or-nothing per open segment cell, and a
segment cell's balls are fixed by the balls of its two end cells
(corollaries 1 and 2 below), so the quotient is computed from the vertex
cells' balls alone.  A timeline keys each level's vertex cells in turn; the
segments' classes, their numbering (`_classes`) and the smoothing take one
pass per chunk of levels (`_levels`), and `project` reads a chunk of one.

A level keys only the vertex cells:

* B(p, r) = X iff Phi(p) <= r, and Phi is linear between quarter points
  (proof in `graph`), so the full vertex cells, the class X, come from
  exact integer interpolation of the quarter-point table.
* The other vertex cells are keyed in one `ball_keys` call; a timeline keys
  only those that can still share a ball (`_Layout`).
* A level's cells, Phi and distance rows read rho = rho(r) (the theorem
  below) only through its grid S = 4 lcm(2, den rho), so the levels of a
  timeline share three layouts: the cells, each vertex cell's 8q * Phi and
  its distances to the vertices (`with_distances`), built once per S.
  Proof: rho is on the 1/8 grid, so S is 8, 16 or 32, and `cut_offsets`
  reads r0 = rho mod 1/2: 0 for S = 8, 1/4 for S = 16, and 1/8 or 3/8 for
  S = 32, where {r0, 1/2 - r0, 1/2, 1/2 + r0, 1 - r0} is one set for both.
  Keying a level then compares Phi with rho, and clips and gathers the open
  cells' distances.
* A segment is full iff both its ends are (corollary 1), so X's least cell
  is a vertex cell.  If two open segment cells have equal midpoint balls
  they are identified whole, and as p -> B(p, r) is 1-Lipschitz into the Hausdorff
  metric, so are their ends.  So a segment cell identified with a vertex
  cell has both ends in that cell's class, and by lemma 1 that class is X:
  the segment is full.  Two non-full segments are identified iff their
  unordered pairs of end classes are equal: if by corollary 2, only if by
  the ends' identification.

Lemma 1: let a and b, at offsets x < y on an edge e, have B(a, r) = B(b, r)
= B != X, and let m be their midpoint.  Then B(m, r) != B.  If m is not in
B, B(m, r), which holds m, differs from B.  Otherwise, as m - x = y - m,
either both a and b reach m along [x, y], or both reach it only through
the far end of e, passing over the other's side of [x, y]; either way B
holds [x, y] and a neighbourhood of each of its points.  As X is connected
and B is closed, B has a frontier point z, so z lies off [x, y], and as z
is on the frontier of both B(a, r) and B(b, r), d(a, z) = d(b, z) = r.  On
[x, y], s -> d(s, z) is a minimum of lines of slope +-1 (through e's ends,
or straight along e when z lies on e), so, equal to r at x and at y, it
rises with slope 1 from x and falls with slope 1 to y, peaking at m with
d(m, z) = r + (y - x) / 2.  So z is not in B(m, r).

Lemma 2: let (x, y) be an open segment cell of an edge e at radius r.  No
breakpoint in the centre's offset t of a `levelkeys` row lies in (x, y).
The breakpoints are:

* a route switch of d(t, w) = min(t + d(tail, w), 1 - t + d(head, w)),
  at t in (1/2)Z;
* a reach r - d(t, w), in r +- t + Z, crossing 0 or 1: t in +-r + Z;
* the two end intervals of an edge (u, v) meeting, r - d(t, u) =
  1 - r + d(t, v), where d(t, u) + d(t, v) is in {0, +-2t} + Z: t in
  +-r + (1/2)Z, or a condition free of t;
* [t - r, t + r] reaching 0 or 1 (t in +-r + Z) or an end interval:
  t - r = r - d(t, tail) with d(t, tail) in {t, 1 - t + d(head, tail)}
  gives t = r or a condition free of t, and likewise at the head.

All lie in (1/2)Z u (+-r + (1/2)Z), that is among 0, 1 and
`cut_offsets(r)`.  So on [x, y] every reach is affine in t with slope +-1,
and B(t, r) is [0, 1] minus a fixed set of gaps on each edge: on an edge
(u, v) other than e, (r - d(t, u), 1 - r + d(t, v)); on e, where
d(t, s) = min(|s - t|, 1 + d(tail, head) - |s - t|), the points with
r < |s - t| < c, c = 1 + d(tail, head) - r.  Each gap is an open interval
(lo, hi) cut to [0, 1]; lo and hi are affine in t with slope +-1 (an end
past 0 or 1 says only that the vertex there is out of the ball), neither
crosses 0 or 1 inside the cell, and nor does the length hi - lo change
sign there.

Corollary 1: a segment cell is full iff both its ends are.  Only if: Phi
is continuous.  If: off e a gap is empty iff its length, affine, is <= 0
(a reach >= 1 makes the reach at the edge's other end >= 0), so a gap
empty at x and at y is empty on [x, y].  On e the length c - r is
constant, and otherwise the upper gap (t + r, t + c), which moves up with
t, is empty where it lies past 1, so on [x, y] once it is at x; the lower
gap likewise once it is at y.

Corollary 2: let the non-full segment cells A and A' have the same two
end balls P and Q, in some order, and measure arc length s along each from
its end with ball P, over [0, l] and [0, l'].  Then l = l' and the balls
at equal s are equal, so A and A' are identified.  Proof: read the gaps of
lemma 2 along A off P and Q.  A vertex is in the ball inside A iff it is
in P and in Q (its reach, affine, does not cross 0 inside), so the gap
ends past a vertex agree along A and A'.  A gap nonempty inside A is
nonempty at s = 0 or at s = l, as in corollary 1, and there its ends
inside the edge are the ends of a gap of that end's ball; the gaps of one
ball on an edge are disjoint, so each gap of P or of Q is met by one gap
of A and one of A'.  At an end of A where a gap is empty it opens from a
point: its length is 0 there, and positive inside, so both its ends move
apart at unit speed, or it is a gap of e entering through a vertex.  By
lemma 1 the balls along A are not all equal, so some gap end moves inside
its edge, at unit speed, and its displacement l is read off P and Q: the
distance between its positions at the two ends of A, or, where its gap is
empty at one end, half the gap's length at the other (both ends moved
apart from one point) or the gap's extent from the vertex it entered
through.  So l = l', and every gap end, affine in s with the same values
at both ends of A and of A' (or the same opening point and speeds),
agrees at each s.

The end classes fix the orientation of this gluing: a non-full segment
cell has end balls P != Q.  Otherwise, as the gaps of lemma 2 keep their
order along the edge, every gap end, affine with equal values at both ends
of the cell, would be constant, and so would the ball along the cell,
which lemma 1 forbids at its midpoint.  So each member's end with ball P
is fixed, and the level needs no check of the direction in which its
members are glued (the tests keep one as `orientation_oracle`).

Theorem: the level at r (its cell ids, the classes of its cells and which
cells are full) equals the level at rho(r).  To get rho(r), first shift
r >= diam by whole halves into [diam, diam + 1/2); then, when 4r is not an
integer, replace r by floor(4r)/4 + 1/8.  `_level` computes every level at
rho(r), so its cells lie on the 1/32 grid (S <= 32) and its key rows are
int8, at any requested radius.  Proof, by (v) for the first step and
(i)-(iii) for the second, which keeps r in its open interval
I = (k/4, (k + 1)/4):

(v) Past the diameter every ball is X, so every cell is full, and the level
is fixed by `cut_offsets`, which reads r only through r mod 1/2.

(i) On I, floor(2r) is fixed and r0 = r mod 1/2 stays in (0, 1/4) or in
(1/4, 1/2).  `cut_offsets` sorts {r0, 1/2 - r0, 1/2, 1/2 + r0, 1 - r0},
offsets a + sigma r (a in (1/2)Z, sigma in {0, +-1}) that lie in (0, 1)
there and meet only at r0 in {0, 1/4}, so on I it lists five in the same
strict order.  So the cell ids and the segments' end cells are fixed on I,
and every cut point, segment end and midpoint moves linearly with r.

(ii) Vertex cells.  Read a `levelkeys` row in units of the edge (divided by
S).  A vertex cell p sits at t = a + sigma r, and its distance to a vertex
along either end of its edge is +-t + n, n in Z.  So each unclipped
coordinate of p's row is eps r + delta t + n with delta = +-1, n in Z and
eps fixed by the column: +1 for an upper end (a reach r - d(p, w), or
t + r), -1 for a lower end (1 - r + d(p, w), or t - r).  It is linear on I,
with slope eps + delta sigma in {0, +-1, +-2} and intercept delta a + n in
a + Z, as -a = a mod 1: a ball's two reach routes have intercepts with
equal half-parts.  The row switches form where two routes to a vertex tie
(2t in Z: r in (1/2)Z), where a coordinate reaches 0 or 1 (r in (1/4)Z),
and where an upper end meets a lower one, on an edge's two end intervals
or the centre interval and a side: their difference 2r + (delta -
delta') t + n has slope in {0, 2, 4} and, by the equal half-parts, an
intercept (delta - delta') a + n in Z, so even this falls on (1/4)Z.  Each switch holds on the
whole of I or at no point of it, so each coordinate is one constant (a
clip value or a marker) or one linear function on I.  In one column the
values of two vertex cells p, p' differ by (delta sigma - delta' sigma') r
+ (delta a - delta' a') + n, slope in {0, +-1, +-2}, intercept in (1/2)Z,
and a clip value 0 or 1 differs from a linear value likewise, so each
column's equality holds on all of I or nowhere in it.  So vertex-cell
classes and fullness are constant on I.

(iii) Segments.  By (i) each segment keeps its end cells on I, and by (ii)
their classes and fullness are constant on I.  A segment is full iff both
its ends are (corollary 1), two non-full segments are identified iff their
unordered pairs of end classes are equal (corollary 2 and its converse),
and a segment identified with a vertex cell is full (lemma 1).  So every
identification of the level is constant on I.

Corollary 3: every level is connected, so `fingerprint`'s b0 is 1.  The
vertex and segment cells form a subdivision of X, a connected graph.  Each
q-vertex holds a vertex cell: X's least cell is one (corollary 1).  A full
segment has both ends in X's class (corollary 1), and a non-full segment's
class is a q-edge joining its two end classes, as the class is keyed by
their unordered pair (corollary 2).  So a path of cells between two vertex
cells maps to a walk between their q-vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Iterable, NamedTuple

import numpy as np

from .canon import canonical_codes, smooth_multigraphs
from .errors import InternalConsistencyError, ValidationError
from .graph import GraphPoint, MetricGraph
from .levelkeys import ball_keys, with_distances

ONE = Fraction(1)
HALF = Fraction(1, 2)


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


@dataclass(frozen=True)
class Subdivision:
    radius: Fraction
    vertex_cells: tuple[GraphPoint, ...]
    segment_cells: tuple[SegmentCell, ...]


def cut_offsets(r: Fraction) -> list[Fraction]:
    """Interior cut offsets of one unit edge, ascending, for radius r = k/2 + r0."""
    r = Fraction(r)
    r0 = r - (r * 2).__floor__() * HALF
    return sorted({r0, HALF - r0, HALF, HALF + r0, ONE - r0} - {0, ONE})


def subdivision(g: MetricGraph, r: Fraction) -> Subdivision:
    """The cells of the level at r as `Fraction` points and segments: the
    vertices, then each edge's `cut_offsets(r)` in order.  It is the
    reference for the tests and the benchmark's timeline oracle; the engine
    cuts the same cells, with the same ids, as `_cells`' integer arrays."""
    r = Fraction(r)
    if r <= 0:
        raise ValidationError(f"subdivision radius must be positive, got {r}")
    cuts = cut_offsets(r)
    n, V = len(cuts), g.num_vertices
    bounds = [Fraction(0), *cuts, ONE]
    segments = []
    for e, (u, v) in enumerate(g.edges):
        ids = [u, *range(V + e * n, V + e * n + n), v]
        segments += [SegmentCell(e, bounds[k], bounds[k + 1], ids[k], ids[k + 1]) for k in range(n + 1)]
    points = [g.vertex_point(v) for v in range(V)]
    points += [GraphPoint(e, t) for e in range(g.num_edges) for t in cuts]
    return Subdivision(r, tuple(points), tuple(segments))


@dataclass(frozen=True)
class QuotientGraph:
    """The level at radius r as a multigraph of cell classes, numbered by
    least member: vertex_class and edge_class hold each cell's class, and
    q_vertices and edge_classes list each class's cells."""

    radius: Fraction
    vertex_class: tuple[int, ...]  # q-vertex id per vertex cell, the ball-X region's last
    edge_class: tuple[int, ...]  # q-edge id per segment cell, -1 for a ball-X one
    q_edges: tuple[tuple[int, int], ...]  # endpoint q-vertex ids per edge class
    x_vertex: int | None  # q-vertex id of the collapsed ball-X region
    injective: bool  # the projection at this radius is an embedding

    @property
    def num_vertices(self) -> int:
        return max(self.vertex_class) + 1

    @property
    def n0(self) -> int:  # number of ball-X segment cells
        return self.edge_class.count(-1)

    @cached_property
    def q_vertices(self) -> tuple[tuple[int, ...], ...]:
        return _members(self.vertex_class, self.num_vertices)

    @cached_property
    def edge_classes(self) -> tuple[tuple[int, ...], ...]:
        return _members(self.edge_class, len(self.q_edges))


def _members(numbers: tuple[int, ...], count: int) -> tuple[tuple[int, ...], ...]:
    """The ids holding each class number 0 .. count - 1, ascending; -1 is in no class."""
    numbers = np.array(numbers)
    flat = np.argsort(numbers, kind="stable").tolist()
    ends = np.cumsum(np.bincount(numbers + 1, minlength=count + 1)).tolist()
    return tuple(tuple(flat[a:b]) for a, b in zip(ends, ends[1:]))


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
    """The cells cut at a radius r as integer arrays, offsets times S: the
    vertices, then each edge's `cut_offsets(r)` in order, and the segments
    between them.  Built for the 1/8-grid radii of the engine (and the small
    denominators of the tests' `level_oracle`), so int64 holds every offset."""

    S: int
    vertex: np.ndarray  # (vertex cells, 2): (edge, offset); a vertex at any incident end
    edge: np.ndarray  # per segment cell: its edge, end offsets and end cell ids
    lo: np.ndarray
    hi: np.ndarray
    tail_cell: np.ndarray
    head_cell: np.ndarray

    def representatives(self) -> np.ndarray:
        """Rows (edge, offset * S) of the vertex cells, then the segment midpoints."""
        return np.concatenate([self.vertex, np.stack([self.edge, (self.lo + self.hi) // 2], axis=1)])


def _grid(r: Fraction) -> int:
    """S: the midpoints and quarter points of the cuts' 1/lcm(2, den r) grid lie on 1/S."""
    return 4 * lcm(2, r.denominator)


def _cells(g: MetricGraph, r: Fraction) -> _Cells:
    S = _grid(r)
    cuts = [int(c * S) for c in cut_offsets(r)]
    n, E, V = len(cuts), g.num_edges, g.num_vertices
    edges = np.arange(E)
    vertex = np.empty((V + n * E, 2), dtype=np.int64)
    vertex[g.heads, 0], vertex[g.heads, 1] = edges, S
    vertex[g.tails, 0], vertex[g.tails, 1] = edges, 0
    vertex[V:, 0] = np.repeat(edges, n)
    vertex[V:, 1] = np.tile(cuts, E)
    bounds = np.array([0, *cuts, S])
    edge = np.repeat(edges, n + 1)
    k = np.tile(np.arange(n + 1), E)
    return _Cells(
        S,
        vertex,
        edge,
        np.tile(bounds[:-1], E),
        np.tile(bounds[1:], E),
        np.where(k == 0, g.tails[edge], V + edge * n + k - 1),
        np.where(k == n, g.heads[edge], V + edge * n + k),
    )


class _Layout(NamedTuple):
    """The cells of the levels whose radii rho(r) share their grid S, and per
    vertex cell its 8q * Phi and `with_distances` row, both in `order`: by
    descending Phi, then id, so a level's open cells (Phi > rho) are a prefix
    [0, k) that grows as rho falls.  Equal balls stay equal as r grows
    (`mergetree`), so they turn X together: a class's members share Phi, and
    its least id comes first.  So the classes at rho refine those at rho' >
    rho: a cell open and alone in its class at rho' is alone at rho, and a
    new cell, full at rho' and open at rho (in [k', k)), shares its ball only
    with another: B(p, rho) = B(q, rho) gives B(q, rho') = B(p, rho') = X.
    So the level at rho keys the cells that shared a class at rho' and [k', k)."""

    cells: _Cells
    order: np.ndarray
    phi: np.ndarray
    keyed: np.ndarray


def _layout(g: MetricGraph, rho: Fraction) -> _Layout:
    """The layout of the levels at every rho(r) with the grid S of rho."""
    c = _cells(g, rho)
    phi = _phi(g, c.vertex, c.S)
    order = np.argsort(-phi, kind="stable")
    return _Layout(c, order, phi[order], with_distances(g, c.vertex[order], c.S))


def level_radius(g: MetricGraph, r: Fraction) -> Fraction:
    """rho(r) of the module docstring: the radius on the 1/8 grid, below
    diam + 5/8, whose level equals the level at r."""
    if r <= 0:
        raise ValidationError(f"subdivision radius must be positive, got {r}")
    r -= max(0, (2 * (r - g.diameter())).__floor__()) * HALF
    return r if (4 * r).denominator == 1 else Fraction(2 * (4 * r).__floor__() + 1, 8)


def _levels(g: MetricGraph, radii, layout: _Layout, shared=()):
    """Per cell (vertex cells, then segment cells) of the levels at the radii
    rho = rho(r), descending, keyed on `layout`: (levels, cells) arrays of the
    least cell with an equal ball and of whether that ball is X, and the
    `shared` flags of the last level.  The walk keys each level's open vertex
    cells, and given the flags of a larger rho's level (per open cell, in the
    layout's order, whether its class has another member) only the flagged
    and the new ones (`_Layout`).  Then all segments at once: a segment is
    full iff both its ends are, and otherwise its class is the unordered pair
    of its end classes (corollaries 1 and 2 of the module docstring), keyed
    apart per level for one `np.unique`."""
    c, nv = layout.cells, len(layout.cells.vertex)
    labels, full = np.empty((len(radii), nv), dtype=np.int64), np.ones((len(radii), nv), dtype=bool)
    for i, rho in enumerate(radii):
        k = int(np.count_nonzero(layout.phi > int(2 * c.S * rho)))  # 8q * rho, q = S / 4
        open_v, pos = layout.order[:k], np.arange(k)
        need = np.concatenate([np.flatnonzero(shared), pos[len(shared) :]])  # ascending
        if len(need):
            rows = layout.keyed[:k] if len(need) == k else layout.keyed[need]
            pos[need] = need[ball_keys(g, rho, rows, c.S)]
        full[i, open_v], labels[i, open_v] = False, open_v[pos]
        shared = np.bincount(pos, minlength=k)[pos] > 1
    labels = np.where(full, np.argmax(full, axis=1)[:, None], labels)  # X's least cell
    a, b = labels[:, c.tail_cell], labels[:, c.head_cell]
    seg_full = full[:, c.tail_cell] & full[:, c.head_cell]
    pairs = np.minimum(a, b) * nv + np.maximum(a, b) + (np.arange(len(radii)) * nv * nv)[:, None]
    _, first, pair = np.unique(pairs, return_index=True, return_inverse=True)
    # a full segment takes X's label, which its tail carries
    seg = np.where(seg_full, a, nv + (first % a.shape[1])[pair].reshape(a.shape))
    return np.hstack([labels, seg]), np.hstack([full, seg_full]), shared


def _level(g: MetricGraph, rho: Fraction, layout: _Layout, shared=()):
    """Per cell of the level at rho = rho(r): `_levels` of the one level."""
    labels, full, _ = _levels(g, [rho], layout, shared)
    return labels[0], full[0]


def _phi(g: MetricGraph, cells, S: int) -> np.ndarray:
    """8q * Phi at each point (edge, offset * S), such as a level's vertex
    cells, q = S / 4: interpolated between the quarter-point table's eighths;
    the ball of radius r is X iff it is at most 8q * r.  The table is
    narrow, so it is widened before the products."""
    T = g._quarter_eccentricities().astype(np.int64)
    q = S // 4
    e, t = cells[:, 0], cells[:, 1]
    k = np.minimum(t // q, 3)
    f = t - k * q
    return T[e, k] * (q - f) + T[e, k + 1] * f


class _Classes(NamedTuple):
    """The classes of a chunk of levels on one layout, numbered as in `QuotientGraph`."""

    num_vertices: np.ndarray  # per level
    q_edges: np.ndarray  # (m, 2): endpoint q-vertex ids per edge class, the levels' in turn
    edge_counts: np.ndarray  # edge classes per level
    n0: np.ndarray  # ball-X segment cells per level
    injective: list
    vertex_class: np.ndarray  # (levels, vertex cells)
    edge_class: np.ndarray  # (levels, segment cells)
    x_vertex: list


def _classes(c: _Cells, labels, full) -> _Classes:
    """The classes of a chunk of levels on the cells c from their labels and X flags (`_levels`)."""
    (labels, full), nv = np.atleast_2d(labels, full), len(c.vertex)
    # labels are least members, so a running count of a level's leaders
    # numbers its classes in order; X's class is the vertex cells' last and no q-edge
    lead = (labels == np.arange(labels.shape[1])) & ~full
    number = np.cumsum(lead, axis=1) - 1
    x, has_x = number[:, nv - 1] + 1, full[:, :nv].any(axis=1)
    at, number = np.arange(0, labels.size, labels.shape[1])[:, None], number.ravel()  # a level's first cell
    vertex_class = np.where(full[:, :nv], x[:, None], number[labels[:, :nv] + at])
    level, seg = np.divmod(np.flatnonzero(lead[:, nv:]), labels.shape[1] - nv)
    q_edges = vertex_class.ravel()[level[:, None] * nv + np.stack([c.tail_cell[seg], c.head_cell[seg]], axis=1)]
    edge_class = np.where(full[:, nv:], -1, number[labels[:, nv:] + at] - x[:, None])
    counts, n0 = np.bincount(level, minlength=len(x)), np.count_nonzero(full[:, nv:], axis=1)
    x_vertex = [v if h else None for v, h in zip(x.tolist(), has_x.tolist())]
    return _Classes(x + has_x, q_edges, counts, n0, _injective(labels).tolist(), vertex_class, edge_class, x_vertex)


def project(g: MetricGraph, r: Fraction) -> QuotientGraph:
    r = Fraction(r)
    rho = level_radius(g, r)
    layout = _layout(g, rho)
    c = _classes(layout.cells, *_level(g, rho, layout))
    vertex_class, edge_class = tuple(c.vertex_class[0].tolist()), tuple(c.edge_class[0].tolist())
    return QuotientGraph(r, vertex_class, edge_class, tuple(map(tuple, c.q_edges.tolist())), c.x_vertex[0], c.injective[0])


def fingerprints(chunks: Iterable) -> list[Fingerprint]:
    """The fingerprint of each level of each chunk, the first fields of its
    `_Classes`: per level V, the q-edges, their count, n0.  A chunk's levels
    are smoothed in one `smooth_multigraphs` pass, and the codes take one
    `canonical_codes` batch."""
    parts, graphs = [], []
    for V, q_edges, counts, n0 in chunks:
        n, edges, _kept = smooth_multigraphs(V, q_edges, counts)
        at, ends = np.cumsum(n) - n, np.searchsorted(edges[:, 0], np.cumsum(n)).tolist()  # per graph: first id, end of edges
        degrees = np.bincount(edges.ravel(), minlength=int(n.sum())).tolist()
        edges = list(zip(*(edges - np.repeat(at, np.diff(ends, prepend=0))[:, None]).T.tolist()))
        for i, (a, k, b, e) in enumerate(zip(at.tolist(), n.tolist(), [0, *ends], ends)):
            parts.append((int(V[i]), int(counts[i]), int(n0[i]), tuple(sorted(degrees[a : a + k]))))
            graphs.append((k, edges[b:e]))
    return [
        # b0 = 1 and b1 = E - V + 1: every level is connected (corollary 3)
        Fingerprint(1, E - V + 1, V - E, n0, degrees, code, E == 0 and V == 1)
        for (V, E, n0, degrees), code in zip(parts, canonical_codes(graphs))
    ]


def fingerprint(q: QuotientGraph) -> Fingerprint:
    return fingerprints([([q.num_vertices], q.q_edges, [len(q.q_edges)], [q.n0])])[0]


def is_injective(g: MetricGraph, r: Fraction) -> bool:
    """True iff the projection at radius r is a topological embedding:
    ``project(g, r).injective``, from the cell classes alone."""
    rho = level_radius(g, Fraction(r))
    return bool(_injective(_level(g, rho, _layout(g, rho))[0]))


def _injective(labels: np.ndarray):
    """Per level of labels, no two cells share a ball (so at most one vertex
    cell is ball X, and no segment cell is: it would carry X's vertex-cell label)."""
    return (labels == np.arange(labels.shape[-1])).all(axis=-1)


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
        raise InternalConsistencyError(f"{g.name}: Euler bound violated: {report}")
    return report
