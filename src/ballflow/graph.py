"""Finite metric graphs with exact rational arithmetic.

A graph document (arbitrary positive rational edge lengths) is normalized to
a unit-edge multigraph: all lengths are divided by the longest length G
that divides each of them (the gcd of the lengths times the lcm L of their
denominators, over L), and every edge is subdivided into length-1 pieces.
The stored scale factor G maps internal distances back to user units.  All
distance, eccentricity and potential computations are exact.  The vertex
distance matrix is built once, at construction, by one breadth-first search
from all vertices at once (`_distance_matrix`); a pair it never joins
refuses the graph as disconnected.  A point's distance row is
`scaled_distances`, in Python integers; `peak_rows` gives the rows of many
points at once with their peaks, and every eccentricity, the quarter table
of Phi and every merge radius read it.  Only the numpy kernel
`levelkeys.key_rows` writes the distance formula again, in dtypes of its
own.

Phi(p), the largest distance from p, is linear on every unit edge between
the quarter points 0, 1/4, 1/2, 3/4 and 1.  Proof: at offset s on e = (u, v)
the distance to a vertex w is min(s + d(u, w), 1 - s + d(v, w)).  Phi(s) is
the maximum over the edges f of the farthest distance within f, given by
`peak_rows`: (a + b + 1)/2 for f != e, with a, b the distances to the ends
of f (|a - b| <= 1, so its other tent terms never bind).  On e, a point at
y <= s is at distance min(s - y, d(p, u) + y), as any other route passes p,
so the part [0, s] peaks at (s + d(p, u))/2 = min(s, c), c = (1 + d(u, v))/2,
as d(p, u) = min(s, 1 - s + d(u, v)); [s, 1] peaks at (1 - s + d(p, v))/2 =
min(1 - s, c) likewise.  So the own-edge peak is max(d(p, u) + s,
d(p, v) + 1 - s)/2, also at s = 0 and 1.  Every term is thus a minimum of
lines of slope -1, 0 or 1 with intercept in (1/2)Z, so Phi on e is a maximum
of minima of such lines, and its breakpoints are crossings of two of them,
at s = dc/dk with dc in (1/2)Z and dk in {1, 2}: in (1/4)Z.  Hence Phi's
values at the quarter points, held in eighths so that every formula is an
integer one, give it exactly.  m and M (the diameter) are their extremes,
and since a linear piece attains an extreme along its whole length or only
at an end, Phi equals m (or M) on an edge exactly on the runs of quarter
points that hold that value.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

import numpy as np

from .errors import InternalConsistencyError, ValidationError

ZERO = Fraction(0)
ONE = Fraction(1)
# load_graph() refuses more unit edges than this, so every distance and degree
# fits the int16 vertex distance matrix.  Memory grows as E^2: that matrix (2
# bytes per pair), the frontier of _distance_matrix (8 bytes per pair of one hop)
# and levelkeys' int8 key rows (points x edges).  project at radius 3/2 peaked at
# 44, 77, 125 and 205 MB RSS at 971, 2,028, 2,901 and 3,967 unit edges of
# random_connected graphs, and loading a star of 4,000 unit edges at 189 MB (2
# x86-64 cores).  No fixture or benchmark graph has more than 200.
MAX_UNIT_EDGES = 4_000
# entries per chunk of _quarter_eccentricities, levelkeys, mergetree and canon's frontier block
_CHUNK_ENTRIES = 1 << 20
# bound below which integer arrays of peaks and key rows are computed in int64
INT64_SAFE = 1 << 60


def parse_rational(text: str) -> Fraction:
    """Parse 'p' or 'p/q' with decimal digits into an exact Fraction."""
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    if not isinstance(text, str):
        raise ValidationError(f"rational must be a string, got {text!r}")
    parts = text.strip().split("/")
    try:
        if len(parts) == 1:
            return Fraction(int(parts[0]))
        if len(parts) == 2:
            return Fraction(int(parts[0]), int(parts[1]))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"malformed rational {text!r}") from exc
    raise ValidationError(f"malformed rational {text!r}")


def format_rational(x: Fraction) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


@dataclass(frozen=True)
class GraphPoint:
    """A location on the graph: edge index plus rational offset from the tail."""

    edge: int
    t: Fraction

    def __post_init__(self):
        object.__setattr__(self, "t", Fraction(self.t))
        if not ZERO <= self.t <= ONE:
            raise ValidationError(f"offset {self.t} outside [0,1]")


class MetricGraph:
    """Normalized unit-edge multigraph (loops and parallel edges allowed)."""

    def __init__(
        self,
        name: str,
        vertex_names: Sequence[str],
        edges: Sequence[tuple[int, int]],
        scale: Fraction,
        edge_provenance: Sequence[str],
        user_segments: Sequence[tuple[int, int, int]],
    ):
        if not edges:
            raise ValidationError("graph has no edges")
        self.name = name
        self.vertex_names = list(vertex_names)
        self.edges = [(int(u), int(v)) for u, v in edges]
        self.scale = Fraction(scale)
        self.edge_provenance = list(edge_provenance)
        # per unit edge: (user edge index, segment index, segment count)
        self.user_segments = list(user_segments)
        n = len(self.vertex_names)
        for u, v in self.edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValidationError("edge endpoint out of range")
        self._incidence: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for i, (u, v) in enumerate(self.edges):
            self._incidence[u].append((i, 0))
            if v != u:
                self._incidence[v].append((i, 1))
            else:
                self._incidence[u].append((i, 1))
        self.tails, self.heads = np.array(self.edges, dtype=np.int64).T.copy()
        self.tails.flags.writeable = self.heads.flags.writeable = False
        self._dist = _distance_matrix(n, self.edges)
        if (self._dist < 0).any():
            raise ValidationError("graph is disconnected")
        self._max_dist = int(self._dist.max())
        self._phi8: np.ndarray | None = None
        self._diameter: Fraction | None = None

    # -- basic structure ---------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return len(self.vertex_names)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def incident(self, vertex: int) -> list[tuple[int, int]]:
        """(edge index, endpoint slot 0=tail/1=head) pairs at a vertex."""
        return self._incidence[vertex]

    # -- points ------------------------------------------------------------

    def canonical_point(self, p: GraphPoint) -> GraphPoint:
        """Canonical representative: vertex points use the lexicographically
        smallest (edge, endpoint) incidence; interior points are unchanged."""
        if not 0 <= p.edge < self.num_edges:
            raise ValidationError(f"invalid edge index {p.edge}")
        if p.t == ZERO or p.t == ONE:
            v = self.edges[p.edge][0 if p.t == ZERO else 1]
            return self.vertex_point(v)
        return p

    def vertex_point(self, vertex: int) -> GraphPoint:
        e, slot = min(self._incidence[vertex])
        return GraphPoint(e, ZERO if slot == 0 else ONE)

    def point_vertex(self, p: GraphPoint) -> int | None:
        """The vertex id if p sits at an edge endpoint, else None."""
        if p.t == ZERO:
            return self.edges[p.edge][0]
        if p.t == ONE:
            return self.edges[p.edge][1]
        return None

    # -- distances to vertices and per-edge peaks ---------------------------

    def vertex_distance_matrix(self) -> np.ndarray:
        """All-pairs graph distance on unit edges, as a (V, V) matrix filled at
        construction by `_distance_matrix`: int16 for any graph `load_graph`
        accepts, so widen it before arithmetic that could pass the type."""
        return self._dist

    def scaled_distances(self, p: GraphPoint, L: int) -> tuple[int, list[int]]:
        """(L * t, [L * d(p, w) for every vertex w]) in Python integers, which
        cannot overflow, for p at an offset t on (1/L)Z:
        d(p, w) = min(t + d(tail, w), 1 - t + d(head, w))."""
        T = p.t.numerator * (L // p.t.denominator)
        u, v = self.edges[p.edge]
        du, dv = self._dist[u].tolist(), self._dist[v].tolist()
        return T, [min(T + L * a, L - T + L * b) for a, b in zip(du, dv)]

    def peak_rows(self, edges, T, L: int) -> tuple[np.ndarray, np.ndarray]:
        """(d, P) for n points at offsets T/L on `edges`: d, (n, V), their
        `scaled_distances` rows, and P, (n, E), 2L times the farthest distance
        from each point within each edge: (a + b + 1)/2, with a, b the
        distances to the edge's ends, and max(a + t, b + 1 - t)/2 on the
        point's own edge (module docstring).  Every value is below
        2L(max D + 2), so they are computed in the narrowest of int16, int32
        and int64 that holds that bound while it is below `INT64_SAFE`, else
        in Python integers (dtype object)."""
        bound = 2 * L * (self._max_dist + 2)
        dtype = next((t for t in (np.int16, np.int32, np.int64) if bound < min(INT64_SAFE, np.iinfo(t).max)), object)
        e, T = np.asarray(edges, dtype=np.int64), np.asarray(T, dtype=dtype)
        du, dv = (self._dist[ends[e]].astype(dtype, copy=False) for ends in (self.tails, self.heads))
        d = np.minimum(T[:, None] + L * du, (L - T)[:, None] + L * dv)
        P = d[:, self.tails] + d[:, self.heads] + L
        own = np.arange(len(e))
        P[own, e] = np.maximum(d[own, self.tails[e]] + T, d[own, self.heads[e]] + L - T)
        return d, P

    def point_vertex_distances(self, p: GraphPoint) -> list[Fraction]:
        """Exact distance from p to every vertex: `scaled_distances` over L."""
        p = self.canonical_point(p)
        L = p.t.denominator
        return [Fraction(x, L) for x in self.scaled_distances(p, L)[1]]

    # -- point-to-point distance -------------------------------------------

    def point_distance(self, p: GraphPoint, q: GraphPoint) -> Fraction:
        """Exact geodesic distance between two points: along their common
        edge, or through the vertex w that minimises d(p, w) + d(w, q), as a
        path that leaves an edge's interior passes one of its ends."""
        p = self.canonical_point(p)
        q = self.canonical_point(q)
        L = lcm(p.t.denominator, q.t.denominator)
        (tp, dp), (tq, dq) = self.scaled_distances(p, L), self.scaled_distances(q, L)
        best = min(a + b for a, b in zip(dp, dq))
        if p.edge == q.edge:
            best = min(best, abs(tp - tq))
        return Fraction(best, L)

    # -- eccentricity (potential at a point) --------------------------------

    def eccentricity(self, p: GraphPoint) -> Fraction:
        """Phi(p): the maximal distance from p, the largest of its `peak_rows`."""
        p = self.canonical_point(p)
        _, P = self.peak_rows([p.edge], [p.t.numerator], p.t.denominator)
        return Fraction(int(P.max()), 2 * p.t.denominator)

    # -- potential and diameter on the quarter grid ---------------------------

    def _quarter_eccentricities(self) -> np.ndarray:
        """Phi at the offsets k/4, k = 0..4, of every unit edge, in eighths: an
        (E, 5) read-only table, each point's largest `peak_rows` at L = 4 (see
        the module docstring), computed once per graph, a chunk of edges at a
        time, in the narrowest signed type above 8 (max D + 2): int16 while
        max D <= 4,093."""
        if self._phi8 is not None:
            return self._phi8
        E, chunks = self.num_edges, []
        step = max(1, _CHUNK_ENTRIES // (5 * max(E, self.num_vertices)))
        for lo in range(0, E, step):
            own = np.arange(lo, min(lo + step, E))
            chunks.append(self.peak_rows(np.repeat(own, 5), np.tile(np.arange(5), len(own)), 4)[1].max(axis=1))
        self._phi8 = np.concatenate(chunks).reshape(E, 5)
        self._phi8.flags.writeable = False
        return self._phi8

    def potential_profile(self) -> "PotentialProfile":
        """Exact global min m and max M of the potential with solution sets."""
        table = self._quarter_eccentricities()
        m8, M8 = int(table.min()), int(table.max())
        m, M = Fraction(m8, 8), Fraction(M8, 8)
        if 2 * m < M:
            raise InternalConsistencyError(f"{self.name}: potential min {m} < half of max {M}")
        rows = table.tolist()
        centers = tuple(_level_runs(row, m8) for row in rows)
        extrema = tuple(_level_runs(row, M8) for row in rows)
        return PotentialProfile(m=m, M=M, centers=centers, extrema=extrema)

    def diameter(self) -> Fraction:
        """Exact diameter: the largest eccentricity, read off the quarter grid
        once per graph."""
        if self._diameter is None:
            self._diameter = Fraction(int(self._quarter_eccentricities().max()), 8)
        return self._diameter

    # -- conversions ---------------------------------------------------------

    def to_user(self, x: Fraction) -> Fraction:
        return Fraction(x) * self.scale

    def from_user(self, x: Fraction) -> Fraction:
        return Fraction(x) / self.scale

    def point_from_user(self, user_edge: int, t_user: Fraction) -> GraphPoint:
        """Point at user-unit offset t along an edge of the input document."""
        segs = [
            (k, i)
            for i, (e, k, _n) in enumerate(self.user_segments)
            if e == user_edge
        ]
        if not segs:
            raise ValidationError(f"unknown user edge index {user_edge}")
        segs.sort()
        n = len(segs)
        t_int = self.from_user(Fraction(t_user))
        if not ZERO <= t_int <= n:
            raise ValidationError(
                f"offset {t_user} outside user edge {user_edge}"
                f" of length {self.to_user(Fraction(n))}"
            )
        k = min(int(t_int), n - 1)
        return self.canonical_point(GraphPoint(segs[k][1], t_int - k))

    def point_to_user(self, p: GraphPoint) -> tuple[int, Fraction]:
        """(user edge index, user-unit offset) of a point."""
        e, k, _n = self.user_segments[p.edge]
        return e, self.to_user(k + p.t)

    def describe_interval(self, edge: int, lo: Fraction, hi: Fraction) -> str:
        e, k, _n = self.user_segments[edge]
        a = format_rational(self.to_user(k + lo))
        b = format_rational(self.to_user(k + hi))
        return f"e{e}@{a}" if lo == hi else f"e{e}[{a}, {b}]"

    def info_lines(self) -> list[str]:
        lines = [
            f"name: {self.name}",
            f"scale: {format_rational(self.scale)}",
            f"vertices: {self.num_vertices}",
            f"unit-edges: {self.num_edges}",
            f"diameter: {format_rational(self.to_user(self.diameter()))}"
            f" (internal {format_rational(self.diameter())})",
            "edge table (index, tail, head, provenance):",
        ]
        for i, (u, v) in enumerate(self.edges):
            lines.append(
                f"  {i}  {self.vertex_names[u]}  {self.vertex_names[v]}"
                f"  {self.edge_provenance[i]}"
            )
        return lines


def _distance_matrix(n: int, edges: Sequence[tuple[int, int]]) -> np.ndarray:
    """All-pairs hop distances of a multigraph on n vertices, as an (n, n)
    matrix with -1 where a vertex is never reached, in the narrowest signed
    type above n and every degree: int16 for any graph `load_graph` accepts.

    One breadth-first search from every source at once.  The frontier of hop
    h lists the pairs (s, v) with d(s, v) = h, as s * n + v.  A hop steps
    each pair along v's half-edges (loops reach nothing new and are dropped),
    keeps the pairs not reached yet, and keeps one copy of each: every copy
    writes its own tag, -2 - i, into the matrix, and the copy whose tag
    stayed is kept.  So a slice of the frontier steps at most `cap`
    candidates, as many as the type has tags; a pair has its vertex's degree
    of them, fewer.  A hop that fits in one slice is stepped whole.  The work
    is about n times the number of half-edges whatever the diameter; a
    bit-packed frontier like canon's costs the diameter times n^2/64 words,
    about 14 times slower than one Python BFS per source on a path of 4,000
    unit edges.
    """
    e = np.array([(a, b) for a, b in edges if a != b], dtype=np.int64).reshape(-1, 2)
    src = np.concatenate([e[:, 0], e[:, 1]])
    dst = np.concatenate([e[:, 1], e[:, 0]])[np.argsort(src, kind="stable")]
    deg = np.bincount(src, minlength=n)
    first = np.cumsum(deg) - deg
    bound = max(n, int(deg.max(initial=0)) + 1)
    dtype = next(t for t in (np.int16, np.int32, np.int64) if bound < np.iinfo(t).max)
    cap = np.iinfo(dtype).max - 1
    dist = np.full(n * n, -1, dtype=dtype)
    frontier = [np.arange(n) * (n + 1)]
    dist[frontier[0]] = 0
    h = 0
    while frontier:
        h += 1
        reached = []
        for pairs in frontier:
            v = pairs % n
            k = deg[v]
            ends = np.cumsum(k)
            # candidate c of a pair steps along its vertex's half-edge c + off
            off, row = first[v] + k - ends, pairs - v
            lo = base = 0
            while lo < len(pairs):
                hi = len(pairs) if ends[-1] - base <= cap else int(np.searchsorted(ends, base + cap, side="right"))
                new = np.repeat(row[lo:hi], k[lo:hi]) + dst[np.arange(base, ends[hi - 1]) + np.repeat(off[lo:hi], k[lo:hi])]
                new = new[dist[new] == -1]
                tag = -2 - np.arange(len(new))
                dist[new] = tag
                new = new[dist[new] == tag]
                dist[new] = h
                if len(new):
                    reached.append(new)
                lo, base = hi, int(ends[hi - 1])
        frontier = reached
    return dist.reshape(n, n)


def _level_runs(row: list[int], value: int) -> tuple[tuple[Fraction, Fraction], ...]:
    """The runs of consecutive quarter points where one edge's row holds
    `value`, as closed offset intervals."""
    ks = [k for k, y in enumerate(row) if y == value]
    starts = [k for k in ks if k - 1 not in ks]
    ends = [k for k in ks if k + 1 not in ks]
    return tuple((Fraction(lo, 4), Fraction(hi, 4)) for lo, hi in zip(starts, ends))


@dataclass(frozen=True)
class PotentialProfile:
    """Exact extremes of the potential with per-edge solution regions."""

    m: Fraction
    M: Fraction
    centers: tuple[tuple[tuple[Fraction, Fraction], ...], ...]
    extrema: tuple[tuple[tuple[Fraction, Fraction], ...], ...]


# -- ingestion ---------------------------------------------------------------


def load_graph(document) -> MetricGraph:
    """Build the normalized unit-edge graph from a graph-description document.

    Accepts a dict or a JSON string; `load_graph_file` reads a file.
    Vertex names are strings or numbers.  Lengths are positive rationals;
    default length "1".
    """
    if isinstance(document, str):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"invalid JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise ValidationError("graph document must be a JSON object")
    name = document.get("name", "graph")
    vertices = document.get("vertices")
    edges_doc = document.get("edges")
    if not isinstance(vertices, list) or not vertices:
        raise ValidationError("document must list vertices")
    if not isinstance(edges_doc, list) or not edges_doc:
        raise ValidationError("document must list at least one edge")
    if not all(isinstance(v, (str, int, float)) and not isinstance(v, bool) for v in vertices):
        raise ValidationError(f"vertex names must be strings or numbers, got {vertices}")
    index = {str(v): i for i, v in enumerate(vertices)}
    if len(index) != len(vertices):
        raise ValidationError("duplicate vertex names")

    parsed = []
    for item in edges_doc:
        if not isinstance(item, dict):
            raise ValidationError(f"edge must be an object, got {item!r}")
        try:
            u = index[str(item["u"])]
            v = index[str(item["v"])]
        except KeyError as exc:
            raise ValidationError(f"edge references unknown vertex: {item}") from exc
        raw_len = item.get("len", item.get("length", "1"))
        length = parse_rational(raw_len)
        if length <= 0:
            raise ValidationError(f"non-positive edge length {raw_len}")
        parsed.append((u, v, length))
    if len(vertices) > len(parsed) + 1:  # too few edges to connect them; no (V, V) matrix is built
        raise ValidationError("graph is disconnected")

    L = lcm(*[length.denominator for _, _, length in parsed])
    scaled = [length.numerator * (L // length.denominator) for _, _, length in parsed]
    G = gcd(*scaled)
    counts = [x // G for x in scaled]  # each document edge's unit edges
    if sum(counts) > MAX_UNIT_EDGES:
        raise ValidationError(
            f"graph normalizes to {sum(counts)} unit edges, over the cap of {MAX_UNIT_EDGES}"
        )

    vertex_names = [str(v) for v in vertices]
    new_edges: list[tuple[int, int]] = []
    provenance: list[str] = []
    segments: list[tuple[int, int, int]] = []
    for eidx, ((u, v, length), n_units) in enumerate(zip(parsed, counts)):
        first = len(vertex_names)
        vertex_names += [f"{vertices[u]}~{vertices[v]}.{eidx}.{k}" for k in range(1, n_units)]
        chain = [u, *range(first, len(vertex_names)), v]
        new_edges += zip(chain, chain[1:])
        head = f"edge {eidx} ({vertices[u]}-{vertices[v]}, len {format_rational(length)}) segment "
        provenance += [f"{head}{k}/{n_units}" for k in range(1, n_units + 1)]
        segments += [(eidx, k, n_units) for k in range(n_units)]
    return MetricGraph(name, vertex_names, new_edges, Fraction(G, L), provenance, segments)


def load_graph_file(path) -> MetricGraph:
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot read graph file {path}: {exc}") from exc
    with fh:
        try:
            document = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"invalid JSON in {path}: {exc}") from exc
    return load_graph(document)
