"""Finite metric graphs with exact rational arithmetic.

A graph document (arbitrary positive rational edge lengths) is normalized to
a unit-edge multigraph: all lengths are multiplied by the lcm L of the length
denominators and every edge is subdivided into length-1 pieces.  The stored
scale factor 1/L maps internal distances back to user units.  All distance,
eccentricity and potential computations are exact.

Phi(p), the largest distance from p, is linear on every unit edge between
the quarter points 0, 1/4, 1/2, 3/4 and 1.  Proof: at offset s on e = (u, v)
the distance to a vertex w is min(s + d(u, w), 1 - s + d(v, w)).  Phi(s) is
the maximum over the edges f of the farthest distance within f, given by
`eccentricity`: (a + b + 1)/2 for f != e, with a, b the distances to the ends
of f (|a - b| <= 1, so its other tent terms never bind); for f == e,
max(left, right) with beta = min(s, b + 1), left = min(a + s, beta,
(a + beta)/2) and right = min(1 - s, b + 1 - s, (b + 1 - s)/2).  Expanded,
every term is a minimum of lines of slope -1, 0 or 1 with intercept in
(1/2)Z, except two pieces that never bind: a + s (slope 0 or 2), as
a + s >= s >= beta, and 2 - 2s in b + 1 - s = min(d(u, v) + 1, 2 - 2s), as
2 - 2s >= 1 - s.  So Phi on e is a maximum of minima of such lines, and its
breakpoints are crossings of two of them, at s = dc/dk with dc in (1/2)Z and
dk in {1, 2}: in (1/4)Z.  Hence Phi's values at the quarter points, held in
eighths so that every formula is an integer one, give it exactly.  m and M
(the diameter) are their extremes, and since a linear piece attains an
extreme along its whole length or only at an end, Phi equals m (or M) on an
edge exactly on the runs of quarter points that hold that value.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

import numpy as np

from .errors import InternalConsistencyError, ValidationError

ZERO = Fraction(0)
ONE = Fraction(1)
# load_graph() refuses more unit edges than this.  Memory grows as E^2: the vertex
# distance matrix and levelkeys' int8 key rows (points x edges).  project at radius
# 3/2 peaked at 72, 107, 197 and 331 MB RSS at 971, 2,028, 2,901 and 3,967 unit
# edges of random_connected graphs (2 x86-64 cores).  No fixture or benchmark
# graph has more than 200.
MAX_UNIT_EDGES = 4_000
# entries per (points x edges) array of _quarter_eccentricities' chunks
_CHUNK_ENTRIES = 1 << 20


def parse_rational(text: str) -> Fraction:
    """Parse 'p' or 'p/q' with decimal digits into an exact Fraction."""
    if isinstance(text, int):
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
        self._check_connected()
        self._dist: np.ndarray | None = None
        self._phi8: np.ndarray | None = None

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

    def _check_connected(self):
        n = self.num_vertices
        seen = [False] * n
        stack = [0]
        seen[0] = True
        count = 1
        while stack:
            u = stack.pop()
            for e, _slot in self._incidence[u]:
                a, b = self.edges[e]
                for w in (a, b):
                    if not seen[w]:
                        seen[w] = True
                        count += 1
                        stack.append(w)
        if count != n:
            raise ValidationError("graph is disconnected")

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

    def same_point(self, p: GraphPoint, q: GraphPoint) -> bool:
        return self.canonical_point(p) == self.canonical_point(q)

    # -- vertex distances --------------------------------------------------

    def vertex_distance_matrix(self) -> np.ndarray:
        """All-pairs graph distance on unit edges, as a (V, V) int64 matrix
        filled one BFS row at a time."""
        if self._dist is None:
            n = self.num_vertices
            adj: list[list[int]] = [[] for _ in range(n)]
            for u, v in self.edges:
                if u != v:
                    adj[u].append(v)
                    adj[v].append(u)
            dist = np.empty((n, n), dtype=np.int64)
            for s in range(n):
                row = [-1] * n
                row[s] = 0
                dq = deque([s])
                while dq:
                    u = dq.popleft()
                    for w in adj[u]:
                        if row[w] < 0:
                            row[w] = row[u] + 1
                            dq.append(w)
                dist[s] = row
            self._dist = dist
        return self._dist

    def point_vertex_distances(self, p: GraphPoint) -> list[Fraction]:
        """Exact distance from p to every vertex."""
        p = self.canonical_point(p)
        D = self.vertex_distance_matrix()
        u, v = self.edges[p.edge]
        du, dv = D[u].tolist(), D[v].tolist()
        t, s = p.t, ONE - p.t
        return [min(t + du[w], s + dv[w]) for w in range(self.num_vertices)]

    # -- point-to-point distance -------------------------------------------

    def point_distance(self, p: GraphPoint, q: GraphPoint) -> Fraction:
        """Exact geodesic distance between two points."""
        p = self.canonical_point(p)
        q = self.canonical_point(q)
        pu, pv = self.edges[p.edge]
        qu, qv = self.edges[q.edge]
        uu, uv, vu, vv = self.vertex_distance_matrix()[[pu, pu, pv, pv], [qu, qv, qu, qv]].tolist()
        tp, sp = p.t, ONE - p.t
        tq, sq = q.t, ONE - q.t
        best = min(tp + uu + tq, tp + uv + sq, sp + vu + tq, sp + vv + sq)
        if p.edge == q.edge:
            best = min(best, abs(tp - tq))
        return best

    # -- eccentricity (potential at a point) --------------------------------

    def eccentricity(self, p: GraphPoint) -> Fraction:
        """Phi(p): the maximal distance from p, via exact per-edge tent peaks.

        For a target edge f with endpoint distances a, b, the farthest point
        of f lies at the crossing of the two tents (or an endpoint), giving
        max = min(a+1, b+1, (a+b+1)/2); the edge containing p additionally
        offers the direct within-edge route, handled by splitting at p.
        """
        p = self.canonical_point(p)
        dp = self.point_vertex_distances(p)
        best = ZERO
        for f, (u, v) in enumerate(self.edges):
            a, b = dp[u], dp[v]
            if f == p.edge and ZERO < p.t < ONE:
                t = p.t
                beta = min(t, b + 1)
                left = min(a + t, beta, (a + beta) / 2)
                right = min(ONE - t, b + 1 - t, (b + 1 - t) / 2)
                val = max(left, right)
            else:
                val = min(a + 1, b + 1, (a + b + 1) / 2)
            if val > best:
                best = val
        return best

    # -- potential and diameter on the quarter grid ---------------------------

    def _quarter_eccentricities(self) -> np.ndarray:
        """Phi at the offsets k/4, k = 0..4, of every unit edge, in eighths: an
        (E, 5) read-only int64 table of `eccentricity`'s formulas (see the module
        docstring), computed once per graph."""
        if self._phi8 is not None:
            return self._phi8
        D = self.vertex_distance_matrix()
        tails, heads = np.array(self.edges, dtype=np.int64).T
        E = self.num_edges
        k = np.arange(5, dtype=np.int64)
        table = np.empty((E, 5), dtype=np.int64)
        step = max(1, _CHUNK_ENTRIES // (5 * E))
        for lo in range(0, E, step):
            own = np.arange(lo, min(lo + step, E))
            rows = np.arange(len(own))
            # quarter distances from each point (own edge, k/4) to every vertex
            dq = np.minimum(
                k[:, None] + 4 * D[tails[own]][:, None, :],
                (4 - k)[:, None] + 4 * D[heads[own]][:, None, :],
            )
            # tent peaks of every other edge; the own column is replaced below
            peaks = 4 + dq[:, :, tails] + dq[:, :, heads]
            peaks[rows, :, own] = 0
            a = dq[rows, :, tails[own]]
            b = dq[rows, :, heads[own]]
            beta = np.minimum(k, b + 4)
            left = np.minimum(np.minimum(2 * (a + k), 2 * beta), a + beta)
            right = np.minimum(np.minimum(2 * (4 - k), 2 * (b + 4 - k)), b + 4 - k)
            own_peak = np.where((k > 0) & (k < 4), np.maximum(left, right), 4 + a + b)
            table[own] = np.maximum(peaks.max(axis=2), own_peak)
        table.flags.writeable = False
        self._phi8 = table
        return table

    def potential_profile(self) -> "PotentialProfile":
        """Exact global min m and max M of the potential with solution sets."""
        table = self._quarter_eccentricities()
        m8, M8 = int(table.min()), int(table.max())
        m, M = Fraction(m8, 8), Fraction(M8, 8)
        if 2 * m < M:
            raise InternalConsistencyError(f"potential min {m} < half of max {M}")
        rows = table.tolist()
        centers = tuple(_level_runs(row, m8) for row in rows)
        extrema = tuple(_level_runs(row, M8) for row in rows)
        return PotentialProfile(m=m, M=M, centers=centers, extrema=extrema)

    def diameter(self) -> Fraction:
        """Exact diameter: the largest eccentricity, read off the quarter grid."""
        return Fraction(int(self._quarter_eccentricities().max()), 8)

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
    if not all(isinstance(v, (str, int, float)) for v in vertices):
        raise ValidationError(f"vertex names must be strings or numbers, got {vertices}")
    if len(set(vertices)) != len(vertices):
        raise ValidationError("duplicate vertex names")
    index = {str(v): i for i, v in enumerate(vertices)}

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

    L = lcm(*[length.denominator for _, _, length in parsed])
    units = sum(int(length * L) for _, _, length in parsed)
    if units > MAX_UNIT_EDGES:
        raise ValidationError(
            f"graph normalizes to {units} unit edges, over the cap of {MAX_UNIT_EDGES}"
        )
    scale = Fraction(1, L)

    vertex_names = [str(v) for v in vertices]
    new_edges: list[tuple[int, int]] = []
    provenance: list[str] = []
    segments: list[tuple[int, int, int]] = []
    for eidx, (u, v, length) in enumerate(parsed):
        n_units = length * L
        assert n_units.denominator == 1
        n_units = n_units.numerator
        chain = [u]
        for k in range(1, n_units):
            vertex_names.append(f"{vertices[u]}~{vertices[v]}.{eidx}.{k}")
            chain.append(len(vertex_names) - 1)
        chain.append(v)
        for k in range(n_units):
            new_edges.append((chain[k], chain[k + 1]))
            provenance.append(
                f"edge {eidx} ({vertices[u]}-{vertices[v]}, len {format_rational(length)})"
                f" segment {k + 1}/{n_units}"
            )
            segments.append((eidx, k, n_units))
    return MetricGraph(name, vertex_names, new_edges, scale, provenance, segments)


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
