"""Closed balls and finite interval unions as exact subsets of the graph.

A set is stored per edge as a canonical sorted union of disjoint closed
rational intervals in [0,1] (degenerate intervals are isolated points).
Dilation of an interval union reduces to balls about interval endpoints:
the distance from any point to a closed interval inside an edge is attained
at an interval endpoint (every path into the edge enters through an endpoint
of the edge and meets the interval first at its boundary) or is zero.

A ball is built once, by `ball_row`, in integer units of 1/L for p and r on
(1/L)Z (`closed_ball` takes L = lcm(den r, den p.t)).  Vertex distances are
integers, so every distance from p to a vertex, r minus it, and every
endpoint of the ball's intervals (r - d(p, u), 1 - (r - d(p, v)), p.t - r,
p.t + r, 0 and 1) lies in (1/L)Z.  `ball_row` reads the distances, scaled by
L, from the graph's one distance row of p (`MetricGraph.scaled_distances`),
so each comparison and clip is one of Python integers, which cannot
overflow.  Its rows are the interval ends times L: at one L, equal rows are
equal balls, as `tests/conftest.py::ball_check_oracle` compares them;
`closed_ball` is their `Fraction` view.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import InternalConsistencyError, ValidationError
from .graph import GraphPoint, MetricGraph, format_rational, parse_rational
from .piecewise import merge_intervals

ZERO = Fraction(0)
ONE = Fraction(1)

Interval = tuple[Fraction, Fraction]
Coverage = tuple[tuple[Interval, ...], ...]

# the row of every edge a ball covers whole, shared between balls
_FULL_ROW: tuple[Interval, ...] = ((ZERO, ONE),)


@dataclass(frozen=True)
class BallSet:
    """A closed subset given by canonical per-edge interval unions.

    Equality and hashing depend only on the coverage; meta is provenance
    (center, radius) when the set arose as a ball.
    """

    coverage: Coverage
    meta: tuple | None = field(default=None, compare=False, hash=False)

    def is_empty(self) -> bool:
        return all(not ivs for ivs in self.coverage)

    def edge_length(self, e: int) -> Fraction:
        return sum((b - a for a, b in self.coverage[e]), ZERO)

    def endpoints(self) -> list[tuple[int, Fraction]]:
        """All interval endpoints as (edge, offset) pairs (duplicates removed)."""
        out = []
        for e, ivs in enumerate(self.coverage):
            for a, b in ivs:
                out.append((e, a))
                if b != a:
                    out.append((e, b))
        return out

    def covers(self, e: int, s: Fraction) -> bool:
        return any(a <= s <= b for a, b in self.coverage[e])


@dataclass(frozen=True)
class BoundaryPoint:
    """A sphere point; outer means it touches the closure of the complement."""

    point: GraphPoint
    outer: bool


def make_coverage(
    g: MetricGraph, per_edge: Sequence[Iterable[Interval]]
) -> Coverage:
    if len(per_edge) != g.num_edges:
        raise ValidationError("coverage does not match the graph's edge count")
    cov = []
    for ivs in per_edge:
        clipped = []
        for a, b in ivs:
            a, b = Fraction(a), Fraction(b)
            a = max(a, ZERO)
            b = min(b, ONE)
            if a <= b:
                clipped.append((a, b))
        cov.append(tuple(merge_intervals(clipped)))
    return tuple(cov)


def empty_set(g: MetricGraph) -> BallSet:
    return BallSet(tuple(() for _ in range(g.num_edges)))


def full_set(g: MetricGraph) -> BallSet:
    return BallSet(tuple(_FULL_ROW for _ in range(g.num_edges)))


def closed_ball(g: MetricGraph, p: GraphPoint, r: Fraction) -> BallSet:
    """The closed ball about p, the `Fraction` view of its `ball_row`."""
    r = Fraction(r)
    if r < 0:
        raise ValidationError(f"negative radius {r}")
    p = g.canonical_point(p)
    L = math.lcm(r.denominator, p.t.denominator)
    rows = ball_row(g, p.edge, *g.scaled_distances(p, L), r.numerator * (L // r.denominator), L)
    view = {(): (), (0, L): _FULL_ROW}  # each distinct row in Fraction ends, built once
    for row in set(rows) - view.keys():
        ends = [Fraction(x, L) for x in row]
        view[row] = tuple(zip(ends[::2], ends[1::2]))
    return BallSet(tuple(map(view.get, rows)), meta=(p, r))


def ball_row(g: MetricGraph, edge: int, T: int, d: Sequence[int], R: int, L: int) -> tuple[tuple[int, ...], ...]:
    """The closed ball of radius R/L about the point at offset T/L on `edge`,
    whose `scaled_distances` row is d: per edge the ends of its canonical
    intervals, in order, in units of 1/L; (0, L) is a full edge and () an
    empty one.  At one L, two balls are equal iff their rows are."""
    full = (0, L)
    rows = []
    for u, v in g.edges:
        ru, rv = R - d[u], R - d[v]  # the reaches (r - d(p, w)) * L of its ends
        if ru + rv >= L:
            # the two end intervals meet; reaches of adjacent vertices differ
            # by at most L, so this also holds whenever ru >= L or rv >= L
            rows.append(full)
        elif rv < 0:
            rows.append((0, ru) if ru >= 0 else ())
        elif ru < 0:
            rows.append((L - rv, L))
        else:
            rows.append((0, ru, L - rv, L))
    # p's own edge adds [T - R, T + R] to [0, ru] u [L - rv, L], clipped to [0, L] and merged
    ru, rv = (R - d[w] for w in g.edges[edge])
    ivs = [(max(T - R, 0), min(T + R, L))]
    if ru >= 0:
        ivs.append((0, min(ru, L)))
    if rv >= 0:
        ivs.append((max(L - rv, 0), L))
    rows[edge] = tuple([x for iv in merge_intervals(ivs) for x in iv])
    return tuple(rows)


def sets_equal(g: MetricGraph, A: BallSet, B: BallSet) -> bool:
    if len(A.coverage) != g.num_edges or len(B.coverage) != g.num_edges:
        raise ValidationError("ball sets belong to a different graph")
    return A.coverage == B.coverage


def union(g: MetricGraph, *sets: BallSet) -> BallSet:
    per_edge = []
    for e in range(g.num_edges):
        ivs: list[Interval] = []
        for s in sets:
            ivs.extend(s.coverage[e])
        per_edge.append(ivs)
    return BallSet(make_coverage(g, per_edge))


def dilate(g: MetricGraph, A: BallSet, t: Fraction) -> BallSet:
    """The generalized closed ball of radius t about A (the semiflow map)."""
    t = Fraction(t)
    if A.is_empty():
        raise ValidationError("cannot dilate an empty set")
    if t < 0:
        raise ValidationError(f"negative dilation {t}")
    if t == 0:
        return A
    seen = set()
    balls = [A]
    for e, s in A.endpoints():
        p = g.canonical_point(GraphPoint(e, s))
        if p in seen:
            continue
        seen.add(p)
        balls.append(closed_ball(g, p, t))
    return union(g, *balls)


def set_length(g: MetricGraph, A: BallSet) -> Fraction:
    return sum((A.edge_length(e) for e in range(g.num_edges)), ZERO)


def lyapunov(g: MetricGraph, A: BallSet) -> Fraction:
    """1 - length(A)/length(X): 1 on singletons, 0 on the whole graph."""
    if A.is_empty():
        raise ValidationError("lyapunov of empty set")
    return ONE - set_length(g, A) / Fraction(g.num_edges)


def sphere(g: MetricGraph, p: GraphPoint, r: Fraction) -> list[BoundaryPoint]:
    """All points at exact distance r from p, with outer flags."""
    r = Fraction(r)
    if r <= 0:
        raise ValidationError(f"sphere radius must be positive, got {r}")
    p = g.canonical_point(p)
    ball = closed_ball(g, p, r)
    dp = g.point_vertex_distances(p)
    found: dict[GraphPoint, bool] = {}
    for e, (u, v) in enumerate(g.edges):
        candidates = {r - dp[u], ONE - (r - dp[v])}
        if e == p.edge:
            candidates |= {p.t - r, p.t + r}
        for s in candidates:
            if not ZERO <= s <= ONE:
                continue
            q = g.canonical_point(GraphPoint(e, s))
            if q in found:
                continue
            if g.point_distance(p, q) == r:
                found[q] = _abuts_uncovered(g, ball, q)
    return [BoundaryPoint(q, outer) for q, outer in sorted(found.items(), key=_point_key)]


def _point_key(item):
    q = item[0]
    return (q.edge, q.t)


def _abuts_uncovered(g: MetricGraph, A: BallSet, q: GraphPoint) -> bool:
    """True iff an uncovered open neighborhood abuts q on some edge side."""
    v = g.point_vertex(q)
    if v is None:
        return _side_uncovered(A, q.edge, q.t, -1) or _side_uncovered(A, q.edge, q.t, +1)
    for e, slot in g.incident(v):
        s = ZERO if slot == 0 else ONE
        direction = +1 if slot == 0 else -1
        if _side_uncovered(A, e, s, direction):
            return True
    return False


def _side_uncovered(A: BallSet, e: int, s: Fraction, direction: int) -> bool:
    """True iff (s, s+eps) (direction=+1) or (s-eps, s) (-1) misses A on edge e."""
    if direction == +1 and s == ONE:
        return False
    if direction == -1 and s == ZERO:
        return False
    for a, b in A.coverage[e]:
        if direction == +1 and a <= s < b:
            return False
        if direction == -1 and a < s <= b:
            return False
    return True


# -- Hausdorff distance -------------------------------------------------------


def _directed_hausdorff(g: MetricGraph, A: BallSet, B: BallSet) -> Fraction:
    """sup over a in A of d(a, B), exactly.

    For a point outside B the distance to B is attained at a B-interval
    endpoint.  On each uncovered piece of A the distance field is
    min(s + alpha, beta - s) where alpha/beta are the best ascending and
    descending tent offsets over all B sources; its max sits at the crossing
    (clamped to the piece).
    """
    sources = []
    seen = set()
    for e, s in B.endpoints():
        q = g.canonical_point(GraphPoint(e, s))
        if q not in seen:
            seen.add(q)
            sources.append((q, g.point_vertex_distances(q)))
    best = ZERO
    for e, (u, v) in enumerate(g.edges):
        a_ivs = A.coverage[e]
        if not a_ivs:
            continue
        alpha_global = min(dq[u] for _, dq in sources)
        beta_global = min(dq[v] + 1 for _, dq in sources)
        interior = [
            q.t for q, _ in sources if q.edge == e and ZERO < q.t < ONE
        ]
        for a, b in a_ivs:
            for c, d in _subtract(a, b, B.coverage[e]):
                alpha = alpha_global
                beta = beta_global
                for tq in interior:
                    if tq <= c:
                        alpha = min(alpha, -tq)
                    if tq >= d:
                        beta = min(beta, tq)
                # max over [c, d] of min(s + alpha, beta - s)
                peak = (beta - alpha) / 2
                s_star = min(max(peak, c), d)
                val = min(s_star + alpha, beta - s_star)
                if val > best:
                    best = val
    return best


def _subtract(a: Fraction, b: Fraction, ivs: Sequence[Interval]) -> list[Interval]:
    """Closures of the components of [a,b] minus a canonical interval union."""
    if a == b:
        return [] if any(c <= a <= d for c, d in ivs) else [(a, a)]
    out = []
    cur = a
    for c, d in ivs:
        if d < a or c > b:
            continue
        if c > cur:
            out.append((cur, min(c, b)))
        cur = max(cur, d)
        if cur >= b:
            break
    if cur < b:
        out.append((cur, b))
    return out


def hausdorff(g: MetricGraph, A: BallSet, B: BallSet) -> Fraction:
    if A.is_empty() or B.is_empty():
        raise ValidationError("hausdorff distance needs nonempty sets")
    return max(_directed_hausdorff(g, A, B), _directed_hausdorff(g, B, A))


# -- serialization ------------------------------------------------------------


def ball_to_json(g: MetricGraph, A: BallSet, user_units: bool = False) -> dict:
    factor = g.scale if user_units else ONE
    edges = []
    for e, ivs in enumerate(A.coverage):
        edges.append(
            {
                "edge": e,
                "intervals": [
                    [format_rational(a * factor), format_rational(b * factor)]
                    for a, b in ivs
                ],
            }
        )
    doc = {"edges": edges}
    if A.meta is not None:
        p, r = A.meta
        doc["meta"] = {
            "center": {"edge": p.edge, "t": format_rational(p.t)},
            "radius": format_rational(r * factor),
        }
    return doc


def ball_from_json(g: MetricGraph, doc: dict) -> BallSet:
    per_edge: list[list[Interval]] = [[] for _ in range(g.num_edges)]
    for item in doc["edges"]:
        e = int(item["edge"])
        if not 0 <= e < g.num_edges:
            raise ValidationError(f"invalid edge index {e}")
        for a, b in item["intervals"]:
            per_edge[e].append((parse_rational(a), parse_rational(b)))
    meta = None
    if "meta" in doc:
        mp = doc["meta"]
        meta = (
            g.canonical_point(
                GraphPoint(int(mp["center"]["edge"]), parse_rational(mp["center"]["t"]))
            ),
            parse_rational(mp["radius"]),
        )
    return BallSet(make_coverage(g, per_edge), meta=meta)
