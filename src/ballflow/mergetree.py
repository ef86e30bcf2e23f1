"""Merge radii between points and the single-linkage dendrogram they induce.

The merge radius of two points is the smallest r at which their closed
r-balls coincide.  Ball equality is monotone in r (a larger ball is the
dilation of a smaller one), and every merge radius of a point set lies on the
grid k/den, den = lcm(2, offset denominators).  `merge_tree` therefore sweeps
that grid once, with one `ball_keys` call per radius for one point of each
class of equal balls, until one class is left; each radius where classes
merge is one event of the dendrogram, and the merge-radius matrix and
`ball_check` read the events.  `merge_radius` takes one pair's radius in
closed form (proof below).  The bisections over exact balls in
`tests/conftest.py` (`merge_radius_oracle`, `extinction_oracle`),
`ultrametric_check` and `dendrogram_from_matrix` are the oracles.

Proof of the grid.  Let p lie at offset t on its edge; every offset of the
set lies on (1/den)Z, and so does 1/2.  For every vertex w,
d(p, w) = min(t + d(tail, w), 1 - t + d(head, w)) lies in +-t + Z.  The
`levelkeys` row of B(p, r) changes form only at these radii:

* a reach r - d(p, w) crossing 0 or 1: r in +-t + Z;
* the two end intervals of an edge (u, v) meeting, at
  r = (1 + d(p, u) + d(p, v)) / 2, with d(p, u) + d(p, v) in {+-2t, 0} + Z;
* on p's own edge, the centre interval [t - r, t + r] reaching 0 or 1
  (r = t or 1 - t), or an end interval: r = (t + d(p, u)) / 2 at the tail u,
  r = (1 - t + d(p, v)) / 2 at the head v.

Each of these lies in (1/2)Z, (1/2)Z + t or (1/2)Z - t, so on (1/den)Z.
Between two consecutive grid radii every coordinate of a row is either a
clipped constant or an unclipped end strictly inside the edge: r - d or
t + r (slope +1, the upper ends) and 1 - r + d or t - r (slope -1, the
lower ends).  In one column of two rows, two unclipped ends have equal
slopes, so they are equal on the whole open interval or nowhere in it, and
a clipped constant never equals an unclipped end there.  So row equality,
i.e. ball equality, is constant on each open interval.  As B(p, a) is the
intersection of the B(p, r), r > a, the radii of equality form a closed
half-line [a, oo); were a inside an open interval, equality would hold just
below it too.  So every merge radius a is a grid point.  The argument reads
the offsets only through these breakpoints, so for any real offsets t_p and
t_q the merge radius of p and q lies in (1/2)Z u (1/2)Z +- t_p u
(1/2)Z +- t_q.

Proof of the closed form.  Let p lie at distances a, b from the ends of an
edge f.  p's peak on f, its farthest distance within f, is
`MetricGraph.peaks` (derived in the `graph` docstring).  If p is not inside
f, d(p, y) at offset y is a tent that peaks at y = (1 + b - a)/2.  Inside f
at t, the parts [0, t] and [t, 1] peak at y = (t - a)/2 and
y = (1 + t + b)/2, and p's peak is the higher of the two.  At r = P - e, e
small, the ball leaves out of f only (y - e, y + e) within [0, 1] about each
place y of its peak P.  Say p and q differ on f if an end distance differs
or f holds p or q inside.  If not, their balls agree on f at every r.  If
so, let P >= Q be their peaks on f: for Q <= r < P one ball covers f and the
other does not.  If P = Q, their gaps are at different places: a place y of
peak P gives a = P - y on a tent or [0, t], b = P + y - 1 on a tent or
[t, 1], t = P + y on [0, t] and t = y - P on [t, 1], so a shared place
forces equal ends off f, one point inside f, a negative distance or t >= 1.
So the balls differ on f just below max(P, Q) and agree on f from there on.
Agreement on one edge is not monotone in r, so the merge radius is the
largest max(P, Q) over the edges where p and q differ: all edges agree
there, and one does not just below.  Distances to vertices lie in (1/L)Z,
L = lcm(den t_p, den t_q), so `merge_radius` compares the points'
`scaled_distances` rows and takes their `peaks`, integers in 1/(2L) units.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .balls import BallSet, closed_ball, sets_equal
from .errors import InternalConsistencyError, ValidationError
from .graph import GraphPoint, MetricGraph
from .levelkeys import INT64_SAFE, ball_keys, group_rows, with_distances

# Cap on the points of `sample_points`.  The cost grows about as the square
# of the point count: `merge-tree builtin:path --csv`, which writes one row
# per pair, took 1.4 s, 6.0 s and 31 s with 59, 145 and 498 MB peak RSS at
# 501, 1,001 and 2,001 points, and `--json` alone 9.3 s and 614 MB at 4,001
# (2 x86-64 cores).  The largest sample of the tests and the benchmark is
# 753 points (comb5 at step 1/16).
MAX_SAMPLE_POINTS = 2_000

# each graph's own {(point, radius): ball} memo for the tests' bisections, dropped with
# the graph; kept while perfbench/layertrace.py counts `_cached_ball` (ROADMAP 5(b))
_ball_cache: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _cached_ball(g: MetricGraph, p: GraphPoint, r: Fraction) -> BallSet:
    memo = _ball_cache.setdefault(g, {})
    hit = memo.get((p, r))
    if hit is None:
        hit = memo[p, r] = closed_ball(g, p, r)
    return hit


def merge_radius(g: MetricGraph, p: GraphPoint, q: GraphPoint) -> Fraction:
    """Smallest radius at which the closed balls about p and q are equal: the
    largest peak of p or q on an edge where they differ (module docstring)."""
    p, q = g.canonical_point(p), g.canonical_point(q)
    if p == q:
        return Fraction(0)
    L = math.lcm(p.t.denominator, q.t.denominator)
    (_, dp), (_, dq) = g.scaled_distances(p, L), g.scaled_distances(q, L)
    inside = {x.edge for x in (p, q) if 0 < x.t < 1}
    differ = [f in inside or dp[u] != dq[u] or dp[v] != dq[v] for f, (u, v) in enumerate(g.edges)]
    best = max(max(a, b) for a, b, bad in zip(g.peaks(p, L), g.peaks(q, L), differ) if bad)
    return Fraction(best, 2 * L)


def sample_points(g: MetricGraph, step: Fraction) -> list[GraphPoint]:
    """Distinct points of the graph on the uniform grid of the given step
    (internal units), vertices included once each."""
    step = Fraction(step)
    if step <= 0 or 1 % step != 0:
        raise ValidationError(f"step must be a positive divisor of 1, got {step}")
    n = int(1 / step)
    count = g.num_vertices + g.num_edges * (n - 1)
    if count > MAX_SAMPLE_POINTS:
        raise ValidationError(
            f"step {step} samples {count} points, over the cap of {MAX_SAMPLE_POINTS}"
        )
    pts = [g.vertex_point(v) for v in range(g.num_vertices)]
    for e in range(g.num_edges):
        for k in range(1, n):
            pts.append(GraphPoint(e, Fraction(k, n)))
    return pts


@dataclass(frozen=True)
class MergeMatrix:
    points: tuple[GraphPoint, ...]
    mu: tuple[tuple[Fraction, ...], ...]


def _merge_sweep(g: MetricGraph, cells, S: int):
    """Yield (r, label) at each grid radius where classes of equal balls about
    the points `cells`, integer rows (edge, offset * S) that give each point
    by one row only, merge; label[i] is the least index in i's class."""
    label = group_rows(cells)
    reps = np.flatnonzero(label == np.arange(len(cells)))  # one point per class, ascending
    if len(reps) < len(cells):
        yield Fraction(0), label.copy()
    m = S // math.gcd(S, *cells[:, 1].tolist())  # the offsets' least common denominator
    den = math.lcm(2, m)
    cells = with_distances(g, np.stack([cells[:, 0], cells[:, 1] // (S // m) * (den // m)], axis=1), den)
    hi = (g.diameter() * den).__ceil__()
    for k in range(1, hi + 1):
        if len(reps) < 2:
            return
        same = ball_keys(g, Fraction(k, den), cells[reps], den)
        if (same < np.arange(len(reps))).any():
            to = np.arange(len(cells))
            to[reps] = reps[same]
            label = to[label]
            reps = reps[same == np.arange(len(reps))]
            yield Fraction(k, den), label.copy()
    if len(reps) > 1:
        raise InternalConsistencyError(
            f"balls about points {reps.tolist()} of {g.name} differ at the diameter {Fraction(hi, den)}"
        )


@dataclass(frozen=True)
class UltrametricReport:
    ok: bool
    violations: tuple[tuple[int, int, int], ...]


def ultrametric_check(m: MergeMatrix) -> UltrametricReport:
    """Exhaustive strong-triangle check; any violation is an engine bug."""
    n = len(m.points)
    violations = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                s = sorted((m.mu[i][j], m.mu[i][k], m.mu[j][k]))
                # the maximum must be attained at least twice
                if s[1] != s[2]:
                    violations.append((i, j, k))
    return UltrametricReport(ok=not violations, violations=tuple(violations))


@dataclass(frozen=True)
class MergeEvent:
    radius: Fraction
    clusters: tuple[tuple[int, ...], ...]  # leaf-index groups merging at this radius


@dataclass(frozen=True)
class Dendrogram:
    points: tuple[GraphPoint, ...]
    events: tuple[MergeEvent, ...]

    def clusters_at(self, r: Fraction) -> list[tuple[int, ...]]:
        """Partition of leaf indices into clusters of merge radius <= r.

        Each event lists whole merged clusters, so a leaf's cluster at r is
        the last one it joined at a radius <= r.
        """
        cluster = {i: (i,) for i in range(len(self.points))}
        for ev in self.events:
            if ev.radius > r:
                break
            for group in ev.clusters:
                for i in group:
                    cluster[i] = group
        return sorted(set(cluster.values()), key=lambda c: c[0])

    @property
    def root_radius(self) -> Fraction:
        return self.events[-1].radius if self.events else Fraction(0)

    def matrix(self) -> MergeMatrix:
        """mu[i][j]: the radius of the first event that puts i and j together."""
        n = len(self.points)
        mu = np.full((n, n), Fraction(0), dtype=object)
        prev = label = np.arange(n)
        for ev in self.events:
            label = label.copy()
            for c in ev.clusters:
                label[list(c)] = c[0]
            mu[(label[:, None] == label) & (prev[:, None] != prev)] = ev.radius
            prev = label
        return MergeMatrix(self.points, tuple(map(tuple, mu.tolist())))


def _events(n: int, partitions) -> tuple[MergeEvent, ...]:
    """An event for each (r, label) partition of range(n), label[i] the least
    index in i's class: the classes whose label changed, if any."""
    prev = np.arange(n)
    events = []
    for r, label in partitions:
        grown = sorted(set(label[label != prev].tolist()))
        if grown:
            clusters = tuple(tuple(np.flatnonzero(label == c).tolist()) for c in grown)
            events.append(MergeEvent(r, clusters))
        prev = label
    return tuple(events)


def merge_tree(g: MetricGraph, points: list[GraphPoint]) -> Dendrogram:
    """The merge sweep's dendrogram of the canonical points; its partitions
    are nested by construction, each relabelling the classes of the last."""
    pts = [g.canonical_point(p) for p in points]
    S = math.lcm(*(p.t.denominator for p in pts))
    if S >= INT64_SAFE:
        raise ValidationError(f"{g.name}: the 1/{S} grid of the points is too fine for int64 key rows")
    cells = np.array([(p.edge, int(p.t * S)) for p in pts], dtype=np.int64).reshape(-1, 2)
    return Dendrogram(tuple(pts), _events(len(pts), _merge_sweep(g, cells, S)))


def ball_check(g: MetricGraph, d: Dendrogram) -> tuple[tuple[int, int], ...]:
    """Pairs (i, j), i the first earlier point nearest to j > 0, whose exact
    interval balls (`closed_ball`) are unequal at their merge radius or equal
    half a sweep step below it.  By the ultrametric property, i is the least
    member of the first cluster that holds j and an earlier point.  It never
    reads `ball_keys` rows, so it checks the sweep by an independent route."""
    step = Fraction(1, 2 * math.lcm(2, *(p.t.denominator for p in d.points)))
    joins: dict[int, tuple[int, Fraction]] = {}
    for ev in d.events:
        for c in ev.clusters:
            for j in c[1:]:
                joins.setdefault(j, (c[0], ev.radius))
    bad = []
    for j, (i, r) in sorted(joins.items()):
        p, q = d.points[i], d.points[j]
        if not sets_equal(g, closed_ball(g, p, r), closed_ball(g, q, r)) or (
            r > 0 and sets_equal(g, closed_ball(g, p, r - step), closed_ball(g, q, r - step))
        ):
            bad.append((i, j))
    return tuple(bad)


def dendrogram_from_matrix(m: MergeMatrix) -> Dendrogram:
    """The oracle route: at each distinct radius r, ascending, a point's
    cluster is {j : mu[i][j] <= r}, labelled by its least index.  Raises
    InternalConsistencyError when some `mu <= r` is not an equivalence
    relation, i.e. when the matrix is not an ultrametric."""
    radii = sorted({r for row in m.mu for r in row})
    rank = {r: k for k, r in enumerate(radii)}
    ranks = np.array([[rank[r] for r in row] for row in m.mu], dtype=np.int64)

    def partitions():
        for k, r in enumerate(radii):
            within = ranks <= k
            label = within.argmax(axis=1)
            wrong = np.argwhere(within != (label[:, None] == label))
            if len(wrong):
                i, j = wrong[0]
                raise InternalConsistencyError(
                    f"merge radii are not an ultrametric: mu <= {r} is not an"
                    f" equivalence relation at points {i} and {j}"
                )
            yield r, label

    return Dendrogram(m.points, _events(len(m.points), partitions()))
