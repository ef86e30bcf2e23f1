"""Merge radii between points and the single-linkage dendrogram they induce.

The merge radius of two points is the smallest r at which their closed
r-balls coincide.  Ball equality is monotone in r (a larger ball is the
dilation of a smaller one), and every merge radius of a point set lies on the
grid k/den, den = lcm(2, offset denominators).  `merge_tree` therefore sweeps
that grid once, keying one point of each class of equal balls at a block of
consecutive radii per `ball_keys` call, until one class is left; each radius
where classes merge is one event of the dendrogram, and the merge-radius
matrix reads the events.  `merge_radii` takes the radii of many pairs in
closed form (proof below), in one numpy pass, and `merge_radius` is its
one-pair case; `ball_check` compares each join of the dendrogram with its
pair's closed-form radius and builds no ball.  The bisections over exact
balls in `tests/conftest.py` (`merge_radius_oracle`, `extinction_oracle`),
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
`MetricGraph.peak_rows` (derived in the `graph` docstring).  If p is not inside
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
L a common multiple of den t_p and den t_q, so `merge_radii` compares the
points' distance rows of `peak_rows` and takes their peaks, integers in
1/(2L) units, at one L for all its points.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .balls import BallSet, closed_ball
from .errors import InternalConsistencyError, ValidationError
from .graph import _CHUNK_ENTRIES, INT64_SAFE, GraphPoint, MetricGraph
from .levelkeys import ball_keys, group_rows, with_distances

# Cap on the points of `sample_points`.  The cost grows about as the square
# of the point count: at 1,999 points (`merge-tree builtin:path --resolution
# 1/999`), `--csv -`, one row per pair, took 20-21 s and 495 MB peak RSS, and
# `--json` 2.3-2.5 s and 172 MB (2 x86-64 cores, Python 3.11).  The largest
# sample of the tests and the benchmark is 753 points (comb5 at step 1/16).
MAX_SAMPLE_POINTS = 2_000
# Rows per sweep call: a `ball_keys` call costs about 70 us whatever its size
# and 0.5-1 us per row, so few representatives are keyed at several radii.
SWEEP_BLOCK_ROWS = 512

# each graph's own {(point, radius): ball} memo for the tests' bisections, dropped with
# the graph; kept while perfbench/layertrace.py counts `_cached_ball` (ROADMAP item 3)
_ball_cache: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _cached_ball(g: MetricGraph, p: GraphPoint, r: Fraction) -> BallSet:
    memo = _ball_cache.setdefault(g, {})
    hit = memo.get((p, r))
    if hit is None:
        hit = memo[p, r] = closed_ball(g, p, r)
    return hit


def merge_radii(g: MetricGraph, points: list[GraphPoint], a, b) -> tuple[list[int], int]:
    """(m, M): m[k] / M is the merge radius of the canonical points
    points[a[k]] and points[b[k]], with M = 2 lcm(the points' denominators):
    the largest peak of either point over the edges where their distance
    rows differ at either end or that hold either inside (module docstring),
    in Python integers, one `peak_rows` call per chunk of pairs."""
    L = math.lcm(*(p.t.denominator for p in points))
    e = np.array([p.edge for p in points], dtype=np.int64)
    T = [p.t.numerator * (L // p.t.denominator) for p in points]
    T = np.array(T, dtype=np.int64 if L < INT64_SAFE else object)
    a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
    m, step = [], max(1, _CHUNK_ENTRIES // (2 * max(g.num_edges, g.num_vertices)))
    for lo in range(0, len(a), step):
        i, j = a[lo : lo + step], b[lo : lo + step]
        n, ij = len(i), np.concatenate([i, j])
        d, P = g.peak_rows(e[ij], T[ij], L)
        inside = (0 < T[ij]) & (T[ij] < L)
        own = (np.arange(g.num_edges) == e[ij, None]) & inside[:, None]  # the edge a point lies inside
        vertex = d[:n] != d[n:]
        differ = vertex[:, g.tails] | vertex[:, g.heads] | own[:n] | own[n:]
        differ[(e[i] == e[j]) & (T[i] == T[j])] = False  # a point and itself differ nowhere
        m += np.where(differ, np.maximum(P[:n], P[n:]), 0).max(axis=1).tolist()
    return m, 2 * L


def merge_radius(g: MetricGraph, p: GraphPoint, q: GraphPoint) -> Fraction:
    """Smallest radius at which the closed balls about p and q are equal: the
    one-pair case of `merge_radii`."""
    (m,), M = merge_radii(g, [g.canonical_point(p), g.canonical_point(q)], [0], [1])
    return Fraction(m, M)


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
    by one row only, merge; label[i] is the least index in i's class.

    One `ball_keys` call keys the representatives at a block's start at each
    of the block's b = max(1, SWEEP_BLOCK_ROWS // representatives) radii.  The
    partitions are nested as r grows, so the classes at the block's start
    refine those at every radius of the block: each radius's labels compose
    onto the labels at the block's start, and a radius where the class count
    falls is an event."""
    label = group_rows(cells)
    reps = np.flatnonzero(label == np.arange(len(cells)))  # one point per class, ascending
    if len(reps) < len(cells):
        yield Fraction(0), label.copy()
    m = S // math.gcd(S, *cells[:, 1].tolist())  # the offsets' least common denominator
    den = math.lcm(2, m)
    cells = with_distances(g, np.stack([cells[:, 0], cells[:, 1] // (S // m) * (den // m)], axis=1), den)
    hi, k = (g.diameter() * den).__ceil__(), 1
    while len(reps) > 1 and k <= hi:
        n, ks = len(reps), range(k, min(hi + 1, k + max(1, SWEEP_BLOCK_ROWS // len(reps))))
        if len(ks) == 1:  # a scalar radius: the R column of per-row radii costs fine sweeps ~10 %
            same = ball_keys(g, Fraction(k, den), cells[reps], den)[None]
        else:
            same = ball_keys(g, np.repeat(ks, n), cells[np.tile(reps, len(ks))], den).reshape(-1, n) % n
        start, classes = label, n
        for k, s in zip(ks, same):
            kept = s == np.arange(n)
            if np.count_nonzero(kept) < classes:
                classes, to = np.count_nonzero(kept), np.arange(len(cells))
                to[reps] = reps[s]
                label = to[start]
                yield Fraction(k, den), label
        reps, k = reps[kept], k + 1
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
    """Pairs (i, j), i the first earlier point nearest to j > 0, whose merge
    radius mu, by `merge_radii`, disagrees with the radius R of the event
    that joins them, ascending in j.  By the ultrametric property, i is the
    least member of the first cluster that holds j and an earlier point.

    (i, j) is flagged iff R < mu or R - s >= mu, with s half a sweep step:
    the radii where two balls are equal form the closed half-line [mu, oo)
    (module docstring), so these are the pairs whose exact balls are
    unequal at R or equal at R - s.  As mu >= 0, R - s >= mu only when
    R > 0.  All joins take one `merge_radii` call: no ball is built, and no
    `ball_keys` row is read, so the check reaches the sweep's radii by
    another route."""
    pts = [g.canonical_point(p) for p in d.points]
    den = math.lcm(2, *(p.t.denominator for p in pts))
    L = math.lcm(2 * den, *(ev.radius.denominator for ev in d.events))
    step = L // (2 * den)  # half a sweep step, in units of 1/L
    joins, joined = [], set()
    for ev in d.events:
        R = ev.radius.numerator * (L // ev.radius.denominator)
        for c in ev.clusters:
            new = [j for j in c[1:] if j not in joined]
            joined.update(new)
            joins += [(c[0], j, R) for j in new]
    i, j, R = zip(*joins) if joins else ((), (), ())
    mu, M = merge_radii(g, pts, i, j)
    k = L // M  # M divides 2 den, so L: k * x is the radius x / M in units of 1/L
    bad = [(a, b) for a, b, r, x in zip(i, j, R, mu) if r < k * x or r - step >= k * x]
    return tuple(sorted(bad, key=lambda ij: ij[1]))


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
