"""Shared helpers: fixture graphs and independent brute-force oracles.

The oracles deliberately avoid the fast integer-key machinery: everything
here goes through the exact interval balls of closed_ball / sets_equal /
point_distance, never `levelkeys` rows, so that engine results are checked
by a second, independent route.  closed_ball itself is checked against
closed_ball_oracle, its construction in `Fraction` arithmetic on every edge,
and the array-based smoothing and canonical code of `canon` against
smooth_oracle and canonical_code_oracle, their chain walk and per-vertex
Python BFS with recursive search; canonical_code_oracle imports nothing from
`canon`, and its refine_colors_oracle, which re-signs every vertex each round
with dense colors, is the reference for the search's incremental
refinement.  distance_oracle is the vertex distance matrix by one Python
BFS per source, against which the graph's search
from all sources at once is checked.  level_oracle is the one-pass level that
keys every cell's ball, against which the level's selective keying is checked;
its grouping, `np.unique` on a `np.void` view, is group_rows_oracle, against
which `levelkeys.group_rows` is checked.  timeline_oracle is the timeline by
one `project` per locus, against which the timeline's shared layouts are
checked.
key_rows_reference is `levelkeys.key_rows` by its first, two-clip formula,
against which the kernel's rows are checked byte for byte.
orientation_oracle keys the quarter points of a level's segment classes to
check the gluing direction that the `quotient` docstring proves.
merge_radius_oracle and extinction_oracle find the first radius of equal
balls, and of the whole graph, by bisection over exact balls memoized in
`mergetree._ball_cache`, against the closed forms `merge_radius` and
`eccentricity` and the merge sweep.  merge_sweep_oracle is the merge sweep
with one `ball_keys` call per grid radius, against which the sweep's blocks
of radii are checked; it keys with `levelkeys`, as the sweep does, and
checks only how the sweep composes the blocks' labels.
"""

from __future__ import annotations

import math
from collections import defaultdict, deque
from fractions import Fraction
from typing import Sequence

import numpy as np
import pytest

from ballflow import fixtures, quotient
from ballflow.balls import _FULL_ROW, BallSet, Interval, ball_row, closed_ball, full_set, make_coverage, sets_equal
from ballflow.errors import InternalConsistencyError, ValidationError
from ballflow.evolution import TimelineEntry, timeline_loci
from ballflow.graph import GraphPoint, MetricGraph, PotentialProfile
from ballflow.levelkeys import _center_edge, ball_keys, group_rows, key_rows, with_distances
from ballflow.mergetree import MergeMatrix, _cached_ball
from ballflow.piecewise import PiecewiseLinear, pl_max, pl_max_all, pl_min

ZERO = Fraction(0)
ONE = Fraction(1)


@pytest.fixture(scope="session")
def path_g():
    return fixtures.path()


@pytest.fixture(scope="session")
def theta_g():
    return fixtures.theta()


@pytest.fixture(scope="session")
def c6_g():
    return fixtures.c6()


def candidate_grid(g: MetricGraph) -> list[Fraction]:
    """Quarter-integer radii from 1/4 up to the diameter (inclusive): the
    on-grid loci of `evolution.timeline_loci`."""
    return [Fraction(k, 4) for k in range(1, (4 * g.diameter()).__ceil__() + 1)]


def grid_points(g: MetricGraph, k: int) -> list[GraphPoint]:
    """Vertices plus interior offsets j/k on every edge, deduplicated."""
    pts = [g.vertex_point(v) for v in range(g.num_vertices)]
    for e in range(g.num_edges):
        for j in range(1, k):
            pts.append(GraphPoint(e, Fraction(j, k)))
    return pts


def ecc_oracle(g: MetricGraph, p: GraphPoint, k: int = 32) -> Fraction:
    """Max distance from p to a dense sample; within 1/k of the truth."""
    return max(g.point_distance(p, q) for q in grid_points(g, k))


def _edge_potential_oracle(g: MetricGraph, e: int) -> PiecewiseLinear:
    """Phi restricted to edge e as an exact piecewise-linear function, built
    from the tent of every other edge and, on e, the farthest point on
    either side of the moving point, with breakpoints found by exact
    crossing."""
    D = g.vertex_distance_matrix().tolist()
    eu, ev = g.edges[e]
    s = PiecewiseLinear.identity()
    one = Fraction(1)
    # distance from (e, s) to each vertex, as PL functions of s
    dists = [
        pl_min(
            PiecewiseLinear.line(Fraction(D[eu][w]), Fraction(D[eu][w]) + 1),
            PiecewiseLinear.line(Fraction(D[ev][w]) + 1, Fraction(D[ev][w])),
        )
        for w in range(g.num_vertices)
    ]
    parts: list[PiecewiseLinear] = []
    for f, (u, v) in enumerate(g.edges):
        a, b = dists[u], dists[v]
        if f == e:
            # within-edge farthest point, split at the moving point s
            beta = pl_min(s, b + 1)
            left = pl_min(a + s, beta, (a + beta) / 2)
            right = pl_min(one - s, b + 1 - s, (b + 1 - s) / 2)
            parts.append(pl_max(left, right))
        else:
            parts.append(pl_min(a + 1, b + 1, (a + b + 1) / 2))
    return pl_max_all(parts)


def assert_eccentricity_matches_oracle(g: MetricGraph) -> None:
    """`eccentricity` equals the piecewise-linear Phi of
    `_edge_potential_oracle` at every k/24 of every edge, the ends included."""
    for e in range(g.num_edges):
        phi = _edge_potential_oracle(g, e)
        for k in range(25):
            assert g.eccentricity(GraphPoint(e, Fraction(k, 24))) == phi(Fraction(k, 24)), (g.name, e, k)


def potential_oracle(g: MetricGraph) -> PotentialProfile:
    """potential_profile by exact piecewise-linear envelopes, one per edge,
    with no assumption about where their breakpoints lie."""
    profiles = [_edge_potential_oracle(g, e) for e in range(g.num_edges)]
    m = min(f.min_value() for f in profiles)
    M = max(f.max_value() for f in profiles)
    return PotentialProfile(
        m=m,
        M=M,
        centers=tuple(tuple(f.level_intervals(m)) for f in profiles),
        extrema=tuple(tuple(f.level_intervals(M)) for f in profiles),
    )


def closed_ball_oracle(g: MetricGraph, p: GraphPoint, r: Fraction) -> BallSet:
    """The closed ball about p: per-edge sublevel set of the tent envelope,
    in `Fraction` arithmetic on every edge, from distances of its own to
    the vertices, so that it shares no kernel with `closed_ball`."""
    r = Fraction(r)
    if r < 0:
        raise ValidationError(f"negative radius {r}")
    p = g.canonical_point(p)
    D = g.vertex_distance_matrix()
    u0, v0 = g.edges[p.edge]
    du, dv = D[u0].tolist(), D[v0].tolist()
    t, s = p.t, ONE - p.t
    dp = [min(t + du[w], s + dv[w]) for w in range(g.num_vertices)]
    per_edge: list[list[Interval]] = []
    for e, (u, v) in enumerate(g.edges):
        ivs: list[Interval] = []
        reach_u = r - dp[u]
        if reach_u >= 0:
            ivs.append((ZERO, reach_u))
        reach_v = r - dp[v]
        if reach_v >= 0:
            ivs.append((ONE - reach_v, ONE))
        if e == p.edge:
            ivs.append((p.t - r, p.t + r))
        per_edge.append(ivs)
    return BallSet(make_coverage(g, per_edge), meta=(p, r))


def brute_classes(g: MetricGraph, r: Fraction, pts: list[GraphPoint]) -> list[list[int]]:
    """Partition of point indices by exact ball equality at radius r."""
    balls = [closed_ball(g, p, r) for p in pts]
    classes: list[list[int]] = []
    reps: list[BallSet] = []
    for i, b in enumerate(balls):
        for ci, rb in enumerate(reps):
            if sets_equal(g, b, rb):
                classes[ci].append(i)
                break
        else:
            reps.append(b)
            classes.append([i])
    return classes


def merge_radius_oracle(g: MetricGraph, p: GraphPoint, q: GraphPoint) -> Fraction:
    """Smallest radius at which the closed balls about p and q are equal, by
    bisection on the grid of twice the sweep's den over exact balls."""
    p = g.canonical_point(p)
    q = g.canonical_point(q)
    if p == q:
        return Fraction(0)
    qhat = math.lcm(p.t.denominator, q.t.denominator, 2)
    den = 2 * qhat
    hi = (g.diameter() * den).__ceil__()
    lo = 1
    if not sets_equal(g, _cached_ball(g, p, Fraction(hi, den)), _cached_ball(g, q, Fraction(hi, den))):
        raise InternalConsistencyError(f"{g.name}: balls of {p} and {q} differ at the diameter radius")
    # smallest m in [1, hi] with equality, by bisection on monotone equality
    while lo < hi:
        mid = (lo + hi) // 2
        r = Fraction(mid, den)
        if sets_equal(g, _cached_ball(g, p, r), _cached_ball(g, q, r)):
            hi = mid
        else:
            lo = mid + 1
    return Fraction(lo, den)


def extinction_oracle(g: MetricGraph, p: GraphPoint) -> Fraction:
    """Smallest radius at which the ball about p is the whole graph, by
    bisection over exact balls; it must agree with the eccentricity of p."""
    p = g.canonical_point(p)
    den = 2 * math.lcm(p.t.denominator, 2)
    hi = (g.diameter() * den).__ceil__()
    lo = 0
    X = full_set(g)
    if not sets_equal(g, _cached_ball(g, p, Fraction(hi, den)), X):
        raise InternalConsistencyError(f"{g.name}: ball about {p} misses points at the diameter radius")
    while lo < hi:
        mid = (lo + hi) // 2
        if sets_equal(g, _cached_ball(g, p, Fraction(mid, den)), X):
            hi = mid
        else:
            lo = mid + 1
    return Fraction(lo, den)


def merge_sweep_oracle(g: MetricGraph, cells, S: int):
    """`mergetree._merge_sweep` with one `ball_keys` call per grid radius, on
    the representatives left after the last merge: the sweep whose (r, label)
    sequence the block sweep must yield."""
    label = group_rows(cells)
    reps = np.flatnonzero(label == np.arange(len(cells)))
    if len(reps) < len(cells):
        yield Fraction(0), label.copy()
    m = S // math.gcd(S, *cells[:, 1].tolist())
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
        raise InternalConsistencyError(f"balls about points {reps.tolist()} of {g.name} differ at the diameter")


def pairwise_matrix(g: MetricGraph, points) -> MergeMatrix:
    """The merge-radius matrix by pairwise bisection on exact balls, which is
    not an ultrametric by construction."""
    pts = tuple(g.canonical_point(p) for p in points)
    return MergeMatrix(pts, tuple(tuple(merge_radius_oracle(g, p, q) for q in pts) for p in pts))


def cell_partition(sub, q) -> list[set[int]]:
    """Partition of all cell ids of `sub`, the level's subdivision (vertex
    cells first, then segment cells offset by the vertex-cell count), into
    the identification classes of the quotient q."""
    nv = len(sub.vertex_cells)
    parts = [set(cls) for cls in q.q_vertices]
    if q.x_vertex is not None:
        parts[q.x_vertex] |= {nv + s for s, k in enumerate(q.edge_class) if k < 0}
    for cls in q.edge_classes:
        parts.append({nv + s for s in cls})
    return parts


def _sample_scaled(A: BallSet, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Sample coverage at step 1/k; offsets returned as ints in 0..k."""
    es, ts = [], []
    for e, ivs in enumerate(A.coverage):
        for a, b in ivs:
            lo = -((-a * k).__floor__())  # ceil(a*k)
            hi = (b * k).__floor__()
            for j in range(lo, hi + 1):
                es.append(e)
                ts.append(j)
    return np.array(es, dtype=np.int64), np.array(ts, dtype=np.int64)


def hausdorff_oracle(g: MetricGraph, A: BallSet, B: BallSet, k: int = 64) -> Fraction:
    """Hausdorff distance between dense samples of A and B, exact on the
    samples; within 1/k of the true value for closed interval unions."""
    D = g.vertex_distance_matrix().astype(np.int64) * k
    tails = np.array([u for u, _ in g.edges], dtype=np.int64)
    heads = np.array([v for _, v in g.edges], dtype=np.int64)

    eA, tA = _sample_scaled(A, k)
    eB, tB = _sample_scaled(B, k)

    def directed(e1, t1, e2, t2):
        u1, v1 = tails[e1], heads[e1]
        u2, v2 = tails[e2], heads[e2]
        d = np.minimum.reduce(
            [
                t1[:, None] + D[u1[:, None], u2[None, :]] + t2[None, :],
                t1[:, None] + D[u1[:, None], v2[None, :]] + (k - t2)[None, :],
                (k - t1)[:, None] + D[v1[:, None], u2[None, :]] + t2[None, :],
                (k - t1)[:, None] + D[v1[:, None], v2[None, :]] + (k - t2)[None, :],
            ]
        )
        same = e1[:, None] == e2[None, :]
        d = np.where(same, np.minimum(d, np.abs(t1[:, None] - t2[None, :])), d)
        return int(d.min(axis=1).max())

    h = max(directed(eA, tA, eB, tB), directed(eB, tB, eA, tA))
    return Fraction(h, k)


def relabeled(g_doc: dict, perm_seed: int) -> dict:
    """The same graph document with vertices relabeled and edges shuffled."""
    import random

    rng = random.Random(perm_seed)
    names = list(g_doc["vertices"])
    shuffled = names[:]
    rng.shuffle(shuffled)
    mapping = dict(zip(names, shuffled))
    edges = [
        {"u": mapping[str(e["u"])], "v": mapping[str(e["v"])], "len": e.get("len", e.get("length", "1"))}
        for e in g_doc["edges"]
    ]
    rng.shuffle(edges)
    return {"name": g_doc.get("name", "g") + "-relabeled", "vertices": shuffled, "edges": edges}


def center_edge_oracle(S: int, H: int, L: int, t: int, R: int):
    """[0,H] u [L,S] u [t-R, t+R] on the centre's edge by an explicit merge of
    sorted intervals, in the older per-point key encoding: the pair (h, l) of
    `levelkeys`, or ((-2, -2), merged intervals) when a middle component is left."""
    ivs = []
    if H >= 0:
        ivs.append((0, min(H, S)))
    ivs.append((max(t - R, 0), min(t + R, S)))
    if L <= S:
        ivs.append((max(L, 0), S))
    ivs.sort()
    merged = []
    for a, b in ivs:
        if merged and a <= merged[-1][1]:
            if b > merged[-1][1]:
                merged[-1] = (merged[-1][0], b)
        else:
            merged.append((a, b))
    if merged == [(0, S)]:
        return (S, 0), None
    if len(merged) == 1:
        a, b = merged[0]
        if a == 0:
            return (b, S + 1), None
        if b == S:
            return (-1, a), None
    if len(merged) == 2 and merged[0][0] == 0 and merged[1][1] == S:
        return (merged[0][1], merged[1][0]), None
    return (-2, -2), tuple(merged)


def integer_coverage(cov, D: int) -> tuple[tuple[int, ...], ...]:
    """A coverage with every interval end times D, for ends on (1/D)Z: per
    edge the ends in order, as Python integers.  Two such coverages are equal
    iff their integer forms are, and the forms hash without `Fraction`."""
    full = (0, D)

    def row(ivs):
        if ivs is _FULL_ROW:  # the row every full edge of a `closed_ball` shares
            return full
        return tuple([x.numerator * (D // x.denominator) for iv in ivs for x in iv]) if ivs else ()

    return tuple([row(ivs) for ivs in cov])


def integer_ball(g: MetricGraph, p: GraphPoint, r: Fraction, L: int) -> tuple[tuple[int, ...], ...]:
    """`ball_row` of the closed ball about p at radius r, both on (1/L)Z: the
    ball's `integer_coverage` at L."""
    p = g.canonical_point(p)
    assert L % p.t.denominator == 0 and L % Fraction(r).denominator == 0, (p, r, L)
    return ball_row(g, p.edge, *g.scaled_distances(p, L), int(r * L), L)


def coverage_classes(g: MetricGraph, r: Fraction, pts: list[GraphPoint]):
    """(labels, full) of exact `Fraction` balls: labels[i] is the least j whose
    ball equals ball i (coverages are canonical), full[i] whether ball i is X."""
    X = full_set(g).coverage
    first: dict = {}
    labels, full = [], []
    for i, p in enumerate(pts):
        cov = closed_ball(g, p, r).coverage
        labels.append(first.setdefault(cov, i))
        full.append(cov == X)
    return labels, full


def assert_cells_match_subdivision(g: MetricGraph, r: Fraction) -> None:
    """`quotient._cells`, the engine's integer cells, lists the cells of
    `quotient.subdivision`, cut on its own from `cut_offsets`, with the same
    ids, offsets and end cells; a vertex row may name any incident end."""
    sub, c = quotient.subdivision(g, r), quotient._cells(g, r)
    V, S = g.num_vertices, c.S

    def same(rows, fractions):
        return len(rows) == len(fractions) and all(
            t * x.denominator == x.numerator * S for row, xs in zip(rows, fractions) for t, x in zip(row, xs)
        )

    vertices = [g.canonical_point(GraphPoint(e, Fraction(t, S))) for e, t in c.vertex[:V].tolist()]
    assert vertices == list(sub.vertex_cells[:V]), r
    assert [p.edge for p in sub.vertex_cells[V:]] == c.vertex[V:, 0].tolist(), r
    assert same(c.vertex[V:, 1:].tolist(), [(p.t,) for p in sub.vertex_cells[V:]]), r
    segments = sub.segment_cells
    assert [(s.edge, s.tail_cell, s.head_cell) for s in segments] == list(
        zip(c.edge.tolist(), c.tail_cell.tolist(), c.head_cell.tolist())
    ), r
    assert same(np.stack([c.lo, c.hi], axis=1).tolist(), [(s.lo, s.hi) for s in segments]), r


def group_rows_oracle(rows: np.ndarray) -> np.ndarray:
    """labels[i], the least j with rows[j] == rows[i], by `np.unique` on a
    `np.void` view of the rows: sorted, with no hash."""
    void = rows.view(np.dtype((np.void, rows.dtype.itemsize * rows.shape[1]))).ravel()
    _, first, inverse = np.unique(void, return_index=True, return_inverse=True)
    return first[inverse].reshape(-1)


def level_oracle(g: MetricGraph, r: Fraction, layout=None, shared=()):
    """`quotient._level` by keying every vertex cell and segment midpoint
    of the cells cut at r itself (the layout and shared arguments are
    ignored), grouping equal key rows and reading X off them: (labels, full)."""
    c = quotient._cells(g, r)
    cells = np.concatenate([c.vertex, np.stack([c.edge, (c.lo + c.hi) // 2], axis=1)])
    rows, E = key_rows(g, r, cells, c.S), g.num_edges
    full = (rows[:, :E] == c.S).all(axis=1) & (rows[:, E : 2 * E] == 0).all(axis=1)
    return group_rows_oracle(rows), full


def timeline_oracle(g: MetricGraph) -> tuple:
    """`evolution.timeline`'s entries by its earlier per-locus loop: `project`,
    then `fingerprint`, at each locus in order, with no shared layout."""
    entries = []
    for r, on_grid in timeline_loci(g):
        q = quotient.project(g, r)
        entries.append(
            TimelineEntry(
                radius=r,
                on_grid=on_grid,
                fingerprint=quotient.fingerprint(q),
                injective=q.injective,
            )
        )
    return tuple(entries)


def robustness_oracle(g: MetricGraph) -> tuple[Fraction, Fraction]:
    """`robustness_radius`'s (lower, upper) by a scan of the timeline loci in
    radius order that calls `quotient.is_injective` at each: the last locus
    whose level embeds and the first whose level does not."""
    prev = Fraction(0)
    for r, _on_grid in timeline_loci(g):
        if not quotient.is_injective(g, r):
            return prev, r
        prev = r
    raise AssertionError(f"{g.name}: the level embeds at every locus")


def orientation_oracle(g: MetricGraph, q) -> int:
    """Check that every multi-member segment class of the level q glues its
    members in one of the two directions, and return how many such classes
    there are.

    Every member's quarter-point ball must match the lead's quarter or
    three-quarter ball, compared as `key_rows` keyed at the level's
    representative radius, which are equal iff the balls are.
    """
    rho = quotient.level_radius(g, q.radius)
    c = quotient._cells(g, rho)
    multi = [cls for cls in q.edge_classes if len(cls) > 1]
    if not multi:
        return 0
    members = np.array([i for cls in multi for i in cls])
    sizes = [len(cls) for cls in multi]
    first = np.cumsum([0, *sizes[:-1]])  # position of each class's lead
    lead = np.repeat(first, sizes)
    lo, hi, edge = c.lo[members], c.hi[members], c.edge[members]
    quarter = np.stack([edge, lo + (hi - lo) // 4], axis=1)
    three_quarter = np.stack([edge[first], lo[first] + 3 * (hi - lo)[first] // 4], axis=1)
    rows = key_rows(g, rho, np.concatenate([quarter, three_quarter]), c.S)
    kq, k3q = rows[: len(members)], np.repeat(rows[len(members) :], sizes, axis=0)
    bad = np.flatnonzero(~(kq == kq[lead]).all(axis=1) & ~(kq == k3q).all(axis=1))
    assert not len(bad), (
        f"{g.name}: segment class at radius {q.radius} has no consistent gluing "
        f"orientation (segment cells {members[lead[bad[0]]]} and {members[bad[0]]})"
    )
    return len(multi)


def key_rows_reference(g: MetricGraph, r: Fraction, cells, S: int) -> np.ndarray:
    """`levelkeys.key_rows` by its two-clip formula, in one pass with no
    chunks: per edge column, h = clip(R - d(p, tail), -1, S) and
    l = clip(S - R + d(p, head), 0, S + 1), whole edges written through a
    boolean mask, then the centre's own edge merged by `_center_edge`.
    It picks the same integer types, so rows compare byte for byte."""
    R = int(Fraction(r) * S)
    cells = np.asarray(cells).reshape(-1, 2)
    tails, heads = np.array(g.edges, dtype=np.int64).T
    D = g.vertex_distance_matrix()
    bound = S * (int(D.max()) + 2) + R
    work = next(t for t in (np.int16, np.int32, np.int64) if bound < np.iinfo(t).max)
    narrow = next(t for t in (np.int8, np.int16, np.int32, np.int64) if S < np.iinfo(t).max)
    SD = S * D.astype(work)
    e, t = cells[:, 0].astype(np.int64), cells[:, 1].astype(work)
    dp = np.minimum(t[:, None] + SD[tails[e]], (S - t)[:, None] + SD[heads[e]])
    h = np.clip(R - dp[:, tails], -1, S).astype(narrow)
    l = np.clip((S - R) + dp[:, heads], 0, S + 1).astype(narrow)
    whole = h >= l
    h[whole] = S
    l[whole] = 0
    own = np.arange(len(e))
    h[own, e], l[own, e] = _center_edge(S, R, t, h[own, e], l[own, e])
    return np.concatenate([h, l], axis=1)


def quarter_table_oracle(g: MetricGraph) -> np.ndarray:
    """`MetricGraph._quarter_eccentricities` recomputed in int64, one edge at a
    time: Phi at the offsets k/4 of every edge, in eighths, as the largest of
    the tent peaks of the other edges and the split peak on its own."""
    D = g.vertex_distance_matrix().astype(np.int64)
    tails, heads = np.array(g.edges, dtype=np.int64).T
    k = np.arange(5, dtype=np.int64)
    table = np.empty((g.num_edges, 5), dtype=np.int64)
    for e, (u, v) in enumerate(g.edges):
        dq = np.minimum(k[:, None] + 4 * D[u], (4 - k)[:, None] + 4 * D[v])
        peaks = 4 + dq[:, tails] + dq[:, heads]
        peaks[:, e] = np.maximum(dq[:, u] + k, dq[:, v] + 4 - k)
        table[e] = peaks.max(axis=1)
    return table


def distance_oracle(n: int, edges: Sequence[tuple[int, int]]) -> np.ndarray:
    """The (n, n) int64 vertex distance matrix of a multigraph by one
    breadth-first search per source, -1 where a source is never reached."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
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
    return dist


def components_oracle(n: int, edges: Sequence[tuple[int, int]]) -> int:
    """The number of connected components of a multigraph, by union-find."""
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


def refine_colors_oracle(n: int, adj: list[dict[int, int]], loops: list[int], colors: list[int]) -> list[int]:
    """Equitable refinement: split color classes by loop count and the
    multiset of (neighbor color, edge multiplicity) pairs, re-signing every
    vertex each round; colors are dense ranks."""
    while True:
        signatures = [
            (colors[v], loops[v], tuple(sorted((colors[w], m) for w, m in adj[v].items())))
            for v in range(n)
        ]
        remap = {sig: i for i, sig in enumerate(sorted(set(signatures)))}
        new_colors = [remap[s] for s in signatures]
        if new_colors == colors:
            return colors
        colors = new_colors


def twin_representatives_oracle(adj: list[dict[int, int]], loops: list[int], cell: list[int]) -> list[int]:
    """One vertex per twin class of a cell.  Two vertices are twins when
    swapping them is an automorphism (identical rows up to each other), so
    individualizing both explores identical subtrees."""
    reps: list[int] = []
    for v in cell:
        if not any(
            loops[u] == loops[v]
            and adj[u].get(v, 0) == adj[v].get(u, 0)
            and {w: m for w, m in adj[u].items() if w != v} == {w: m for w, m in adj[v].items() if w != u}
            for u in reps
        ):
            reps.append(v)
    return reps


def distance_profiles_oracle(n: int, edges: Sequence[tuple[int, int]]) -> list[tuple[int, ...]]:
    """Each vertex's sorted BFS distances to all n vertices, -1 for
    unreachable, by one Python BFS per vertex on the underlying simple graph."""
    adj: list[set[int]] = [set() for _ in range(n)]
    for i, j in edges:
        if i != j:
            adj[i].add(j)
            adj[j].add(i)
    profiles = []
    for s in range(n):
        dist = [-1] * n
        dist[s] = 0
        queue = [s]
        for v in queue:
            for w in adj[v]:
                if dist[w] < 0:
                    dist[w] = dist[v] + 1
                    queue.append(w)
        profiles.append(tuple(sorted(dist)))
    return profiles


def canonical_code_oracle(n: int, edges: Sequence[tuple[int, int]]) -> str:
    """`canon.canonical_multigraph_code` by one Python BFS per vertex and a
    recursive search: a string equal for two multigraphs iff they are isomorphic.

    edges are unordered pairs (i, j) with multiplicity given by repetition;
    i == j is a loop.  Degree-0 vertices count.
    """
    if n == 0:
        return "V0|"
    adj: list[dict[int, int]] = [defaultdict(int) for _ in range(n)]
    loops = [0] * n
    for i, j in edges:
        if i == j:
            loops[i] += 1
        else:
            adj[i][j] += 1
            adj[j][i] += 1
    adj = [dict(a) for a in adj]

    # initial invariant: BFS distance profile plus incident multiplicities;
    # cuts the search tree sharply on levels with many essential vertices
    profiles = [
        (dist, tuple(sorted(adj[s].values())), loops[s])
        for s, dist in enumerate(distance_profiles_oracle(n, edges))
    ]
    remap = {p: i for i, p in enumerate(sorted(set(profiles)))}
    initial = [remap[p] for p in profiles]

    best: list[tuple] = [None]

    def encode(perm_pos: list[int]) -> tuple:
        # perm_pos[v] = canonical index of v
        items = []
        for v in range(n):
            for w, m in adj[v].items():
                if v < w:
                    a, b = sorted((perm_pos[v], perm_pos[w]))
                    items.append((a, b, m))
        for v in range(n):
            if loops[v]:
                items.append((perm_pos[v], perm_pos[v], -loops[v]))
        return tuple(sorted(items))

    def search(colors: list[int]):
        colors = refine_colors_oracle(n, adj, loops, colors)
        cells = defaultdict(list)
        for v, c in enumerate(colors):
            cells[c].append(v)
        target = None
        for c in sorted(cells):
            if len(cells[c]) > 1:
                target = c
                break
        if target is None:
            perm_pos = colors  # discrete: colors are a permutation of 0..n-1
            code = encode(perm_pos)
            if best[0] is None or code < best[0]:
                best[0] = code
            return
        for v in twin_representatives_oracle(adj, loops, cells[target]):
            branched = [c + (1 if c > target or (c == target and w != v) else 0)
                        for w, c in enumerate(colors)]
            # give v its own color strictly below its former cell
            search(branched)

    search(initial)
    code = best[0]
    edge_part = ",".join(
        f"{a}-{b}x{m}" if m > 0 else f"{a}-{a}L{-m}" for a, b, m in code
    )
    return f"V{n}|{edge_part}"


def smooth_oracle(
    num_vertices: int, edges: Sequence[tuple[int, int]]
) -> tuple[int, list[tuple[int, int]], list[int]]:
    """`canon.smooth_multigraph` by walking the chains half-edge by half-edge:
    suppress degree-2 vertices of a multigraph.

    Returns (n_smoothed, smoothed_edges, kept_vertex_ids): essential vertices
    (degree != 2) survive; chains of degree-2 vertices collapse to single
    edges; components that are pure cycles become one vertex with a loop;
    isolated vertices survive as degree-0 vertices.  kept_vertex_ids maps
    smoothed indices back to original ids (-1 for synthetic cycle vertices).
    """
    degree = [0] * num_vertices
    half_edges: list[list[tuple[int, int]]] = [[] for _ in range(num_vertices)]
    for idx, (a, b) in enumerate(edges):
        degree[a] += 1
        degree[b] += 1
        half_edges[a].append((idx, 0))
        half_edges[b].append((idx, 1))

    essential = [v for v in range(num_vertices) if degree[v] != 2]
    new_id = {v: i for i, v in enumerate(essential)}
    kept = list(essential)
    smoothed: list[tuple[int, int]] = []
    used: set[tuple[int, int]] = set()

    def other_end(idx: int, side: int) -> int:
        a, b = edges[idx]
        return b if side == 0 else a

    for v in essential:
        for idx, side in half_edges[v]:
            if (idx, side) in used:
                continue
            used.add((idx, side))
            w = other_end(idx, side)
            cur_idx, cur_side = idx, side
            while degree[w] == 2:
                # exactly two half-edge slots at w; leave through the other one
                slots = [h for h in half_edges[w] if h != (cur_idx, 1 - cur_side)]
                nxt_idx, nxt_side = slots[0]
                used.add((cur_idx, 1 - cur_side))
                used.add((nxt_idx, nxt_side))
                cur_idx, cur_side = nxt_idx, nxt_side
                w = other_end(cur_idx, cur_side)
            used.add((cur_idx, 1 - cur_side))
            a, b = sorted((new_id[v], new_id[w]))
            smoothed.append((a, b))

    # components that are pure cycles (every vertex degree 2)
    touched = set()
    for idx, side in used:
        a, b = edges[idx]
        touched.add(a)
        touched.add(b)
    visited = set(touched)
    for v in range(num_vertices):
        if degree[v] == 2 and v not in visited:
            # walk the cycle, marking it
            comp = {v}
            frontier = [v]
            while frontier:
                x = frontier.pop()
                for idx, side in half_edges[x]:
                    y = other_end(idx, side)
                    if y not in comp:
                        comp.add(y)
                        frontier.append(y)
            visited |= comp
            cid = len(kept)
            kept.append(-1)
            smoothed.append((cid, cid))

    return len(kept), sorted(smoothed), kept
