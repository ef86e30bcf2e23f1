"""Shared helpers: fixture graphs and independent brute-force oracles.

The oracles deliberately avoid the fast integer-key machinery: everything
here goes through the exact interval balls of closed_ball / sets_equal /
point_distance, never `levelkeys` rows, so that engine results are checked
by a second, independent route.  closed_ball itself is checked against
closed_ball_oracle, its construction in `Fraction` arithmetic on every edge.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from ballflow import fixtures
from ballflow.balls import BallSet, Interval, closed_ball, full_set, make_coverage, sets_equal
from ballflow.errors import ValidationError
from ballflow.graph import GraphPoint, MetricGraph, PotentialProfile
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
    from `eccentricity`'s formulas with breakpoints found by exact crossing."""
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
    in `Fraction` arithmetic on every edge."""
    r = Fraction(r)
    if r < 0:
        raise ValidationError(f"negative radius {r}")
    p = g.canonical_point(p)
    dp = g.point_vertex_distances(p)
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
