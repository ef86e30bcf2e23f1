"""Acceptance gate: eleven end-to-end criteria, one PASS/FAIL line each.

Each test prints its verdict (run pytest with -s or look at captured output)
and then asserts, so a red test always corresponds to a FAIL line.
"""

import random
import time
from fractions import Fraction as F

import pytest

from ballflow import fixtures
from ballflow.balls import (
    closed_ball,
    dilate,
    full_set,
    hausdorff,
    lyapunov,
    sets_equal,
    union,
)
from ballflow.evolution import timeline
from ballflow.graph import GraphPoint, load_graph
from ballflow.mergetree import (
    merge_radius,
    merge_tree,
    sample_points,
    ultrametric_check,
)
from ballflow.quotient import fingerprint, is_injective, project, subdivision

from conftest import brute_classes, candidate_grid, cell_partition, hausdorff_oracle, pairwise_matrix


def report(n: int, ok: bool, detail: str = "") -> None:
    line = f"{'PASS' if ok else 'FAIL'} criterion {n}"
    if detail:
        line += f": {detail}"
    print(line)


def vp(g, name: str) -> GraphPoint:
    return g.vertex_point(g.vertex_names.index(name))


def profile_points(g, per_edge):
    """Canonical points of the degenerate intervals of a potential profile;
    asserts the regions are in fact isolated points."""
    pts = set()
    for e, ivs in enumerate(per_edge):
        for lo, hi in ivs:
            assert lo == hi, "expected an isolated extremal point"
            pts.add(g.canonical_point(GraphPoint(e, lo)))
    return pts


GRAPH_POOL = [
    fixtures.path(),
    fixtures.theta(),
    fixtures.c6(),
    fixtures.c4(),
    fixtures.random_connected(6, 0, 1),
    fixtures.random_connected(5, 2, seed=2),
]


def rand_point(g, rng):
    return g.canonical_point(
        GraphPoint(rng.randrange(g.num_edges), F(rng.randrange(0, 17), 16))
    )


# Fingerprints produced while exercising criteria 2-5, shared with the
# Euler-bound audit of criterion 6: (context label, internal edges, fp).
_tree_cache: dict = {}


def tree_runs():
    if "runs" not in _tree_cache:
        runs = []
        elapsed = -time.perf_counter()
        for seed in range(10):
            g = fixtures.random_connected(12, 0, seed)
            assert g.num_edges <= 30
            fps = [
                (f"tree seed {seed} at {r}", g.num_edges, fingerprint(project(g, r)))
                for r in candidate_grid(g)
            ]
            runs.append((g, fps))
        elapsed += time.perf_counter()
        _tree_cache["runs"] = runs
        _tree_cache["elapsed"] = elapsed
    return _tree_cache["runs"], _tree_cache["elapsed"]


def fingerprints_2_to_5():
    out = []
    for name in ["c6", "theta"]:
        g = fixtures.builtin(name)
        for e in timeline(g).entries:
            out.append((f"{name} at {e.radius}", g.num_edges, e.fingerprint))
    theta = fixtures.theta()
    out.append(("theta at 1", theta.num_edges, fingerprint(project(theta, F(1)))))
    comb = fixtures.comb(5)
    for r in candidate_grid(comb):
        out.append((f"comb5 at {r}", comb.num_edges, fingerprint(project(comb, r))))
    runs, _ = tree_runs()
    for _, fps in runs:
        out.extend(fps)
    return out


def test_criterion_1_segment_fixture():
    t0 = time.perf_counter()
    g = fixtures.path()
    prof = g.potential_profile()
    ok = (
        g.to_user(prof.m) == 1
        and g.to_user(prof.M) == 2
        and profile_points(g, prof.centers) == {vp(g, "b")}
        and profile_points(g, prof.extrema) == {vp(g, "a"), vp(g, "c")}
    )
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    report(1, ok, f"m=1 M=2 centers={{b}} extrema={{a,c}} in {elapsed:.3f}s")
    assert ok


def test_criterion_2_cycle_fixture():
    g = fixtures.c6()
    rng = random.Random(2026)
    const = all(
        g.eccentricity(rand_point(g, rng)) == 3 for _ in range(20)
    )
    t = timeline(g)
    ok = const and t.distinct_type_count == 2 and t.critical_times == (F(3),)
    report(2, ok, f"ecc const 3, {t.distinct_type_count} types, critical {t.critical_times}")
    assert ok


def test_criterion_3_theta_fixture():
    g = fixtures.theta()
    inj = all(is_injective(g, r) for r in candidate_grid(g) if r < 1)
    b1_before = fingerprint(project(g, F(3, 4))).b1
    b1_at_one = fingerprint(project(g, F(1))).b1
    types = timeline(g).distinct_type_count

    # Brute-force sampling oracle at resolution 1/16.  Two segment cells are
    # identified exactly when their sampled interior points have equal balls
    # under a fixed orientation; a cell joins the collapsed region exactly
    # when every sample ball is the whole space.  Rebuild that partition from
    # exact ball comparisons only and compare with the engine's.
    r = F(1)
    q = project(g, r)
    sub = subdivision(g, q.radius)
    nv = len(sub.vertex_cells)
    X = full_set(g)

    vert_balls = [closed_ball(g, p, r) for p in sub.vertex_cells]

    def seg_profile(sc):
        span = sc.hi - sc.lo
        return [
            closed_ball(g, GraphPoint(sc.edge, sc.lo + span * F(j, 8)), r)
            for j in range(1, 8)
        ]

    profiles = [seg_profile(sc) for sc in sub.segment_cells]

    def lists_equal(a, b):
        return all(sets_equal(g, x, y) for x, y in zip(a, b))

    cells = list(range(nv + len(profiles)))
    parent = list(cells)

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def join(a, b):
        parent[find(a)] = find(b)

    x_cells = [v for v in range(nv) if sets_equal(g, vert_balls[v], X)]
    x_cells += [
        nv + s
        for s, prof in enumerate(profiles)
        if all(sets_equal(g, b, X) for b in prof)
    ]
    for c in x_cells[1:]:
        join(x_cells[0], c)
    for i in range(nv):
        for j in range(i + 1, nv):
            if sets_equal(g, vert_balls[i], vert_balls[j]):
                join(i, j)
    for i in range(len(profiles)):
        for j in range(i + 1, len(profiles)):
            if lists_equal(profiles[i], profiles[j]) or lists_equal(
                profiles[i], profiles[j][::-1]
            ):
                join(nv + i, nv + j)

    brute = sorted(
        sorted(c for c in cells if find(c) == root)
        for root in {find(c) for c in cells}
    )
    engine = sorted(sorted(part) for part in cell_partition(sub, q))
    oracle_ok = brute == engine
    ok = inj and b1_before == 2 and b1_at_one == 1 and types == 3 and oracle_ok
    report(
        3,
        ok,
        f"injective below 1, b1 2->{b1_at_one}, {types} types, "
        f"1/16 oracle {'agrees' if oracle_ok else 'DISAGREES'}",
    )
    assert ok


def test_criterion_4_comb_truncation():
    g = fixtures.comb(5)
    prof = g.potential_profile()
    base = vp(g, "base0")
    mus = [
        g.to_user(merge_radius(g, base, vp(g, f"tip{n}"))) for n in range(1, 5)
    ]
    mus_ok = mus == [F(1, 2 ** (n - 1)) for n in range(1, 5)]

    def min_tip_mu(h, n_teeth):
        leaves = [vp(h, "base0")] + [vp(h, f"tip{n}") for n in range(n_teeth)]
        return h.to_user(
            min(
                merge_radius(h, p, q)
                for i, p in enumerate(leaves)
                for q in leaves[i + 1:]
            )
        )

    halves = (min_tip_mu(fixtures.comb(3), 3), min_tip_mu(fixtures.comb(4), 4))
    center_ok = profile_points(g, prof.centers) == {vp(g, "base@1")}
    ok = (
        g.to_user(prof.m) == 1
        and g.to_user(prof.M) == 2
        and center_ok
        and mus_ok
        and halves == (F(1, 2), F(1, 4))
    )
    report(4, ok, f"mu(base, tip_n)={mus}, min tip mu {halves[0]}->{halves[1]}")
    assert ok


def test_criterion_5_tree_preservation():
    runs, elapsed = tree_runs()
    bad = [
        label for _, fps in runs for label, _, fp in fps if fp.b1 != 0
    ]
    ok = not bad and elapsed < 30.0
    report(5, ok, f"10 trees, all grid fingerprints b1=0, {elapsed:.1f}s")
    assert ok, bad[:5]


def test_criterion_6_euler_bounds():
    # The single-count bounds follow from counting: a level has at least one
    # vertex and at most 6|E| - n0 edges.  The doubled variant
    # chi >= 1 + 2*n0 - 6|E| is false (a connected level has chi <= 1, so it
    # would need n0 <= 3|E|); TestEulerBounds.test_doubled_margin_can_go_negative
    # pins that down.  The bounds are recomputed here rather than read from
    # euler_bounds_check, so this stays independent of the engine's own check.
    fps = fingerprints_2_to_5()
    violations = []
    for label, E, fp in fps:
        if fp.chi < 1 + fp.n0 - 6 * E or fp.b1 > 6 * E - fp.n0:
            violations.append((label, E, fp.chi, fp.n0, fp.b1))
    ok = not violations
    detail = (
        f"all {len(fps)} fingerprints satisfy chi >= 1 + n0 - 6|E| "
        "and b1 <= 6|E| - n0"
    )
    if violations:
        label, E, chi, n0, b1 = violations[0]
        detail = (
            f"{len(violations)} violations; first at {label}: chi={chi}, "
            f"n0={n0}, b1={b1}, |E|={E} (bounds demand chi >= {1 + n0 - 6 * E}, "
            f"b1 <= {6 * E - n0})"
        )
    report(6, ok, detail)
    assert ok, detail


def test_criterion_7_critical_grid():
    t0 = time.perf_counter()
    rng = random.Random(7)
    mismatches = []
    for seed in range(10):
        g = fixtures.random_connected(7, extra_edges=seed % 3, seed=seed)
        assert g.num_edges <= 20
        grid = [F(0)] + candidate_grid(g)
        for a, b in zip(grid, grid[1:]):
            mid_code = fingerprint(project(g, (a + b) / 2)).canonical_code
            for _ in range(3):
                r = a + (b - a) * F(rng.randrange(1, 16), 16)
                code = fingerprint(project(g, r)).canonical_code
                if code != mid_code:
                    mismatches.append((seed, a, b, r))
    elapsed = time.perf_counter() - t0
    ok = not mismatches and elapsed < 120.0
    report(7, ok, f"10 graphs, off-grid loci constant per interval, {elapsed:.1f}s")
    assert ok, mismatches[:5]


def test_criterion_8_semiflow_laws():
    rng = random.Random(8)
    failures = []

    def rand_r(lo, hi, den=16):
        span = hi - lo
        return lo + span * F(rng.randrange(1, den + 1), den)

    for case in range(200):
        g = GRAPH_POOL[case % len(GRAPH_POOL)]
        x, y = rand_point(g, rng), rand_point(g, rng)
        ecc = g.eccentricity(x)

        # dilation semigroup
        A = union(g, closed_ball(g, x, rand_r(F(0), F(1))), closed_ball(g, y, rand_r(F(0), F(1))))
        s, t = rand_r(F(0), F(1)), rand_r(F(0), F(1))
        if not sets_equal(g, dilate(g, dilate(g, A, s), t), dilate(g, A, s + t)):
            failures.append(("semigroup", case))

        # trajectory geodesy
        s2 = rand_r(F(0), ecc)
        t2 = rand_r(s2, ecc)
        if hausdorff(g, closed_ball(g, x, s2), closed_ball(g, x, t2)) != t2 - s2:
            failures.append(("geodesy", case))

        # projection is 1-Lipschitz
        r = rand_r(F(0), g.diameter())
        h = hausdorff(g, closed_ball(g, x, r), closed_ball(g, y, r))
        if h > g.point_distance(x, y):
            failures.append(("lipschitz", case))

        # strict nesting below the eccentricity
        lo = rand_r(F(0), ecc)
        hi = rand_r(lo, ecc)
        if lo < hi:
            small, big = closed_ball(g, x, lo), closed_ball(g, x, hi)
            if not sets_equal(g, union(g, small, big), big) or sets_equal(g, small, big):
                failures.append(("nesting", case))

        # Lyapunov strictly decreasing until the whole space is reached
        B = closed_ball(g, x, lo)
        if not sets_equal(g, B, full_set(g)):
            step = rand_r(F(0), F(1))
            if lyapunov(g, dilate(g, B, step)) >= lyapunov(g, B):
                failures.append(("lyapunov", case))

        # merging is monotone: equal at mu, equal ever after, unequal before
        mu = merge_radius(g, x, y)
        if x != y:
            later = mu + rand_r(F(0), F(1))
            if not sets_equal(g, closed_ball(g, x, later), closed_ball(g, y, later)):
                failures.append(("monotone-after", case))
            if mu > 0:
                before = mu - rand_r(F(0), mu) / 2
                if sets_equal(g, closed_ball(g, x, before), closed_ball(g, y, before)):
                    failures.append(("monotone-before", case))

    ok = not failures
    report(8, ok, f"200 cases x 6 laws, {len(failures)} failures")
    assert ok, failures[:5]


def test_criterion_9_hausdorff_oracle():
    rng = random.Random(9)
    worst = F(0)
    ok = True
    for case in range(100):
        g = GRAPH_POOL[case % len(GRAPH_POOL)]
        A = closed_ball(g, rand_point(g, rng), F(rng.randrange(1, 33), 16))
        B = closed_ball(g, rand_point(g, rng), F(rng.randrange(1, 33), 16))
        gap = abs(hausdorff(g, A, B) - hausdorff_oracle(g, A, B, 64))
        worst = max(worst, gap)
        if gap > F(1, 64):
            ok = False
    report(9, ok, f"100 ball pairs, worst oracle gap {worst}")
    assert ok


def test_criterion_10_ultrametric():
    graphs = [
        fixtures.random_connected(5, 0, 0),
        fixtures.random_connected(5, 0, 1),
        fixtures.random_connected(4, 1, seed=0),
        fixtures.random_connected(4, 1, seed=1),
        fixtures.random_connected(6, 0, 2),
    ]
    ok = True
    detail = []
    for g in graphs:
        pts = [g.canonical_point(p) for p in sample_points(g, F(1, 4))]
        if not ultrametric_check(pairwise_matrix(g, pts)).ok:
            ok = False
            detail.append(f"{g.name}: triangle violation")
            continue
        d = merge_tree(g, pts)
        for r in candidate_grid(g):
            cut = sorted(tuple(sorted(c)) for c in d.clusters_at(r))
            brute = sorted(tuple(sorted(c)) for c in brute_classes(g, r, pts))
            if cut != brute:
                ok = False
                detail.append(f"{g.name} at {r}: cut != ball classes")
    report(10, ok, "; ".join(detail) or "5 graphs, all triples and cuts agree")
    assert ok, detail


def big_graph():
    rng = random.Random(11)
    n = 150
    vs = [f"v{i}" for i in range(n)]
    edges = [
        {"u": vs[rng.randrange(i)], "v": vs[i], "len": 1} for i in range(1, n)
    ]
    while len(edges) < 200:
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            edges.append({"u": vs[a], "v": vs[b], "len": 1})
    return load_graph({"name": "big200", "vertices": vs, "edges": edges})


def test_criterion_11_performance():
    g = big_graph()
    assert g.num_edges == 200
    t0 = time.perf_counter()
    t = timeline(g)
    elapsed = time.perf_counter() - t0
    ok = elapsed < 60.0 and t.entries[-1].fingerprint.is_point
    report(
        11,
        ok,
        f"200-edge timeline: {len(t.entries)} loci, "
        f"{t.distinct_type_count} types, {elapsed:.1f}s",
    )
    assert ok
