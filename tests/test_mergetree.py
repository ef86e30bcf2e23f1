import gc
import math
import random
import weakref
from fractions import Fraction as F

import numpy as np
import pytest

from ballflow import balls, cli, fixtures
from ballflow import mergetree
from ballflow.balls import closed_ball, sets_equal
from ballflow.errors import InternalConsistencyError, ValidationError
from ballflow.evolution import robustness_radius
from ballflow.graph import GraphPoint, load_graph
from ballflow.mergetree import (
    Dendrogram,
    MergeEvent,
    MergeMatrix,
    ball_check,
    dendrogram_from_matrix,
    merge_radii,
    merge_radius,
    merge_tree,
    sample_points,
    ultrametric_check,
)
from ballflow.quotient import _cells

from conftest import (
    ball_check_oracle,
    brute_classes,
    closed_ball_oracle,
    extinction_oracle,
    grid_points,
    merge_radius_oracle,
    merge_sweep_oracle,
    pairwise_matrix,
)
from test_acceptance import big_graph


def star4():
    return load_graph(
        {
            "name": "star4",
            "vertices": ["c", "a", "b", "d", "e"],
            "edges": [{"u": "c", "v": leaf} for leaf in "abde"],
        }
    )


def tips(g):
    deg = {}
    for u, v in g.edges:
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    return [g.vertex_point(v) for v, d in deg.items() if d == 1]


class TestMergeRadius:
    def test_ball_cache_never_serves_another_graphs_balls(self):
        # graphs are built and dropped in turn, so a cache keyed on id(g)
        # would hand one graph's balls to a later graph that reuses the id;
        # the bisection oracle is the one reader of the cache
        p, q = GraphPoint(0, F(1, 2)), GraphPoint(2, F(1, 2))
        makers = [lambda: fixtures.cycle(4), star4]
        expected = []
        for make in makers:
            mergetree._ball_cache.clear()
            expected.append(merge_radius_oracle(make(), p, q))
        assert expected == [F(2), F(3, 2)]
        wrong = unfilled = 0
        for i in range(400):
            g = makers[i % 2]()
            wrong += merge_radius_oracle(g, p, q) != expected[i % 2]
            unfilled += not mergetree._ball_cache.get(g)
        mergetree._ball_cache.clear()
        assert (wrong, unfilled) == (0, 0)

    def test_ball_cache_lets_a_dropped_graph_go(self):
        g = fixtures.cycle(4)
        assert merge_radius_oracle(g, GraphPoint(0, F(1, 2)), GraphPoint(2, F(1, 2))) == 2
        assert mergetree._ball_cache[g]
        dead = weakref.ref(g)
        del g
        gc.collect()
        assert dead() is None

    def test_same_point_zero(self, theta_g):
        p = GraphPoint(0, F(1, 2))
        assert merge_radius(theta_g, p, p) == 0
        # same point under canonicalization (edge endpoint vs vertex)
        u, _ = theta_g.edges[0]
        assert merge_radius(theta_g, GraphPoint(0, F(0)), theta_g.vertex_point(u)) == 0

    def test_theta_parallel_midpoints(self, theta_g):
        assert merge_radius(theta_g, GraphPoint(0, F(1, 2)), GraphPoint(1, F(1, 2))) == 1

    def test_offsets_past_int64_match_the_oracle(self, theta_g):
        """The graph's distance row and peaks count in Python integers, so
        offsets on 1/2^71, which the merge sweep refuses, still give the
        oracles' merge radius, Phi and balls, and the distances by hand."""
        eps = F(1, 2**70)
        p, q = GraphPoint(0, eps), GraphPoint(1, F(3, 2**71))
        assert merge_radius(theta_g, p, q) == merge_radius_oracle(theta_g, p, q) == 2
        for x in (p, q):
            assert theta_g.eccentricity(x) == extinction_oracle(theta_g, x) == 2
            for r in (eps / 2, F(1, 2), F(1), F(3, 2) + eps):
                assert repr(closed_ball(theta_g, x, r)) == repr(closed_ball_oracle(theta_g, x, r)), (x, r)
        # p lies eps past u on u-v, q 3/2 eps past u on the parallel u-v, and
        # the vertices are u, v, w1, w2 on the cycle u-w1-w2-v-u
        assert theta_g.point_distance(p, q) == F(5, 2) * eps
        assert theta_g.point_distance(p, GraphPoint(3, F(1, 2))) == F(3, 2) + eps
        assert theta_g.point_vertex_distances(p) == [eps, 1 - eps, 1 + eps, 2 - eps]

    def test_path_samples(self, path_g):
        b = path_g.vertex_point(1)
        m1 = GraphPoint(0, F(1, 2))
        assert merge_radius(path_g, b, m1) == F(3, 2)
        assert merge_radius(path_g, path_g.vertex_point(0), b) == 2

    def test_symmetry(self, c6_g):
        rng = random.Random(3)
        for _ in range(10):
            p = GraphPoint(rng.randrange(c6_g.num_edges), F(rng.randrange(0, 5), 4))
            q = GraphPoint(rng.randrange(c6_g.num_edges), F(rng.randrange(0, 5), 4))
            assert merge_radius(c6_g, p, q) == merge_radius(c6_g, q, p)

    def test_merge_is_first_equality_radius(self, theta_g):
        # dual route: at mu the exact balls agree, just below they do not
        p, q = GraphPoint(2, F(1, 2)), GraphPoint(2, F(3, 4))
        mu = merge_radius(theta_g, p, q)
        assert sets_equal(
            theta_g, closed_ball(theta_g, p, mu), closed_ball(theta_g, q, mu)
        )
        eps = F(1, 256)
        assert not sets_equal(
            theta_g,
            closed_ball(theta_g, p, mu - eps),
            closed_ball(theta_g, q, mu - eps),
        )


SWEEP_GRAPHS = {
    "path": fixtures.path,
    "theta": fixtures.theta,
    "c6": fixtures.c6,
    "comb3": lambda: fixtures.comb(3),
    "tree8s1": lambda: fixtures.random_tree(8, 1),
    "tree9s2": lambda: fixtures.random_tree(9, 2),
}


def count_sweep_calls(monkeypatch) -> list:
    """Record each `ball_keys` call of the merge sweep as (its distinct radii
    in order, its row count)."""
    real, calls = mergetree.ball_keys, []

    def counted(g, r, cells, S):
        calls.append(([F(r)] if np.ndim(r) == 0 else [F(R, S) for R in dict.fromkeys(r.tolist())], len(cells)))
        return real(g, r, cells, S)

    monkeypatch.setattr(mergetree, "ball_keys", counted)
    return calls


def sweep_cells(g, pts):
    """`merge_tree`'s cell rows (edge, offset * S) of the canonical points, and S."""
    pts = [g.canonical_point(p) for p in pts]
    S = math.lcm(*(p.t.denominator for p in pts))
    return np.array([(p.edge, int(p.t * S)) for p in pts], dtype=np.int64), S


def assert_sweeps_agree(g, cells, S):
    got = [(r, label.tolist()) for r, label in mergetree._merge_sweep(g, cells, S)]
    assert got == [(r, label.tolist()) for r, label in merge_sweep_oracle(g, cells, S)]
    assert got


def duplicate_vertex_points(g):
    """Vertex u of the theta given by two different incidences, and a point
    at t = 1/3 that refines the sweep grid to sixths."""
    u = g.edges[0][0]
    e = next(e for e in range(1, g.num_edges) if u in g.edges[e])
    other = GraphPoint(e, F(0) if g.edges[e][0] == u else F(1))
    return [GraphPoint(0, F(0)), GraphPoint(2, F(1, 2)), other, GraphPoint(3, F(1, 3))]


def assert_matches_pairwise(g, m):
    for i, p in enumerate(m.points):
        assert m.mu[i][i] == 0
        for j in range(i + 1, len(m.points)):
            mu = merge_radius_oracle(g, p, m.points[j])
            assert m.mu[i][j] == m.mu[j][i] == mu == merge_radius(g, p, m.points[j]), (i, j)


class TestMergeRadii:
    """The batched closed form against the bisection over exact balls."""

    @pytest.mark.parametrize("chunk", [None, 64], ids=["one-chunk", "chunks"])
    @pytest.mark.parametrize("name", list(SWEEP_GRAPHS))
    def test_batched_radii_match_the_bisection(self, name, chunk, monkeypatch):
        """`merge_radii` on every pair of the points at step 1/2, a point and
        itself included, in one chunk and in chunks of a few pairs."""
        g = SWEEP_GRAPHS[name]()
        pts = [g.canonical_point(p) for p in sample_points(g, F(1, 2))]
        if chunk:
            monkeypatch.setattr(mergetree, "_CHUNK_ENTRIES", chunk)
        a, b = np.triu_indices(len(pts))
        mu, M = merge_radii(g, pts, a, b)
        pairs = zip(a.tolist(), b.tolist())
        assert [F(x, M) for x in mu] == [merge_radius_oracle(g, pts[i], pts[j]) for i, j in pairs]

    @pytest.mark.parametrize("k, dtype", [(20, np.int32), (40, np.int64), (70, object)])
    def test_batched_radii_in_each_dtype_match_the_oracle(self, theta_g, k, dtype):
        """Offsets on 1/2^(k + 1) put 2L (max D + 2) = 2^(k + 4) past int16,
        past int32 and past `INT64_SAFE`: the rows are int32, int64 and
        Python integers."""
        pts = [GraphPoint(0, F(1, 2**k)), GraphPoint(1, F(3, 2 ** (k + 1))), GraphPoint(2, F(1, 2)), theta_g.vertex_point(3)]
        assert theta_g.peak_rows([0], [2], 2 ** (k + 1))[1].dtype == dtype
        a, b = np.triu_indices(len(pts), 1)
        mu, M = merge_radii(theta_g, pts, a, b)
        assert M == 2 ** (k + 2)
        pairs = zip(a.tolist(), b.tolist())
        assert [F(x, M) for x in mu] == [merge_radius_oracle(theta_g, pts[i], pts[j]) for i, j in pairs]


class TestMergeSweep:
    """The radius sweep's matrix against pairwise bisection and the closed
    form."""

    @pytest.mark.parametrize(
        "step", [F(1, 2), F(1, 3), F(1, 4), F(1, 6)], ids=["half", "third", "quarter", "sixth"]
    )
    @pytest.mark.parametrize("name", list(SWEEP_GRAPHS))
    def test_matches_pairwise_bisection(self, name, step):
        g = SWEEP_GRAPHS[name]()
        pts = sample_points(g, step)
        m = merge_tree(g, pts).matrix()
        assert m.points == tuple(g.canonical_point(p) for p in pts)
        assert_matches_pairwise(g, m)

    def test_duplicate_vertex_and_third_offset(self, theta_g):
        m = merge_tree(theta_g, duplicate_vertex_points(theta_g)).matrix()
        assert m.mu[0][2] == m.mu[2][0] == 0
        assert_matches_pairwise(theta_g, m)

    def test_comb5_keys_one_radius_per_grid_step(self, monkeypatch):
        """The sweep's work, counted: comb5 at step 1/2 keys each radius of the
        grid 1/2 up to its diameter of 32 once, ascending, a block of radii
        per call; one radius per call took 64 calls, the doubled grid 128."""
        calls = count_sweep_calls(monkeypatch)
        g = fixtures.comb(5)
        merge_tree(g, sample_points(g, F(1, 2)))
        assert [r for radii, _ in calls for r in radii] == [F(k, 2) for k in range(1, 65)]
        assert len(calls) <= 10
        assert max(rows for _, rows in calls) <= mergetree.SWEEP_BLOCK_ROWS

    def test_offsets_past_int64_keys_are_refused(self, path_g):
        """Offsets on 1/2^k need a sweep of 2^k steps per unit radius, whose
        key rows pass the int64 range (at k = 70 so do the offsets): the grid
        is refused before any row is built."""
        for k in (62, 70):
            points = [path_g.vertex_point(2), GraphPoint(1, F(1, 2**k))]
            with pytest.raises(ValidationError, match="too fine for int64 key rows"):
                merge_tree(path_g, points)

    def test_classes_left_at_diameter_are_an_engine_bug(self, path_g, monkeypatch):
        # every ball distinct at every radius
        monkeypatch.setattr(
            mergetree, "ball_keys", lambda g, r, cells, S: np.arange(len(cells))
        )
        with pytest.raises(InternalConsistencyError, match="differ at the diameter"):
            merge_tree(path_g, sample_points(path_g, F(1, 2))).matrix()


class TestSweepBlocks:
    """The sweep keys a block of radii per call and composes their labels onto
    the block's start; it yields the (r, label) sequence of the sweep that
    keys one radius per call, `merge_sweep_oracle`."""

    @pytest.mark.parametrize(
        "step", [F(1, 2), F(1, 3), F(1, 4), F(1, 6)], ids=["half", "third", "quarter", "sixth"]
    )
    @pytest.mark.parametrize("name", list(SWEEP_GRAPHS))
    def test_sample_points(self, name, step):
        g = SWEEP_GRAPHS[name]()
        assert_sweeps_agree(g, *sweep_cells(g, sample_points(g, step)))

    @pytest.mark.parametrize("name, step", [("comb5", F(1, 16)), ("rand40", F(1, 8))], ids=["comb5", "rand40"])
    def test_fine_grids(self, name, step):
        """comb5 at 1/16 keys 753 points one radius per call until the classes
        fall below 257; rand40 at 1/8 merges early and fast."""
        g = fixtures.comb(5) if name == "comb5" else fixtures.random_connected(40, 20, seed=1)
        assert_sweeps_agree(g, *sweep_cells(g, sample_points(g, step)))

    @pytest.mark.parametrize("name", [*fixtures.BUILTIN, "rand40", "big200"])
    def test_failing_level_representatives(self, name):
        """The cells that `robustness --exact` sweeps, swept to the end."""
        g = {"rand40": lambda: fixtures.random_connected(40, 20, seed=1), "big200": big_graph}.get(
            name, lambda: fixtures.builtin(name)
        )()
        c = _cells(g, robustness_radius(g).upper)
        assert_sweeps_agree(g, c.representatives(), c.S)


class TestSweepTree:
    """The sweep's events against the threshold partitions of the pairwise
    merge radii."""

    @pytest.mark.parametrize("name", list(SWEEP_GRAPHS) + ["duplicate-vertex"])
    def test_equals_the_pairwise_oracle(self, name):
        if name == "duplicate-vertex":
            g = fixtures.theta()
            pts = duplicate_vertex_points(g)
        else:
            g = SWEEP_GRAPHS[name]()
            pts = sample_points(g, F(1, 2))
        assert merge_tree(g, pts) == dendrogram_from_matrix(pairwise_matrix(g, pts))


class TestBallCheck:
    """The exact-ball check that merge-tree runs on the sweep's tree."""

    @pytest.mark.parametrize("name", ["path", "theta", "c6", "comb3"])
    def test_passes_on_the_sweep(self, name):
        g = SWEEP_GRAPHS[name]()
        assert ball_check(g, merge_tree(g, sample_points(g, F(1, 4)))) == ()

    def test_flags_a_radius_one_step_off(self, theta_g):
        # ball_check's step 1 / (2 * lcm(2, 1, 2)) = 1/4, half a sweep step
        d = merge_tree(theta_g, [GraphPoint(0, F(0)), GraphPoint(2, F(1, 2))])
        (ev,) = d.events
        assert ball_check(theta_g, d) == ()
        for wrong in (ev.radius - F(1, 4), ev.radius + F(1, 4)):
            moved = Dendrogram(d.points, (MergeEvent(wrong, ev.clusters),))
            assert ball_check(theta_g, moved) == ((0, 1),)

    @pytest.mark.parametrize("name", ["path", "theta", "comb3"])
    def test_flags_exactly_the_joins_of_a_moved_event(self, name):
        g = SWEEP_GRAPHS[name]()
        d = merge_tree(g, sample_points(g, F(1, 2)))
        step = F(1, 4)  # ball_check's step 1 / (2 * lcm(2, 2)), half a sweep step
        mu = d.matrix().mu
        # j's first nearest earlier point, as ball_check picked it off the matrix
        nearest = {j: min(range(j), key=lambda i: mu[i][j]) for j in range(1, len(mu))}
        for k, ev in enumerate(d.events):
            joins = sorted((i, j) for j, i in nearest.items() if mu[i][j] == ev.radius)
            assert joins, (name, ev.radius)
            for wrong in (ev.radius - step, ev.radius + step):
                events = list(d.events)
                events[k] = MergeEvent(wrong, ev.clusters)
                moved = Dendrogram(d.points, tuple(events))
                assert sorted(ball_check(g, moved)) == joins, (name, ev.radius, wrong)

    @pytest.mark.parametrize("name, step", [("path", F(1, 2)), ("theta", F(1, 3)), ("comb3", F(1, 2))])
    def test_off_grid_radii(self, name, step):
        """An event moved up by 1/(3 den) keeps equal balls at its radius and
        unequal ones half a step below; moved down by as much, it flags its
        joins.  Neither radius lies on ball_check's 1/(2 den) grid, so only
        an L that holds the radii's own denominators reads them right."""
        g = SWEEP_GRAPHS[name]()
        d = merge_tree(g, sample_points(g, step))
        third = F(1, 3 * math.lcm(2, step.denominator))
        mu = d.matrix().mu
        nearest = {j: min(range(j), key=lambda i: mu[i][j]) for j in range(1, len(mu))}
        for k, ev in enumerate(d.events):
            joins = sorted((i, j) for j, i in nearest.items() if mu[i][j] == ev.radius)
            for shift, flagged in ((third, []), (-third, joins)):
                events = list(d.events)
                events[k] = MergeEvent(ev.radius + shift, ev.clusters)
                moved = Dendrogram(d.points, tuple(events))
                assert sorted(ball_check(g, moved)) == flagged, (name, ev.radius, shift)

    @pytest.mark.parametrize(
        "name, step",
        [(name, step) for name in SWEEP_GRAPHS for step in (F(1, 2), F(1, 3), F(1, 4))]
        + [("comb5", F(1, 2)), ("rand40", F(1, 8))],
        ids=lambda x: str(x),
    )
    def test_flags_the_pairs_of_the_exact_ball_oracle(self, name, step):
        """Against `ball_check_oracle` on the sweep's tree, with every event
        moved by +-half a step and by +-1/(3 den), and with the first event
        moved below half a step, where the oracle's ball half a step below
        has a negative radius."""
        g = {"comb5": lambda: fixtures.comb(5), "rand40": lambda: fixtures.random_connected(40, 20, seed=1)}.get(
            name, SWEEP_GRAPHS.get(name)
        )()
        d = merge_tree(g, sample_points(g, step))
        den = math.lcm(2, step.denominator)
        half, third = F(1, 2 * den), F(1, 3 * den)
        first, *rest = d.events

        def shifted(shift):
            return Dendrogram(d.points, tuple(MergeEvent(ev.radius + shift, ev.clusters) for ev in d.events))

        trees = {
            "unmoved": d,
            "+half": shifted(half),
            "-half": shifted(-half),
            "+third": shifted(third),
            "-third": shifted(-third),
            "first below half": Dendrogram(d.points, (MergeEvent(half / 2, first.clusters), *rest)),
        }
        for case, tree in trees.items():
            flagged = ball_check(g, tree)
            assert flagged == ball_check_oracle(g, tree), (name, step, case)
            # only events left in place or moved up by less than half a step pass
            assert bool(flagged) == (case not in ("unmoved", "+third")), (name, step, case)

    def test_builds_no_ball(self, monkeypatch):
        """The check reads closed-form radii: on comb5 at step 1/2 it builds
        neither a `ball_row` nor a `closed_ball`."""
        g = fixtures.comb(5)
        d = merge_tree(g, sample_points(g, F(1, 2)))

        def no_ball(*args):
            raise AssertionError("ball_check built a ball")

        monkeypatch.setattr(balls, "ball_row", no_ball)
        monkeypatch.setattr(mergetree, "closed_ball", no_ball)
        assert ball_check(g, d) == ()
        *head, root = d.events
        late = Dendrogram(d.points, (*head, MergeEvent(root.radius + 1, root.clusters)))
        assert ball_check(g, late)

    def test_merge_tree_exits_3_on_a_wrong_matrix(self, monkeypatch, capsys):
        # the root event of path at step 1/2 comes one unit late: point 1
        # first joins point 0 there, at 3 instead of 2
        def late(g, points):
            d = merge_tree(g, points)
            *head, root = d.events
            return Dendrogram(d.points, (*head, MergeEvent(root.radius + 1, root.clusters)))

        monkeypatch.setattr(mergetree, "merge_tree", late)
        assert cli.main(["merge-tree", "builtin:path", "--resolution", "1/2"]) == 3
        err = capsys.readouterr().err
        assert "contradict the exact balls at pairs ((0, 1)" in err
        # the graph, both points of the first bad pair and their radius
        assert "of path; first (e0@0) and (e0@1) with mu_user 3 (internal 3)" in err


class TestExtinction:
    """The extinction radius of p is Phi(p): the bisection oracle against
    `eccentricity`."""

    def test_equals_eccentricity(self):
        for name in ["path", "theta", "c6"]:
            g = fixtures.builtin(name)
            for p in grid_points(g, 2):
                assert extinction_oracle(g, p) == g.eccentricity(p), (name, p)

    def test_comb_center(self):
        g = fixtures.comb(3)
        for p in tips(g):
            assert extinction_oracle(g, p) == g.eccentricity(p)


class TestSampling:
    def test_theta_half_step(self, theta_g):
        assert len(sample_points(theta_g, F(1, 2))) == 9

    def test_counts(self, c6_g):
        assert len(sample_points(c6_g, F(1))) == c6_g.num_vertices
        assert len(sample_points(c6_g, F(1, 4))) == c6_g.num_vertices + 3 * c6_g.num_edges

    def test_bad_step(self, c6_g):
        with pytest.raises(ValidationError):
            sample_points(c6_g, F(3, 8))


class TestUltrametric:
    def test_holds_on_fixtures(self):
        for name in ["path", "theta", "c6"]:
            g = fixtures.builtin(name)
            assert ultrametric_check(pairwise_matrix(g, sample_points(g, F(1, 2)))).ok, name

    def test_negative_control(self):
        # 1-2-3 chain distances violate the strong triangle inequality
        pts = (GraphPoint(0, F(0)), GraphPoint(0, F(1)), GraphPoint(1, F(1)))
        mu = (
            (F(0), F(1), F(2)),
            (F(1), F(0), F(3)),
            (F(2), F(3), F(0)),
        )
        rep = ultrametric_check(MergeMatrix(pts, mu))
        assert not rep.ok
        assert rep.violations == ((0, 1, 2),)
        with pytest.raises(InternalConsistencyError, match="not an ultrametric"):
            dendrogram_from_matrix(MergeMatrix(pts, mu))


class TestDendrogram:
    def test_path_events(self, path_g):
        pts = sample_points(path_g, F(1, 2))
        d = merge_tree(path_g, pts)
        assert [e.radius for e in d.events] == [F(3, 2), F(2)]
        assert d.root_radius == 2
        # at 3/2 the center vertex and both edge midpoints coincide
        merged = next(c for c in d.events[0].clusters if len(c) > 1)
        merged_pts = {(pts[i].edge, pts[i].t) for i in merged}
        assert merged_pts == {(0, F(1, 2)), (0, F(1)), (1, F(1, 2))}

    @pytest.mark.parametrize("name", ["path", "theta", "c6", "comb3", "duplicate-vertex"])
    def test_cuts_match_brute_ball_classes(self, name):
        if name == "duplicate-vertex":
            g = fixtures.theta()
            pts = [g.canonical_point(p) for p in duplicate_vertex_points(g)]
        else:
            g = SWEEP_GRAPHS[name]()
            pts = [g.canonical_point(p) for p in sample_points(g, F(1, 2))]
        d = merge_tree(g, pts)
        # 0, every event radius, the midpoints between them, and past the root
        radii = [F(0)] + [ev.radius for ev in d.events] + [d.root_radius + 1]
        for r in sorted(set(radii) | {(a + b) / 2 for a, b in zip(radii, radii[1:])}):
            cut = sorted(tuple(sorted(c)) for c in d.clusters_at(r))
            brute = sorted(tuple(sorted(c)) for c in brute_classes(g, r, pts))
            assert cut == brute, r

    def test_root_is_max_eccentricity_of_samples(self, c6_g):
        pts = sample_points(c6_g, F(1, 2))
        d = merge_tree(c6_g, pts)
        assert d.root_radius == max(c6_g.eccentricity(p) for p in pts)


class TestCombScaling:
    def min_tip_mu_user(self, g):
        ts = tips(g)
        best = None
        for i, p in enumerate(ts):
            for q in ts[i + 1:]:
                mu = merge_radius(g, p, q)
                if best is None or mu < best:
                    best = mu
        return g.to_user(best)

    def test_min_tip_merge_halves(self):
        assert self.min_tip_mu_user(fixtures.comb(3)) == F(1, 2)
        assert self.min_tip_mu_user(fixtures.comb(4)) == F(1, 4)
