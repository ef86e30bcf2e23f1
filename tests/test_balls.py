import random
from fractions import Fraction as F
from itertools import combinations

import pytest

from ballflow import fixtures
from ballflow.balls import (
    ball_to_json,
    closed_ball,
    dilate,
    full_set,
    hausdorff,
    lyapunov,
    set_length,
    sets_equal,
    sphere,
    union,
)
from ballflow.errors import ValidationError
from ballflow.graph import GraphPoint

from conftest import (
    ball_from_json,
    closed_ball_oracle,
    empty_set,
    grid_points,
    hausdorff_oracle,
    integer_ball,
    integer_coverage,
    random_connected,
)


def rand_point(g, rng):
    return GraphPoint(rng.randrange(g.num_edges), F(rng.randrange(0, 9), 8))


def rand_ball(g, rng):
    return closed_ball(g, rand_point(g, rng), F(rng.randrange(0, 17), 8))


ORACLE_GRAPHS = {
    "path": fixtures.path,
    "theta": fixtures.theta,
    "c6": fixtures.c6,
    "comb3": lambda: fixtures.comb(3),
    # two unit loops and a pair of parallel unit edges
    "rand6+4s21": lambda: random_connected(6, 4, 21),
}


def assert_rows_are_balls(g, offsets=(F(1, 3), F(5, 8))):
    """At each k/24 up to the diameter, where every ball is X, the `ball_row`
    at L = 24 about each vertex and each point at the given offsets of each
    edge is the integer coverage of `closed_ball` and of `closed_ball_oracle`,
    and two rows are equal iff `sets_equal` holds of their balls."""
    pts = [g.vertex_point(v) for v in range(g.num_vertices)]
    pts += [GraphPoint(e, t) for e in range(g.num_edges) for t in offsets]
    for k in range(int(24 * g.diameter()) + 1):
        r = F(k, 24)
        rows = [integer_ball(g, p, r, 24) for p in pts]
        balls = [closed_ball(g, p, r) for p in pts]
        for p, row, ball in zip(pts, rows, balls):
            assert row == integer_coverage(ball.coverage, 24), (g.name, p, r)
            assert row == integer_coverage(closed_ball_oracle(g, p, r).coverage, 24), (g.name, p, r)
        for (a, A), (b, B) in combinations(zip(rows, balls), 2):
            assert (a == b) == sets_equal(g, A, B), (g.name, r, A.meta, B.meta)


class TestClosedBall:
    @pytest.mark.parametrize("name", sorted(ORACLE_GRAPHS))
    def test_matches_fraction_oracle(self, name):
        # coverage and meta, Fraction for Fraction, against the per-edge
        # Fraction construction; then the integer rows at every k/24
        g = ORACLE_GRAPHS[name]()
        tiny = F(1, 10**20)
        centres = [g.vertex_point(v) for v in range(g.num_vertices)]
        for e in range(g.num_edges):
            centres += [GraphPoint(e, t) for t in (F(1, 3), F(2, 3), F(1, 4), F(3, 4), tiny, 1 - tiny)]
        diam = g.diameter()
        radii = {F(0), tiny, 2 * tiny, F(1, 3), F(7, 10), F(5, 6), F(1, 2) + tiny}
        radii |= {F(k, 4) for k in range(1, 4 * diam.__ceil__() + 1)}
        radii |= {diam - tiny, diam, diam + F(1, 3), 2 * diam}
        for p in centres:
            for r in sorted(radii):
                assert repr(closed_ball(g, p, r)) == repr(closed_ball_oracle(g, p, r)), (p, r)
        assert_rows_are_balls(g)

    def test_zero_radius_is_singleton(self, path_g):
        b = closed_ball(path_g, GraphPoint(0, F(1, 4)), F(0))
        assert b.coverage[0] == ((F(1, 4), F(1, 4)),)
        assert set_length(path_g, b) == 0

    def test_negative_radius_rejected(self, path_g):
        with pytest.raises(ValidationError):
            closed_ball(path_g, GraphPoint(0, F(0)), F(-1))

    def test_ball_covers_exactly_near_points(self, theta_g):
        p = GraphPoint(0, F(1, 2))
        b = closed_ball(theta_g, p, F(3, 4))
        for q in grid_points(theta_g, 8):
            assert b.covers(q.edge, q.t) == (
                theta_g.point_distance(p, q) <= F(3, 4)
            )

    def test_full_at_eccentricity(self, theta_g):
        # extinction identity at exactly ecc, strict below
        for p in [GraphPoint(0, F(1, 2)), theta_g.vertex_point(2)]:
            ecc = theta_g.eccentricity(p)
            assert sets_equal(theta_g, closed_ball(theta_g, p, ecc), full_set(theta_g))
            small = closed_ball(theta_g, p, ecc - F(1, 1024))
            assert not sets_equal(theta_g, small, full_set(theta_g))

    def test_theta_parallel_midpoints_merge_at_one(self, theta_g):
        m1, m2 = GraphPoint(0, F(1, 2)), GraphPoint(1, F(1, 2))
        assert sets_equal(
            theta_g, closed_ball(theta_g, m1, F(1)), closed_ball(theta_g, m2, F(1))
        )
        assert not sets_equal(
            theta_g,
            closed_ball(theta_g, m1, F(15, 16)),
            closed_ball(theta_g, m2, F(15, 16)),
        )


class TestDilation:
    def test_semigroup_law(self):
        rng = random.Random(2)
        for name in ["path", "theta", "c6"]:
            g = fixtures.builtin(name)
            for _ in range(10):
                A = union(g, rand_ball(g, rng), rand_ball(g, rng))
                s, t = F(rng.randrange(1, 9), 8), F(rng.randrange(1, 9), 8)
                assert sets_equal(g, dilate(g, dilate(g, A, s), t), dilate(g, A, s + t))

    def test_dilate_ball_is_bigger_ball(self, c6_g):
        p = GraphPoint(2, F(1, 4))
        assert sets_equal(
            c6_g,
            dilate(c6_g, closed_ball(c6_g, p, F(1, 2)), F(3, 4)),
            closed_ball(c6_g, p, F(5, 4)),
        )

    def test_strict_nesting(self, theta_g):
        p = GraphPoint(2, F(1, 2))
        small = closed_ball(theta_g, p, F(1, 2))
        big = closed_ball(theta_g, p, F(3, 4))
        assert sets_equal(theta_g, union(theta_g, small, big), big)
        assert set_length(theta_g, big) > set_length(theta_g, small)

    def test_dilating_empty_rejected(self, path_g):
        with pytest.raises(ValidationError):
            dilate(path_g, empty_set(path_g), F(1, 2))


class TestLyapunov:
    def test_decreases_to_zero(self, theta_g):
        p = GraphPoint(0, F(1, 2))
        values = [
            lyapunov(theta_g, closed_ball(theta_g, p, r))
            for r in [F(0), F(1, 2), F(1), F(3, 2), F(2)]
        ]
        assert values[0] == 1
        assert values[-1] == 0
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_theta_unit_ball_length(self, theta_g):
        b = closed_ball(theta_g, GraphPoint(0, F(1, 2)), F(1))
        assert set_length(theta_g, b) == 3
        assert lyapunov(theta_g, b) == F(2, 5)


class TestSphere:
    def test_path_sphere(self, path_g):
        bps = sphere(path_g, GraphPoint(0, F(0)), F(1, 2))
        assert [(bp.point.edge, bp.point.t) for bp in bps] == [(0, F(1, 2))]
        assert bps[0].outer

    def test_sphere_empty_iff_ball_full(self, theta_g):
        for p in grid_points(theta_g, 2):
            ecc = theta_g.eccentricity(p)
            for r in [F(1, 2), F(1), F(3, 2), F(2), F(5, 2)]:
                bps = sphere(theta_g, p, r)
                prior_full = sets_equal(
                    theta_g,
                    closed_ball(theta_g, p, r - F(1, 1024)),
                    full_set(theta_g),
                )
                assert (len(bps) == 0) == prior_full, (p, r, ecc)

    def test_outer_flags_on_theta(self, theta_g):
        # boundary of the unit ball about the midpoint of a parallel edge:
        # the point on the other parallel edge is interior, the two points
        # on the 3-path are outer
        bps = sphere(theta_g, GraphPoint(0, F(1, 2)), F(1))
        flags = {(bp.point.edge, bp.point.t): bp.outer for bp in bps}
        assert flags[(1, F(1, 2))] is False
        outer = [key for key, v in flags.items() if v]
        assert len(outer) == 2


class TestHausdorff:
    def test_known_values(self, path_g, theta_g):
        a = closed_ball(path_g, GraphPoint(0, F(0)), F(1, 2))
        b = closed_ball(path_g, GraphPoint(0, F(0)), F(1))
        assert hausdorff(path_g, a, b) == F(1, 2)
        assert hausdorff(path_g, a, full_set(path_g)) == F(3, 2)

    def test_trajectory_geodesy(self, theta_g):
        x = GraphPoint(2, F(1, 4))
        ecc = theta_g.eccentricity(x)
        for s, t in [(F(1, 4), F(1)), (F(1, 2), F(3, 2)), (F(0), F(2))]:
            assert t <= ecc
            assert (
                hausdorff(
                    theta_g, closed_ball(theta_g, x, s), closed_ball(theta_g, x, t)
                )
                == t - s
            )

    def test_projection_lipschitz(self, c6_g):
        rng = random.Random(5)
        for _ in range(20):
            x, y = rand_point(c6_g, rng), rand_point(c6_g, rng)
            r = F(rng.randrange(1, 13), 8)
            d = c6_g.point_distance(x, y)
            h = hausdorff(
                c6_g, closed_ball(c6_g, x, r), closed_ball(c6_g, y, r)
            )
            assert h <= d

    def test_against_sampling_oracle(self):
        rng = random.Random(9)
        for name in ["path", "theta", "c6"]:
            g = fixtures.builtin(name)
            for _ in range(10):
                A, B = rand_ball(g, rng), rand_ball(g, rng)
                exact = hausdorff(g, A, B)
                approx = hausdorff_oracle(g, A, B, 64)
                assert abs(exact - approx) <= F(1, 64), (name, A.meta, B.meta)

    def test_empty_rejected(self, path_g):
        with pytest.raises(ValidationError):
            hausdorff(path_g, empty_set(path_g), full_set(path_g))


class TestMonotoneMerging:
    def test_once_equal_always_equal(self, theta_g):
        p, q = GraphPoint(0, F(1, 2)), GraphPoint(1, F(1, 2))
        for extra in [F(1, 8), F(1, 2), F(1)]:
            r = F(1) + extra
            assert sets_equal(
                theta_g, closed_ball(theta_g, p, r), closed_ball(theta_g, q, r)
            )


class TestSerialization:
    def test_round_trip(self, theta_g):
        b = closed_ball(theta_g, GraphPoint(0, F(1, 3)), F(5, 6))
        doc = ball_to_json(theta_g, b)
        assert sets_equal(theta_g, ball_from_json(theta_g, doc), b)

    def test_user_units_rescaled(self):
        g = fixtures.comb(3)
        b = closed_ball(g, g.vertex_point(0), F(4))
        doc = ball_to_json(g, b, user_units=True)
        internal = ball_to_json(g, b)
        assert doc != internal
