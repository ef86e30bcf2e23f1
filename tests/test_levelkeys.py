"""The integer ball-class kernel against the exact `Fraction` balls."""

import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest

from ballflow import fixtures, levelkeys, quotient
from ballflow.balls import closed_ball, full_set
from ballflow.errors import InternalConsistencyError
from ballflow.evolution import timeline_loci
from ballflow.graph import GraphPoint, load_graph

from conftest import center_edge_oracle, coverage_classes, level_oracle
from test_acceptance import big_graph

GRAPHS = {
    "path": fixtures.path,
    "theta": fixtures.theta,
    "c6": fixtures.c6,
    "comb3": lambda: fixtures.comb(3),
}


@pytest.mark.parametrize("S", [8, 16])
def test_center_edge_matches_interval_merge(S):
    """Every (H, L, t, R), with H and L past both clip bounds, as key_rows
    feeds them to the centre-edge merge."""
    H, L, t, R = (
        a.ravel()
        for a in np.meshgrid(
            np.arange(-2, S + 2), np.arange(-1, S + 3), np.arange(1, S), np.arange(0, S + 2)
        )
    )
    h, l = np.clip(H, -1, S), np.clip(L, 0, S + 1)
    whole = (h >= l) | (h == S) | (l == 0)
    h, l = np.where(whole, S, h), np.where(whole, 0, l)
    mh, ml, extra = levelkeys._center_edge(S, R, t, h, l)
    for i in range(len(H)):
        pair, merged = center_edge_oracle(S, int(H[i]), int(L[i]), int(t[i]), int(R[i]))
        assert (mh[i], ml[i]) == pair, (H[i], L[i], t[i], R[i])
        if merged is None:
            assert (extra[i] == levelkeys._NO_MIDDLE).all()
        else:
            eh, el, lo, hi = extra[i].tolist()
            expected = ((0, eh),) * (eh >= 0) + ((lo, hi),) + ((el, S),) * (el <= S)
            assert expected == merged, (H[i], L[i], t[i], R[i])


def level_points(g, r):
    """Vertex cells, segment midpoints, quarter and three-quarter points of
    the level at r, as cells and as `GraphPoint`s."""
    c = quotient._cells(g, r)
    width = c.hi - c.lo
    cells = np.concatenate(
        [c.vertex]
        + [np.stack([c.edge, c.lo + k * width // 4], axis=1) for k in (2, 1, 3)]
    )
    return cells, c.S, [GraphPoint(int(e), F(int(t), c.S)) for e, t in cells]


def level_radii(g):
    """Every timeline locus of g, and three radii off its 1/8 grid."""
    return [r for r, _on_grid in timeline_loci(g)] + [F(1, 3), F(5, 12), F(7, 10)]


@pytest.mark.parametrize("name", list(GRAPHS))
def test_classes_match_fraction_balls(name):
    g = GRAPHS[name]()
    for r in level_radii(g):
        cells, S, pts = level_points(g, r)
        labels = levelkeys.ball_keys(g, r, cells, S)
        assert labels.tolist() == coverage_classes(g, r, pts)[0], r


@pytest.mark.parametrize("name", list(GRAPHS))
def test_phi_full_matches_fraction_balls(name):
    """A cell's ball is X iff the interpolated quarter-point table gives
    Phi <= r, at vertex cells, midpoints, quarter and three-quarter points."""
    g = GRAPHS[name]()
    for r in level_radii(g):
        cells, S, pts = level_points(g, r)
        assert quotient._full(g, r, cells, S).tolist() == coverage_classes(g, r, pts)[1], r


def kite():
    """A triangle with a loop, a doubled edge and two pendant edges."""
    edges = ("ab", "ab", "bc", "ca", "ad", "be", "cc")
    return load_graph(
        {"name": "kite", "vertices": list("abcde"), "edges": [{"u": u, "v": v} for u, v in edges]}
    )


LEVEL_GRAPHS = {
    "big200": big_graph,
    "comb5": lambda: fixtures.comb(5),
    "comb3": lambda: fixtures.comb(3),
    "theta": fixtures.theta,
    "c6": fixtures.c6,
    "path": fixtures.path,
    "cycle5": lambda: fixtures.cycle(5),
    "kite": kite,
    **{
        f"rand{n}+{m}s{s}": (lambda n=n, m=m, s=s: fixtures.random_connected(n, m, s))
        for n, m, s in [
            (4, 1, 0), (4, 1, 1), (6, 2, 2), (6, 3, 3), (8, 2, 4), (8, 4, 5),
            (10, 3, 6), (10, 5, 7), (12, 4, 8), (12, 6, 9), (16, 5, 10), (20, 8, 11),
        ]
    },
    **{
        f"tree{n}s{s}": (lambda n=n, s=s: fixtures.random_tree(n, s))
        for n, s in [(5, 0), (6, 1), (8, 2), (10, 3), (14, 4)]
    },
}


def assert_level_matches_oracle(g, r, want=None):
    c, labels, full = quotient._level(g, r)
    _, want_labels, want_full = want or level_oracle(g, r)
    assert labels.tolist() == want_labels.tolist(), r
    assert full.tolist() == want_full.tolist(), r
    nv = len(c.vertex)
    assert quotient._injective(labels, full, nv) == quotient._injective(want_labels, want_full, nv), r


@pytest.mark.parametrize("name", list(LEVEL_GRAPHS))
def test_level_matches_one_pass_oracle(name):
    """Keying only the balls whose class is unknown gives the labels, X cells
    and injectivity of keying every vertex cell and midpoint."""
    g = LEVEL_GRAPHS[name]()
    for r in level_radii(g):
        assert_level_matches_oracle(g, r)


def test_no_midpoint_ball_equals_two_points_common_ball():
    """The lemma of `quotient`: two points of one edge with a common ball
    other than X have a midpoint with another ball.  Checked on `Fraction`
    balls, over the graphs and radii above, for every pair of distinct
    level points on one edge in one key class other than X: 717 pairs,
    none of them the two ends of a segment cell."""
    pairs = 0
    for name, make in LEVEL_GRAPHS.items():
        g = make()
        X = full_set(g).coverage
        tails, heads = np.array(g.edges).T
        for r in level_radii(g):
            c, labels, full = level_oracle(g, r)
            V, n = g.num_vertices, (len(c.vertex) - g.num_vertices) // g.num_edges
            for e in range(g.num_edges):
                ids = [tails[e], *range(V + e * n, V + e * n + n), heads[e]]
                offsets = [0, *c.vertex[V + e * n : V + e * n + n, 1].tolist(), c.S]
                for i in range(len(ids)):
                    for j in range(i + 1, len(ids)):
                        if labels[ids[i]] != labels[ids[j]] or full[ids[i]] or ids[i] == ids[j]:
                            continue
                        a, b, m = (
                            closed_ball(g, GraphPoint(e, F(t, c.S)), r).coverage
                            for t in (offsets[i], offsets[j], F(offsets[i] + offsets[j], 2))
                        )
                        assert a == b != X, (name, r, e, offsets[i], offsets[j])
                        assert m != a, (name, r, e, offsets[i], offsets[j])
                        pairs += 1
    assert pairs == 717


@pytest.mark.parametrize("name", ["theta", "kite", "comb3", "rand8+4s5"])
def test_level_on_python_integers_matches_oracle(name, monkeypatch):
    g = LEVEL_GRAPHS[name]()
    radii = level_radii(g)
    want = {r: level_oracle(g, r) for r in radii}
    monkeypatch.setattr(quotient, "INT64_SAFE", 0)
    monkeypatch.setattr(levelkeys, "INT64_SAFE", 0)
    assert quotient._cells(g, radii[0]).vertex.dtype == object
    for r in radii:
        assert_level_matches_oracle(g, r, want[r])


def test_rows_are_int8_on_the_timeline_grid():
    g = fixtures.c6()
    assert levelkeys.key_rows(g, F(9, 8), [(0, 5), (2, 32)], 32).dtype == np.int8


class TestErrorContext:
    """Engine errors name the graph, the radius and the cells."""

    def test_radius_off_the_cell_grid(self, theta_g):
        with pytest.raises(InternalConsistencyError, match=r"theta: radius 1/3 is off the 1/8 grid"):
            levelkeys.ball_keys(theta_g, F(1, 3), [(0, 4)], 8)

    def test_cells_off_the_graph(self, theta_g):
        cells = [(0, 4), (theta_g.num_edges, 0), (1, 9)]
        with pytest.raises(InternalConsistencyError, match=r"theta: cells \[1, 2\] lie off the graph at radius 1/2"):
            levelkeys.ball_keys(theta_g, F(1, 2), cells, 8)

    def test_orientation_failure(self, theta_g, monkeypatch):
        real = quotient.ball_keys
        c = quotient._cells(theta_g, F(1))
        # the quarter and three-quarter points of the level's segment cells
        segments = zip(c.edge.tolist(), c.lo.tolist(), (c.hi - c.lo).tolist())
        quarters = {(e, lo + k * w // 4) for e, lo, w in segments for k in (1, 3)}

        def scrambled(g, r, cells, S):
            if all(tuple(cell) in quarters for cell in cells.tolist()):
                return np.arange(len(cells))  # the orientation check's call: every ball distinct
            return real(g, r, cells, S)

        monkeypatch.setattr(quotient, "ball_keys", scrambled)
        with pytest.raises(
            InternalConsistencyError,
            match=r"theta: segment class at radius 1 has no consistent gluing orientation"
            r" \(segment cells \d+ and \d+\)",
        ):
            quotient.project(theta_g, F(1))


def test_project_memory_is_bounded():
    """On 1,373 unit edges the kernel before chunked int8 rows traced a
    519 MB peak in `project` at r = 3/2; keying every cell's ball in int8
    rows traced about 58 MB, and keying only the unknown ones about 35 MB."""
    g = fixtures.random_connected(700, 300, 1)
    assert g.num_edges == 1373
    g.vertex_distance_matrix()
    tracemalloc.start()
    try:
        q = quotient.project(g, F(3, 2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert q.n0 == 0
    assert peak < 128e6, peak
