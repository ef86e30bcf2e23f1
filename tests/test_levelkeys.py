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

import conftest
from conftest import (
    center_edge_oracle,
    coverage_classes,
    group_rows_oracle,
    integer_ball,
    integer_coverage,
    key_rows_reference,
    level_oracle,
    orientation_oracle,
)
from test_acceptance import big_graph

GRAPHS = {
    "path": fixtures.path,
    "theta": fixtures.theta,
    "c6": fixtures.c6,
    "comb3": lambda: fixtures.comb(3),
}


@pytest.mark.parametrize("S", [8, 16])
def test_center_edge_matches_interval_merge(S):
    """Every centre t = 1 .. S - 1, radius R = 0 .. S + 1 and distance
    d = d(tail, head) in {0, 1, 2, 3} (a loop has d = 0, a unit edge d <= 1),
    with the sides (H, L) of the centre's own edge that key_rows computes
    there, before clipping.  Where the merge leaves a middle component, it
    is [t - R, t + R] alone and the pair is the marker (-2 - t, S + 1)."""
    t, R, d = (a.ravel() for a in np.meshgrid(np.arange(1, S), np.arange(0, S + 2), np.arange(4)))
    H = R - np.minimum(t, S - t + d * S)
    L = S - R + np.minimum(S - t, t + d * S)
    h, l = np.clip(H, -1, S), np.clip(L, 0, S + 1)
    whole = h >= l
    h, l = np.where(whole, S, h), np.where(whole, 0, l)
    mh, ml = levelkeys._center_edge(S, R, t, h, l)
    for i in range(len(t)):
        case = (t[i], R[i], d[i])
        pair, merged = center_edge_oracle(S, int(H[i]), int(L[i]), int(t[i]), int(R[i]))
        if merged is None:
            assert (mh[i], ml[i]) == pair, case
        else:
            assert merged == ((t[i] - R[i], t[i] + R[i]),), case
            assert (mh[i], ml[i]) == (-2 - t[i], S + 1), case


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
        assert (quotient._phi(g, cells, S) <= 2 * S * r).tolist() == coverage_classes(g, r, pts)[1], r


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
        f"tree{n}s{s}": (lambda n=n, s=s: fixtures.random_connected(n, 0, s))
        for n, s in [(5, 0), (6, 1), (8, 2), (10, 3), (14, 4)]
    },
}


def assert_level_matches_oracle(g, r):
    rho = quotient.level_radius(g, r)
    labels, full = quotient._level(g, rho, quotient._layout(g, rho))
    want_labels, want_full = level_oracle(g, r)
    assert labels.tolist() == want_labels.tolist(), r
    assert full.tolist() == want_full.tolist(), r
    assert quotient._injective(labels) == quotient._injective(want_labels), r


@pytest.mark.parametrize("name", list(LEVEL_GRAPHS))
def test_level_matches_one_pass_oracle(name):
    """Keying only the balls whose class is unknown gives the labels, X cells
    and injectivity of keying every vertex cell and midpoint."""
    g = LEVEL_GRAPHS[name]()
    for r in level_radii(g):
        assert_level_matches_oracle(g, r)


def test_segment_classes_glue_in_one_direction():
    """The gluing direction that corollary 2 of `quotient` fixes, checked by
    `orientation_oracle` on every level of the graphs above: 14,998 segment
    classes with several members, so an oracle that checks none fails."""
    classes = 0
    for make in LEVEL_GRAPHS.values():
        g = make()
        for r in level_radii(g):
            classes += orientation_oracle(g, quotient.project(g, r))
    assert classes == 14_998


def test_no_midpoint_ball_equals_two_points_common_ball():
    """Lemma 1 of `quotient`: two points of one edge with a common ball
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
            c, (labels, full) = quotient._cells(g, r), level_oracle(g, r)
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


def segment_radii(g):
    """Every k/8 up to diam + 1/2: the balls about a level's cells and
    midpoints there have their interval ends on (1/16)Z."""
    return [F(k, 8) for k in range(1, int(8 * (g.diameter() + F(1, 2))) + 1)]


def test_segment_balls_are_fixed_by_their_ends():
    """Corollaries 1 and 2 of `quotient`, on exact balls: at every k/8 up to
    diam + 1/2, a segment cell's midpoint ball is X iff both its end balls
    are, and non-full segments with equal unordered pairs of end balls have
    equal midpoint balls (19,350 such segments after the first of their
    pair).  Balls are compared by their integer rows (`balls.ball_row`) at
    L = 16, which are their integer coverages over 16.  big200 is left out
    for time: its 2,000-odd balls per radius take about 50 s on 2 x86-64
    cores."""
    shared = 0
    for name, make in LEVEL_GRAPHS.items():
        if name == "big200":
            continue
        g = make()
        X = integer_coverage(full_set(g).coverage, 16)
        for r in segment_radii(g):
            sub = quotient.subdivision(g, r)
            ends = [integer_ball(g, p, r, 16) for p in sub.vertex_cells]
            mids: dict = {}
            for s in sub.segment_cells:
                a, b = ends[s.tail_cell], ends[s.head_cell]
                mid = integer_ball(g, s.midpoint, r, 16)
                assert (mid == X) == (a == X == b), (name, r, s)
                if mid != X:
                    pair = frozenset((a, b))
                    shared += pair in mids
                    assert mids.setdefault(pair, mid) == mid, (name, r, s)
    assert shared == 19_350


@pytest.mark.parametrize("name", ["theta", "comb3", "kite", "rand8+4s5", "tree8s2"])
def test_integer_coverage_agrees_with_ball_equality(name):
    """The balls of the test above, about every vertex cell and midpoint,
    fall into the same classes by their integer coverages as by `BallSet`
    equality."""
    g = LEVEL_GRAPHS[name]()
    for r in segment_radii(g):
        sub = quotient.subdivision(g, r)
        balls = [closed_ball(g, p, r) for p in (*sub.vertex_cells, *(s.midpoint for s in sub.segment_cells))]
        forms = [integer_coverage(b.coverage, 16) for b in balls]
        assert len(set(forms)) == len(set(balls)) == len(set(zip(forms, balls))), r


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32])
def test_group_rows_matches_unique_oracle(dtype):
    """The dict grouping against `np.unique` on void rows: random rows, rows
    with many duplicates, rows that differ only in their last byte (so a
    grouping that dropped trailing bytes, or NULs, would merge them),
    all-zero rows, and 0 or 1 rows."""
    rng = np.random.default_rng(25)
    info = np.iinfo(dtype)

    def rand(*shape):
        return rng.integers(info.min, info.max, shape, dtype=dtype, endpoint=True)

    base = rand(6, 7)
    last_byte = np.repeat(base[:1], 6, axis=0)
    last_byte.view(np.uint8)[:, -1] = [0, 1, 0, 255, 1, 0]
    cases = [
        rand(0, 5),
        rand(1, 5),
        rand(300, 4),
        base[rng.integers(0, 6, 500)],
        rng.integers(-1, 2, (400, 3)).astype(dtype),
        last_byte,
        np.zeros((9, 4), dtype=dtype),
        np.concatenate([np.zeros((3, 4), dtype=dtype), rand(5, 4), np.zeros((2, 4), dtype=dtype)]),
    ]
    for rows in cases:
        got = levelkeys.group_rows(rows)
        assert (got.dtype, got.shape) == (np.int64, (len(rows),))
        assert got.tolist() == group_rows_oracle(rows).tolist(), rows
    assert levelkeys.group_rows(last_byte).tolist() == [0, 1, 0, 3, 1, 0]


def test_rows_are_int8_on_the_timeline_grid():
    g = fixtures.c6()
    assert levelkeys.key_rows(g, F(9, 8), [(0, 5), (2, 32)], 32).dtype == np.int8


def assert_rows_match_reference(g, r, cells, S):
    got, want = levelkeys.key_rows(g, r, cells, S), key_rows_reference(g, r, cells, S)
    assert (got.dtype, got.shape) == (want.dtype, want.shape), (g.name, r)
    assert got.tobytes() == want.tobytes(), (g.name, r)
    return got


def level_key_cells(g, r):
    """A timeline level's radius, grid and cells: its vertex cells and the
    quarter and three-quarter points of its segment cells."""
    c = quotient._cells(g, quotient.level_radius(g, r))
    w = c.hi - c.lo
    quarters = [np.stack([c.edge, c.lo + k * w // 4], axis=1) for k in (1, 3)]
    return quotient.level_radius(g, r), np.concatenate([c.vertex, *quarters]), c.S


BENCHMARK_GRAPHS = {
    "big200": big_graph,
    "comb5": lambda: fixtures.comb(5),
    "rand40": lambda: fixtures.random_connected(40, 20, 1),
}


@pytest.mark.parametrize("name", BENCHMARK_GRAPHS)
def test_key_rows_match_two_clip_reference_on_timeline_levels(name):
    g = BENCHMARK_GRAPHS[name]()
    for r, _ in timeline_loci(g):
        assert assert_rows_match_reference(g, *level_key_cells(g, r)).dtype == np.int8


def test_key_rows_match_reference_on_a_fine_merge_grid():
    """S = 128 > 127: the rows are int16."""
    g, S = fixtures.comb(5), 128
    cells = [(e, t) for e in range(g.num_edges) for t in range(0, S + 1, 5)]
    for k in [*range(0, 3 * S, 11), 3 * S]:
        assert assert_rows_match_reference(g, F(k, S), cells, S).dtype == np.int16


def test_key_rows_match_reference_with_int32_work():
    """On a path of 300 unit edges at S = 128, S * (diameter + 2) passes the
    int16 range, so the distances are worked in int32."""
    n, S = 300, 128
    g = load_graph(
        {
            "name": "path300",
            "vertices": [f"v{i}" for i in range(n + 1)],
            "edges": [{"u": f"v{i}", "v": f"v{i + 1}", "len": 1} for i in range(n)],
        }
    )
    assert S * (g.diameter() + 2) > np.iinfo(np.int16).max
    cells = [(e, t) for e in range(0, n, 7) for t in (0, 1, 63, 64, 127, 128)]
    for r in (F(1, S), F(3, 2), F(149), F(150) + F(5, S), F(299), F(302)):
        assert assert_rows_match_reference(g, r, cells, S).dtype == np.int16


@pytest.mark.parametrize("name", ["big200", "comb5"])
def test_key_rows_match_reference_over_many_chunks(name, monkeypatch):
    g = BENCHMARK_GRAPHS[name]()
    monkeypatch.setattr(levelkeys, "_CHUNK_ENTRIES", 1500)
    for r, _ in timeline_loci(g)[::9]:
        assert_rows_match_reference(g, *level_key_cells(g, r))


@pytest.mark.parametrize("chunk", [None, 8], ids=["one-chunk", "chunks-of-2"])
def test_a_radius_per_row_keys_each_row_at_its_radius(chunk, monkeypatch):
    """An integer array of R = r * S per row gives the rows of one call per
    radius, and `ball_keys` groups rows of one radius only.  On the theta at
    S = 8, (0, 4) is a middle ball at R = 1 and at R = 2, with equal rows, and
    every ball is whole at R = 24."""
    if chunk:
        monkeypatch.setattr(levelkeys, "_CHUNK_ENTRIES", chunk)
    g, S = fixtures.theta(), 8
    cells = np.array([(0, 4), (1, 4), (0, 0), (2, 8), (1, 2)])
    Rs = [1, 2, 3, 24]
    R, tiled = np.repeat(Rs, len(cells)), np.tile(cells, (len(Rs), 1))
    rows = [levelkeys.key_rows(g, F(k, S), cells, S) for k in Rs]
    assert levelkeys.key_rows(g, R, tiled, S).tobytes() == np.concatenate(rows).tobytes()
    assert rows[0][0].tobytes() == rows[1][0].tobytes()
    labels = [i * len(cells) + levelkeys.ball_keys(g, F(k, S), cells, S) for i, k in enumerate(Rs)]
    assert levelkeys.ball_keys(g, R, tiled, S).tolist() == np.concatenate(labels).tolist()


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
        """The oracle fails, naming both cells, when rows that differ in one
        column only tell a member's quarter ball from its lead's two balls."""
        real = conftest.key_rows
        c = quotient._cells(theta_g, F(1))
        # the quarter and three-quarter points of the level's segment cells
        segments = zip(c.edge.tolist(), c.lo.tolist(), (c.hi - c.lo).tolist())
        quarters = {(e, lo + k * w // 4) for e, lo, w in segments for k in (1, 3)}

        def scrambled(g, r, cells, S):
            assert all(tuple(cell) in quarters for cell in cells.tolist())  # the oracle's call
            rows = real(g, r, cells, S)
            rows[:, 0] = np.arange(len(rows))  # every ball distinct, in one column only
            return rows

        q = quotient.project(theta_g, F(1))
        monkeypatch.setattr(conftest, "key_rows", scrambled)
        with pytest.raises(
            AssertionError,
            match=r"theta: segment class at radius 1 has no consistent gluing orientation"
            r" \(segment cells \d+ and \d+\)",
        ):
            orientation_oracle(theta_g, q)


def test_project_memory_is_bounded():
    """On 1,373 unit edges the kernel before chunked int8 rows traced a
    519 MB peak in `project` at r = 3/2; keying every cell's ball in int8
    rows traced about 58 MB, and keying only the unknown ones about 35 MB."""
    g = fixtures.random_connected(700, 300, 1)
    assert g.num_edges == 1373
    tracemalloc.start()
    try:
        q = quotient.project(g, F(3, 2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert q.n0 == 0
    assert peak < 128e6, peak
