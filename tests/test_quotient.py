import random
from fractions import Fraction as F

import numpy as np
import pytest

from ballflow import evolution, fixtures, levelkeys, quotient
from ballflow.balls import closed_ball, full_set, sets_equal
from ballflow.errors import InternalConsistencyError, ValidationError
from ballflow.evolution import timeline, timeline_loci
from ballflow.graph import GraphPoint, load_graph
from ballflow.quotient import (
    Fingerprint,
    cut_offsets,
    euler_bounds_check,
    fingerprint,
    is_injective,
    project,
    subdivision,
)

from conftest import assert_cells_match_subdivision, cell_partition, classes_oracle, level_oracle, relabeled
from test_acceptance import big_graph


def cell_reps(sub):
    """One representative point per cell: the vertex itself, or the segment
    midpoint.  Cell ids follow cell_partition's convention (vertices first)."""
    return list(sub.vertex_cells) + [sc.midpoint for sc in sub.segment_cells]


def quarter_ball(g, sc, k, r):
    """The ball of radius r about the point k/4 of the way along the segment cell sc."""
    return closed_ball(g, GraphPoint(sc.edge, sc.lo + k * (sc.hi - sc.lo) / 4), r)


class TestCutOffsets:
    def test_half_integer(self):
        assert cut_offsets(F(1, 2)) == [F(1, 2)]
        assert cut_offsets(F(3)) == [F(1, 2)]

    def test_quarter(self):
        assert cut_offsets(F(5, 4)) == [F(1, 4), F(1, 2), F(3, 4)]

    def test_small_offset(self):
        # 11/10 = 2*(1/2) + 1/10, offset below a quarter
        assert cut_offsets(F(11, 10)) == [
            F(1, 10), F(2, 5), F(1, 2), F(3, 5), F(9, 10),
        ]

    def test_large_offset(self):
        # 17/20: offset 7/20 lies strictly between 1/4 and 1/2
        assert cut_offsets(F(17, 20)) == [
            F(3, 20), F(7, 20), F(1, 2), F(13, 20), F(17, 20),
        ]

    def test_sorted_symmetric(self):
        for r in [F(1, 8), F(7, 16), F(2), F(9, 4), F(13, 6)]:
            offs = cut_offsets(r)
            assert offs == sorted(offs)
            assert all(0 < o < 1 for o in offs)
            assert [1 - o for o in reversed(offs)] == offs


class TestSubdivision:
    def test_segment_count(self, theta_g):
        for r, per_edge in [(F(1), 2), (F(5, 4), 4), (F(11, 10), 6)]:
            sub = subdivision(theta_g, r)
            assert len(sub.segment_cells) == per_edge * theta_g.num_edges

    def test_segments_tile_each_edge(self, c6_g):
        sub = subdivision(c6_g, F(9, 8))
        for e in range(c6_g.num_edges):
            segs = sorted(
                (sc.lo, sc.hi) for sc in sub.segment_cells if sc.edge == e
            )
            assert segs[0][0] == 0 and segs[-1][1] == 1
            assert all(a[1] == b[0] for a, b in zip(segs, segs[1:]))

    @pytest.mark.parametrize("name", ["path", "theta", "c6", "comb3"])
    def test_matches_the_engine_cells(self, name):
        """At every timeline locus and every k/24 up to diam + 1/2."""
        g = fixtures.comb(3) if name == "comb3" else fixtures.builtin(name)
        top = g.diameter() + F(1, 2)
        radii = {r for r, _ in timeline_loci(g)} | {F(k, 24) for k in range(1, int(24 * top) + 1)}
        for r in sorted(radii):
            assert_cells_match_subdivision(g, r)

    @pytest.mark.parametrize("r", [F(10**23 + 1, 3), F(1, 10**21), F(10**21 + 1, 4 * 10**21)])
    def test_offsets_are_the_cut_offsets(self, theta_g, r):
        """Radii whose integer cells would pass int64 or lie past the diameter:
        the cells are `cut_offsets(r)`'s `Fraction`s, exactly."""
        sub = subdivision(theta_g, r)
        cuts = cut_offsets(r)
        V, E = theta_g.num_vertices, theta_g.num_edges
        assert [p.t for p in sub.vertex_cells[V:]] == cuts * E
        bounds = [0, *cuts, 1]
        assert [(s.lo, s.hi) for s in sub.segment_cells] == list(zip(bounds, bounds[1:])) * E


class TestProjectionAgainstBruteForce:
    CASES = [
        ("path", [F(1, 2), F(1), F(3, 2), F(7, 4), F(2), F(17, 8)]),
        ("theta", [F(1, 2), F(3, 4), F(1), F(3, 2), F(2)]),
        ("c6", [F(1, 2), F(5, 4), F(2), F(5, 2), F(3)]),
    ]

    @pytest.mark.parametrize("name,radii", CASES)
    def test_classes_match_exact_ball_equality(self, name, radii):
        g = fixtures.builtin(name)
        X = full_set(g)
        for r in radii:
            q = project(g, r)
            sub = subdivision(g, q.radius)
            reps = cell_reps(sub)
            balls = [closed_ball(g, p, r) for p in reps]
            parts = cell_partition(sub, q)
            for part in parts:
                ids = sorted(part)
                # within a class all representative balls agree
                for i in ids[1:]:
                    assert sets_equal(g, balls[ids[0]], balls[i]), (name, r, ids)
                # the collapsed region is exactly the ball-X cells
                if q.x_vertex is not None and ids[0] in parts[q.x_vertex]:
                    for i in ids:
                        assert sets_equal(g, balls[i], X)
            # distinct vertex classes carry distinct balls
            v_reps = [min(cls) for cls in q.q_vertices]
            for i, a in enumerate(v_reps):
                for b in v_reps[i + 1:]:
                    assert not sets_equal(g, balls[a], balls[b]), (name, r)

    def test_random_tree_brute(self):
        g = fixtures.random_connected(8, 0, 3)
        for r in [F(1, 2), F(9, 8), g.diameter() / 2, g.diameter()]:
            q = project(g, r)
            sub = subdivision(g, q.radius)
            reps = cell_reps(sub)
            balls = [closed_ball(g, p, r) for p in reps]
            for part in cell_partition(sub, q):
                ids = sorted(part)
                for i in ids[1:]:
                    assert sets_equal(g, balls[ids[0]], balls[i]), r

    def test_segment_orientation_brute(self, theta_g):
        for r in [F(1), F(5, 4), F(3, 2)]:
            q = project(theta_g, r)
            sub = subdivision(theta_g, q.radius)
            for cls in q.edge_classes:
                cells = [sub.segment_cells[i] for i in cls]
                bq, b3 = quarter_ball(theta_g, cells[0], 1, r), quarter_ball(theta_g, cells[0], 3, r)
                for sc in cells[1:]:
                    cq, c3 = quarter_ball(theta_g, sc, 1, r), quarter_ball(theta_g, sc, 3, r)
                    straight = sets_equal(theta_g, bq, cq) and sets_equal(
                        theta_g, b3, c3
                    )
                    flipped = sets_equal(theta_g, bq, c3) and sets_equal(
                        theta_g, b3, cq
                    )
                    assert straight or flipped, (r, cls)


class TestFingerprints:
    def test_theta_becomes_circle_then_point(self, theta_g):
        f1 = fingerprint(project(theta_g, F(1)))
        assert (f1.b0, f1.b1, f1.chi) == (1, 1, 0)
        assert not f1.is_point
        f2 = fingerprint(project(theta_g, F(2)))
        assert f2.is_point
        assert (f2.b0, f2.b1) == (1, 0)

    def test_c6_injective_circle_at_half(self, c6_g):
        assert is_injective(c6_g, F(1, 2))
        f = fingerprint(project(c6_g, F(1, 2)))
        assert (f.b0, f.b1) == (1, 1)
        assert f.degree_multiset == (2,) * len(f.degree_multiset)

    def test_circle_codes_agree_across_graphs(self, c6_g, theta_g):
        code_a = fingerprint(project(c6_g, F(1, 2))).canonical_code
        code_b = fingerprint(project(theta_g, F(1))).canonical_code
        assert code_a == code_b

    def test_path_stays_arc_then_point(self, path_g):
        for r in [F(1, 2), F(1), F(3, 2)]:
            f = fingerprint(project(path_g, r))
            assert (f.b0, f.b1) == (1, 0)
            assert not f.is_point
        assert fingerprint(project(path_g, F(2))).is_point

    def test_point_iff_at_least_diameter(self):
        for name in ["path", "theta", "c6"]:
            g = fixtures.builtin(name)
            d = g.diameter()
            assert fingerprint(project(g, d)).is_point
            assert fingerprint(project(g, d + F(1, 4))).is_point
            assert not fingerprint(project(g, d - F(1, 8))).is_point

    def test_code_invariant_under_relabeling(self):
        doc = {
            "name": "y",
            "vertices": ["a", "b", "c", "d", "e"],
            "edges": [
                {"u": "a", "v": "b", "len": "1"},
                {"u": "b", "v": "c", "len": "1"},
                {"u": "b", "v": "d", "len": "2"},
                {"u": "d", "v": "e", "len": "1"},
                {"u": "c", "v": "d", "len": "1"},
            ],
        }
        g = load_graph(doc)
        for seed in [1, 2, 3]:
            h = load_graph(relabeled(doc, seed))
            for r in [F(1, 2), F(1), F(3, 2), F(2)]:
                assert (
                    fingerprint(project(g, r)).canonical_code
                    == fingerprint(project(h, r)).canonical_code
                ), (seed, r)


class TestInjectivity:
    def test_small_radius_injective(self):
        for name in ["path", "theta", "c6"]:
            g = fixtures.builtin(name)
            assert is_injective(g, F(1, 16)), name

    def test_beyond_diameter_not_injective(self, theta_g):
        assert not is_injective(theta_g, theta_g.diameter() + F(1, 4))

    @pytest.mark.parametrize("r", [F(0), F(-1, 3)])
    def test_rejects_radius_before_reducing_it(self, theta_g, r):
        for level in (project, is_injective):
            with pytest.raises(ValidationError, match=f"must be positive, got {r}$"):
                level(theta_g, r)


def test_level_radius_reduces_onto_the_eighth_grid(theta_g):
    """rho(r) on theta (diameter 2): whole halves past the diameter are
    shifted off, then r off the quarter grid moves to its interval's midpoint."""
    want = {
        F(1, 10**21): F(1, 8),
        F(7, 10): F(5, 8),
        F(5, 4): F(5, 4),
        F(9, 4): F(9, 4),
        F(10**23): F(2),
        F(10**23 + 1, 3): F(17, 8),
    }
    assert {r: quotient.level_radius(theta_g, r) for r in want} == want


SWEPT_GRAPHS = {
    "theta": fixtures.theta,
    "comb3": lambda: fixtures.comb(3),
    "rand6+4s1": lambda: fixtures.random_connected(6, 4, 1),
}


@pytest.mark.parametrize("name", list(SWEPT_GRAPHS))
def test_level_is_the_level_at_its_representative_radius(name, monkeypatch):
    """The theorem of `quotient`: `project`, which keys at `level_radius`, gives
    the level that `level_oracle` keys at r itself, for every r = a/den with
    den <= 24 and 4r not an integer, up to diam + 1/2 (rand6+4s1 has a loop
    and a parallel pair of unit edges).  `is_injective` agrees with it where
    den <= 8."""
    g = SWEPT_GRAPHS[name]()
    top = g.diameter() + F(1, 2)
    radii = sorted(
        {F(a, den) for den in range(1, 25) for a in range(1, int(top * den) + 1)}
        - {F(k, 4) for k in range(int(4 * top) + 1)}
    )
    got = {r: project(g, r) for r in radii}
    assert all(is_injective(g, r) == got[r].injective for r in radii if r.denominator <= 8)
    # `project` hands `_level` rho(r); with rho(r) = r the oracle keys at r itself
    monkeypatch.setattr(quotient, "level_radius", lambda g, r: r)
    monkeypatch.setattr(quotient, "_level", level_oracle)
    for r in radii:
        assert project(g, r) == got[r], (name, r)


LAYOUT_GRAPHS = {
    **fixtures.BUILTIN,
    "rand8+4s5": lambda: fixtures.random_connected(8, 4, 5),
    "rand6+4s3": lambda: fixtures.random_connected(6, 4, 3),
    "big200": big_graph,
}


@pytest.mark.parametrize("name", list(LAYOUT_GRAPHS))
def test_layout_is_a_function_of_the_grid(name):
    """A level reads rho only through its grid S (module docstring): at every
    1/8-grid rho below diam + 5/8, the layout equals that of the first rho
    with the same S, and `_level` keyed on that shared layout equals
    `_level` on rho's own."""
    g = LAYOUT_GRAPHS[name]()
    first = {}
    for k in range(1, (8 * g.diameter() + 5).__ceil__()):
        rho = F(k, 8)
        own = quotient._layout(g, rho)
        shared = first.setdefault(quotient._grid(rho), own)
        assert all(np.array_equal(a, b) for a, b in zip([*own.cells, *own[1:]], [*shared.cells, *shared[1:]])), rho
        got, want = quotient._level(g, rho, shared), quotient._level(g, rho, own)
        assert [a.tolist() for a in got] == [a.tolist() for a in want], rho
    assert sorted(first) == [8, 16, 32]


CHUNKED_GRAPHS = {
    **LAYOUT_GRAPHS,
    "rand40": lambda: fixtures.random_connected(40, 20, 1),
    "comb5": lambda: fixtures.comb(5),
}


@pytest.mark.parametrize("name", list(CHUNKED_GRAPHS))
def test_a_chunk_numbers_each_level_as_one_level_alone(name):
    """Each layout's levels, walked by descending rho as `timeline` walks
    them, in chunks of 1, 2 and 3 consecutive levels and in one chunk: the
    arrays of `_classes` of each chunk's `_levels` are, level by level, those
    that `classes_oracle` numbers from `level_oracle`, which keys every cell."""
    g = CHUNKED_GRAPHS[name]()
    groups = {}
    for r, _ in timeline_loci(g):
        rho = quotient.level_radius(g, r)
        groups.setdefault(quotient._grid(rho), []).append(rho)
    for radii in groups.values():
        radii.sort(reverse=True)
        layout = quotient._layout(g, radii[0])
        want = [classes_oracle(layout.cells, *level_oracle(g, rho)) for rho in radii]
        for size in (1, 2, 3, len(radii)):
            got, shared = [], ()
            for i in range(0, len(radii), size):
                *keyed, shared = quotient._levels(g, radii[i : i + size], layout, shared)
                k = quotient._classes(layout.cells, *keyed)
                ends = np.cumsum(k.edge_counts).tolist()
                for j, (a, b) in enumerate(zip([0, *ends], ends)):
                    level = (k.num_vertices[j], k.q_edges[a:b], k.n0[j], k.injective[j], k.vertex_class[j], k.edge_class[j])
                    got.append([*(np.asarray(v).tolist() for v in level), k.x_vertex[j]])
            for rho, a, b in zip(radii, got, want):
                assert a == [*(np.asarray(v).tolist() for v in b[:-1]), b[-1]], (name, size, rho)


def test_big200_timeline_numbers_and_smooths_its_levels_in_chunks(monkeypatch):
    """Counted, not timed: the big200 timeline numbers and smooths its 76
    levels, on layouts of 750, 1,550 and 2,350 cells, in one pass per chunk
    of at most `CHUNK_CELLS` cells of one layout's levels: 13 passes, not
    76."""
    numbered, smoothed = [], []
    real_classes, real_smooth = quotient._classes, quotient.smooth_multigraphs

    def classes(c, labels, full):
        numbered.append(len(labels))
        assert labels.size <= evolution.CHUNK_CELLS
        return real_classes(c, labels, full)

    def smooth(sizes, edges, counts):
        smoothed.append(len(sizes))
        return real_smooth(sizes, edges, counts)

    monkeypatch.setattr(evolution, "_classes", classes)
    monkeypatch.setattr(quotient, "smooth_multigraphs", smooth)
    assert len(timeline(big_graph()).entries) == 76
    assert numbered == smoothed
    assert (len(numbered), sum(numbered)) == (13, 76)


def test_big200_timeline_keys_only_unknown_balls(monkeypatch):
    """The work of the big200 timeline's levels, counted, not timed: at most
    one `ball_keys` call per level, on the vertex cells whose class is not
    known yet (`quotient._Layout`).  Keying every non-full vertex cell at each
    level took 75 calls and 48,537 points; with the gluing-orientation check,
    since moved to the tests, the levels keyed 63,340 points in 142
    `key_rows` calls; keying both quarter points of every member took 71,247
    points, and keying every vertex cell and midpoint took 143 calls and
    155,710 points."""
    real = levelkeys.key_rows
    points = []

    def counted(g, r, cells, S):
        points.append(len(cells))
        return real(g, r, cells, S)

    monkeypatch.setattr(levelkeys, "key_rows", counted)  # under ball_keys
    timeline(big_graph())
    assert (len(points), sum(points)) == (70, 13_111)


@pytest.mark.parametrize("name", list(LAYOUT_GRAPHS))
def test_timeline_keys_a_cell_while_its_class_is_shared(name, monkeypatch):
    """Within a layout, walked by descending rho, a timeline keys each vertex
    cell at its first open level, and after that only while its class at the
    layout's previous level had another member: the cells that each
    `ball_keys` call receives, against the levels keyed in full."""
    g = LAYOUT_GRAPHS[name]()
    groups, layouts, want = {}, {}, {}
    for r, _ in timeline_loci(g):
        rho = quotient.level_radius(g, r)
        groups.setdefault(quotient._grid(rho), []).append(rho)
    for S, radii in groups.items():
        layout = layouts[S] = quotient._layout(g, radii[0])
        nv = len(layout.cells.vertex)
        was_open = was_shared = np.zeros(nv, dtype=bool)
        for rho in sorted(radii, reverse=True):
            labels, full = quotient._level(g, rho, layout)
            labels, is_open = labels[:nv], ~full[:nv]
            keyed = is_open & (~was_open | was_shared)
            if keyed.any():
                want[rho] = np.flatnonzero(keyed).tolist()
            members = np.bincount(labels[is_open], minlength=nv)[labels]
            was_open, was_shared = is_open, is_open & (members > 1)
    real, got = quotient.ball_keys, {}

    def counted(g, rho, rows, S):
        ids = {tuple(row): i for i, row in enumerate(layouts[S].cells.vertex.tolist())}
        got[rho] = sorted(ids[tuple(row)] for row in rows[:, :2].tolist())
        return real(g, rho, rows, S)

    monkeypatch.setattr(quotient, "ball_keys", counted)
    timeline(g)
    assert got == want


class TestEulerBounds:
    def test_report_fields(self, theta_g):
        q = project(theta_g, F(1))
        rep = euler_bounds_check(theta_g, fingerprint(q))
        assert rep["ok"]
        assert rep["margin_basic"] >= rep["margin_refined"] >= 0
        assert rep["margin_betti"] >= 0

    def test_holds_along_fixture_timelines(self):
        for name in ["path", "theta", "c6"]:
            g = fixtures.builtin(name)
            r = F(1, 4)
            while r <= g.diameter():
                q = project(g, r)
                assert euler_bounds_check(g, fingerprint(q))["ok"]
                r += F(1, 4)

    def test_violation_names_the_graph(self, theta_g):
        forged = Fingerprint(b0=1, b1=100, chi=-99, n0=0, degree_multiset=(), canonical_code="", is_point=False)
        with pytest.raises(InternalConsistencyError, match=r"^theta: Euler bound violated: \{'edges': 5, 'chi': -99"):
            euler_bounds_check(theta_g, forged)

    def test_doubled_margin_can_go_negative(self, path_g):
        # near total collapse the doubled-count margin is negative even
        # though the enforced bounds hold; this pins down why only the
        # single-count variant is enforced (chi = 1, n0 = 10, |E| = 2)
        q = project(path_g, F(15, 8))
        rep = euler_bounds_check(path_g, fingerprint(q))
        assert rep["ok"]
        assert rep["margin_refined_doubled"] < 0
