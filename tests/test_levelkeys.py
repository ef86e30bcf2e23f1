"""The integer ball-class kernel against the exact `Fraction` balls."""

import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest

from ballflow import fixtures, levelkeys, quotient
from ballflow.errors import InternalConsistencyError
from ballflow.evolution import timeline_loci
from ballflow.graph import GraphPoint

from conftest import center_edge_oracle, coverage_classes

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


@pytest.mark.parametrize("name", list(GRAPHS))
def test_classes_match_fraction_balls(name):
    g = GRAPHS[name]()
    radii = [r for r, _on_grid in timeline_loci(g)] + [F(1, 3), F(5, 12), F(7, 10)]
    for r in radii:
        cells, S, pts = level_points(g, r)
        labels, full = levelkeys.ball_keys(g, r, cells, S)
        assert (labels.tolist(), full.tolist()) == coverage_classes(g, r, pts), r


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

        def scrambled(g, r, cells, S):
            labels, full = real(g, r, cells, S)
            if len(cells) == len(c.vertex) + len(c.edge):
                return labels, full  # the level's own cells
            return np.arange(len(cells)), full  # quarter points: every ball distinct

        monkeypatch.setattr(quotient, "ball_keys", scrambled)
        with pytest.raises(
            InternalConsistencyError,
            match=r"theta: segment class at radius 1 has no consistent gluing orientation"
            r" \(segment cells \d+ and \d+\)",
        ):
            quotient.project(theta_g, F(1))


def test_project_memory_is_bounded():
    """On 1,373 unit edges the kernel before chunked int8 rows traced a
    519 MB peak in `project` at r = 3/2; this one traces about 58 MB."""
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
