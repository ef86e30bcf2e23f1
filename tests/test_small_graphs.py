"""Every small metric graph, level by level.

The graphs are every connected multigraph, loops and parallel edges
included, with at most 3 vertices and 3 edges and each length 1 or 2, one
per isometry class: isomorphic unit graphs are isometric, so they are
deduplicated by the canonical code of the unit graph.  With BALLFLOW_DEEP=1
the bounds are 4 vertices, 4 edges and lengths 1/2 or 1; run it before
changing a kernel.  At every k/24 up to diam + 1/2 each level is checked
five ways: `_level` against `level_oracle` keyed at r itself, the `project`
level connected by union-find, b0 = 1, its gluing direction by
`orientation_oracle`, and `subdivision`'s cells against `_cells`'.  At
every k/8 up to diam + 1/2, the `ball_keys` classes of each level's vertex
cells, midpoints, quarter and three-quarter points are checked against the
exact `Fraction` balls of `coverage_classes`, `closed_ball` about each
of those points against `closed_ball_oracle`, and the class arrays of
`quotient._classes` against `project`.  At every k/24 up to the diameter,
`ball_row` about each vertex and the point at 1/3 of each edge is checked
against `closed_ball` and `closed_ball_oracle`.  Each
graph's int16 distance matrix is checked against `distance_oracle`, its
int16 quarter-point Phi table against `quarter_table_oracle`, and so are
`point_distance` between every two quarter points and `point_vertex_distances`
at each: `distance_oracle` on the unit graph cut into quarter edges, over 4.
Also checked are its potential
profile against `potential_oracle` and `eccentricity` against the same
piecewise-linear Phi at every k/24, its merge tree at step 1/2 against the
threshold partitions of the pairwise merge radii of `merge_radius_oracle`,
the closed form `merge_radius` on every pair of those points against both the
sweep's matrix and that bisection, and the canonical code of
its unit graph under relabellings: every vertex permutation up to 5 unit
vertices, 24 seeded ones above, each with the edges shuffled and some of
them reversed.
"""

import os
import random
from fractions import Fraction as F
from functools import cache
from itertools import combinations, combinations_with_replacement, permutations

import numpy as np

from ballflow import quotient
from ballflow.balls import closed_ball
from ballflow.canon import canonical_multigraph_code
from ballflow.evolution import timeline
from ballflow.graph import GraphPoint, load_graph
from ballflow.levelkeys import ball_keys
from ballflow.mergetree import dendrogram_from_matrix, merge_radius, merge_tree, sample_points
from ballflow.quotient import fingerprint, project

from conftest import (
    assert_cells_match_subdivision,
    assert_eccentricity_matches_oracle,
    closed_ball_oracle,
    components_oracle,
    coverage_classes,
    distance_oracle,
    orientation_oracle,
    pairwise_matrix,
    potential_oracle,
    quarter_table_oracle,
    timeline_oracle,
)
from test_balls import assert_rows_are_balls
from test_levelkeys import assert_level_matches_oracle, level_points

DEEP = os.environ.get("BALLFLOW_DEEP") == "1"
# (vertices, edges, lengths) -> (metric graphs, levels at every k/24,
# relabelled codes, levels at every k/8, multi-member segment classes)
BOUNDS, COUNTS = (
    ((4, 4, ("1/2", "1")), (228, 19_968, 10_598, 6_656, 57_006))
    if DEEP
    else ((3, 3, ("1", "2")), (45, 3_012, 1_273, 1_004, 5_435))
)


@cache
def small_graphs(max_vertices, max_edges, lengths):
    """One graph per isometry class of the connected multigraph documents
    within the bounds."""
    graphs = {}
    for n in range(1, max_vertices + 1):
        slots = [(u, v, length) for u in range(n) for v in range(u, n) for length in lengths]
        for m in range(1, max_edges + 1):
            for edges in combinations_with_replacement(slots, m):
                if components_oracle(n, [(u, v) for u, v, _ in edges]) > 1:
                    continue
                doc = {"vertices": list(range(n)), "edges": [{"u": u, "v": v, "len": l} for u, v, l in edges]}
                g = load_graph({"name": repr(edges), **doc})
                graphs.setdefault(canonical_multigraph_code(g.num_vertices, g.edges), g)
    return tuple(graphs.values())


def test_every_small_graph_at_every_24th():
    graphs = small_graphs(*BOUNDS)
    levels = classes = 0
    for g in graphs:
        for k in range(1, int(24 * (g.diameter() + F(1, 2))) + 1):
            r = F(k, 24)
            assert_level_matches_oracle(g, r)
            q = project(g, r)
            assert components_oracle(q.num_vertices, q.q_edges) == 1, (g.name, r)
            assert fingerprint(q).b0 == 1, (g.name, r)
            classes += orientation_oracle(g, q)
            assert_cells_match_subdivision(g, r)
            levels += 1
    assert (len(graphs), levels, classes) == (*COUNTS[:2], COUNTS[4])


def test_every_small_graph_numbers_its_classes_once():
    """At every k/8 up to diam + 1/2, the class arrays of `quotient._classes`,
    which the timeline fingerprints, give `project`'s V, q-edges, n0 and
    injectivity, and a connected multigraph."""
    levels = 0
    for g in small_graphs(*BOUNDS):
        for k in range(1, int(8 * (g.diameter() + F(1, 2))) + 1):
            r = F(k, 8)
            rho = quotient.level_radius(g, r)
            layout = quotient._layout(g, rho)
            c, q = quotient._classes(layout.cells, *quotient._level(g, rho, layout)), project(g, r)
            assert (c.num_vertices.tolist(), c.q_edges.tolist(), c.n0.tolist(), c.injective) == (
                [q.num_vertices], list(map(list, q.q_edges)), [q.n0], [q.injective]
            ), (g.name, r)
            assert components_oracle(int(c.num_vertices[0]), c.q_edges.tolist()) == 1, (g.name, r)
            levels += 1
    assert levels == COUNTS[3]


def test_every_small_timeline_equals_the_per_locus_oracle():
    for g in small_graphs(*BOUNDS):
        assert timeline(g).entries == timeline_oracle(g), g.name


def test_every_small_graph_distance_matrix():
    for g in small_graphs(*BOUNDS):
        D = g.vertex_distance_matrix()
        assert D.dtype == np.int16, g.name
        assert np.array_equal(D, distance_oracle(g.num_vertices, g.edges)), g.name


def test_every_small_graph_phi_table():
    for g in small_graphs(*BOUNDS):
        T = g._quarter_eccentricities()
        assert T.dtype == np.int16, g.name
        assert np.array_equal(T, quarter_table_oracle(g)), g.name


def test_every_small_graph_point_distances_on_the_quarter_grid():
    for g in small_graphs(*BOUNDS):
        n = g.num_vertices
        # the unit graph cut into quarter edges: vertex n + 3e + k - 1 is (e, k/4)
        pts = [g.vertex_point(v) for v in range(n)]
        edges = []
        for e, (u, v) in enumerate(g.edges):
            pts += [GraphPoint(e, F(k, 4)) for k in (1, 2, 3)]
            chain = [u, n + 3 * e, n + 3 * e + 1, n + 3 * e + 2, v]
            edges += zip(chain, chain[1:])
        D = [[F(d, 4) for d in row] for row in distance_oracle(len(pts), edges).tolist()]
        for i, p in enumerate(pts):
            assert g.point_vertex_distances(p) == D[i][:n], (g.name, p)
            assert [g.point_distance(p, q) for q in pts] == D[i], (g.name, p)


def test_every_small_graph_ball_classes_at_every_8th():
    levels = 0
    for g in small_graphs(*BOUNDS):
        for k in range(1, int(8 * (g.diameter() + F(1, 2))) + 1):
            r = F(k, 8)
            cells, S, pts = level_points(g, r)
            assert ball_keys(g, r, cells, S).tolist() == coverage_classes(g, r, pts)[0], (g.name, r)
            for p in pts:
                assert repr(closed_ball(g, p, r)) == repr(closed_ball_oracle(g, p, r)), (g.name, p, r)
            levels += 1
    assert levels == COUNTS[3]


def test_every_small_graph_ball_rows_at_every_24th():
    for g in small_graphs(*BOUNDS):
        assert_rows_are_balls(g, offsets=(F(1, 3),))


def test_every_small_graph_potential():
    for g in small_graphs(*BOUNDS):
        assert g.potential_profile() == potential_oracle(g), g.name
        assert_eccentricity_matches_oracle(g)


def test_every_small_graph_merge_tree():
    for g in small_graphs(*BOUNDS):
        pts = sample_points(g, F(1, 2))
        d, oracle = merge_tree(g, pts), pairwise_matrix(g, pts)
        assert d == dendrogram_from_matrix(oracle), g.name
        mu = d.matrix().mu
        for i, j in combinations(range(len(pts)), 2):
            assert merge_radius(g, pts[i], pts[j]) == mu[i][j] == oracle.mu[i][j], (g.name, i, j)


def test_every_small_graph_code_under_relabelling():
    rng = random.Random(17)
    codes = 0
    for g in small_graphs(*BOUNDS):
        n = g.num_vertices
        code = canonical_multigraph_code(n, g.edges)
        perms = permutations(range(n)) if n <= 5 else (rng.sample(range(n), n) for _ in range(24))
        for perm in perms:
            edges = [(perm[v], perm[u]) if rng.random() < 0.5 else (perm[u], perm[v]) for u, v in g.edges]
            rng.shuffle(edges)
            assert canonical_multigraph_code(n, edges) == code, (g.name, perm)
            codes += 1
    assert codes == COUNTS[2]
