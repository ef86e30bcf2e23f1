import random
import sys
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

from ballflow import fixtures
from ballflow.errors import InternalConsistencyError, ValidationError
from ballflow.graph import MAX_UNIT_EDGES, GraphPoint, _distance_matrix, load_graph, parse_rational, format_rational

from conftest import (
    assert_eccentricity_matches_oracle,
    distance_oracle,
    ecc_oracle,
    grid_points,
    potential_oracle,
    quarter_table_oracle,
)

sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402


def doc(vertices, edges, name="g"):
    return {
        "name": name,
        "vertices": vertices,
        "edges": [{"u": u, "v": v, "len": l} for u, v, l in edges],
    }


# lengths 3/2, 1/3 and 2 on a triangle plus a loop of length 1/2 (scale 1/6)
MIXED_LOOP_DOC = doc(
    ["a", "b", "c"],
    [("a", "b", "3/2"), ("b", "c", "1/3"), ("c", "a", "2"), ("b", "b", "1/2")],
    name="mixed-loop",
)

# a unit edge with a unit loop at one end: points inside the edge have
# eccentricity below 1, so a kernel that used the tent peak (1) on a point's own
# edge would be wrong here, while the other graphs below do not catch it
LOLLIPOP_DOC = doc(["a", "b"], [("a", "b", "1"), ("a", "a", "1")], name="lollipop")

# one vertex with a loop: Phi is 1/2 everywhere, where the tent of the loop
# reads 3/4 at offset 1/4
LOOP_DOC = doc(["a"], [("a", "a", "1")], name="loop")


@pytest.fixture(scope="module")
def path4000():
    """A path of MAX_UNIT_EDGES unit edges: as many hops, and max D = 4,000,
    so the Phi kernel's terms are bounded by 12 + 8 * 4,000 = 32,012
    eighths, near int16's 32,767."""
    return load_graph(doc(list(range(MAX_UNIT_EDGES + 1)), [(i, i + 1, 1) for i in range(MAX_UNIT_EDGES)]))


class TestIngestion:
    def test_rational_parsing(self):
        assert parse_rational("3/4") == F(3, 4)
        assert parse_rational("2") == F(2)
        assert format_rational(F(6, 4)) == "3/2"
        with pytest.raises(ValidationError):
            parse_rational("0.5x")
        with pytest.raises(ValidationError, match="got True"):
            parse_rational(True)  # a JSON boolean is an int in Python

    def test_unit_normalization(self):
        g = load_graph(doc(["a", "b", "c"], [("a", "b", "3/2"), ("b", "c", "1")]))
        # lcm of denominators is 2 and 3, 2 are coprime: 3 + 2 unit pieces of 1/2
        assert g.scale == F(1, 2)
        assert g.num_edges == 5
        assert g.num_vertices == 6
        assert g.to_user(g.diameter()) == F(5, 2)

    def test_lengths_are_divided_by_their_gcd(self):
        g = load_graph(doc(["a", "b", "c"], [("a", "b", "600"), ("b", "c", "600")]))
        assert (g.scale, g.num_edges, g.to_user(g.diameter())) == (600, 2, 1200)
        g = load_graph(doc(["a", "b"], [("a", "b", "3/2")]))
        assert (g.scale, g.num_edges, g.num_vertices) == (F(3, 2), 1, 2)

    def test_length_key_aliases(self):
        tail = {"u": "b", "v": "c", "len": 1}  # coprime to the first length
        g1 = load_graph({"vertices": list("abc"), "edges": [{"u": "a", "v": "b", "len": 2}, tail]})
        g2 = load_graph({"vertices": list("abc"), "edges": [{"u": "a", "v": "b", "length": 2}, tail]})
        assert g1.num_edges == g2.num_edges == 3

    def test_rejects_bad_documents(self):
        with pytest.raises(ValidationError):
            load_graph(doc(["a", "b"], [("a", "c", 1)]))  # unknown vertex
        with pytest.raises(ValidationError):
            load_graph(doc(["a", "b"], [("a", "b", 0)]))  # zero length
        with pytest.raises(ValidationError, match="graph is disconnected"):
            load_graph(doc(["a", "b", "c", "d"], [("a", "b", 1), ("c", "d", 1)]))
        with pytest.raises(ValidationError, match="graph is disconnected"):
            load_graph(doc(["a", "b", "c"], [("a", "b", 1)]))  # c is isolated
        with pytest.raises(ValidationError, match="rational must be a string, got True"):
            load_graph(doc(["a", "b"], [("a", "b", True)]))
        with pytest.raises(ValidationError, match="vertex names must be strings or numbers"):
            load_graph(doc([True, "x"], [(True, "x", 1)]))
        with pytest.raises(ValidationError, match="duplicate vertex names"):
            load_graph(doc([1, "1", 2], [(1, 2, 1)]))  # equal once read as strings

    def test_unit_edge_cap(self):
        g = load_graph(doc(["a", "b", "c"], [("a", "b", str(MAX_UNIT_EDGES - 1)), ("b", "c", "1")]))
        assert g.num_edges == MAX_UNIT_EDGES
        # the cap counts unit edges after the gcd of the lengths is divided out
        long = str(10 * MAX_UNIT_EDGES)
        assert load_graph(doc(["a", "b", "c"], [("a", "b", long), ("b", "c", long)])).num_edges == 2
        with pytest.raises(ValidationError, match=f"{MAX_UNIT_EDGES + 1} unit edges"):
            load_graph(doc(["a", "b", "c"], [("a", "b", str(MAX_UNIT_EDGES)), ("b", "c", "1")]))
        # a small denominator multiplies every other length
        with pytest.raises(ValidationError, match=f"{MAX_UNIT_EDGES + 1} unit edges"):
            load_graph(doc(["a", "b", "c"], [("a", "b", "1"), ("b", "c", f"1/{MAX_UNIT_EDGES}")]))

    def test_one_vertex_loop(self):
        g = load_graph(doc(["a"], [("a", "a", 1)]))
        assert (g.num_vertices, g.vertex_distance_matrix().tolist(), g.diameter()) == (1, [[0]], F(1, 2))

    def test_loop_and_parallel_edges(self):
        g = load_graph(doc(["a", "b"], [("a", "b", 1), ("a", "b", 1), ("a", "a", 1)]))
        assert g.num_edges == 3
        # loop midpoint to b: 1/2 around the loop plus the unit edge
        assert g.diameter() == F(3, 2)


class TestPoints:
    def test_canonical_vertex_point(self, path_g):
        # endpoint representations of the shared vertex b collapse to one
        p1 = path_g.canonical_point(GraphPoint(0, F(1)))
        p2 = path_g.canonical_point(GraphPoint(1, F(0)))
        assert p1 == p2

    def test_user_coordinate_round_trip(self):
        g = load_graph(doc(["a", "b", "c"], [("a", "b", "3/2"), ("b", "c", 1)]))
        p = g.point_from_user(0, F(5, 4))
        e, t = g.point_to_user(p)
        assert (e, t) == (0, F(5, 4))
        with pytest.raises(ValidationError):
            g.point_from_user(0, F(7, 4))  # beyond the edge
        with pytest.raises(ValidationError):
            g.point_from_user(5, F(1, 2))


class TestDistances:
    def test_path_distances(self, path_g):
        a = path_g.vertex_point(0)
        c = path_g.vertex_point(2)
        assert path_g.point_distance(a, c) == 2
        assert path_g.point_distance(GraphPoint(0, F(1, 4)), GraphPoint(1, F(1, 4))) == 1

    def test_same_edge_shortcut_vs_around(self):
        g = fixtures.c4()
        p, q = GraphPoint(0, F(1, 8)), GraphPoint(0, F(7, 8))
        assert g.point_distance(p, q) == F(3, 4)

    def test_loop_distance_uses_both_routings(self):
        g = load_graph(doc(["a", "b"], [("a", "a", 2), ("a", "b", 1)]))
        # two unit edges forming a circle of circumference 2, and a pendant edge
        p, q = GraphPoint(0, F(0)), GraphPoint(0, F(3, 4))
        assert g.point_distance(p, q) == F(3, 4)
        assert g.point_distance(GraphPoint(0, F(1, 4)), GraphPoint(1, F(3, 4))) == F(1, 2)
        assert g.diameter() == 2

    def test_distance_symmetry_and_triangle(self, theta_g):
        pts = grid_points(theta_g, 3)
        for p in pts[::2]:
            for q in pts[1::2]:
                assert theta_g.point_distance(p, q) == theta_g.point_distance(q, p)
        a, b, c = pts[0], pts[5], pts[9]
        assert theta_g.point_distance(a, c) <= (
            theta_g.point_distance(a, b) + theta_g.point_distance(b, c)
        )


def random_multigraph(rng: random.Random) -> tuple[int, list[tuple[int, int]]]:
    """1 to 70 vertices and up to 120 edges, with loops, parallel edges and
    isolated vertices; half the graphs start from a random spanning tree, so
    that both connected and disconnected ones occur."""
    n = rng.randint(1, 70)
    edges = [(rng.randrange(v), v) for v in range(1, n)] if rng.random() < 0.5 else []
    for _ in range(rng.randint(0, 120 - len(edges))):
        kind = rng.random()
        if kind < 0.15 and edges:
            edges.append(rng.choice(edges))
        elif kind < 0.3:
            edges.append((v := rng.randrange(n), v))
        else:
            edges.append((rng.randrange(n), rng.randrange(n)))
    label = list(range(n))
    rng.shuffle(label)
    edges = [(label[b], label[a]) if rng.random() < 0.5 else (label[a], label[b]) for a, b in edges]
    rng.shuffle(edges)
    return n, edges


class TestDistanceMatrix:
    """The search from all sources at once against one BFS per source."""

    def test_random_multigraphs(self):
        rng = random.Random(1700)
        loaded = {True: 0, False: 0}
        for _ in range(300):
            n, edges = random_multigraph(rng)
            expected = distance_oracle(n, edges)
            assert np.array_equal(_distance_matrix(n, edges), expected), (n, edges)
            if not edges:
                continue
            document = doc(list(range(n)), [(u, v, 1) for u, v in edges])
            connected = bool((expected >= 0).all())
            if connected:
                g = load_graph(document)
                assert (g.num_vertices, g.edges) == (n, edges)
                assert np.array_equal(g.vertex_distance_matrix(), expected), (n, edges)
            else:
                with pytest.raises(ValidationError, match="graph is disconnected"):
                    load_graph(document)
            loaded[connected] += 1
        assert min(loaded.values()) >= 100, loaded

    def test_path_of_4000_unit_edges(self, path4000):
        D = path4000.vertex_distance_matrix()
        assert D.dtype == np.int16 and D.max() == MAX_UNIT_EDGES
        assert np.array_equal(D, distance_oracle(path4000.num_vertices, path4000.edges))

    def test_star_of_4000_leaves(self):
        """The hub has degree 4,000, so hop 2 steps 16 million candidate pairs
        in slices whose int16 tags, one per candidate not yet reached, must
        not wrap."""
        n, edges = MAX_UNIT_EDGES + 1, [(0, i) for i in range(1, MAX_UNIT_EDGES + 1)]
        D = _distance_matrix(n, edges)
        assert D.dtype == np.int16
        assert np.array_equal(D, distance_oracle(n, edges))

    def test_1046_unit_edges(self):
        g = fixtures.random_connected(500, 250, 1)
        assert g.num_edges == 1046
        assert np.array_equal(g.vertex_distance_matrix(), distance_oracle(g.num_vertices, g.edges))


class TestEccentricity:
    @pytest.mark.parametrize("name", ["path", "c4", "c6", "theta"])
    def test_matches_sampling_oracle(self, name):
        g = fixtures.builtin(name)
        for p in grid_points(g, 4):
            exact = g.eccentricity(p)
            approx = ecc_oracle(g, p, 32)
            assert approx <= exact <= approx + F(1, 32), (name, p)

    def test_random_graphs_match_oracle(self):
        for seed in range(3):
            g = fixtures.random_connected(5, 2, seed)
            for p in grid_points(g, 3):
                exact = g.eccentricity(p)
                approx = ecc_oracle(g, p, 32)
                assert approx <= exact <= approx + F(1, 32)

    def test_c6_constant(self, c6_g):
        for p in grid_points(c6_g, 5):
            assert c6_g.eccentricity(p) == 3

    @pytest.mark.parametrize("document", [LOOP_DOC, MIXED_LOOP_DOC, LOLLIPOP_DOC], ids=["loop", "mixed-loop", "lollipop"])
    def test_matches_piecewise_oracle_at_every_24th(self, document):
        """The own-edge term binds on these graphs: the plain tent on a
        point's own edge gives 3/4 on the loop at offset 1/4."""
        assert_eccentricity_matches_oracle(load_graph(document))


class TestPotentialProfile:
    def test_path_profile(self, path_g):
        prof = path_g.potential_profile()
        assert (prof.m, prof.M) == (1, 2)
        centers = {
            path_g.canonical_point(GraphPoint(e, lo))
            for e, ivs in enumerate(prof.centers)
            for lo, hi in ivs
            if lo == hi
        }
        assert centers == {path_g.vertex_point(1)}

    def test_theta_constant_potential(self, theta_g):
        prof = theta_g.potential_profile()
        assert prof.m == prof.M == 2

    def test_half_bound_failure_names_the_graph(self):
        g = fixtures.path()
        g._phi8 = np.full((g.num_edges, 5), 8)  # a forged table: m = 1, M = 3
        g._phi8[0, 2] = 24
        with pytest.raises(InternalConsistencyError, match=r"^path: potential min 1 < half of max 3$"):
            g.potential_profile()

    def test_invariant_m_at_least_half_M(self):
        for seed in range(5):
            g = fixtures.random_connected(6, 2, seed)
            prof = g.potential_profile()
            assert 2 * prof.m >= prof.M
            assert prof.M == g.diameter() == potential_oracle(g).M

    @pytest.mark.parametrize(
        "make",
        [fixtures.path, fixtures.c4, fixtures.c6, fixtures.theta, lambda: fixtures.comb(3)]
        + [lambda s=s: fixtures.random_connected(8, 4, s) for s in range(5)]
        + [lambda s=s: fixtures.random_connected(10, 0, s) for s in range(5)]
        + [lambda: load_graph(MIXED_LOOP_DOC), lambda: load_graph(LOLLIPOP_DOC)],
        ids=["path", "c4", "c6", "theta", "comb3"]
        + [f"random_connected-8-4-{s}" for s in range(5)]
        + [f"random_tree-10-{s}" for s in range(5)]
        + ["mixed-loop", "lollipop"],
    )
    def test_matches_piecewise_oracle(self, make):
        g = make()
        oracle = potential_oracle(g)
        prof = g.potential_profile()
        assert prof.m == oracle.m
        assert prof.M == oracle.M
        assert prof.centers == oracle.centers
        assert prof.extrema == oracle.extrema
        assert g.diameter() == oracle.M


class TestQuarterTable:
    """The Phi table, int16 while 8 (max D + 2) fits, against the int64 route."""

    def test_big200(self):
        g = load_graph(workloads.big200_document())
        assert g._quarter_eccentricities().dtype == np.int16
        assert np.array_equal(g._quarter_eccentricities(), quarter_table_oracle(g))

    def test_path_of_4000_unit_edges(self, path4000):
        T = path4000._quarter_eccentricities()
        assert T.dtype == np.int16 and T.max() == 8 * MAX_UNIT_EDGES
        assert np.array_equal(T, quarter_table_oracle(path4000))


class TestDiameter:
    @pytest.mark.parametrize(
        "name,expect", [("path", 2), ("c4", 2), ("c6", 3), ("theta", 2)]
    )
    def test_fixture_diameters(self, name, expect):
        assert fixtures.builtin(name).diameter() == expect

    def test_reads_the_table_once(self, monkeypatch):
        g = fixtures.comb(3)
        calls = []
        table = g._quarter_eccentricities
        monkeypatch.setattr(g, "_quarter_eccentricities", lambda: calls.append(1) or table())
        assert g.diameter() == g.diameter() == potential_oracle(g).M
        assert len(calls) == 1

    def test_diameter_vs_pairwise_sampling(self):
        for seed in range(3):
            g = fixtures.random_connected(5, 2, seed)
            pts = grid_points(g, 8)
            brute = max(
                g.point_distance(p, q) for i, p in enumerate(pts) for q in pts[i + 1:]
            )
            assert brute <= g.diameter() <= brute + F(1, 4)
            # eccentricity max must equal the diameter exactly
            assert g.diameter() == potential_oracle(g).M
