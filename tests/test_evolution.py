import itertools
import random
from fractions import Fraction as F

import pytest

from ballflow import evolution, fixtures, mergetree, quotient
from ballflow.evolution import _exact_failure, robustness_radius, timeline, timeline_loci
from ballflow.graph import load_graph
from ballflow.mergetree import merge_radius
from ballflow.quotient import fingerprint, is_injective, project, subdivision

from conftest import candidate_grid, relabeled, robustness_oracle, timeline_oracle
from test_acceptance import big_graph
from test_small_graphs import BOUNDS, small_graphs


class TestGrid:
    def test_quarter_steps_up_to_diameter(self, theta_g):
        grid = candidate_grid(theta_g)
        assert grid[0] == F(1, 4)
        assert grid[-1] == theta_g.diameter()
        assert all(b - a == F(1, 4) for a, b in zip(grid, grid[1:]))

    def test_loci_interleave_midpoints(self, path_g):
        loci = timeline_loci(path_g)
        assert loci[0] == (F(1, 8), False)
        radii = [r for r, _ in loci]
        assert radii == sorted(radii)
        assert radii[-1] == path_g.diameter()
        on_grid = [r for r, g_ in loci if g_]
        assert on_grid == candidate_grid(path_g)
        # every consecutive pair of grid points has its midpoint sampled
        for a, b in zip(on_grid, on_grid[1:]):
            assert ((a + b) / 2, False) in loci


class TestTimeline:
    def test_last_entry_is_point(self):
        for name in ["path", "theta", "c6"]:
            g = fixtures.builtin(name)
            t = timeline(g)
            assert t.entries[-1].radius == g.diameter()
            assert t.entries[-1].fingerprint.is_point, name

    def test_first_entry_matches_input_shape(self, theta_g, c6_g, path_g):
        assert timeline(theta_g).entries[0].fingerprint.b1 == 2
        assert timeline(c6_g).entries[0].fingerprint.b1 == 1
        assert timeline(path_g).entries[0].fingerprint.b1 == 0

    def test_injectivity_monotone(self):
        for name in ["path", "theta", "c6"]:
            flags = [e.injective for e in timeline(fixtures.builtin(name)).entries]
            # once injectivity fails it never comes back
            assert flags == sorted(flags, reverse=True), name

    def test_known_critical_times(self, path_g, theta_g, c6_g):
        assert timeline(path_g).critical_times == (F(2),)
        assert timeline(theta_g).critical_times == (F(1), F(2))
        assert timeline(c6_g).critical_times == (F(3),)

    def test_known_type_counts(self, path_g, theta_g, c6_g):
        assert timeline(path_g).distinct_type_count == 2
        assert timeline(theta_g).distinct_type_count == 3
        assert timeline(c6_g).distinct_type_count == 2

    def test_off_grid_constant_between_grid_points(self, theta_g):
        # the shape between consecutive grid points matches the midpoint sample
        t = timeline(theta_g)
        rng = random.Random(4)
        mids = {
            e.radius: e.fingerprint for e in t.entries if not e.on_grid
        }
        for mid, fp in mids.items():
            for _ in range(3):
                off = mid + F(rng.randrange(-7, 8), 64)
                assert fingerprint(project(theta_g, off)).canonical_code == (
                    fp.canonical_code
                ), (mid, off)


class TestDistinctTypes:
    def test_relabeling_invariant(self):
        doc = {
            "name": "h",
            "vertices": ["p", "q", "r", "s"],
            "edges": [
                {"u": "p", "v": "q", "len": "1"},
                {"u": "q", "v": "r", "len": "1"},
                {"u": "r", "v": "s", "len": "1"},
                {"u": "s", "v": "p", "len": "1"},
                {"u": "p", "v": "r", "len": "1"},
            ],
        }
        base = {e.fingerprint.canonical_code for e in timeline(load_graph(doc)).entries}
        for seed in [7, 8]:
            h = load_graph(relabeled(doc, seed))
            assert {e.fingerprint.canonical_code for e in timeline(h).entries} == base


class TestRobustness:
    def test_path(self, path_g):
        """r_star is the supremum of embedding radii: the level fails just
        past 1, below `exact`, the least merge radius among the failing
        level's representative points."""
        res = robustness_radius(path_g, exact=True)
        assert res.r_star == F(1)
        assert (res.lower, res.upper) == (F(1), F(9, 8))
        assert res.exact == F(17, 16)
        assert not is_injective(path_g, F(1001, 1000))

    def test_theta(self, theta_g):
        res = robustness_radius(theta_g, exact=True)
        assert res.r_star == F(1)
        assert (res.lower, res.upper) == (F(7, 8), F(1))
        assert res.exact == F(1)

    def test_c6(self, c6_g):
        res = robustness_radius(c6_g, exact=True)
        assert res.r_star == F(3)
        assert (res.lower, res.upper) == (F(23, 8), F(3))
        assert res.exact == F(3)

    def test_bracket_consistency_random(self):
        g = fixtures.random_tree(7, seed=5)
        res = robustness_radius(g, exact=True)
        assert res.lower < res.upper
        assert res.lower < res.exact <= res.upper
        assert is_injective(g, res.lower)
        assert not is_injective(g, res.upper)

    def test_exact_failure_keys_17_radii_on_comb5(self, monkeypatch):
        """The sweep's work, counted: comb5 fails at 9/8, whose level's
        midpoints lie on 1/16, so the sweep keys 1/16 ... 17/16, its first
        merge; the doubled grid took 34 calls."""
        real = mergetree.ball_keys
        radii = []

        def counted(g, r, cells, S):
            radii.append(r)
            return real(g, r, cells, S)

        monkeypatch.setattr(mergetree, "ball_keys", counted)
        assert _exact_failure(fixtures.comb(5), F(9, 8)) == F(17, 16)
        assert radii == [F(k, 16) for k in range(1, 18)]

    @pytest.mark.parametrize("name", ["path", "theta", "c6", "comb3"])
    def test_exact_failure_is_min_pairwise_merge_radius(self, name):
        g = fixtures.comb(3) if name == "comb3" else fixtures.builtin(name)
        fail = robustness_radius(g).upper
        sub = subdivision(g, fail)
        reps = {g.canonical_point(p) for p in sub.vertex_cells}
        reps |= {c.midpoint for c in sub.segment_cells}
        expected = min(merge_radius(g, p, q) for p, q in itertools.combinations(reps, 2))
        assert _exact_failure(g, fail) == expected


TIMELINE_GRAPHS = {
    **{name: make for name, make in fixtures.BUILTIN.items()},
    "big200": big_graph,
    "comb5": lambda: fixtures.comb(5),
    "rand40": lambda: fixtures.random_connected(40, 20, 1),
}


@pytest.mark.parametrize("name", list(TIMELINE_GRAPHS))
def test_timeline_equals_the_per_locus_oracle(name):
    """Keying each layout's loci in turn gives the entries of one `project`
    and `fingerprint` per locus, in radius order."""
    g = TIMELINE_GRAPHS[name]()
    assert timeline(g).entries == timeline_oracle(g)


def count_layouts(monkeypatch) -> list[int]:
    """The grid S of every layout that `evolution` builds from now on."""
    real, built = evolution._layout, []

    def counted(g, rho):
        built.append(quotient._grid(rho))
        return real(g, rho)

    monkeypatch.setattr(evolution, "_layout", counted)
    return built


def test_big200_timeline_builds_three_layouts(monkeypatch):
    """One layout per grid S of the representative radii, each built once:
    r mod 1/2 = 1/8 and 3/8 share S = 32 and its cells."""
    built = count_layouts(monkeypatch)
    timeline(big_graph())
    assert sorted(built) == [8, 16, 32]


def test_big200_timeline_reduces_each_locus_once(monkeypatch):
    """`level_radius` runs once per locus, where the locus is grouped."""
    g, calls = big_graph(), []
    real = quotient.level_radius

    def counted(g, r):
        calls.append(r)
        return real(g, r)

    monkeypatch.setattr(quotient, "level_radius", counted)
    monkeypatch.setattr(evolution, "level_radius", counted)
    timeline(g)
    assert sorted(calls) == [r for r, _on_grid in timeline_loci(g)]


ROBUSTNESS_GRAPHS = {
    **{name: make for name, make in fixtures.BUILTIN.items()},
    "rand40": lambda: fixtures.random_connected(40, 20, 1),
    "big200": big_graph,
}


@pytest.mark.parametrize("name", ["small graphs", *ROBUSTNESS_GRAPHS])
def test_robustness_bracket_equals_the_scan_oracle(name, monkeypatch):
    """`robustness_radius`'s bracket is the scan of `is_injective` over the
    loci, and it holds at most one layout per grid S."""
    built = count_layouts(monkeypatch)
    graphs = small_graphs(*BOUNDS) if name == "small graphs" else [ROBUSTNESS_GRAPHS[name]()]
    for g in graphs:
        built.clear()
        res = robustness_radius(g)
        assert (res.lower, res.upper) == robustness_oracle(g), g.name
        assert len(built) == len(set(built)) <= 3, g.name
