"""The array-based smoothing and canonical code against their oracles in
conftest, on random multigraphs and on every level of three timelines."""

import inspect
import random
import sys

import pytest

from ballflow import canon, evolution, fixtures
from ballflow.canon import canonical_multigraph_code, smooth_multigraph
from ballflow.quotient import fingerprint, project

from conftest import canonical_code_oracle, components_oracle, smooth_oracle


def random_multigraph(rng: random.Random) -> tuple[int, list[tuple[int, int]]]:
    """A random part with loops, parallel edges and isolated vertices, then
    some disjoint pure cycles (a single vertex with a loop among them), with
    the vertices relabelled and the edges shuffled."""
    n = rng.randint(0, 9)
    edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 12) if n else 0)]
    for _ in range(rng.choice((0, 0, 1, 2))):
        k = rng.randint(1, 4)
        cycle = list(range(n, n + k))
        edges += [(cycle[i], cycle[(i + 1) % k]) for i in range(k)]
        n += k
    label = list(range(n))
    rng.shuffle(label)
    edges = [(label[a], label[b]) if rng.random() < 0.5 else (label[b], label[a]) for a, b in edges]
    rng.shuffle(edges)
    return n, edges


@pytest.mark.parametrize("block", range(10))
def test_random_multigraphs_match_oracles(block):
    rng = random.Random(9000 + block)
    cases = [(0, []), (1, []), (1, [(0, 0)]), (1, [(0, 0), (0, 0)])] if block == 0 else []
    cases += [random_multigraph(rng) for _ in range(200)]
    for n, edges in cases:
        assert smooth_multigraph(n, edges) == smooth_oracle(n, edges), (n, edges)
        assert canonical_multigraph_code(n, edges) == canonical_code_oracle(n, edges), (n, edges)


SYMMETRIC = {
    "petersen": (10, [(i, (i + 1) % 5) for i in range(5)]
                 + [(i, i + 5) for i in range(5)]
                 + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]),
    "cube": (8, [(v, v ^ bit) for v in range(8) for bit in (1, 2, 4) if v < v ^ bit]),
    "k33": (6, [(a, b) for a in range(3) for b in range(3, 6)]),
    "prism": (6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)]),
    "k4_doubled_looped": (4, [(a, b) for a in range(4) for b in range(a + 1, 4)] * 2
                          + [(v, v) for v in range(4)]),
    # a cubic graph whose least code is not on the first branch of the search
    "cubic8": (8, [(7, 3), (0, 1), (5, 6), (2, 5), (2, 1), (3, 6), (7, 5), (3, 0), (4, 2), (6, 4), (1, 4), (0, 7)]),
}


@pytest.mark.parametrize("name", sorted(SYMMETRIC))
def test_relabelled_symmetric_graphs_share_one_code(name):
    """Refinement alone cannot split these vertex-regular graphs, so the code
    depends on the search visiting every non-twin branch."""
    n, edges = SYMMETRIC[name]
    expected = canonical_code_oracle(n, edges)
    rng = random.Random(name)
    for _ in range(20):
        label = list(range(n))
        rng.shuffle(label)
        relabelled = [(label[a], label[b]) for a, b in edges]
        assert canonical_multigraph_code(n, relabelled) == expected


@pytest.fixture(scope="module")
def timeline_levels():
    levels = {}
    for name in ("comb", "c6", "theta"):
        g = fixtures.builtin(name)
        levels[name] = (g, [project(g, r) for r, _ in evolution.timeline_loci(g)])
    return levels


@pytest.mark.parametrize("name", ["comb", "c6", "theta"])
def test_timeline_levels_match_oracles(timeline_levels, name):
    _g, levels = timeline_levels[name]
    for q in levels:
        smoothed = smooth_multigraph(q.num_vertices, q.q_edges)
        assert smoothed == smooth_oracle(q.num_vertices, list(q.q_edges)), q.radius
        n, edges, _kept = smoothed
        assert canonical_multigraph_code(n, edges) == canonical_code_oracle(n, edges), q.radius
        assert fingerprint(q).b0 == components_oracle(q.num_vertices, q.q_edges) == 1, q.radius


def test_timeline_searches_each_distinct_smoothed_level_once(timeline_levels):
    g, levels = timeline_levels["comb"]
    distinct = set()
    for q in levels:
        n, edges, _kept = smooth_multigraph(q.num_vertices, q.q_edges)
        distinct.add((n, tuple(edges)))
    canon._canonical_code.cache_clear()
    entries = evolution.timeline(g).entries
    info = canon._canonical_code.cache_info()
    assert info.misses == len(distinct) < len(entries)
    assert info.hits + info.misses == len(entries)


def test_deep_search_needs_no_recursion():
    """Twin leaves are individualized one per search level: the recursive
    oracle needs one frame per leaf, the search none."""
    n, edges = 301, [(0, leaf) for leaf in range(1, 301)]
    expected = canonical_code_oracle(n, edges)
    canon._canonical_code.cache_clear()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        with pytest.raises(RecursionError):
            canonical_code_oracle(n, edges)
        got = canonical_multigraph_code(n, edges)
    finally:
        sys.setrecursionlimit(limit)
    assert got == expected
