"""The array-based smoothing and canonical code against their oracles in
conftest, on random multigraphs, on every level of three timelines and on
families of twins and interchangeable blocks.  The incremental refinement is
checked against conftest's refinement of every class at each call of the
search, and the search's refinement and leaf counts are pinned on the cases
that once blew up.  Smoothing a batch's disjoint union must give each graph
what the oracle gives it alone, across runs of edges that would cross from
one graph into the next without the union's offsets.  A batch must give each graph the distance ranks and the
code it gets alone, across the chunk limit too, and search each of its
distinct graphs once, counted at `canon._search`.  Code equality is also
checked against networkx's isomorphism test, which shares nothing with the
search, where networkx is installed.  With BALLFLOW_DEEP=1 the oracle comparison runs on 1,200
more random multigraphs and on larger twin-heavy families."""

import hashlib
import inspect
import json
import os
import random
import sys
from collections import Counter
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from ballflow import canon, evolution, fixtures, graph
from ballflow.canon import canonical_multigraph_code, smooth_multigraph, smooth_multigraphs
from ballflow.quotient import fingerprint, project

from conftest import (
    canonical_code_oracle,
    components_oracle,
    distance_profiles_oracle,
    refine_colors_oracle,
    smooth_oracle,
)
from test_acceptance import big_graph

DEEP = os.environ.get("BALLFLOW_DEEP") == "1"
LEVEL_R131_8 = Path(__file__).resolve().parent / "data" / "canon_rand2000_r131_8.json"


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


def walk_multigraph(rng: random.Random) -> tuple[int, list[tuple[int, int]]]:
    """A multigraph whose edges come as a few walks, each listed edge after
    edge, so that runs (a, x), (x, b), ... pass vertices x of degree 2 and of
    more; a few edges are turned round, which breaks a run."""
    n, edges = rng.randint(1, 9), []
    for _ in range(rng.randint(1, 3)):
        walk = [rng.randrange(n) for _ in range(rng.randint(2, 7))]
        edges += [(a, b) if rng.random() < 0.8 else (b, a) for a, b in zip(walk, walk[1:])]
    return n, edges


# each of these ends where the next begins, in its own ids, at a vertex of
# degree 2 in both: only the union's offsets keep a run from crossing over
CYCLE3 = (3, [(0, 1), (1, 2), (2, 0)])
BOUNDARY_RUNS = [CYCLE3, CYCLE3, (4, [(0, 1), (1, 2), (2, 3), (3, 0)]), (2, [(0, 1), (1, 0)]), CYCLE3, (1, [(0, 0)])]


@pytest.mark.parametrize("block", range(5))
def test_union_smoothing_matches_each_graph_alone(block):
    """`smooth_multigraphs` of batches of 1 to 8 graphs, and of the graphs of
    BOUNDARY_RUNS in turn: each graph's vertex count, smoothed edges and kept
    ids, read off the union, are the oracle's for the graph alone."""
    rng = random.Random(7000 + block)
    cases = [random_multigraph(rng) if rng.random() < 0.5 else walk_multigraph(rng) for _ in range(300)]
    batches = [BOUNDARY_RUNS] if block == 0 else []
    while cases:
        size = rng.randint(1, 8)
        batches.append(cases[:size])
        cases = cases[size:]
    for batch in batches:
        edges = np.array([e for _, graph_edges in batch for e in graph_edges], dtype=np.int64).reshape(-1, 2)
        n, smoothed, kept = smooth_multigraphs([k for k, _ in batch], edges, [len(e) for _, e in batch])
        at = (np.cumsum(n) - n).tolist()
        for (k, graph_edges), a, m in zip(batch, at, n.tolist()):
            mine = smoothed[(smoothed[:, 0] >= a) & (smoothed[:, 0] < a + m)] - a
            got = (m, list(map(tuple, mine.tolist())), kept[a : a + m].tolist())
            assert got == smooth_oracle(k, graph_edges), (k, graph_edges, batch)


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


def count_searches(monkeypatch) -> list:
    """The (n, edges) of each `canon._search` call from now on."""
    real, searched = canon._search, []
    monkeypatch.setattr(canon, "_search", lambda n, edges, ranks: (searched.append((n, edges)), real(n, edges, ranks))[1])
    return searched


def test_timeline_searches_each_distinct_smoothed_level_once(monkeypatch, timeline_levels):
    g, levels = timeline_levels["comb"]
    distinct = set()
    for q in levels:
        n, edges, _kept = smooth_multigraph(q.num_vertices, q.q_edges)
        distinct.add((n, tuple(edges)))
    searched = count_searches(monkeypatch)
    entries = evolution.timeline(g).entries
    assert set(searched) == distinct
    assert len(searched) == len(distinct) < len(entries)


def test_big200_timeline_runs_one_rank_expansion(monkeypatch):
    """Counted, not timed: the distinct smoothed levels of the big200
    timeline are ranked in one frontier expansion and searched once each."""
    real, batches = canon._distance_ranks, []
    monkeypatch.setattr(canon, "_distance_ranks", lambda graphs: (batches.append(len(graphs)), real(graphs))[1])
    searched = count_searches(monkeypatch)
    entries = evolution.timeline(big_graph()).entries
    assert batches == [len(searched)] == [len(set(searched))] == [44]
    assert len(entries) == 76


def test_deep_search_needs_no_recursion():
    """The recursive oracle individualizes twin leaves one per level, so it
    needs one frame per leaf; the search needs none."""
    n, edges = 301, [(0, leaf) for leaf in range(1, 301)]
    expected = canonical_code_oracle(n, edges)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        with pytest.raises(RecursionError):
            canonical_code_oracle(n, edges)
        got = canonical_multigraph_code(n, edges)
    finally:
        sys.setrecursionlimit(limit)
    assert got == expected


def relabelled(rng: random.Random, n: int, edges: list[tuple[int, int]]) -> list[tuple[int, int]]:
    label = list(range(n))
    rng.shuffle(label)
    edges = [(label[a], label[b]) for a, b in edges]
    rng.shuffle(edges)
    return edges


def assert_match_oracle(rng: random.Random, cases: list[tuple[int, list[tuple[int, int]]]]) -> None:
    """Each multigraph and a relabelled copy get the oracle's code."""
    for n, edges in cases:
        expected = canonical_code_oracle(n, edges)
        assert canonical_multigraph_code(n, edges) == expected, (n, edges)
        assert canonical_multigraph_code(n, relabelled(rng, n, edges)) == expected, (n, edges)


def star(k: int) -> tuple[int, list[tuple[int, int]]]:
    return k + 1, [(0, leaf) for leaf in range(1, k + 1)]


def k4_blades(k: int) -> tuple[int, list[tuple[int, int]]]:
    """k copies of K4 that share one vertex: the blades are interchangeable
    blocks whose vertices are not twins of another blade's."""
    blade = lambda b: (0, 3 * b + 1, 3 * b + 2, 3 * b + 3)
    return 3 * k + 1, [(vs[i], vs[j]) for vs in map(blade, range(k)) for i in range(4) for j in range(i + 1, 4)]


def disjoint_edges(k: int) -> tuple[int, list[tuple[int, int]]]:
    return 2 * k, [(2 * i, 2 * i + 1) for i in range(k)]


def twin_families(stars: int, blades: int, edges: int) -> list[tuple[int, list[tuple[int, int]]]]:
    """Stars, K4 blades and disjoint edges up to the given sizes, and each
    with a pendant path or a doubled, looped spoke so that twin classes sit
    beside classes that are not."""
    cases = [star(k) for k in range(1, stars + 1)]
    cases += [k4_blades(k) for k in range(1, blades + 1)]
    cases += [disjoint_edges(k) for k in range(1, edges + 1)]
    cases += [(n + 2, e + [(0, n), (n, n + 1)]) for n, e in list(cases)]
    cases += [(n, e + [e[0], (e[0][1], e[0][1])]) for n, e in cases[: stars + blades + edges]]
    return cases


def test_twin_families_match_oracle():
    assert_match_oracle(random.Random("twins"), twin_families(stars=8, blades=4, edges=5))


def random_regular(rng: random.Random, n: int, d: int) -> list[tuple[int, int]]:
    """A simple d-regular graph on n vertices, from the configuration model."""
    while True:
        stubs = [v for v in range(n) for _ in range(d)]
        rng.shuffle(stubs)
        edges = list(zip(stubs[::2], stubs[1::2]))
        if all(a != b for a, b in edges) and len(set(map(frozenset, edges))) == len(edges):
            return edges


def test_regular_graphs_match_oracle():
    """Refinement splits nothing on a regular graph, so its code rests on
    the search and on automorphisms found at its leaves."""
    rng = random.Random("regular")
    cases = [(n, random_regular(rng, n, d)) for n in range(6, 15, 2) for d in (3, 4) for _ in range(4)]
    cases += [(n, [(i, (i + s) % n) for i in range(n) for s in steps]) for n in (8, 9, 12) for steps in ((1, 2), (1, 3))]
    assert_match_oracle(rng, cases)


def dense(colors: list[int]) -> list[int]:
    rank = {c: i for i, c in enumerate(sorted(set(colors)))}
    return [rank[c] for c in colors]


def test_refinement_matches_oracle_at_every_call(monkeypatch, timeline_levels):
    """At each call of the search, the ordered partition that the touched
    classes reach is the one that re-signing every vertex reaches, and cells
    holds exactly its classes of two or more vertices."""
    refine, calls = canon.refine_colors, []

    def checked(adj, loops, colors, cells, touched):
        before = dense(colors)
        got = refine(adj, loops, colors, cells, touched)
        assert dense(got) == refine_colors_oracle(len(got), adj, loops, before)
        members = {}
        for v, c in enumerate(got):
            members.setdefault(c, []).append(v)
        assert cells == {c: vs for c, vs in members.items() if len(vs) > 1}
        assert all(c == sum(len(vs) for d, vs in members.items() if d < c) for c in members)
        calls.append(len(got))
        return got

    monkeypatch.setattr(canon, "refine_colors", checked)
    rng = random.Random(77)
    cases = [random_multigraph(rng) for _ in range(200)]
    cases += [(n, relabelled(rng, n, edges)) for n, edges in SYMMETRIC.values()]
    cases += twin_families(stars=5, blades=4, edges=5)
    for _g, levels in timeline_levels.values():
        cases += [smooth_multigraph(q.num_vertices, q.q_edges)[:2] for q in levels]
    data = json.loads(LEVEL_R131_8.read_text())
    cases.append((data["n"], [tuple(e) for e in data["edges"]]))
    for n, edges in cases:
        canonical_multigraph_code(n, edges)
    assert len(calls) >= sum(n > 0 for n, _edges in cases)


def search_counts(monkeypatch, n: int, edges: list[tuple[int, int]]) -> tuple[str, int, int]:
    """The code, the number of refinements and the number of leaves of one
    search, counted at `canon.refine_colors` and the leaf encoder."""
    counts = Counter()
    refine, encode = canon.refine_colors, canon._encode
    monkeypatch.setattr(canon, "refine_colors", lambda *a: (counts.update(["refine"]), refine(*a))[1])
    monkeypatch.setattr(canon, "_encode", lambda *a: (counts.update(["leaf"]), encode(*a))[1])
    code = canonical_multigraph_code(n, edges)
    monkeypatch.undo()
    return code, counts["refine"], counts["leaf"]


def test_natural_level_that_blew_up(monkeypatch):
    """The smoothed level of random_connected(2000, 850, 1) at r = 131/8 (492
    vertices, one of degree 292, 227 leaves), with the code the search gave
    before orbit pruning and incremental refinement: it then took 18,549
    refinements."""
    data = json.loads(LEVEL_R131_8.read_text())
    n, edges = data["n"], [tuple(e) for e in data["edges"]]
    assert (n, len(edges)) == (492, 820)
    assert hashlib.md5(data["code"].encode()).hexdigest() == "786d321e8f746543ab8073d7529367a5"
    assert search_counts(monkeypatch, n, edges) == (data["code"], 28, 7)


def test_star_of_1200_leaves_is_one_twin_step(monkeypatch):
    n, edges = star(1200)
    expected = "V1201|" + ",".join(f"0-{leaf}x1" for leaf in range(1, 1201))
    assert search_counts(monkeypatch, n, edges) == (expected, 1, 1)
    assert canonical_multigraph_code(n, relabelled(random.Random(1200), n, edges)) == expected


def test_twenty_disjoint_edges(monkeypatch):
    n, edges = disjoint_edges(20)
    expected = "V40|" + ",".join(f"{2 * i}-{2 * i + 1}x1" for i in range(20))
    assert search_counts(monkeypatch, n, edges) == (expected, 210, 20)
    assert canonical_multigraph_code(n, relabelled(random.Random(20), n, edges)) == expected


def test_ten_k4_blades(monkeypatch):
    """Without orbit pruning the leaves grow about sevenfold per blade; the
    oracle cannot afford ten, so the code is checked by relabelling."""
    n, edges = k4_blades(10)
    code, refinements, leaves = search_counts(monkeypatch, n, edges)
    assert (refinements, leaves) == (55, 10)
    rng = random.Random(10)
    for _ in range(5):
        assert canonical_multigraph_code(n, relabelled(rng, n, edges)) == code


@pytest.mark.skipif(not DEEP, reason="set BALLFLOW_DEEP=1")
def test_deep_random_and_twin_heavy_multigraphs_match_oracle():
    cases = [random_multigraph(random.Random(seed)) for seed in range(600)]
    assert_match_oracle(random.Random("deep"), cases + twin_families(stars=60, blades=6, edges=7))


def rank_cases() -> list[tuple[int, tuple[tuple[int, int], ...]]]:
    """Graphs of 1, 63, 64, 65 and 129 vertices around the 64-bit word
    bounds (the last in two components), loops only, isolated vertices, V0
    and the stored 492-vertex level."""
    rng = random.Random("ranks")
    cases = []
    for n in (1, 63, 64, 65, 100):
        tree = [(rng.randrange(v), v) for v in range(1, n)]
        cases.append((n, tree + [(rng.randrange(n), rng.randrange(n)) for _ in range(n // 4)]))
    cases[-1] = (129, cases[-1][1] + [(100 + i, 100 + (i + 1) % 29) for i in range(29)])
    cases += [(3, [(0, 0), (1, 1), (1, 1)]), (6, [(0, 1), (1, 2), (1, 2), (4, 4)]), (0, [])]
    data = json.loads(LEVEL_R131_8.read_text())
    cases.append((data["n"], data["edges"]))
    return [(n, tuple(map(tuple, edges))) for n, edges in cases]


def profile_ranks_oracle(n: int, edges) -> list[int]:
    """Each vertex's rank among the distinct sorted BFS profiles of conftest."""
    profiles = distance_profiles_oracle(n, edges)
    rank = {p: i for i, p in enumerate(sorted(set(profiles)))}
    return [rank[p] for p in profiles]


def test_batched_ranks_equal_each_graph_alone():
    cases = rank_cases()
    shuffled = random.Random(5).sample(cases, len(cases))
    again = dict(zip(shuffled, canon._distance_ranks(shuffled)))
    for (n, edges), ranks in zip(cases, canon._distance_ranks(cases)):
        alone = canon._distance_ranks([(n, edges)])[0] if n else []
        assert ranks == again[n, edges] == alone == profile_ranks_oracle(n, edges), n


def test_a_batch_of_codes_equals_each_code_alone(monkeypatch):
    """Repeats in a batch and V0 are not searched; each distinct graph of
    it is searched once."""
    rng = random.Random("batch")
    cases = rank_cases() + [random_multigraph(rng) for _ in range(30)]
    alone = [canonical_multigraph_code(n, edges) for n, edges in cases]
    distinct = {(n, tuple(map(tuple, edges))) for n, edges in cases if n}
    searched = count_searches(monkeypatch)
    assert canon.canonical_codes(cases + cases[:4]) == alone + alone[:4]
    assert len(searched) == len(distinct) < len(cases) + 4
    assert set(searched) == distinct


def test_a_batch_split_at_the_chunk_limit(monkeypatch):
    """With `graph._CHUNK_ENTRIES` at 200 words, a chunk holds several graphs
    only while its vertices times its largest graph's words fit."""
    cases = [case for case in rank_cases() if case[0]]
    alone = [canonical_multigraph_code(n, edges) for n, edges in cases]
    real, chunks = canon._distance_ranks, []

    def counted(graphs):
        chunks.append((len(graphs), sum(n for n, _ in graphs) * ((max(n for n, _ in graphs) + 63) // 64)))
        return real(graphs)

    monkeypatch.setattr(canon, "_distance_ranks", counted)
    monkeypatch.setattr(graph, "_CHUNK_ENTRIES", 200)
    assert canon.canonical_codes(cases) == alone
    assert sum(k for k, _ in chunks) == len(cases)
    assert all(k == 1 or words <= 200 for k, words in chunks)
    assert any(k > 1 for k, _ in chunks) and any(words > 200 for _, words in chunks)



def rook_and_shrikhande() -> list[tuple[int, list[tuple[int, int]]]]:
    """The 4 x 4 rook's graph and the Shrikhande graph on Z4 x Z4: both are
    strongly regular (16, 6, 2, 2), so colour refinement splits neither."""
    steps = {(0, 1), (0, 3), (1, 0), (3, 0), (1, 1), (3, 3)}
    rook = [(a, b) for a in range(16) for b in range(a + 1, 16) if a // 4 == b // 4 or a % 4 == b % 4]
    shrikhande = [(a, b) for a in range(16) for b in range(a + 1, 16) if ((b // 4 - a // 4) % 4, (b - a) % 4) in steps]
    return [(16, rook), (16, shrikhande)]


def test_codes_agree_with_networkx_isomorphism(timeline_levels):
    """An oracle apart from conftest's, which runs the same invariant and
    search: within each bucket of equal (n, |E|, degree histogram), two codes
    are equal iff networkx's VF2 finds the multigraphs isomorphic.  The cases
    are random 3- and 4-regular graphs on 8 to 16 vertices and the rook's and
    Shrikhande graphs, each with a relabelling, random multigraphs on 2 to 9
    vertices with loops and parallel edges, and the distinct smoothed
    timeline levels of comb, c6 and theta."""
    nx = pytest.importorskip("networkx")
    rng = random.Random("networkx")
    cases = [(n, random_regular(rng, n, d)) for d in (3, 4) for n in range(8, 17, 2) for _ in range(4)] + rook_and_shrikhande()
    cases = [case for n, edges in cases for case in ((n, edges), (n, relabelled(rng, n, edges)))]
    for n in [rng.randint(2, 9) for _ in range(2000)]:
        cases.append((n, [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(1, 12))]))
    smoothed = (smooth_multigraph(q.num_vertices, q.q_edges)[:2] for _g, levels in timeline_levels.values() for q in levels)
    cases += dict.fromkeys((n, tuple(edges)) for n, edges in smoothed)  # each distinct level once
    buckets = {}
    for (n, edges), code in zip(cases, canon.canonical_codes(cases)):
        degree = Counter(v for edge in edges for v in edge)
        key = (n, len(edges), tuple(sorted(Counter(degree[v] for v in range(n)).items())))
        multigraph = nx.MultiGraph(edges)
        multigraph.add_nodes_from(range(n))
        buckets.setdefault(key, []).append((multigraph, code))
    pairs = isomorphic = 0
    disagreements = []
    for bucket in buckets.values():
        for (a, code_a), (b, code_b) in combinations(bucket, 2):
            same = nx.is_isomorphic(a, b)
            pairs, isomorphic = pairs + 1, isomorphic + same
            if same != (code_a == code_b):
                disagreements.append((sorted(a.edges()), sorted(b.edges())))
    assert disagreements == []
    assert (pairs, isomorphic) == (4413, 2496)
