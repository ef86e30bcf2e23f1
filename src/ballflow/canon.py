"""Canonical forms of small multigraphs, up to isomorphism.

Used to certify homeomorphism of quotient levels: after suppressing
degree-2 vertices, two levels are homeomorphic iff their smoothed
multigraphs are isomorphic.  Canonical labeling is individualization plus
color refinement with backtracking, pruned by twins and by automorphisms
(McKay and Piperno, J. Symb. Comput. 60, 2014); the code is the least leaf
code of the full search tree.

The initial coloring is each vertex's BFS distance profile (its sorted
distances to all vertices, -1 for unreachable) with its sorted edge
multiplicities and loop count.  The searches from all vertices of a batch of
graphs run as one frontier expansion over their disjoint union: each vertex
holds the set of its graph's sources that have reached it as bits packed into
uint64 words, and one hop ORs the neighbours' frontier sets over the
half-edge list with `np.bitwise_or.reduceat`.  A sorted profile is -1
repeated u times, one 0, then h repeated c_h times, where c_h is the number
of sources first reached at hop h, so comparing sorted profiles is comparing
(graph, -u, -c_1, -c_2, ...): they are ranked from the per-hop popcounts
without an n x n distance matrix, in chunks that fit `graph._CHUNK_ENTRIES`.

A color is the first position of its class in the ordered partition: a
split renumbers only the class it splits, and a discrete coloring is the
canonical numbering.  A refinement round splits classes by loop count and
sorted (neighbour color, multiplicity) pairs, in signature order, as dense
colors would.  It re-signs only the classes with a neighbour in a part split
off in the round before, other than the largest part of its class; any
other class sees in that largest part what it saw in the whole class, which
its members shared, so it cannot split.

The search individualizes one vertex per twin class (swapping twins is an
automorphism) of the first class of two or more vertices.  A class that is
one twin class takes its positions in index order at once: twins share their
neighbours outside the class, so one-by-one steps would split nothing.  Two
leaves with equal codes give an automorphism gamma(v) = best_inv[pos[v]].
The initial coloring, refinement and individualization commute with
automorphisms and the least code below a node depends only on its coloring,
so a gamma fixing the vertices individualized above a node (twin steps
included) maps the subtree of its child u onto that of gamma(u).  So a node
skips a child in the orbit of an explored one under such automorphisms (one
union-find per node, with the explored children joined to -1), and a leaf
equal to the best abandons its child of the deepest node whose prefix gamma
fixes, which gamma maps to the best leaf's, explored earlier.

The search runs on an explicit stack, so a level with thousands of twin
vertices does not hit Python's recursion limit.  `canonical_codes` searches
each distinct (n, edges) of its batch once: a timeline meets the same
smoothed multigraph at many levels, and hands them all over in one batch.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import chain, groupby
from operator import itemgetter
from typing import Iterable, Sequence

import numpy as np

from . import graph


def _split(colors: list[int], cells: dict[int, list[int]], c: int, keyed: list[tuple]) -> list[list[int]]:
    """Split class c by the sorted (key, vertex) pairs of its members into
    groups of equal keys, in order, each colored by its first position.
    cells keeps the groups of two or more vertices.  Returns the groups."""
    del cells[c]
    parts = [[v for _, v in group] for _, group in groupby(keyed, key=itemgetter(0))]
    for part in parts:
        if len(part) > 1:
            cells[c] = part
        for v in part:
            colors[v] = c
        c += len(part)
    return parts


def refine_colors(adj: list[dict[int, int]], loops: list[int], colors: list[int],
                  cells: dict[int, list[int]], touched: set[int]) -> list[int]:
    """Equitable refinement, in place, from a first round that re-signs
    the classes in touched.  colors[v] is the first position of v's class;
    cells maps that of each class of two or more vertices to its members."""
    while touched:
        signed = [
            (c, sorted(((loops[v], sorted([(colors[w], m) for w, m in adj[v].items()])), v) for v in cells[c]))
            for c in touched & cells.keys()
        ]
        moved = []
        for c, keyed in signed:
            parts = _split(colors, cells, c, keyed)
            largest = max(parts, key=len)
            moved += [v for part in parts if part is not largest for v in part]
        touched = {colors[w] for v in moved for w in adj[v]}
    return colors


def _twin_representatives(adj: list[dict[int, int]], loops: list[int], cell: list[int]) -> list[int]:
    """One vertex per twin class of a cell.  Two vertices are twins when
    swapping them is an automorphism (identical rows up to each other), so
    individualizing both explores identical subtrees."""
    reps: list[int] = []
    for v in cell:
        if not any(
            loops[u] == loops[v]
            and adj[u].get(v, 0) == adj[v].get(u, 0)
            and {w: m for w, m in adj[u].items() if w != v} == {w: m for w, m in adj[v].items() if w != u}
            for u in reps
        ):
            reps.append(v)
    return reps


def _distance_ranks(graphs: list[tuple[int, tuple[tuple[int, int], ...]]]) -> list[list[int]]:
    """Per graph, each vertex's rank among the distinct sorted BFS distance
    profiles of its underlying simple graph (equal profiles, equal ranks), all
    from one frontier expansion over the graphs' disjoint union."""
    sizes = np.array([n for n, _ in graphs], dtype=np.int64)
    first, counts = np.cumsum(sizes) - sizes, [len(edges) for _, edges in graphs]
    gid = np.repeat(np.arange(len(graphs)), sizes)
    e = np.fromiter(chain.from_iterable(chain.from_iterable(edges for _, edges in graphs)), np.int64, 2 * sum(counts))
    e = e.reshape(-1, 2) + np.repeat(first, counts)[:, None]
    e = e[e[:, 0] != e[:, 1]]
    src = np.concatenate([e[:, 0], e[:, 1]])
    order = np.argsort(src, kind="stable")
    src, dst = src[order], np.concatenate([e[:, 1], e[:, 0]])[order]
    starts = np.flatnonzero(np.r_[True, src[1:] != src[:-1]]) if len(src) else src
    v = np.arange(len(gid))
    local = v - first[gid]  # each graph's sources take its own bit columns
    reached = np.zeros((len(v), (int(sizes.max()) + 63) // 64), dtype="<u8")
    reached[v, local // 64] = np.left_shift(np.uint64(1), (local % 64).astype(np.uint64))
    frontier, keys = reached, []
    while len(src):
        new = np.zeros_like(reached)
        new[src[starts]] = np.bitwise_or.reduceat(np.take(frontier, dst, axis=0), starts, axis=0)
        new &= ~reached
        if not new.any():
            break
        reached = reached | new
        keys.append(-np.bitwise_count(new).sum(axis=1, dtype=np.int64))
        frontier = new
    key = np.stack([gid, np.bitwise_count(reached).sum(axis=1, dtype=np.int64) - sizes[gid], *keys])
    order = np.lexsort(key[::-1])
    key = key[:, order]
    dense = np.cumsum(np.r_[True, (key[:, 1:] != key[:, :-1]).any(axis=0)])
    rank = np.empty_like(dense)
    rank[order] = dense - dense[np.searchsorted(key[0], key[0])]  # less its graph's first rank
    rank = rank.tolist()
    return [rank[a : a + n] for a, n in zip(first.tolist(), sizes.tolist())]


def _encode(adj: list[dict[int, int]], loops: list[int], pos: list[int]) -> tuple:
    """The code of a leaf, whose colors pos[v] are the canonical indices."""
    items = [(*sorted((pos[v], pos[w])), m) for v, row in enumerate(adj) for w, m in row.items() if v < w]
    items += [(p, p, -k) for p, k in zip(pos, loops) if k]
    return tuple(sorted(items))


def _find(orbit: dict[int, int], v: int) -> int:
    while orbit[v] != v:
        orbit[v] = v = orbit[orbit[v]]
    return v


def canonical_multigraph_code(n: int, edges: Sequence[tuple[int, int]]) -> str:
    """A string equal for two multigraphs iff they are isomorphic.

    edges are unordered pairs (i, j) with multiplicity given by repetition;
    i == j is a loop.  Degree-0 vertices count.
    """
    return canonical_codes([(n, edges)])[0]


def canonical_codes(graphs: Iterable[tuple[int, Sequence[tuple[int, int]]]]) -> list[str]:
    """`canonical_multigraph_code` of each (n, edges).  The distinct graphs
    are ranked largest first, as many at a time as fit `graph._CHUNK_ENTRIES`
    frontier words, then each is searched once."""
    keys = [(n, tuple(map(tuple, edges))) for n, edges in graphs]
    codes = dict.fromkeys(keys, "V0|")  # the empty graph's code; a search overwrites the others
    todo = sorted((key for key in codes if key[0]), key=lambda key: -key[0])
    while todo:  # the block is the chunk's vertices by the words of its first, its largest
        rows = np.cumsum([n for n, _ in todo]) * ((todo[0][0] + 63) // 64)
        k = max(1, int(np.count_nonzero(rows <= graph._CHUNK_ENTRIES)))
        for (n, edges), ranks in zip(todo[:k], _distance_ranks(todo[:k])):
            codes[n, edges] = _search(n, edges, ranks)
        todo = todo[k:]
    return [codes[key] for key in keys]


def _search(n: int, edges: tuple[tuple[int, int], ...], ranks: list[int]) -> str:
    adj: list[dict[int, int]] = [defaultdict(int) for _ in range(n)]
    loops = [0] * n
    for i, j in edges:
        if i == j:
            loops[i] += 1
        else:
            adj[i][j] += 1
            adj[j][i] += 1
    adj = [dict(a) for a in adj]

    # initial invariant: BFS distance profile plus incident multiplicities;
    # cuts the search tree sharply on levels with many essential vertices
    profiles = [(ranks[s], tuple(sorted(adj[s].values())), loops[s]) for s in range(n)]
    colors, cells = [0] * n, {0: list(range(n))}
    _split(colors, cells, 0, sorted(zip(profiles, range(n))))

    best = best_inv = None
    automorphisms: list[list[int]] = []  # from leaves whose code equals the best
    # depth first; a frame is [colors, cells, fixed, target, reps, orbits, automorphisms seen]
    stack: list[list] = []
    node = (refine_colors(adj, loops, colors, cells, set(cells)), cells, ())
    while node:
        colors, cells, fixed = node
        while cells:
            target = min(cells)
            reps = _twin_representatives(adj, loops, cells[target])
            if len(reps) > 1:
                stack.append([colors, cells, fixed, target, reps, {v: v for v in [-1, *cells[target]]}, 0])
                break
            fixed += tuple(cells[target])  # one twin class: individualize it whole, in index order
            _split(colors, cells, target, list(enumerate(cells[target])))
        else:
            code = _encode(adj, loops, colors)  # discrete: colors are a permutation of 0..n-1
            if best is None or code < best:
                best, best_inv = code, sorted(range(n), key=colors.__getitem__)
            elif code == best:
                gamma = [best_inv[c] for c in colors]
                automorphisms.append(gamma)
                while not all(gamma[v] == v for v in stack[-1][2]):
                    stack.pop()  # the image of the rest of this subtree is explored
        node = None
        while stack and node is None:
            colors, cells, fixed, target, reps, orbit, seen = frame = stack[-1]
            for gamma in automorphisms[seen:]:
                if all(gamma[v] == v for v in fixed):
                    for v in cells[target]:
                        orbit[_find(orbit, v)] = _find(orbit, gamma[v])
            frame[-1] = len(automorphisms)
            v = next((v for v in reps if _find(orbit, v) != _find(orbit, -1)), None)
            if v is None:
                stack.pop()
                continue
            orbit[_find(orbit, v)] = _find(orbit, -1)
            colors, cells = colors[:], dict(cells)
            _split(colors, cells, target, sorted((w != v, w) for w in cells[target]))
            node = (refine_colors(adj, loops, colors, cells, {colors[w] for w in adj[v]}), cells, fixed + (v,))

    edge_part = ",".join(f"{a}-{b}x{m}" if m > 0 else f"{a}-{a}L{-m}" for a, b, m in best)
    return f"V{n}|{edge_part}"


def smooth_multigraph(
    num_vertices: int, edges: np.ndarray | Sequence[tuple[int, int]]
) -> tuple[int, list[tuple[int, int]], list[int]]:
    """`smooth_multigraphs` of one multigraph whose edges are an (m, 2) array
    or a sequence of pairs: (n_smoothed, smoothed_edges, kept_vertex_ids)."""
    n, smoothed, kept = smooth_multigraphs([num_vertices], edges, [len(edges)])
    return int(n[0]), list(zip(*smoothed.T.tolist())), kept.tolist()


def smooth_multigraphs(sizes, edges: np.ndarray, counts):
    """Suppress the degree-2 vertices of each of a batch of multigraphs in one
    pass over their disjoint union: graph i has sizes[i] vertices and the
    next counts[i] of the pairs edges, in its own vertex ids.  Essential
    vertices (degree != 2) survive, chains of degree-2 vertices collapse to
    single edges, and a pure cycle becomes one vertex with a loop.  Returns
    each graph's smoothed vertex count and, over the union, whose smoothed
    ids run graph by graph, the sorted smoothed edges and each smoothed
    vertex's id in its graph (-1 for a cycle's).

    A run of consecutive edges (a, x), (x, b), ... through vertices x of
    degree 2 is first contracted to the edge (a, b): x's two half-edges are
    the run's, so this suppresses x early and leaves every other degree, and
    so the essential vertices, their order and their chains, as they were.
    The graphs' ids are offset apart, so no run crosses from one into the
    next.  A level lists each edge's segments in order: most chains go here.

    Then, on half-edges (h at ends[h], h ^ 1 the other half of its edge): a
    walk leaving by h and arriving by h ^ 1 at a degree-2 vertex goes on by
    its other half-edge, and pointer doubling takes every half-edge to the
    last of its walk.  A chain is walked from both its essential ends, so the
    sorted chain records come in equal pairs.  The walks that never stop are
    the pure cycles, two orientations each, counted by their least half-edge.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    graphs, base = np.arange(len(sizes)), np.cumsum(sizes) - sizes
    of = np.repeat(graphs, counts)
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2) + base[of][:, None]
    degree = np.bincount(e.ravel(), minlength=int(sizes.sum()))
    essential = np.flatnonzero(degree != 2)

    link = (e[:-1, 1] == e[1:, 0]) & (degree[e[:-1, 1]] == 2)
    first, last = np.flatnonzero(np.r_[True, ~link][: len(e)]), np.flatnonzero(np.r_[~link, True][: len(e)])
    e, of = np.stack([e[first, 0], e[last, 1]], axis=1), of[first]
    ends = e.reshape(-1)
    halves, left = np.arange(len(ends)), np.bincount(ends, minlength=len(degree))  # left: after the contraction
    # the two half-edges at each degree-2 vertex, paired
    by_vertex = np.argsort(ends, kind="stable")
    at = (np.cumsum(left) - left)[left == 2]
    pair = halves.copy()
    pair[by_vertex[at]] = by_vertex[at + 1]
    pair[by_vertex[at + 1]] = by_vertex[at]

    through = degree[ends[halves ^ 1]] == 2
    step = np.where(through, pair[halves ^ 1], halves)
    least = halves
    for _ in range(len(at).bit_length()):  # a walk passes each degree-2 vertex at most once
        least = np.minimum(least, least[step])
        step = step[step]

    # each graph's essential vertices, then one looped vertex per pure cycle
    cycles = np.bincount(of[np.flatnonzero(through[step] & (least == halves)) // 2], minlength=len(sizes)) // 2
    owner = np.repeat(graphs, sizes)[essential]
    n = np.bincount(owner, minlength=len(sizes))
    kept = np.insert(essential - base[owner], np.repeat(np.cumsum(n), cycles), -1)
    new_id, loops = np.cumsum(degree != 2) - 1 + np.repeat(np.cumsum(cycles) - cycles, sizes), np.flatnonzero(kept < 0)
    start = np.flatnonzero(degree[ends] != 2)
    # each chain is recorded from both ends, so each loop goes in twice
    a = np.concatenate([new_id[ends[start]], loops, loops])
    b = np.concatenate([new_id[ends[step[start] ^ 1]], loops, loops])
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    keep = np.lexsort((hi, lo))[::2]
    return n + cycles, np.stack([lo[keep], hi[keep]], axis=1), kept
