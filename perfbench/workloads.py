"""The benchmark's workloads: seeded graph documents, CLI arguments, and the
checks every job's output must pass.

Each workload has one fixed base document.  The benchmark seed permutes the
document's vertex order and edge order and flips edge directions, so every
seed feeds the CLI different bytes that describe the same metric graph.  The
work per job is therefore the same for every seed, which keeps job times
comparable across seeds, and every output can be compared with one reference
frozen for the base document (seed 0): outputs are mapped back to the base
document's edges and vertices before they are compared.

The second check of each output goes through the independent exact
`Fraction` route (`balls.closed_ball` / `sets_equal`, `graph.eccentricity`),
never through the integer key encoding that the jobs themselves use.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# How much of each output the Fraction-route oracle re-derives per check.
TIMELINE_LOCI_CHECKED = 1
MERGE_PAIRS_CHECKED = 24
POTENTIAL_REGIONS_CHECKED = 24


# -- base documents -----------------------------------------------------------


def big200_document(gen_seed: int = 11) -> dict:
    """The 150-vertex, 200-unit-edge graph of acceptance criterion 11."""
    rng = random.Random(gen_seed)
    n = 150
    vs = [f"v{i}" for i in range(n)]
    edges = [{"u": vs[rng.randrange(i)], "v": vs[i], "len": "1"} for i in range(1, n)]
    while len(edges) < 200:
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            edges.append({"u": vs[a], "v": vs[b], "len": "1"})
    return {"name": "big200", "vertices": vs, "edges": edges}


def comb_document(n_teeth: int = 5) -> dict:
    """The comb of `fixtures.comb`: a unit base segment with teeth of height
    2^-n at abscissa 2^-n (47 unit edges at scale 1/16 for five teeth)."""
    abscissas = sorted({Fraction(1, 2**n) for n in range(n_teeth)} | {Fraction(0)})
    vertices = ["base0"] + [f"base@{a}" for a in abscissas[1:]]
    edges = []
    prev, prev_a = "base0", Fraction(0)
    for a in abscissas[1:]:
        cur = f"base@{a}"
        edges.append({"u": prev, "v": cur, "len": str(a - prev_a)})
        prev, prev_a = cur, a
    for n in range(n_teeth):
        a = Fraction(1, 2**n)
        vertices.append(f"tip{n}")
        edges.append({"u": f"base@{a}", "v": f"tip{n}", "len": str(a)})
    return {"name": f"comb{n_teeth}", "vertices": vertices, "edges": edges}


def random_connected_document(n_vertices: int = 40, extra_edges: int = 20, gen_seed: int = 1) -> dict:
    """The document behind `fixtures.random_connected` (88 unit edges for the
    defaults): a random tree plus extra edges, loops and parallels allowed."""
    rng = random.Random(gen_seed)
    vs = [f"v{i}" for i in range(n_vertices)]
    edges = []
    for i in range(1, n_vertices):
        j = rng.randrange(i)
        edges.append({"u": vs[j], "v": vs[i], "len": str(rng.choice([1, 1, 2]))})
    for _ in range(extra_edges):
        a, b = rng.randrange(n_vertices), rng.randrange(n_vertices)
        edges.append({"u": vs[a], "v": vs[b], "len": str(rng.choice([1, 2]))})
    return {"name": f"rand{n_vertices}+{extra_edges}s{gen_seed}", "vertices": vs, "edges": edges}


# -- seeded inputs ---------------------------------------------------------------


@dataclass(frozen=True)
class Input:
    """A seeded document together with its map back to the base document."""

    doc: dict  # what the CLI reads
    base: dict  # the workload's base document
    base_edge: tuple[int, ...]  # base index of each document edge
    flipped: tuple[bool, ...]  # whether a document edge runs against its base edge

    def base_offset(self, edge: int, t_user: Fraction) -> tuple[int, Fraction]:
        """(base edge, offset from its base tail) of the point at user offset
        t_user along document edge `edge`."""
        b = self.base_edge[edge]
        length = Fraction(self.base["edges"][b]["len"])
        return b, (length - t_user if self.flipped[edge] else t_user)

    def base_point(self, edge: int, t_user: Fraction) -> tuple:
        """Base-document name of a point: ("v", vertex) or ("e", edge, offset)."""
        b, t = self.base_offset(edge, t_user)
        e = self.base["edges"][b]
        if t == 0:
            return ("v", e["u"])
        if t == Fraction(e["len"]):
            return ("v", e["v"])
        return ("e", b, t)


def make_input(base: dict, seed: int, permute_edges: bool = True) -> Input:
    """Seed 0 is the base document itself; any other seed shuffles the
    vertices and, with permute_edges, also the edges and flips about half of
    them."""
    m = len(base["edges"])
    if seed == 0:
        return Input(base, base, tuple(range(m)), (False,) * m)
    rng = random.Random(seed)
    vertices = list(base["vertices"])
    rng.shuffle(vertices)
    order = list(range(m))
    flipped = (False,) * m
    if permute_edges:
        rng.shuffle(order)
        flipped = tuple(rng.random() < 0.5 for _ in order)
    edges = []
    for b, flip in zip(order, flipped):
        e = base["edges"][b]
        u, v = (e["v"], e["u"]) if flip else (e["u"], e["v"])
        edges.append({"u": u, "v": v, "len": e["len"]})
    doc = {"name": base["name"], "vertices": vertices, "edges": edges}
    return Input(doc, base, tuple(order), flipped)


# -- output forms compared with the reference ---------------------------------


_POINT = re.compile(r"^\(e(\d+)@([0-9/]+)\)$")


def _parse_point(text: str) -> tuple[int, Fraction]:
    m = _POINT.match(text)
    if m is None:
        raise ValueError(f"malformed point {text!r}")
    return int(m.group(1)), Fraction(m.group(2))


def _same_text(inp: Input, g, text: str):
    return text


def _merge_tree_form(inp: Input, g, text: str):
    doc = json.loads(text)
    names = [inp.base_point(*_parse_point(p)) for p in doc["points"]]
    events = tuple(
        (ev["radius_user"], frozenset(frozenset(names[i] for i in c) for c in ev["clusters"]))
        for ev in doc["events"]
    )
    return frozenset(names), events, doc["root_radius_user"]


def _region_names(inp: Input, g, per_edge) -> frozenset:
    from ballflow.graph import GraphPoint

    out = set()
    for e, ivs in enumerate(per_edge):
        for lo, hi in ivs:
            lo, hi = Fraction(lo), Fraction(hi)
            user_edge, a = g.point_to_user(GraphPoint(e, lo))
            _, b = g.point_to_user(GraphPoint(e, hi))
            if lo == hi:
                out.add(inp.base_point(user_edge, a))
                continue
            base_edge, a = inp.base_offset(user_edge, a)
            _, b = inp.base_offset(user_edge, b)
            out.add(("i", base_edge, min(a, b), max(a, b)))
    return frozenset(out)


def _potential_form(inp: Input, g, text: str):
    doc = json.loads(text)
    return (
        doc["m"],
        doc["M"],
        _region_names(inp, g, doc["centers"]),
        _region_names(inp, g, doc["extrema"]),
    )


# -- oracle checks by the Fraction route ---------------------------------------


def _check_timeline(g, text: str, rng: random.Random) -> list[str]:
    from ballflow.balls import closed_ball, full_set
    from ballflow.quotient import subdivision

    doc = json.loads(text)
    entries = doc["entries"]
    errors = []
    if not entries[-1]["fingerprint"]["is_point"]:
        errors.append("last locus is not a point")
    X = full_set(g).coverage
    for entry in rng.sample(entries, TIMELINE_LOCI_CHECKED):
        r = Fraction(entry["radius_internal"])
        sub = subdivision(g, r)
        vert = [closed_ball(g, p, r).coverage for p in sub.vertex_cells]
        seg = [closed_ball(g, c.midpoint, r).coverage for c in sub.segment_cells]
        n0 = sum(1 for b in seg if b == X)
        collapsed = n0 > 0 or X in vert
        v_classes = len({b for b in vert if b != X}) + (1 if collapsed else 0)
        e_classes = len({b for b in seg if b != X})
        injective = (
            n0 == 0 and vert.count(X) <= 1 and len(set(vert + seg)) == len(vert) + len(seg)
        )
        fp = entry["fingerprint"]
        brute = {"chi": v_classes - e_classes, "n0": n0}
        for key, value in brute.items():
            if fp[key] != value:
                errors.append(f"locus {entry['radius_internal']}: {key} {fp[key]}, brute force {value}")
        if entry["injective"] != injective:
            errors.append(f"locus {entry['radius_internal']}: injective {entry['injective']}, brute force {injective}")
    return errors


def _dendrogram_radii(n: int, events) -> tuple[dict, list[str]]:
    """Merge radius of every pair from the events, after checking that the
    events form a dendrogram (nested partitions, increasing radii, one root);
    a dendrogram's merge radii are an ultrametric."""
    block = {i: frozenset([i]) for i in range(n)}
    mu: dict = {}
    errors = []
    last = None
    for radius, clusters in events:
        if last is not None and radius <= last:
            errors.append(f"event radius {radius} does not increase")
        last = radius
        for c in clusters:
            parts = {block[i] for i in c}
            if len(parts) < 2 or frozenset().union(*parts) != frozenset(c):
                errors.append(f"cluster {sorted(c)} at {radius} is not a union of earlier clusters")
                continue
            parts = list(parts)
            for a in range(len(parts)):
                for b in range(a + 1, len(parts)):
                    for i in parts[a]:
                        for j in parts[b]:
                            mu[(min(i, j), max(i, j))] = radius
            for i in c:
                block[i] = frozenset(c)
    if n and len(block[0]) != n:
        errors.append("the events do not merge all points into one root")
    return mu, errors


def _check_merge_tree(g, text: str, rng: random.Random) -> list[str]:
    from ballflow.balls import closed_ball, sets_equal

    doc = json.loads(text)
    pts = [g.point_from_user(*_parse_point(p)) for p in doc["points"]]
    events = [(Fraction(ev["radius_user"]), ev["clusters"]) for ev in doc["events"]]
    mu, errors = _dendrogram_radii(len(pts), events)
    if errors:
        return errors
    for i, j in rng.sample(sorted(mu), min(MERGE_PAIRS_CHECKED, len(mu))):
        p, q = pts[i], pts[j]
        r = g.from_user(mu[(i, j)])
        below = max(r - Fraction(1, 2 * math.lcm(p.t.denominator, q.t.denominator, 2)), Fraction(0))
        if not sets_equal(g, closed_ball(g, p, r), closed_ball(g, q, r)):
            errors.append(f"points {i}, {j}: balls differ at the merge radius {r}")
        if sets_equal(g, closed_ball(g, p, below), closed_ball(g, q, below)):
            errors.append(f"points {i}, {j}: balls already equal at {below} < {r}")
    return errors


def _check_robustness(g, text: str, rng: random.Random) -> list[str]:
    fields = dict(line.split(": ", 1) for line in text.splitlines())
    lower, upper = (Fraction(x.strip()) for x in fields["bracket_user"].strip("(]").split(","))
    exact = Fraction(fields["exact_user"])
    if not lower < exact <= upper:
        return [f"exact {exact} outside the bracket ({lower}, {upper}]"]
    return []


def _check_potential(g, text: str, rng: random.Random) -> list[str]:
    from ballflow.graph import GraphPoint

    doc = json.loads(text)
    m, M = Fraction(doc["m"]), Fraction(doc["M"])
    errors = [] if 2 * m >= M else [f"2m < M: m={m}, M={M}"]
    for label, value, per_edge in (("centre", m, doc["centers"]), ("extremum", M, doc["extrema"])):
        regions = [(e, Fraction(lo), Fraction(hi)) for e, ivs in enumerate(per_edge) for lo, hi in ivs]
        if not regions:
            errors.append(f"no {label} region")
        for e, lo, hi in rng.sample(regions, min(POTENTIAL_REGIONS_CHECKED, len(regions))):
            for t in sorted({lo, (lo + hi) / 2, hi}):
                ecc = g.to_user(g.eccentricity(GraphPoint(e, t)))
                if ecc != value:
                    errors.append(f"{label} ({e}, {t}): eccentricity {ecc}, expected {value}")
    return errors


# -- the workloads -----------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    base: Callable[[], dict]
    command: str
    options: tuple[str, ...]
    form: Callable  # (input, graph, output text) -> value compared with the reference
    check: Callable  # (graph, output text, rng) -> list of errors
    # `robustness --exact` prunes its pair loop with the best radius found so
    # far, in the order of the edges, so its work depends on edge order (on
    # comb5: 11,668 balls built for the base order, 52,976 for one shuffle).
    # Its seeds therefore shuffle vertices only, so that job times compare.
    permute_edges: bool = True

    def argv(self, graph_path: str) -> list[str]:
        return [self.command, graph_path, *self.options]

    def reference(self) -> str:
        return (REFERENCE_DIR / f"{self.name}.out").read_text()


WORKLOADS = {
    w.name: w
    for w in (
        Workload("timeline-big200", big200_document, "timeline", ("--json",), _same_text, _check_timeline),
        Workload(
            "mergetree-comb5",
            comb_document,
            "merge-tree",
            ("--resolution", "1/2", "--json"),
            _merge_tree_form,
            _check_merge_tree,
        ),
        Workload(
            "robustness-comb5",
            comb_document,
            "robustness",
            ("--exact",),
            _same_text,
            _check_robustness,
            permute_edges=False,
        ),
        Workload(
            "potential-rand40", random_connected_document, "potential", ("--json",), _potential_form, _check_potential
        ),
    )
}


def verify(workload: Workload, inp: Input, seed: int, text: str) -> list[str]:
    """Errors found in one job's output: a mismatch with the frozen reference
    and anything the Fraction-route oracle rejects."""
    from ballflow.errors import BallflowError
    from ballflow.graph import load_graph

    try:
        g = load_graph(inp.doc)
        base = make_input(inp.base, 0)
        if workload.form(inp, g, text) != workload.form(base, load_graph(base.doc), workload.reference()):
            return ["output differs from the frozen reference"]
        return workload.check(g, text, random.Random(seed))
    except (BallflowError, ArithmeticError, AttributeError, LookupError, TypeError, ValueError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
