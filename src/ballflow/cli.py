"""Command-line front end.

Radii and coordinates on the command line are in user units and converted
through the graph's scale factor.  All output is exact reduced-fraction
strings; --approx (potential and robustness) appends decimal columns
without replacing them.

Exit codes: 0 success, 2 invalid input, 3 internal-consistency failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import evolution, fixtures, mergetree, quotient
from .balls import ball_to_json, closed_ball, set_length
from .errors import InternalConsistencyError, ValidationError
from .graph import GraphPoint, MetricGraph, format_rational, load_graph_file, parse_rational


def _load(graph_arg: str) -> MetricGraph:
    if graph_arg.startswith("builtin:"):
        name = graph_arg.split(":", 1)[1]
        if name.startswith("comb"):
            teeth = name[4:] or "5"
            # comb(n) normalizes to 3 * 2^(n - 1) - 1 unit edges: 6,143 at n = 12
            if not teeth.isdigit() or not 1 <= int(teeth) <= 11:
                raise ValidationError(f"builtin comb takes 1 to 11 teeth, got {name!r}")
            return fixtures.comb(int(teeth))
        try:
            return fixtures.builtin(name)
        except KeyError:
            raise ValidationError(
                f"unknown builtin graph {name!r}; choices: {sorted(fixtures.BUILTIN)}"
            )
    return load_graph_file(graph_arg)


def _emit(text: str, path: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _fmt(x: Fraction, approx: bool) -> str:
    s = format_rational(x)
    if approx and x.denominator != 1:
        s += f" ({float(x):.6g})"
    return s


def _internal_radius(g: MetricGraph, user_radius: str) -> Fraction:
    r = parse_rational(user_radius)
    if r <= 0:
        raise ValidationError(f"radius must be positive, got {user_radius}")
    return g.from_user(r)


def cmd_info(args) -> int:
    g = _load(args.graph)
    _emit("\n".join(g.info_lines()), None)
    return 0


def cmd_potential(args) -> int:
    g = _load(args.graph)
    prof = g.potential_profile()
    if args.json is not None:
        doc = {"m": format_rational(g.to_user(prof.m)), "M": format_rational(g.to_user(prof.M))}
        for key, per_edge in (("centers", prof.centers), ("extrema", prof.extrema)):
            doc[key] = [[list(map(format_rational, iv)) for iv in ivs] for ivs in per_edge]
        _emit(json.dumps(doc, indent=2), args.json)
        return 0
    lines = [
        f"m: {_fmt(g.to_user(prof.m), args.approx)}",
        f"M: {_fmt(g.to_user(prof.M), args.approx)}",
    ]
    for label, per_edge in (("center", prof.centers), ("extremum", prof.extrema)):
        for e, ivs in enumerate(per_edge):
            lines += [f"{label}: {g.describe_interval(e, lo, hi)}" for lo, hi in ivs]
    _emit("\n".join(lines), None)
    return 0


def cmd_ball(args) -> int:
    g = _load(args.graph)
    try:
        edge = int(args.edge)
    except ValueError:
        raise ValidationError(f"edge index must be an integer, got {args.edge!r}") from None
    p = g.point_from_user(edge, parse_rational(args.t))
    r = _internal_radius(g, args.radius)
    B = closed_ball(g, p, r)
    doc = ball_to_json(g, B, user_units=args.user_units)
    doc["set_length"] = format_rational(g.to_user(set_length(g, B)))
    _emit(json.dumps(doc, indent=2), args.json)
    return 0


def cmd_project(args) -> int:
    g = _load(args.graph)
    r = _internal_radius(g, args.radius)
    q = quotient.project(g, r)
    f = quotient.fingerprint(q)
    quotient.euler_bounds_check(g, f)
    if args.dot is not None:
        _emit(_project_dot(q, f), args.dot)
    doc = {
        "radius_user": format_rational(g.to_user(r)),
        "radius_internal": format_rational(r),
        "injective": q.injective,
        "cells": {
            "vertex_cells": sum(map(len, q.q_vertices)),
            "segment_cells": sum(map(len, q.edge_classes)) + q.n0,
        },
        "classes": {
            "q_vertices": [list(cls) for cls in q.q_vertices],
            "q_edges": [list(cls) for cls in q.edge_classes],
            "x_vertex": q.x_vertex,
            "n0": q.n0,
        },
        "fingerprint": _fp_doc(f),
    }
    if args.dot is None or args.json is not None:
        _emit(json.dumps(doc, indent=2), args.json)
    return 0


def _fp_doc(f: quotient.Fingerprint) -> dict:
    return {
        "b0": f.b0,
        "b1": f.b1,
        "chi": f.chi,
        "n0": f.n0,
        "degree_multiset": list(f.degree_multiset),
        "canonical_code": f.canonical_code,
        "is_point": f.is_point,
    }


def _project_dot(q: quotient.QuotientGraph, f: quotient.Fingerprint) -> str:
    from .canon import smooth_multigraph

    n_sm, sm_edges, kept = smooth_multigraph(q.num_vertices, q.q_edges)
    lines = ["graph level {"]
    for i in range(n_sm):
        orig = kept[i]
        if orig == q.x_vertex and q.x_vertex is not None:
            label = "X"
        elif orig >= 0:
            label = str(len(q.q_vertices[orig]))
        else:
            label = "cycle"
        lines.append(f'  n{i} [label="{label}"];')
    for a, b in sm_edges:
        lines.append(f"  n{a} -- n{b};")
    lines.append(f'  graph [label="b0={f.b0} b1={f.b1} code={f.canonical_code}"];')
    lines.append("}")
    return "\n".join(lines)


def cmd_timeline(args) -> int:
    g = _load(args.graph)
    tl = evolution.timeline(g)
    critical = set(tl.critical_times)
    if args.json is not None:
        doc = {
            "entries": [
                {
                    "radius_user": format_rational(g.to_user(e.radius)),
                    "radius_internal": format_rational(e.radius),
                    "on_grid": e.on_grid,
                    "injective": e.injective,
                    "fingerprint": _fp_doc(e.fingerprint),
                    "is_critical": e.radius in critical,
                }
                for e in tl.entries
            ],
            "critical_times_user": [format_rational(g.to_user(r)) for r in tl.critical_times],
            "left_sided_user": [format_rational(g.to_user(r)) for r in tl.left_sided_times],
            "right_sided_user": [format_rational(g.to_user(r)) for r in tl.right_sided_times],
            "distinct_type_count": tl.distinct_type_count,
        }
        _emit(json.dumps(doc, indent=2), args.json)
        return 0
    rows = ["locus_user_units,locus_internal,b0,b1,chi,n0,is_point,canonical_code,is_critical"]
    for e in tl.entries:
        f = e.fingerprint
        rows.append(
            ",".join(
                [
                    format_rational(g.to_user(e.radius)),
                    format_rational(e.radius),
                    str(f.b0),
                    str(f.b1),
                    str(f.chi),
                    str(f.n0),
                    str(f.is_point).lower(),
                    f.canonical_code,
                    str(e.radius in critical).lower(),
                ]
            )
        )
    _emit("\n".join(rows), args.csv)
    return 0


def cmd_robustness(args) -> int:
    g = _load(args.graph)
    res = evolution.robustness_radius(g, exact=args.exact)
    lines = [
        f"r_star_user: {_fmt(g.to_user(res.r_star), args.approx)}",
        f"bracket_user: ({_fmt(g.to_user(res.lower), args.approx)},"
        f" {_fmt(g.to_user(res.upper), args.approx)}]",
    ]
    if res.exact is not None:
        lines.append(f"exact_user: {_fmt(g.to_user(res.exact), args.approx)}")
    _emit("\n".join(lines), None)
    return 0


def cmd_merge_tree(args) -> int:
    g = _load(args.graph)
    res = parse_rational(args.resolution)
    pts = mergetree.sample_points(g, g.from_user(res) if args.user_units else res)
    d = mergetree.merge_tree(g, pts)
    bad = mergetree.ball_check(g, d)
    if bad:
        i, j = bad[0]
        r = next(ev.radius for ev in d.events if any({i, j} <= set(c) for c in ev.clusters))
        raise InternalConsistencyError(
            f"merge radii contradict the exact balls at pairs {bad} of {g.name}; first"
            f" {_pt_str(g, d.points[i])} and {_pt_str(g, d.points[j])} with mu_user"
            f" {format_rational(g.to_user(r))} (internal {format_rational(r)})"
        )
    names = [_pt_str(g, p) for p in d.points]
    if args.csv is not None:
        mu = d.matrix().mu
        rows = ["i,j,point_i,point_j,mu_user"] + [
            f"{i},{j},{names[i]},{names[j]},{format_rational(g.to_user(mu[i][j]))}"
            for i in range(len(names))
            for j in range(i + 1, len(names))
        ]
        _emit("\n".join(rows), args.csv)
    doc = {
        "points": names,
        "events": [
            {
                "radius_user": format_rational(g.to_user(ev.radius)),
                "clusters": [list(c) for c in ev.clusters],
            }
            for ev in d.events
        ],
        "root_radius_user": format_rational(g.to_user(d.root_radius)),
    }
    if args.csv is None or args.json is not None:
        _emit(json.dumps(doc, indent=2), args.json)
    return 0


def _pt_str(g: MetricGraph, p: GraphPoint) -> str:
    e_user, t_user = g.point_to_user(p)
    return f"(e{e_user}@{format_rational(t_user)})"


def cmd_selftest(args) -> int:
    ok = True
    for name in ["path", "c4", "c6", "theta"]:
        g = fixtures.builtin(name)
        prof = g.potential_profile()
        tl = evolution.timeline(g)
        for e in tl.entries:
            quotient.euler_bounds_check(g, e.fingerprint)
        pts = [g.canonical_point(p) for p in mergetree.sample_points(g, Fraction(1, 2))]
        # the sweep's tree against the pairwise route: bisection on exact balls
        mu = tuple(tuple(mergetree.merge_radius(g, p, q) for q in pts) for p in pts)
        m = mergetree.MergeMatrix(tuple(pts), mu)
        rep = mergetree.ultrametric_check(m)
        line = (
            f"{name}: m={format_rational(prof.m)} M={format_rational(prof.M)}"
            f" types={tl.distinct_type_count} ultrametric={'ok' if rep.ok else 'FAIL'}"
        )
        print(line)
        ok = ok and rep.ok
        if rep.ok and mergetree.dendrogram_from_matrix(m) != mergetree.build_merge_tree(g, pts):
            raise InternalConsistencyError(f"selftest: {name}'s merge tree differs from merge_radius")
    if not ok:
        raise InternalConsistencyError("selftest ultrametric check failed")
    print("selftest: all fixtures passed")
    return 0


def _add_common(sp, approx_opt=False, json_opt=False, csv_opt=False, dot_opt=False):
    sp.add_argument("graph", help="graph JSON file, or builtin:<name>")
    if approx_opt:
        sp.add_argument("--approx", action="store_true", help="append decimal approximations")
    if json_opt:
        sp.add_argument("--json", nargs="?", const="-", default=None, metavar="PATH")
    if csv_opt:
        sp.add_argument("--csv", nargs="?", const="-", default=None, metavar="PATH")
    if dot_opt:
        sp.add_argument("--dot", nargs="?", const="-", default=None, metavar="PATH")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ballflow",
        description="Exact ball-expansion evolution engine for finite metric graphs",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("info", help="normalized edge table, scale, diameter")
    _add_common(sp)
    sp.set_defaults(fn=cmd_info)

    sp = sub.add_parser("potential", help="eccentricity range, centers, extrema")
    _add_common(sp, approx_opt=True, json_opt=True)
    sp.set_defaults(fn=cmd_potential)

    sp = sub.add_parser("ball", help="closed ball about a point")
    _add_common(sp, json_opt=True)
    sp.add_argument("--edge", required=True, help="user edge index")
    sp.add_argument("--t", required=True, help="offset along the edge, user units")
    sp.add_argument("--radius", required=True, help="radius, user units")
    sp.add_argument("--user-units", action="store_true", dest="user_units")
    sp.set_defaults(fn=cmd_ball)

    sp = sub.add_parser("project", help="quotient level at a radius")
    _add_common(sp, json_opt=True, dot_opt=True)
    sp.add_argument("--radius", required=True, help="radius, user units")
    sp.set_defaults(fn=cmd_project)

    sp = sub.add_parser("timeline", help="fingerprints over the critical grid")
    _add_common(sp, json_opt=True, csv_opt=True)
    sp.set_defaults(fn=cmd_timeline)

    sp = sub.add_parser("robustness", help="embedding-radius bracket")
    _add_common(sp, approx_opt=True)
    sp.add_argument("--exact", action="store_true", help="refine via merge radii")
    sp.set_defaults(fn=cmd_robustness)

    sp = sub.add_parser("merge-tree", help="merge-radius matrix and dendrogram")
    _add_common(sp, json_opt=True, csv_opt=True)
    sp.add_argument("--resolution", required=True, help="sample step 1/k")
    sp.add_argument("--user-units", action="store_true", dest="user_units")
    sp.set_defaults(fn=cmd_merge_tree)

    sp = sub.add_parser("selftest", help="run invariant checks on built-in fixtures")
    sp.set_defaults(fn=cmd_selftest)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except ValidationError as exc:
        print(f"error: invalid-input: {exc}", file=sys.stderr)
        return 2
    except InternalConsistencyError as exc:
        print(f"error: internal-consistency: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
