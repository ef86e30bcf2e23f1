import hashlib
import json
import os
import random
import resource
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

import pytest

from ballflow import cli, evolution, fixtures, mergetree, quotient
from ballflow.balls import ball_from_json, closed_ball, sets_equal
from ballflow.evolution import timeline_loci
from ballflow.graph import GraphPoint, load_graph
from ballflow.quotient import subdivision

from conftest import relabeled

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.append(str(PERFBENCH))
import workloads  # noqa: E402


# `project --dot` output, frozen before smoothing was vectorised
C6_HALF_DOT = """graph level {
  n0 [label="cycle"];
  n0 -- n0;
  graph [label="b0=1 b1=1 code=V1|0-0L1"];
}
"""
KITE_DOT = """graph level {
  n0 [label="1"];
  n1 [label="1"];
  n2 [label="1"];
  n3 [label="1"];
  n4 [label="3"];
  n5 [label="1"];
  n6 [label="3"];
  n7 [label="1"];
  n8 [label="1"];
  n9 [label="X"];
  n0 -- n4;
  n0 -- n6;
  n0 -- n8;
  n1 -- n6;
  n2 -- n4;
  n3 -- n9;
  n4 -- n5;
  n4 -- n9;
  n6 -- n7;
  n6 -- n9;
  graph [label="b0=1 b1=1 code=V10|0-2x1,0-3x1,0-4x1,0-5x1,1-2x1,1-3x1,1-6x1,1-7x1,2-8x1,3-9x1"];
}
"""

# the triangle with a loop and two pendant edges
KITE = {
    "name": "kite",
    "vertices": ["a", "b", "c", "d", "e"],
    "edges": [{"u": u, "v": v} for u, v in ("ab", "bc", "ca", "ad", "be", "cc")],
}
SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestExitCodes:
    def test_missing_file_is_input_error(self, capsys):
        code, _, err = run(capsys, "info", "/nonexistent/graph.json")
        assert code == 2
        assert "invalid-input" in err

    def test_bad_builtin(self, capsys):
        code, _, err = run(capsys, "info", "builtin:nope")
        assert code == 2

    def test_bad_radius(self, capsys):
        code, _, err = run(capsys, "project", "builtin:theta", "--radius", "-1")
        assert code == 2

    def test_bad_edge_index(self, capsys):
        code, out, err = run(capsys, "ball", "builtin:theta", "--edge", "x", "--t", "0", "--radius", "1")
        assert code == 2
        assert "edge index must be an integer, got 'x'" in err
        assert "Traceback" not in err and not out

    def test_malformed_document(self, tmp_path, capsys):
        f = tmp_path / "bad.json"
        f.write_text('{"vertices": ["a"], "edges": [{"u": "a", "v": "zzz"}]}')
        code, _, err = run(capsys, "info", str(f))
        assert code == 2

    def test_oversized_input_fails_fast(self, tmp_path, capsys):
        # lcm 100000 turns the unit edge into 100000 pieces
        f = tmp_path / "big.json"
        f.write_text(
            json.dumps(
                {
                    "vertices": ["a", "b", "c"],
                    "edges": [
                        {"u": "a", "v": "b", "len": "1"},
                        {"u": "b", "v": "c", "len": "1/100000"},
                    ],
                }
            )
        )
        start = time.perf_counter()
        code, out, err = run(capsys, "timeline", str(f), "--json")
        assert time.perf_counter() - start < 10
        assert code == 2
        assert "100001 unit edges" in err
        assert "Traceback" not in err and not out

    def test_isolated_vertices_fail_before_the_distance_matrix(self, tmp_path):
        """30,000 vertex names and one edge, in a child process limited to
        1 GiB of address space: the (V, V) distance matrix would need 6.7 GiB,
        so the document is refused as disconnected before it is built."""
        f = tmp_path / "isolated.json"
        f.write_text(json.dumps({"vertices": [f"v{i}" for i in range(30_000)], "edges": [{"u": "v0", "v": "v1"}]}))
        limit = 1 << 30
        result = subprocess.run(
            [sys.executable, "-m", "ballflow.cli", "info", str(f)],
            env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))},
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 2, result.stderr
        assert result.stderr == "error: invalid-input: graph is disconnected\n"

    def test_no_failing_locus_is_an_engine_bug(self, monkeypatch, capsys):
        # every level embeds, which the diameter's balls rule out
        monkeypatch.setattr(evolution, "is_injective", lambda g, r: True)
        code, out, err = run(capsys, "robustness", "builtin:path")
        assert code == 3
        assert err.startswith("error: internal-consistency: path: no failure radius")
        assert not out

    def test_ok(self, capsys):
        code, out, _ = run(capsys, "info", "builtin:theta")
        assert code == 0
        assert out

    @pytest.mark.parametrize(
        "graph, document",
        [
            ("builtin:combx", None),
            ("builtin:comb0", None),
            ("builtin:comb-1", None),
            ("builtin:comb12", None),
            ("file", {"vertices": [["a"], "b"], "edges": [{"u": "a", "v": "b"}]}),
            ("file", {"vertices": ["a", "b"], "edges": [1]}),
            ("file", "{not json"),  # a JSON string that load_graph decodes again
            ("file", {"vertices": ["a", "b"], "edges": [{"u": "a", "v": "b", "len": True}]}),
            ("file", {"vertices": [True, "x"], "edges": [{"u": "True", "v": "x"}]}),
            ("file", {"vertices": ["a", "b", "c", "d"], "edges": [{"u": "a", "v": "b"}, {"u": "c", "v": "d"}]}),
            ("file", {"vertices": ["a", "b", "c"], "edges": [{"u": "a", "v": "b"}]}),
        ],
        ids=["comb-x", "comb-0", "comb-minus-1", "comb-12", "list-vertex", "number-edge", "bad-json-string",
             "bool-length", "bool-vertex", "two-components", "isolated-vertex"],
    )
    def test_invalid_input_exits_2(self, tmp_path, capsys, graph, document):
        if graph == "file":
            graph = str(tmp_path / "g.json")
            Path(graph).write_text(json.dumps(document))
        code, out, err = run(capsys, "info", graph)
        assert code == 2
        assert err.startswith("error: invalid-input: ")
        assert "Traceback" not in err and not out

    def test_oversized_sample_fails_fast(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "merge-tree", "builtin:path", "--resolution", "1/3000000")
        assert time.perf_counter() - start < 10
        assert code == 2
        assert f"samples 6000001 points, over the cap of {mergetree.MAX_SAMPLE_POINTS}" in err
        assert not out

    @pytest.mark.parametrize(
        "argv",
        [
            ("info",),
            ("ball", "--edge", "0", "--t", "0", "--radius", "1"),
            ("project", "--radius", "1"),
            ("timeline",),
            ("merge-tree", "--resolution", "1/2"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_approx_only_where_it_is_read(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main([argv[0], "builtin:path", *argv[1:], "--approx"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --approx" in capsys.readouterr().err


class TestSubcommands:
    def test_info_mentions_scale_and_diameter(self, capsys):
        _, out, _ = run(capsys, "info", "builtin:c6")
        assert "diameter" in out
        assert "3" in out

    def test_potential_json(self, capsys):
        code, out, _ = run(capsys, "potential", "builtin:path", "--json")
        doc = json.loads(out)
        assert code == 0
        assert doc["m"] == "1"
        assert doc["M"] == "2"

    def test_ball_round_trip(self, capsys):
        code, out, _ = run(
            capsys,
            "ball",
            "builtin:theta",
            "--edge", "0",
            "--t", "1/2",
            "--radius", "1",
            "--json",
        )
        assert code == 0
        doc = json.loads(out)
        g = fixtures.theta()
        B = ball_from_json(g, doc)
        from ballflow.graph import GraphPoint

        assert sets_equal(g, B, closed_ball(g, GraphPoint(0, F(1, 2)), F(1)))

    def test_project_json_and_dot(self, capsys):
        code, out, _ = run(
            capsys, "project", "builtin:c6", "--radius", "1/2", "--json"
        )
        doc = json.loads(out)
        assert code == 0
        assert doc["injective"] is True
        assert doc["fingerprint"]["b1"] == 1
        code, dot, _ = run(
            capsys, "project", "builtin:c6", "--radius", "1/2", "--dot"
        )
        assert code == 0
        assert dot == C6_HALF_DOT

    @pytest.mark.parametrize("name", ["path", "theta", "c6", "comb3"])
    def test_project_cell_counts_match_the_subdivision(self, capsys, name):
        # the counts come from the classes; the subdivision is the oracle
        g = cli._load(f"builtin:{name}")
        for r, _ in timeline_loci(g):
            code, out, _ = run(
                capsys, "project", f"builtin:{name}", "--radius", str(g.to_user(r)), "--json"
            )
            sub = subdivision(g, r)
            assert code == 0
            assert json.loads(out)["cells"] == {
                "vertex_cells": len(sub.vertex_cells),
                "segment_cells": len(sub.segment_cells),
            }, r

    def test_project_dot_maps_smoothed_vertices_back(self, capsys, tmp_path):
        # the triangle with a loop and two pendant edges at r = 7/4: a level
        # whose smoothed vertices include the collapsed X vertex
        path = tmp_path / "kite.json"
        path.write_text(json.dumps(KITE))
        code, dot, _ = run(capsys, "project", str(path), "--radius", "7/4", "--dot")
        assert code == 0
        assert dot == KITE_DOT

    def test_project_builds_each_member_tuple_once(self, capsys, tmp_path, monkeypatch):
        """`project --dot --json` reads `q_vertices` once per smoothed vertex
        and again for the document, but builds each derived tuple of the
        level at most once."""
        builds = Counter()
        for name in ("q_vertices", "edge_classes", "x_segments"):
            derived = vars(quotient.QuotientGraph)[name]
            build = getattr(derived, "func", None) or derived.fget

            def counted(q, name=name, build=build):
                builds[name] += 1
                return build(q)

            wrapped = type(derived)(counted)
            wrapped.__set_name__(quotient.QuotientGraph, name)
            monkeypatch.setattr(quotient.QuotientGraph, name, wrapped)
        path = tmp_path / "kite.json"
        path.write_text(json.dumps(KITE))
        code, out, _ = run(capsys, "project", str(path), "--radius", "7/4", "--dot", "--json")
        assert code == 0 and out.startswith(KITE_DOT)
        assert builds == {"q_vertices": 1, "edge_classes": 1}

    def test_timeline_csv(self, capsys):
        code, out, _ = run(capsys, "timeline", "builtin:theta", "--csv")
        assert code == 0
        lines = out.strip().splitlines()
        header = lines[0].split(",")
        assert header[0] == "locus_user_units"
        rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
        assert rows[-1]["is_point"] == "true"
        assert rows[-1]["locus_user_units"] == "2"

    def test_robustness(self, capsys):
        code, out, _ = run(
            capsys, "robustness", "builtin:path", "--exact"
        )
        assert code == 0
        assert "17/16" in out

    def test_merge_tree_json(self, capsys):
        code, out, _ = run(
            capsys,
            "merge-tree", "builtin:path", "--resolution", "1/2", "--json",
        )
        assert code == 0
        doc = json.loads(out)
        radii = [e["radius_user"] for e in doc["events"]]
        assert radii == ["3/2", "2"]

    def test_selftest(self, capsys):
        code, out, _ = run(capsys, "selftest")
        assert code == 0

    def test_selftest_needs_no_pairwise_oracle(self, capsys, monkeypatch):
        """selftest checks each fixture's sweep tree with `ball_check`, not with
        the bisection matrix and its ultrametric and dendrogram oracles."""

        def refuse(*args, **kwargs):
            raise AssertionError("selftest ran a pairwise oracle")

        for name in ("merge_radius", "ultrametric_check", "dendrogram_from_matrix", "MergeMatrix"):
            monkeypatch.setattr(mergetree, name, refuse)
        code, out, _ = run(capsys, "selftest")
        assert code == 0
        assert out.count("ball_check=ok") == 4

    @pytest.mark.parametrize("step", [F(1, 2), F(-1, 2)])
    def test_selftest_catches_a_merge_event_one_grid_step_off(self, capsys, monkeypatch, step):
        """theta's sweep tree at resolution 1/2 merges at 1 and 2 on the grid
        of step 1/2; its last event is moved up or down by one step."""
        real = mergetree.merge_tree

        def moved(g, points):
            d = real(g, points)
            if g.name != "theta":
                return d
            *events, last = d.events
            moved = mergetree.MergeEvent(last.radius + step, last.clusters)
            return mergetree.Dendrogram(d.points, (*events, moved))

        monkeypatch.setattr(mergetree, "merge_tree", moved)
        code, out, err = run(capsys, "selftest")
        assert code == 3
        assert "theta: m=2 M=2 types=3 ball_check=FAIL" in out
        assert "theta's merge tree contradicts the exact balls" in err

    def test_comb_builtin(self, capsys):
        code, out, _ = run(capsys, "info", "builtin:comb3")
        assert code == 0


class TestGoldenOutputs:
    """Outputs frozen with the benchmark, byte for byte."""

    @pytest.mark.parametrize(
        "reference, argv",
        [
            ("mergetree-comb5", ("merge-tree", "--resolution", "1/2", "--json")),
            ("robustness-comb5", ("robustness", "--exact")),
        ],
        ids=["mergetree-comb5", "robustness-comb5"],
    )
    def test_comb5(self, tmp_path, capsys, reference, argv):
        f = tmp_path / "comb5.json"
        f.write_text(json.dumps(workloads.comb_document(5)))
        code, out, _ = run(capsys, argv[0], str(f), *argv[1:])
        assert code == 0
        assert out == (PERFBENCH / "reference" / f"{reference}.out").read_text()

    def test_potential_rand40(self, tmp_path, capsys):
        # pins the output of the quarter-grid potential kernel
        f = tmp_path / "rand40.json"
        f.write_text(json.dumps(workloads.random_connected_document()))
        code, out, _ = run(capsys, "potential", str(f), "--json")
        assert code == 0
        assert out == (PERFBENCH / "reference" / "potential-rand40.out").read_text()

    def test_timeline_big200(self, tmp_path, capsys):
        f = tmp_path / "big200.json"
        f.write_text(json.dumps(workloads.big200_document()))
        code, out, _ = run(capsys, "timeline", str(f), "--json")
        assert code == 0
        assert out == (PERFBENCH / "reference" / "timeline-big200.out").read_text()


THETA_THIRD_DOC = {
    "points": [
        "(e0@0)", "(e0@1)", "(e2@1)", "(e3@1)", "(e0@1/3)", "(e0@2/3)", "(e1@1/3)",
        "(e1@2/3)", "(e2@1/3)", "(e2@2/3)", "(e3@1/3)", "(e3@2/3)", "(e4@1/3)", "(e4@2/3)",
    ],
    "events": [
        {"radius_user": "1", "clusters": [[4, 6], [5, 7]]},
        {"radius_user": "2", "clusters": [list(range(14))]},
    ],
    "root_radius_user": "2",
}
LOOP_DOC = {"name": "loop", "vertices": ["a"], "edges": [{"u": "a", "v": "a"}]}


class TestPinnedOutputs:
    """Outputs captured before merge trees were read off the sweep's
    partitions and before `potential` built its text only for text output."""

    def test_comb5_quarter_csv(self, capsys):
        code, out, _ = run(capsys, "merge-tree", "builtin:comb5", "--resolution", "1/4", "--csv")
        assert code == 0
        assert out.count("\n") == 1 + 189 * 188 // 2
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "0c446f60f5eaee749c17fd7451501f103b0f3b1f49513052879512de7779d1db"
        )

    def test_theta_third_json(self, capsys):
        # offsets in thirds make the merge grid 1/6
        code, out, _ = run(capsys, "merge-tree", "builtin:theta", "--resolution", "1/3", "--json")
        assert code == 0
        assert out == json.dumps(THETA_THIRD_DOC, indent=2) + "\n"

    def test_one_vertex_loop(self, tmp_path, capsys):
        f = tmp_path / "loop.json"
        f.write_text(json.dumps(LOOP_DOC))
        argv = ("merge-tree", str(f), "--resolution", "1")
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 0
        doc = {"points": ["(e0@0)"], "events": [], "root_radius_user": "0"}
        assert out == json.dumps(doc, indent=2) + "\n"
        assert run(capsys, *argv, "--csv") == (0, "i,j,point_i,point_j,mu_user\n", "")

    def test_potential_approx_text(self, tmp_path, capsys):
        f = tmp_path / "p.json"
        f.write_text(json.dumps(_doc([("a", "b", "1/3"), ("b", "c", "1")])))
        assert run(capsys, "potential", str(f), "--approx") == (
            0,
            "m: 2/3 (0.666667)\nM: 4/3 (1.33333)\ncenter: e1@1/3\n"
            "extremum: e0@0\nextremum: e1@1\n",
            "",
        )

    def test_potential_path_text(self, capsys):
        assert run(capsys, "potential", "builtin:path") == (
            0,
            "m: 1\nM: 2\ncenter: e0@1\ncenter: e1@0\nextremum: e0@0\nextremum: e1@1\n",
            "",
        )


HUGE_RADII = json.loads((Path(__file__).resolve().parent / "data" / "project_huge_radii.json").read_text())


class TestHugeRadii:
    """`project --json` at radii whose key grid once passed the int64 range,
    frozen while those levels were keyed on Python integers."""

    @pytest.mark.parametrize("key", list(HUGE_RADII))
    def test_project_json(self, capsys, key):
        graph, radius = key.split()
        argv = ("project", f"builtin:{graph}", "--radius", radius, "--json")
        assert run(capsys, *argv) == (0, HUGE_RADII[key], "")


class TestMergeTreeRoute:
    """`merge-tree` reads everything off one merge sweep."""

    ARGV = ("merge-tree", "builtin:comb5", "--resolution", "1/4")

    def test_json_takes_no_matrix_route(self, monkeypatch, capsys):
        code, expected, _ = run(capsys, *self.ARGV, "--json")
        assert code == 0

        def refuse(*args):
            raise AssertionError("the matrix route ran")

        for name in ("dendrogram_from_matrix", "ultrametric_check", "MergeMatrix"):
            monkeypatch.setattr(mergetree, name, refuse)
        assert run(capsys, *self.ARGV, "--json") == (0, expected, "")

    def test_csv_and_json_share_one_sweep(self, monkeypatch, capsys, tmp_path):
        calls = []
        ball_keys = mergetree.ball_keys

        def counted(*args):
            calls.append(args[1])
            return ball_keys(*args)

        monkeypatch.setattr(mergetree, "ball_keys", counted)
        run(capsys, *self.ARGV, "--json")
        alone = len(calls)
        calls.clear()
        code, _, _ = run(capsys, *self.ARGV, "--csv", str(tmp_path / "mu.csv"), "--json")
        assert code == 0
        assert len(calls) == alone > 0


class TestRobustnessExactRoute:
    """`robustness --exact` sweeps the failing level's integer cell rows."""

    def test_help_names_what_exact_reports(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["robustness", "--help"])
        assert exc.value.code == 0
        out = " ".join(capsys.readouterr().out.split())
        assert "--exact also report the least merge radius among the failing level's representatives" in out

    ARGV = ("robustness", "builtin:comb5", "--exact")

    def test_builds_no_fraction_cells(self, monkeypatch, capsys):
        code, expected, _ = run(capsys, *self.ARGV)
        assert code == 0

        def refuse(*args):
            raise AssertionError("a Fraction cell or point was built")

        for name in ("subdivision", "Subdivision", "SegmentCell"):
            monkeypatch.setattr(quotient, name, refuse)
        monkeypatch.setattr(GraphPoint, "__post_init__", refuse)
        assert run(capsys, *self.ARGV) == (0, expected, "")


def _doc(edges, name="g"):
    vertices = sorted({v for u, w, _ in edges for v in (u, w)})
    return {"name": name, "vertices": vertices, "edges": [{"u": u, "v": v, "len": l} for u, v, l in edges]}


METAMORPHIC_DOCS = {
    # lengths (1, 1, 2) on a triangle
    "triangle": _doc([("a", "b", "1"), ("b", "c", "1"), ("c", "a", "2")]),
    # lengths 1, 3/2, 1/3 and 2 with a loop of length 1/2
    "mixed-loop": _doc(
        [("a", "d", "1"), ("a", "b", "3/2"), ("b", "c", "1/3"), ("c", "a", "2"), ("b", "b", "1/2")]
    ),
    "tree": _doc([("a", "b", "1"), ("b", "c", "1/2"), ("b", "d", "3/4"), ("d", "e", "2")]),
    # lengths (1, 1, 2) on three parallel edges
    "theta112": _doc([("a", "b", "1"), ("a", "b", "1"), ("a", "b", "2")]),
}


@pytest.mark.parametrize("name", sorted(METAMORPHIC_DOCS))
class TestMetamorphicPotential:
    """User-unit m and M depend only on the metric space."""

    @staticmethod
    def extremes(tmp_path, capsys, document) -> tuple[F, F]:
        f = tmp_path / "g.json"
        f.write_text(json.dumps(document))
        code, out, _ = run(capsys, "potential", str(f), "--json")
        assert code == 0
        doc = json.loads(out)
        return F(doc["m"]), F(doc["M"])

    def test_scaling_lengths_scales_m_and_M(self, tmp_path, capsys, name):
        document = METAMORPHIC_DOCS[name]
        scaled = dict(document, edges=[dict(e, len=str(3 * F(e["len"]))) for e in document["edges"]])
        m, M = self.extremes(tmp_path, capsys, document)
        assert self.extremes(tmp_path, capsys, scaled) == (3 * m, 3 * M)

    def test_splitting_an_edge_keeps_m_and_M(self, tmp_path, capsys, name):
        document = METAMORPHIC_DOCS[name]
        first, *rest = document["edges"]
        assert first["len"] == "1"
        split = dict(
            document,
            vertices=document["vertices"] + ["mid"],
            edges=[dict(first, v="mid", len="1/3"), dict(first, u="mid", len="2/3")] + rest,
        )
        assert self.extremes(tmp_path, capsys, split) == self.extremes(tmp_path, capsys, document)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_relabeling_keeps_m_and_M(self, tmp_path, capsys, name, seed):
        document = METAMORPHIC_DOCS[name]
        moved = relabeled(document, seed)
        assert self.extremes(tmp_path, capsys, moved) == self.extremes(tmp_path, capsys, document)


def split_first_edge(document):
    """The document with its first edge cut at a third of its length."""
    first, *rest = document["edges"]
    third = F(first["len"]) / 3
    return dict(
        document,
        vertices=document["vertices"] + ["cut"],
        edges=[dict(first, v="cut", len=str(third)), dict(first, u="cut", len=str(2 * third))] + rest,
    )


@pytest.mark.parametrize("name", sorted(METAMORPHIC_DOCS))
class TestMetamorphicTimeline:
    """User-unit critical times and the number of distinct types depend only
    on the metric space."""

    @staticmethod
    def timeline(tmp_path, capsys, document) -> dict:
        f = tmp_path / "g.json"
        f.write_text(json.dumps(document))
        code, out, _ = run(capsys, "timeline", str(f), "--json")
        assert code == 0
        return json.loads(out)

    def test_scaling_lengths_scales_critical_times(self, tmp_path, capsys, name):
        document = METAMORPHIC_DOCS[name]
        scaled = dict(document, edges=[dict(e, len=str(3 * F(e["len"]))) for e in document["edges"]])
        base = self.timeline(tmp_path, capsys, document)
        times = [F(x) for x in base["critical_times_user"]]
        assert [F(x) for x in self.timeline(tmp_path, capsys, scaled)["critical_times_user"]] == [
            3 * x for x in times
        ]
        if name == "theta112":
            assert (times, base["distinct_type_count"]) == ([F(1), F(3, 2)], 3)

    def test_splitting_an_edge_keeps_critical_times_and_types(self, tmp_path, capsys, name):
        document = METAMORPHIC_DOCS[name]
        base = self.timeline(tmp_path, capsys, document)
        split = self.timeline(tmp_path, capsys, split_first_edge(document))
        for key in ("critical_times_user", "distinct_type_count"):
            assert split[key] == base[key], key

    @pytest.mark.parametrize("seed", [1, 2])
    def test_relabeling_keeps_the_timeline(self, tmp_path, capsys, name, seed):
        document = METAMORPHIC_DOCS[name]
        moved = relabeled(document, seed)
        assert self.timeline(tmp_path, capsys, moved) == self.timeline(tmp_path, capsys, document)


def relabeled_vertices(document, seed):
    """The same document with its vertices renamed and listed in another
    order; edges keep their order and orientation, so user points keep
    their names."""
    rng = random.Random(seed)
    names = list(document["vertices"])
    shuffled = names[:]
    rng.shuffle(shuffled)
    mapping = dict(zip(names, (f"x{k}" for k in range(len(names)))))
    return dict(
        document,
        vertices=[mapping[v] for v in shuffled],
        edges=[dict(e, u=mapping[e["u"]], v=mapping[e["v"]]) for e in document["edges"]],
    )


@pytest.mark.parametrize("name", sorted(METAMORPHIC_DOCS))
class TestMetamorphicMergeTree:
    """User-unit merge radii of corresponding sample points depend only on
    the metric space; samples are taken at a third of a unit edge."""

    @staticmethod
    def merge_radii(tmp_path, capsys, document, resolution, shrink=1) -> dict:
        """{frozenset of two user point names: mu_user}, with user offsets
        divided by `shrink` in the names."""
        f = tmp_path / "g.json"
        f.write_text(json.dumps(document))
        code, out, _ = run(
            capsys, "merge-tree", str(f), "--user-units", "--resolution", str(resolution), "--csv"
        )
        assert code == 0

        def point(text):
            edge, t = text.strip("()").split("@")
            return edge, F(t) / shrink

        rows = [ln.split(",") for ln in out.strip().splitlines()[1:]]
        return {frozenset((point(a), point(b))): F(mu) for _, _, a, b, mu in rows}

    def test_scaling_lengths_scales_merge_radii(self, tmp_path, capsys, name):
        document = METAMORPHIC_DOCS[name]
        rho = load_graph(document).scale / 3
        scaled = dict(document, edges=[dict(e, len=str(3 * F(e["len"]))) for e in document["edges"]])
        base = self.merge_radii(tmp_path, capsys, document, rho)
        moved = self.merge_radii(tmp_path, capsys, scaled, 3 * rho, shrink=3)
        assert len(base) > 1
        assert moved == {pair: 3 * mu for pair, mu in base.items()}

    @pytest.mark.parametrize("seed", [1, 2])
    def test_relabeling_vertices_keeps_merge_radii(self, tmp_path, capsys, name, seed):
        document = METAMORPHIC_DOCS[name]
        rho = load_graph(document).scale / 3
        moved = relabeled_vertices(document, seed)
        assert self.merge_radii(tmp_path, capsys, moved, rho) == self.merge_radii(
            tmp_path, capsys, document, rho
        )


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("timeline", "builtin:theta", "--csv"),
            ("project", "builtin:c6", "--radius", "5/4", "--json"),
            ("merge-tree", "builtin:theta", "--resolution", "1/2", "--json"),
            ("robustness", "builtin:c6", "--exact"),
        ],
    )
    def test_repeat_runs_identical(self, capsys, argv):
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second

    def test_file_output_matches_stdout(self, tmp_path, capsys):
        out_path = tmp_path / "t.csv"
        run(capsys, "timeline", "builtin:c6", "--csv", str(out_path))
        _, stdout, _ = run(capsys, "timeline", "builtin:c6", "--csv")
        assert out_path.read_text() == stdout
