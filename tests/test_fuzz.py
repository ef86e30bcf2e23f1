"""Seeded fuzzing of the command line: every case exits 0 or 2, never with a
traceback.

Each case picks a graph argument, either a graph document written to a file
or a `builtin:` name or path, and one command with its arguments.  A document
is one of three small valid ones with up to two mutations: a value replaced by
a wrong type, a boolean, NaN, infinity or 10^30; a key dropped; an edge to an
unknown vertex; or a length with a fine denominator.  The arguments `--radius`,
`--resolution`, `--edge` and `--t` are replaced by malformed or extreme values
some of the time, or dropped.  A case passes when `cli.main` returns 0, or 2
with an `invalid-input` message, or argparse exits 2 on the arguments.  The
tier-1 slice runs 300 cases; with BALLFLOW_DEEP=1 it runs 3,000.
"""

import copy
import json
import os
import random

from ballflow import cli

DEEP = os.environ.get("BALLFLOW_DEEP") == "1"
CASES = 3_000 if DEEP else 300

BASES = [
    {  # 14 unit edges: a triangle with a loop and two pendant edges
        "name": "kite",
        "vertices": ["a", "b", "c", "d", "e"],
        "edges": [
            {"u": "a", "v": "b"},
            {"u": "b", "v": "c", "len": "3/2"},
            {"u": "c", "v": "a", "len": "1/2"},
            {"u": "a", "v": "d"},
            {"u": "b", "v": "e", "len": "2"},
            {"u": "c", "v": "c"},
        ],
    },
    {  # numeric vertex names and the "length" key
        "vertices": [0, 1],
        "edges": [{"u": 0, "v": 1}, {"u": 0, "v": 1, "len": "2"}, {"u": 1, "v": 0, "length": "3"}],
    },
    {
        "name": "path",
        "vertices": ["x", "y", "z"],
        "edges": [{"u": "x", "v": "y", "len": "1/3"}, {"u": "y", "v": "z", "len": "2/3"}],
    },
]
# values that replace a document's own
JUNK = [
    None, True, False, float("nan"), float("inf"), 10**30, -1, 0, 1.5, 2, "", "x", "1/0", "-1/2", "0",
    "3/2", "10^30", str(10**30), "9" * 5000, "1e3", [], {}, ["a"], {"u": "a"},
]
FINE = ["1/1000003", f"1/{2**64}", "7/4099", f"{10**30}/{10**30 + 1}"]
# graph arguments that are not a document of BASES
OTHER_GRAPHS = ["builtin:theta", "builtin:comb3", "builtin:comb0", "builtin:comb12", "builtin:nope", "builtin:"]
OTHER_TEXTS = [
    "{not json", "", "[]", "null", '"text"', "NaN", '{"vertices": ["a"], "edges": [{"u": "a", "v": "a"}]}',
]
ARG_JUNK = [
    "0", "-1", "1/0", "x", "", "1/2", "3", "7/3", "10^30", str(10**30), f"1/{10**30}", "NaN", "inf",
    "1e3", "0/1", "1/1000003", " 1", "--json", "1.0", f"1/{2**80}",
]
COMMANDS = {
    "info": ([], []),
    "potential": ([], ["--json", "--approx"]),
    "ball": (["--edge", "0", "--t", "1/4", "--radius", "1"], ["--json", "--user-units"]),
    "project": (["--radius", "3/4"], ["--json", "--dot"]),
    "timeline": ([], ["--json", "--csv"]),
    "robustness": ([], ["--exact", "--approx"]),
    "merge-tree": (["--resolution", "1/2"], ["--json", "--csv", "--user-units"]),
}


def mutate(rng: random.Random, doc: dict) -> dict:
    doc = copy.deepcopy(doc)
    edge = rng.choice(doc["edges"])
    kind = rng.randrange(5)
    if kind == 0:  # a value of the document, an edge or a vertex
        vertices = doc.get("vertices")
        where = rng.choice([doc, edge] + ([vertices] if isinstance(vertices, list) and vertices else []))
        key = rng.randrange(len(where)) if isinstance(where, list) else rng.choice(list(where) + ["len"])
        where[key] = rng.choice(JUNK)
    elif kind == 1:
        where = rng.choice([doc, edge])
        where.pop(rng.choice(list(where) + ["len"]), None)
    elif kind == 2:
        edge[rng.choice("uv")] = "nowhere"
    elif kind == 3:
        edge["len"] = rng.choice(FINE)
    else:
        doc[rng.choice(["vertices", "edges", "name"])] = rng.choice(JUNK)
    return doc


def graph_argument(rng: random.Random, path) -> tuple[str, str]:
    """A graph argument and what it holds, for the report of a failing case."""
    pick = rng.random()
    if pick < 0.1:
        graph = rng.choice([*OTHER_GRAPHS, str(path.parent / "missing.json")])
        return graph, graph
    text = rng.choice(OTHER_TEXTS) if pick < 0.2 else None
    if text is None:
        doc = rng.choice(BASES)
        for _ in range(rng.randrange(3)):
            if isinstance(doc, dict) and isinstance(doc.get("edges"), list) and doc["edges"]:
                doc = mutate(rng, doc)
        text = json.dumps(doc)
    path.write_text(text)
    return str(path), text


def arguments(rng: random.Random, command: str) -> list[str]:
    values, flags = COMMANDS[command]
    argv = list(values)
    for i in range(1, len(argv), 2):
        if rng.random() < 0.3:
            argv[i] = rng.choice(ARG_JUNK)
    if argv and rng.random() < 0.05:
        i = rng.randrange(0, len(argv), 2)
        del argv[i : i + 2]
    return argv + [flag for flag in flags if rng.random() < 0.4]


def test_cli_exits_0_or_2_on_fuzzed_input(tmp_path, capsys):
    rng = random.Random(2024)
    codes = {0: 0, 2: 0}
    for case in range(CASES):
        graph, held = graph_argument(rng, tmp_path / "g.json")
        command = rng.choice(list(COMMANDS))
        argv = [command, graph, *arguments(rng, command)]
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse refuses the arguments
            code = exc.code
        except Exception as exc:
            raise AssertionError(f"case {case}: {argv} on {held[:300]!r} raised") from exc
        err = capsys.readouterr().err
        assert code in (0, 2), (case, argv, held[:300], code, err)
        assert "Traceback" not in err, (case, argv, held[:300], err)
        if code == 2:
            assert err.startswith(("error: invalid-input: ", "usage: ")), (case, argv, held[:300], err)
        codes[code] += 1
    # both outcomes are reached, so the mutations neither break nor spare every case
    assert min(codes.values()) > CASES // 10, codes
