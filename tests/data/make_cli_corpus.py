"""Generate `cli_corpus.json`: argv, exit code and the sha256 of stdout and of
stderr for a fixed list of CLI commands, run in-process.

`tests/test_cli_corpus.py` replays the corpus and names the first command
whose output differs.  A change meant to alter an output regenerates the
corpus and names each changed command:

    PYTHONPATH=src python tests/data/make_cli_corpus.py

Commands run in a directory that holds the documents of `DOCUMENTS`, so every
path on a command line (and in an error message) is relative.

With `BALLFLOW_DEEP=1` the script also writes `cli_corpus_deep.json`, the
commands of `deep_commands()` on random graphs of 2,028 and 3,967 unit edges
and merge trees of comb5's 753 points at step 1/16 and of big200's 350
points at step 1/2, which `tests/test_cli_corpus.py` replays under the same
variable.  It takes about 40 s and 1.6 GB on 2 x86-64 cores, most of both
in `robustness rand2000.json --exact` (24 s).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
CORPUS = HERE / "cli_corpus.json"
DEEP_CORPUS = HERE / "cli_corpus_deep.json"
DEEP = os.environ.get("BALLFLOW_DEEP") == "1"

sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402

sys.path.pop(0)

# a triangle with a loop and two pendant edges
LOOP = {
    "name": "kite",
    "vertices": ["a", "b", "c", "d", "e"],
    "edges": [{"u": u, "v": v} for u, v in ("ab", "bc", "ca", "ad", "be", "cc")],
}

DOCUMENTS = {
    "big200.json": workloads.big200_document(),
    "rand40.json": workloads.random_connected_document(40, 20, 1),
    "kite.json": LOOP,
    "disconnected.json": {"vertices": ["a", "b", "c", "d"], "edges": [{"u": "a", "v": "b"}, {"u": "c", "v": "d"}]},
    "unknown_vertex.json": {"vertices": ["a"], "edges": [{"u": "a", "v": "zzz"}]},
    "duplicate_names.json": {"vertices": [1, "1"], "edges": [{"u": 1, "v": "1"}]},
    "zero_length.json": {"vertices": ["a", "b"], "edges": [{"u": "a", "v": "b", "len": "0"}]},
    "oversized.json": {
        "vertices": ["a", "b", "c"],
        "edges": [{"u": "a", "v": "b", "len": "1"}, {"u": "b", "v": "c", "len": "1/100000"}],
    },
}
# the deep tier's graphs, of 2,028 and 3,967 unit edges
DEEP_DOCUMENTS = {
    "rand1000.json": workloads.random_connected_document(1000, 450, 1),
    "rand2000.json": workloads.random_connected_document(2000, 850, 1),
    "big200.json": DOCUMENTS["big200.json"],
}
# written as they stand, not through json.dumps
RAW_DOCUMENTS = {"not_json.json": "{\"vertices\": "}

GRAPHS = [
    "builtin:path",
    "builtin:c4",
    "builtin:c6",
    "builtin:theta",
    "builtin:comb3",
    "builtin:comb5",
    "rand40.json",
    "big200.json",
]


def commands() -> list[list[str]]:
    cmds = []
    for g in GRAPHS:
        cmds += [
            ["timeline", g, "--json"],
            ["timeline", g, "--csv"],
            ["robustness", g],
            ["robustness", g, "--exact"],
        ]
        for radius in ("3/8", "1/3", "7/10"):
            cmds += [["project", g, "--radius", radius, "--json"], ["project", g, "--radius", radius, "--dot"]]
    # radii of 10^-21 and of 21 digits, whose own 1/S grids pass the int64 range
    for g in ("builtin:comb5", "big200.json"):
        for radius in ("1/1000000000000000000000", "123456789012345678901/100000000000000000000"):
            cmds += [["project", g, "--radius", radius, "--json"], ["project", g, "--radius", radius, "--dot"]]
    cmds += [
        ["timeline", "kite.json", "--json"],
        ["robustness", "kite.json", "--exact", "--approx"],
        ["project", "kite.json", "--radius", "1/2", "--dot"],
        ["timeline", "kite.json", "--csv"],
        # levels that smooth to pure cycles, loops and parallel edges: -1 in `kept`
        *(["project", g, "--radius", "1/8", "--dot"] for g in ("builtin:c4", "builtin:theta", "kite.json")),
        ["potential", "builtin:comb3", "--approx"],
        ["potential", "rand40.json", "--json"],
        ["ball", "builtin:theta", "--edge", "2", "--t", "1/3", "--radius", "3/2", "--json"],
        ["info", "builtin:comb3"],
        ["selftest"],
        ["merge-tree", "builtin:c6", "--resolution", "1/2", "--json"],
        ["merge-tree", "builtin:theta", "--resolution", "1/4", "--csv"],
        ["merge-tree", "builtin:comb5", "--resolution", "1/4", "--json"],
        ["merge-tree", "builtin:comb5", "--resolution", "1/4", "--csv"],
        ["merge-tree", "builtin:comb5", "--resolution", "1/8", "--json"],
        # a non-dyadic grid
        ["merge-tree", "builtin:theta", "--resolution", "1/3", "--json"],
        ["merge-tree", "builtin:path", "--resolution", "1/5", "--csv"],
        # the benchmark's shape; a graph that merges early and fast; 150 points
        ["merge-tree", "builtin:comb5", "--resolution", "1/2", "--json"],
        ["merge-tree", "rand40.json", "--resolution", "1/8", "--json"],
        ["merge-tree", "big200.json", "--resolution", "1", "--json"],
        # a 1/6 grid; a loop
        ["merge-tree", "builtin:comb3", "--resolution", "1/6", "--json"],
        ["merge-tree", "kite.json", "--resolution", "1/3", "--json"],
        # CSV matrices of 129 and 377 points
        ["merge-tree", "builtin:path", "--resolution", "1/64", "--csv"],
        ["merge-tree", "builtin:comb5", "--resolution", "1/8", "--csv"],
        ["ball", "builtin:theta", "--edge", "0", "--t", "1/3", "--radius", "123456789012345678901/100000000000000000000", "--json"],
        ["ball", "builtin:comb5", "--edge", "5", "--t", "1/7", "--radius", "1/1000000000000000000000", "--json"],
        ["ball", "builtin:c6", "--edge", "2", "--t", "2/5", "--radius", "7/10", "--user-units", "--json"],
        # refused inputs
        ["info", "missing.json"],
        ["info", "builtin:nope"],
        ["info", "builtin:comb12"],
        ["project", "builtin:theta", "--radius", "-1"],
        ["project", "builtin:theta", "--radius", "one"],
        ["ball", "builtin:theta", "--edge", "x", "--t", "0", "--radius", "1"],
        ["ball", "builtin:theta", "--edge", "9", "--t", "0", "--radius", "1"],
    ]
    cmds += [["info", name] for name in sorted(DOCUMENTS) if name not in ("big200.json", "rand40.json", "kite.json")]
    cmds += [["info", name] for name in sorted(RAW_DOCUMENTS)]
    cmds += [["timeline", "oversized.json", "--json"]]
    # usage: the top-level parser, one subparser's help, missing and unknown arguments
    cmds += [
        ["--help"],
        [],
        ["frobnicate", "builtin:path"],
        ["potential", "--help"],
        ["merge-tree", "builtin:comb5"],
        ["project", "builtin:theta"],
        ["timeline"],
        ["info", "builtin:path", "--bogus"],
    ]
    return cmds


def deep_commands() -> list[list[str]]:
    return [
        ["timeline", "rand1000.json", "--json"],
        ["project", "rand2000.json", "--radius", "131/8", "--json"],
        ["robustness", "rand1000.json", "--exact"],
        # 753 points, more representatives than fit one sweep call of several radii
        ["merge-tree", "builtin:comb5", "--resolution", "1/16", "--json"],
        # 350 points
        ["merge-tree", "big200.json", "--resolution", "1/2", "--json"],
        # robustness at 3,967 unit edges, walked and exact
        ["robustness", "rand2000.json"],
        ["robustness", "rand2000.json", "--exact"],
    ]


def write_documents(directory: Path, documents: dict = DOCUMENTS) -> None:
    for name, doc in documents.items():
        (directory / name).write_text(json.dumps(doc))
    for name, text in RAW_DOCUMENTS.items():
        (directory / name).write_text(text)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run(argv: list[str]) -> dict:
    """Run one command in-process, in the current directory.  An argparse exit
    (help, a usage error) records its `SystemExit` code.  COLUMNS is 80 while
    the command runs, as argparse wraps help to the terminal width."""
    from ballflow import cli

    out, err = io.StringIO(), io.StringIO()
    columns = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:
                code = exc.code
    finally:
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns
    return {"argv": argv, "exit": code, "stdout": sha256(out.getvalue()), "stderr": sha256(err.getvalue())}


def generate(cmds: list[list[str]], documents: dict = DOCUMENTS) -> list[dict]:
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        write_documents(Path(tmp), documents)
        os.chdir(tmp)
        try:
            return [run(argv) for argv in cmds]
        finally:
            os.chdir(cwd)


def main() -> int:
    tiers = [(CORPUS, commands(), DOCUMENTS)]
    if DEEP:
        tiers.append((DEEP_CORPUS, deep_commands(), DEEP_DOCUMENTS))
    for path, cmds, documents in tiers:
        corpus = generate(cmds, documents)
        path.write_text(json.dumps(corpus, indent=1) + "\n")
        print(f"wrote {len(corpus)} commands to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
