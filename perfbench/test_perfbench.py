"""Tests of the benchmark itself: its checks catch wrong outputs, its traced
counts repeat, and it refuses to run without the program.

Run from the repository root:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
from layertrace import OVERHEAD, PER_LAYER, aggregate  # noqa: E402
from workloads import WORKLOADS, make_input, verify  # noqa: E402


def _job(output: str) -> dict:
    return {"rc": 0, "error": None, "output": output}


def _graph(name: str):
    from ballflow.graph import load_graph

    return load_graph(make_input(WORKLOADS[name].base(), 0).doc)


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    # robustness-comb5 runs only by hand: see perfbench/README.md
    assert [w["name"] for w in spec["workloads"]] == [n for n in WORKLOADS if n != "robustness-comb5"]
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    layers = {name: (unit, better) for name, (unit, better, _source) in PER_LAYER.items()}
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {**layers, **OVERHEAD}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_reference_passes_and_a_corrupted_copy_fails(name):
    w = WORKLOADS[name]
    ref = w.reference()
    corrupted = ref[::-1].replace("1", "2", 1)[::-1]  # change the last digit 1
    failed, _ = run.check_jobs(w, make_input(w.base(), 0), 0, [_job(ref), _job(corrupted)])
    assert failed == 1  # failed_frac 1/2


def test_oracle_rejects_wrong_timeline():
    g = _graph("timeline-big200")
    doc = json.loads(WORKLOADS["timeline-big200"].reference())
    for e in doc["entries"]:
        e["fingerprint"]["chi"] += 1
    doc["entries"][-1]["fingerprint"]["is_point"] = False
    errors = WORKLOADS["timeline-big200"].check(g, json.dumps(doc), random.Random(1))
    assert any("chi" in e for e in errors) and any("point" in e for e in errors)


def test_oracle_rejects_wrong_merge_radii():
    w = WORKLOADS["mergetree-comb5"]
    g = _graph(w.name)
    doc = json.loads(w.reference())
    assert w.check(g, json.dumps(doc), random.Random(1)) == []
    for ev in doc["events"]:  # every merge one grid step too late
        ev["radius_user"] = str(Fraction(ev["radius_user"]) + Fraction(1, 64))
    assert w.check(g, json.dumps(doc), random.Random(1))
    doc["events"].pop()  # no root any more
    assert any("root" in e for e in w.check(g, json.dumps(doc), random.Random(1)))


def test_oracle_rejects_robustness_outside_bracket():
    w = WORKLOADS["robustness-comb5"]
    text = w.reference().replace("exact_user: 17/256", "exact_user: 1/16")
    assert w.check(_graph(w.name), text, random.Random(1))


def test_oracle_rejects_wrong_potential():
    w = WORKLOADS["potential-rand40"]
    g = _graph(w.name)
    doc = json.loads(w.reference())
    assert w.check(g, json.dumps(doc), random.Random(1)) == []
    doc["M"] = str(Fraction(doc["M"]) + 1)
    assert w.check(g, json.dumps(doc), random.Random(1))


def test_permuted_reference_does_not_match_the_base_reference():
    # the mapping back to the base document must not make every output agree
    w = WORKLOADS["mergetree-comb5"]
    inp = make_input(w.base(), 7)
    assert verify(w, inp, 7, w.reference()) == ["output differs from the frozen reference"]


def test_counts_must_repeat_across_traced_jobs():
    layers = {name: 1 for name in PER_LAYER}
    other = dict(layers, **{"balls.closed_ball_calls": 2})
    _, errors = aggregate([{"layers": layers, "job_s": 1.0}, {"layers": other, "job_s": 1.0}], [1.0])
    assert errors and "balls.closed_ball_calls" in errors[0]


def test_two_traced_mergetree_jobs_build_the_same_balls(tmp_path):
    w = WORKLOADS["mergetree-comb5"]
    graph = tmp_path / "graph.json"
    graph.write_text(json.dumps(make_input(w.base(), 3).doc))
    env = run.worker_env()
    jobs = [
        run.run_job(w.argv(str(graph)), i, tmp_path / f"trace{i}.jsonl", tmp_path, env, 170) for i in range(2)
    ]
    assert all(j["rc"] == 0 for j in jobs)
    assert jobs[0]["layers"]["balls.closed_ball_calls"] == jobs[1]["layers"]["balls.closed_ball_calls"] > 0
    _, errors = aggregate(jobs, [jobs[0]["job_s"]])
    assert errors == []
    spans = [json.loads(line) for line in (tmp_path / "trace0.jsonl").read_text().splitlines()]
    assert spans[0]["name"] == "cli" and spans[0]["parent"] is None
    assert {s["job"] for s in spans} == {0}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "potential-rand40", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
