"""Benchmark of the ballflow command line, one workload per run.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all   # every workload, one table

Jobs run one at a time, each cold in a fresh worker process, for at least
`--seconds` seconds and at least two jobs.  Every output is checked after the
jobs have run, outside the timed region.  With `--trace 0` the last line of
standard output is a JSON object with the end-to-end metrics; with
`--trace 1` traced and untraced jobs alternate and it carries the per-layer
metrics instead.  See perfbench/README.md for the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MIN_JOBS = 2
SETUP_REPEATS = 5
RUN_LIMIT_S = 170.0  # a run must end within 180 s

END_TO_END = {
    "job_s": ("s", "lower"),
    "cpu_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
}


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = "0"  # so that per-layer counts repeat exactly
    return env


def measure_setup(env: dict) -> list[float]:
    """Wall seconds for fresh interpreters to import the CLI module; one
    untimed import first fills the bytecode cache, as installed code has.

    No timeout here: with one, `subprocess` polls for the child's exit with
    sleeps of up to 50 ms, which would round these times to 50 ms steps.
    """
    cmd = [sys.executable, "-c", "import ballflow.cli"]
    subprocess.run(cmd, env=env, cwd=ROOT, check=True)
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - t0)
    return times


def run_job(argv: list[str], job_id: int, trace_path: Path | None, workdir: Path, env: dict, timeout: float) -> dict:
    spec_path = workdir / f"job{job_id}.json"
    result_path = workdir / f"result{job_id}.json"
    spec = {
        "argv": argv,
        "job_id": job_id,
        "trace": trace_path is not None,
        "trace_path": str(trace_path),
        "result_path": str(result_path),
    }
    spec_path.write_text(json.dumps(spec))
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(spec_path)],
            env=env,
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return {"rc": None, "error": f"job timed out after {timeout:.0f} s", "traced": trace_path is not None}
    if proc.returncode != 0 or not result_path.exists():
        return {"rc": None, "error": f"worker exited {proc.returncode}: {proc.stderr}", "traced": trace_path is not None}
    result = json.loads(result_path.read_text())
    result["traced"] = trace_path is not None
    if result["rc"] != 0 and result["error"] is None:
        result["error"] = f"ballflow exited {result['rc']}: {proc.stderr.strip()}"
    return result


def check_jobs(workload, inp, seed: int, jobs: list[dict]) -> tuple[int, list[str]]:
    """Number of failed jobs, and why each failed.  A job fails if it
    crashed, exited non-zero, or its output fails a check."""
    from workloads import verify

    verdicts: dict[str, list[str]] = {}  # jobs of one run share their output
    failed, messages = 0, []
    for i, job in enumerate(jobs):
        if job["rc"] != 0 or job["error"]:
            errors = [job["error"]]
        else:
            if job["output"] not in verdicts:
                verdicts[job["output"]] = verify(workload, inp, seed, job["output"])
            errors = verdicts[job["output"]]
        failed += bool(errors)
        messages += [f"job {i}: {e}" for e in errors]
    return failed, messages


def bench(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Run and check one workload's jobs; returns the result object."""
    from layertrace import OVERHEAD, PER_LAYER, aggregate, time_sum
    from workloads import make_input

    started = time.perf_counter()
    deadline = started + RUN_LIMIT_S
    env = worker_env()
    inp = make_input(workload.base(), seed, workload.permute_edges)
    OUT.mkdir(exist_ok=True)
    (OUT / "trace").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        workdir = Path(tmp)
        graph_path = workdir / "graph.json"
        graph_path.write_text(json.dumps(inp.doc))
        argv = workload.argv(str(graph_path))
        setup = [] if trace else measure_setup(env)

        jobs: list[dict] = []
        t0 = time.perf_counter()

        def want_more() -> bool:
            traced = sum(j["traced"] for j in jobs)
            if trace and (traced < 2 or len(jobs) - traced < 1):
                return True
            return len(jobs) < MIN_JOBS or time.perf_counter() - t0 < seconds

        while want_more():
            longest = max((j.get("job_s", 0.0) for j in jobs), default=0.0)
            remaining = deadline - time.perf_counter()
            if jobs and remaining < 1.5 * longest + 5:
                break
            job_id = len(jobs)
            trace_path = None
            if trace and job_id % 2 == 0:
                trace_path = OUT / "trace" / f"{workload.name}-seed{seed}-job{job_id}.jsonl"
            jobs.append(run_job(argv, job_id, trace_path, workdir, env, remaining))

    failed, failures = check_jobs(workload, inp, seed, jobs)

    ran = [j for j in jobs if j["rc"] == 0 and not j["error"]]
    self_check = []
    if trace:
        traced = [j for j in ran if j["traced"]]
        untraced = [j["job_s"] for j in ran if not j["traced"]]
        if len(traced) < 2 or not untraced:
            self_check.append("a trace run needs two traced jobs and one untraced job that ran")
            metrics_raw = {}
        else:
            metrics_raw, self_check = aggregate(traced, untraced)
            for j in traced:
                total = time_sum(j["layers"])
                if abs(total - j["job_s"]) > max(0.005, 0.01 * j["job_s"]):
                    self_check.append(f"layer self times sum to {total:.4f} s, traced job took {j['job_s']:.4f} s")
        units = {name: spec[0] for name, spec in PER_LAYER.items()}
        units.update({name: spec[0] for name, spec in OVERHEAD.items()})
    else:
        metrics_raw = {}
        if ran:
            metrics_raw = {
                "job_s": median(j["job_s"] for j in ran),
                "cpu_s": median(j["cpu_s"] for j in ran),
                "peak_rss_mb": median(j["peak_rss_mb"] for j in ran),
                "setup_s": median(setup),
            }
        units = {name: spec[0] for name, spec in END_TO_END.items()}

    for msg in failures + self_check:
        print(f"{workload.name}: {msg}", file=sys.stderr)
    return {
        "correct": not failures and not self_check and bool(metrics_raw),
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics_raw.items()},
        "jobs_timed": len(ran),
        "setup_samples": len(setup),
        "wall_s": time.perf_counter() - started,
    }


def describe(name: str, result: dict) -> list[str]:
    lines = [
        f"{name}: {result['attempted']} jobs, {result['failed']} failed, "
        f"failed_frac {result['failed'] / max(result['attempted'], 1):.3f}, "
        f"run took {result['wall_s']:.1f} s"
    ]
    for key, m in result["metrics"].items():
        if key == "setup_s":
            note = f"median of {result['setup_samples']} imports"
        else:
            note = f"median of {result['jobs_timed']} jobs" if key in END_TO_END else ""
        value = f"{m['value']:14d}" if isinstance(m["value"], int) else f"{m['value']:14.6f}"
        lines.append(f"  {key:38s} {value} {m['unit']:6s} {note}".rstrip())
    return lines


def main(argv=None) -> int:
    # on SIGTERM, unwind so that subprocess.run kills and reaps a running job
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, help="workload name, or 'all'")
    ap.add_argument("--seed", type=int, default=0, help="input seed; 0 is the base document")
    ap.add_argument("--seconds", type=float, default=10.0, help="least time to measure")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "ballflow" / "cli.py").is_file():
        print(f"error: no ballflow sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        print(f"error: unknown workload {unknown[0]!r}; choices: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    results = {}
    for name in names:
        results[name] = bench(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        print("\n".join(describe(name, results[name])), flush=True)

    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()}
    if not metrics:
        print("error: no job completed, nothing measured", file=sys.stderr)
        return 1
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
