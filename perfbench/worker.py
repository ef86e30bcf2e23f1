"""Run one ballflow CLI job in this fresh process and report what it cost.

Usage: python3 worker.py SPEC_JSON

The spec names the CLI arguments, the job id, whether to trace, and where to
write the result.  The job is timed from the call into `ballflow.cli.main`
until it returns; its standard output is captured and returned for checking.
Peak RSS is that of this process only.  Every job gets its own process, so
no module-global state (such as the merge-tree ball cache) carries over from
an earlier job.  While the job runs, a helper thread moves it between the
allowed CPUs (see `_alternate_cpus`).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import threading
import time
import traceback

CPU_SWITCH_S = 0.1


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _peak_rss_mb() -> float:
    """Peak RSS of this process since it started the worker program.

    `getrusage(RUSAGE_SELF).ru_maxrss` would also count the parent's RSS at
    fork time, which Linux carries across exec; VmHWM does not.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _alternate_cpus(tid: int, stop: threading.Event) -> None:
    """Move thread `tid` to the next allowed CPU every CPU_SWITCH_S seconds.

    On the shared machine the benchmark was defined on, each CPU runs fast
    or up to 1.6x slower for seconds at a time, independently of the other
    CPU.  A job left on one CPU inherits that CPU's luck; moving it around
    averages the CPUs and about halved the spread of job times across runs.
    """
    cpus = sorted(os.sched_getaffinity(tid))
    i = 0
    while not stop.wait(CPU_SWITCH_S):
        i = (i + 1) % len(cpus)
        os.sched_setaffinity(tid, {cpus[i]})
    os.sched_setaffinity(tid, cpus)


def main() -> None:
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    import ballflow.cli as cli

    tracer = None
    if spec["trace"]:
        from layertrace import Tracer

        tracer = Tracer(spec["job_id"])
        tracer.install()
    out = io.StringIO()
    result = {"rc": None, "error": None}
    stop = threading.Event()
    mover = threading.Thread(target=_alternate_cpus, args=(threading.get_native_id(), stop))
    mover.start()
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            result["rc"] = cli.main(spec["argv"])
    except Exception:  # a crash is a failed job, reported rather than fatal
        result["error"] = traceback.format_exc()
    finally:
        result["job_s"] = time.perf_counter() - t0
        result["cpu_s"] = _cpu_s() - cpu0
        stop.set()
        mover.join()
    result["peak_rss_mb"] = _peak_rss_mb()
    result["output"] = out.getvalue()
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(len(result["output"].encode()))
        tracer.write(spec["trace_path"])
    with open(spec["result_path"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
