"""One workload pass in a fresh interpreter.

Usage: python perfbench/worker.py WORKLOAD SEED SECONDS MODE OUT_DIR

MODE is ``setup`` (import catbell, build the seeded input stream, exit),
``run`` (closed loop over whole cycles of the stream, until the calls have
taken SECONDS) or ``trace`` (the same with layer spans).  The worker prints
{"ready": <perf_counter>} as soon as it is set up, so the parent can time
set-up from launch, then one result line.

One client, one call at a time: the next call starts when the previous one has
returned and been checked.  Only the calls themselves are timed; the
correctness gate runs between them.
"""

from __future__ import annotations

import io
import json
import os
import platform
import resource
import subprocess
import sys
from collections import Counter
from contextlib import nullcontext
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD_TIMEOUT_S = 120


def _inprocess(call):
    from catbell import cli
    stream = io.StringIO()
    code = cli.main(call.argv, stream)
    return code, stream.getvalue()


def _child(call, prefix):
    proc = subprocess.run([sys.executable, *prefix, *call.argv], capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S, check=False)
    return proc.returncode, proc.stdout


def environment() -> dict:
    import numpy
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def summarize(latencies: list[float], attempted: int) -> dict:
    """Median and tail over all attempted calls; a failed call ranks above every success.

    The tail is the highest percentile with at least ten samples beyond it.
    With ten calls or fewer it is the slowest call.  When a rank falls on a
    failure it has no latency, so it moves down to the slowest success; the
    report says how many samples lie beyond it.
    """
    ranked = sorted(latencies)

    def at(index):
        index = min(index, len(ranked) - 1)
        return 1e3 * ranked[index], index

    p50_ms, _ = at((attempted - 1) // 2)
    tail_ms, i = at(attempted - 11 if attempted > 10 else attempted - 1)
    return {"call_p50_ms": p50_ms, "call_tail_ms": tail_ms,
            "tail_percentile": 100.0 * (i + 1) / attempted, "tail_beyond": attempted - i - 1}


def main() -> int:
    workload, seed, seconds, mode, out_dir = sys.argv[1:6]
    seed, seconds = int(seed), float(seconds)

    import catbell
    import workloads
    from tracing import Tracer, cache_counts, layer_metrics

    src = os.path.dirname(os.path.dirname(os.path.abspath(catbell.__file__)))
    if src != os.path.join(os.path.dirname(HERE), "src"):
        raise SystemExit(f"catbell imported from {src}, not from this checkout's src/")
    calls = workloads.stream(workload, seed, out_dir)
    call = next(calls)
    print(json.dumps({"ready": perf_counter()}), flush=True)
    if mode == "setup":
        return 0

    tracer = Tracer() if mode == "trace" else None
    if workload != "cli_cold":
        execute = _inprocess
        if tracer:
            tracer.install()
    elif tracer:
        spans_file = os.path.join(out_dir, f"child-spans-{os.getpid()}.json")

        def execute(call):
            result = _child(call, [os.path.join(HERE, "child.py"), spans_file])
            with open(spans_file) as handle:
                tracer.merge(json.load(handle), tracer.stack[-1])
            os.remove(spans_file)
            return result
    else:
        def execute(call):
            return _child(call, ["-m", "catbell"])

    latencies, failures = [], Counter()
    attempted = wrong = 0
    busy = 0.0
    cycle = workloads.CYCLES[workload]
    while busy < seconds or attempted % cycle:
        attempted += 1
        error = None
        start = perf_counter()
        try:
            with tracer.call() if tracer else nullcontext():
                code, out = execute(call)
        except Exception as exc:  # a crashing call is a counted failure, not the end of the run
            error = f"raised {type(exc).__name__}"
        elapsed = perf_counter() - start
        busy += elapsed
        if error is None and code != 0:
            error = f"exit code {code}"
        if error is None and workload == "cli_cold" and _inprocess(call) != (code, out):
            # The subprocess must print exactly what cli.main prints in-process.
            error, wrong = "differs from in-process cli.main", wrong + 1
        if error is None:
            try:
                workloads.check(call, out)
                latencies.append(elapsed)
            except workloads.GateError as exc:
                error, wrong = f"gate: {exc}", wrong + 1
        if error is not None:
            failures[f"{call.kind} {call.label}: {error}"[:160]] += 1
        call = next(calls)

    who = resource.RUSAGE_CHILDREN if workload == "cli_cold" else resource.RUSAGE_SELF
    result = {
        "attempted": attempted,
        "failed": attempted - len(latencies),
        "wrong": wrong,
        "failures": dict(failures),
        "busy_s": busy,
        "calls_per_s": len(latencies) / busy,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "env": environment(),
    }
    if latencies:
        result.update(summarize(latencies, attempted))
    if tracer:
        tracer.uninstall()
        if workload != "cli_cold":
            tracer.counts.update(cache_counts())
        result["layers"] = layer_metrics(tracer.spans, tracer.counts, busy)
        with open(os.path.join(out_dir, f"spans-{workload}.csv"), "w") as handle:
            handle.write("call_id,name,start_s,end_s,parent\n")
            for name, start, end, parent, call_id in tracer.spans:
                handle.write(f"{call_id},{name},{start!r},{end!r},{parent}\n")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
