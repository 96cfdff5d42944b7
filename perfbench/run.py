"""catbell benchmark: seeded workloads through the CLI entry points.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

``--trace 0`` prints the end-to-end metrics named in BENCHMARK.json;
``--trace 1`` prints its per-layer metrics.  The last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it carries the details (environment, failures, tail rank, import
breakdown).  See perfbench/README.md for the workloads and the layer map.

Each workload pass runs in a fresh interpreter (perfbench/worker.py) with
PYTHONPATH=src and the BLAS thread count pinned, so set-up time, peak memory
and the cold fock caches belong to that workload.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("sweep_serve", "oracle_verify", "plan_count", "cli_cold")

SETUP_SAMPLES = 7       # set-up is timed this many times per run; the median is reported
IMPORT_SAMPLES = 3
BLAS_THREADS = "1"      # one client on a shared 2-core machine; more threads only add noise
DEADLINE_S = 170.0      # every run ends inside the driver's 180 s limit


class BenchError(Exception):
    pass


def bench_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")) if p)
    for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = BLAS_THREADS
    return env


def _run(argv: list[str], deadline: float) -> tuple[str, str]:
    """Run a process in its own session; on timeout kill the whole group and wait."""
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          env=bench_env(), cwd=ROOT, start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=max(deadline - perf_counter(), 1.0))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"timed out: {' '.join(argv[1:4])}") from None
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(argv[1:4])} exited {proc.returncode}:\n{err[-2000:]}")
    return out, err


def launch(workload: str, seed: int, seconds: float, mode: str, deadline: float) -> dict:
    """One worker pass; set-up time runs from launch to the worker's ready line."""
    start = perf_counter()
    out, _ = _run([sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed),
                   repr(seconds), mode, OUT], deadline)
    lines = [json.loads(line) for line in out.splitlines() if line.startswith("{")]
    result = lines[1] if len(lines) > 1 else {}
    result["setup_s"] = lines[0]["ready"] - start
    return result


def import_times(deadline: float) -> tuple[dict, dict]:
    """Cumulative import times from `python -X importtime` in a fresh interpreter."""
    _, err = _run([sys.executable, "-X", "importtime", "-c", "import catbell, catbell.fock"],
                  deadline)
    cumulative = {}
    for line in err.splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
            cumulative[parts[2].strip()] = int(parts[1]) / 1e3
    metrics = {"import.catbell_ms": cumulative.get("catbell", 0.0),
               "import.catbell.fock_ms": cumulative.get("catbell.fock", 0.0),
               "import.numpy_ms": cumulative.get("numpy", 0.0)}
    breakdown = {k: v for k, v in cumulative.items()
                 if "." not in k or k.startswith(("catbell.", "scipy.linalg", "scipy.sparse"))}
    return metrics, breakdown


def end_to_end(workload: str, seed: int, seconds: float, deadline: float):
    setups = [launch(workload, seed, seconds, "setup", deadline)["setup_s"]
              for _ in range(SETUP_SAMPLES - 1)]
    run = launch(workload, seed, seconds, "run", deadline)
    if "call_p50_ms" not in run:
        raise BenchError(f"{workload}: no call passed: {run['failures']}")
    setups.append(run["setup_s"])
    values = {
        "calls_per_s": run["calls_per_s"],
        "call_p50_ms": run["call_p50_ms"],
        "call_tail_ms": run["call_tail_ms"],
        "peak_rss_mb": run["peak_rss_mb"],
        "pass_frac": 1.0 - run["failed"] / run["attempted"],
        "setup_s": statistics.median(setups),
    }
    detail = {k: run[k] for k in ("env", "failures", "busy_s", "tail_percentile", "tail_beyond")}
    detail.update(failed_frac=run["failed"] / run["attempted"], setup_samples_s=setups)
    return values, [run], detail


def traced(workload: str, seed: int, seconds: float, deadline: float):
    """Untraced and traced passes of half the run each; the gap is the tracing overhead."""
    probes = [import_times(deadline) for _ in range(IMPORT_SAMPLES)]
    values = {k: statistics.median(p[0][k] for p in probes) for k in probes[0][0]}
    plain = launch(workload, seed, seconds / 2, "run", deadline)
    trace = launch(workload, seed, seconds / 2, "trace", deadline)
    values.update(trace["layers"])
    values["trace.overhead_frac"] = plain["calls_per_s"] / trace["calls_per_s"] - 1.0
    detail = {"env": trace["env"], "failures": trace["failures"], "import_breakdown_ms": probes[0][1],
              "spans_file": os.path.relpath(os.path.join(OUT, f"spans-{workload}.csv"), ROOT)}
    return values, [plain, trace], detail


def measure(workload: str, seed: int, seconds: float, trace: bool, spec: dict, deadline: float):
    values, runs, detail = (traced if trace else end_to_end)(workload, seed, seconds, deadline)
    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    summary = {
        "correct": all(r["wrong"] == 0 for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
    }
    return summary, metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isdir(os.path.join(ROOT, "src", "catbell")) or not os.path.exists(spec_path):
        print(f"error: {ROOT} holds no catbell checkout (src/catbell and BENCHMARK.json)",
              file=sys.stderr)
        return 2
    with open(spec_path) as handle:
        spec = json.load(handle)
    os.makedirs(OUT, exist_ok=True)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        deadline = perf_counter() + DEADLINE_S
        try:
            summary, metrics, detail = measure(name, args.seed, args.seconds, bool(args.trace),
                                               spec, deadline)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        for key, metric in metrics.items():
            print(f"# {name:<14} {key:<36} {metric['value']:>14.6g} {metric['unit']}")
        print(json.dumps({"detail": {"workload": name, "seed": args.seed, **summary, **detail}}))
        total["correct"] &= summary["correct"]
        total["attempted"] += summary["attempted"]
        total["failed"] += summary["failed"]
        prefix = f"{name}." if len(names) > 1 else ""
        total["metrics"].update({prefix + k: v for k, v in metrics.items()})
    print(json.dumps(total), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
