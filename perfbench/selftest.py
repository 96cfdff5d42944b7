"""Self-test of the benchmark.

Usage, from the repository root: python3 perfbench/selftest.py

1. Smoke run: every workload for 2 s, untraced and traced.  Every metric that
   BENCHMARK.json names must be printed, by name and with its unit, and no
   other metric may appear.
2. Gate check: each correctness check passes on catbell's real output and
   rejects the same output against a deliberately wrong expected value.
3. Bare directory: run.py in a copy holding only BENCHMARK.json and
   perfbench/ must exit non-zero without printing a result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads as wl  # noqa: E402
from catbell import cli  # noqa: E402
from run import WORKLOADS  # noqa: E402


def _bench(root: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join(root, "perfbench", "run.py"), *args],
                          cwd=root, capture_output=True, text=True, timeout=180, check=False)


def smoke(spec: dict) -> None:
    for workload in WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            proc = _bench(ROOT, "--workload", workload, "--seed", "1", "--seconds", "2",
                          "--trace", str(trace))
            assert proc.returncode == 0, proc.stderr[-2000:]
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] is True and result["attempted"] >= 1, result
            assert set(result["metrics"]) == {m["name"] for m in spec[kind]}
            for m in spec[kind]:
                got = result["metrics"][m["name"]]
                assert got["unit"] == m["unit"] and math.isfinite(got["value"]), (m, got)
                assert any(line.split()[2:3] == [m["name"]] and line.endswith(" " + m["unit"])
                           for line in lines if line.startswith("#")), m["name"]
            print(f"ok  smoke {workload} trace={trace}: {result['attempted']} calls")


def _output(call: wl.Call) -> str:
    stream = io.StringIO()
    assert cli.main(call.argv, stream) == 0, call.argv
    return stream.getvalue()


def _rejects(call: wl.Call, stdout: str, **kwargs) -> None:
    try:
        wl.check(call, stdout, **kwargs)
    except wl.GateError as exc:
        print(f"ok  gate rejects {call.kind}: {exc}"[:150])
        return
    raise AssertionError(f"gate accepted a wrong value for {call.kind}")


def gate() -> None:
    calls = {call.kind: call for call in
             (next(wl.stream("sweep_serve", 1, OUT)),
              next(wl.stream("oracle_verify", 1, OUT)),
              next(wl.stream("plan_count", 1, OUT)))}

    reference = wl.Call("montecarlo", dict(wl.REFERENCE_FLAGS))
    out = _output(reference)
    wl.check(reference, out)
    _rejects(reference, out, frozen=(53121, 8182))

    sweep = calls["sweep"]
    out = _output(sweep)
    wl.check(sweep, out)
    rows = json.loads(out)
    rows[len(rows) // 2]["p_max"] *= 1.0 + 1e-9
    _rejects(sweep, json.dumps(rows))

    oracle = calls["oracle"]
    out = _output(oracle)
    wl.check(oracle, out)
    rows = json.loads(out)
    rows[-1]["ok"] = False
    _rejects(oracle, json.dumps(rows))

    plan = calls["plan"]
    out = _output(plan)
    wl.check(plan, out)
    record = json.loads(out)
    record["max_range_km_total"] -= 1.0
    _rejects(plan, json.dumps(record))

    session = wl.Call("montecarlo", {**wl.REFERENCE_FLAGS, "duration_s": 50.0},
                      bins_out=os.path.join(OUT, "selftest-bins.csv"))
    out = _output(session)
    wl.check(session, out)  # reads and removes the bins file
    _output(session)        # write it again, to tamper with
    with open(session.bins_out, newline="") as handle:
        rows = list(csv.reader(handle))
    rows[1][2] = str(int(rows[1][2]) + 1)
    with open(session.bins_out, "w", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerows(rows)
    _rejects(session, out)


def bare() -> None:
    root = os.path.join(OUT, "bare")
    shutil.rmtree(root, ignore_errors=True)
    os.makedirs(root)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), root)
        shutil.copytree(HERE, os.path.join(root, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = _bench(root, "--workload", "plan_count", "--seed", "1", "--seconds", "1")
        assert proc.returncode != 0 and '"metrics"' not in proc.stdout, proc
        print(f"ok  bare directory: exit {proc.returncode}, {proc.stderr.strip()}")
    finally:
        shutil.rmtree(root, ignore_errors=True)


def main() -> int:
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    gate()
    bare()
    smoke(spec)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
