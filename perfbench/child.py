"""Run ``python -m catbell ARGV...`` with layer tracing (cli_cold's traced run).

Usage: python perfbench/child.py SPANS_OUT ARGV...

catbell's stdout passes through unchanged and the exit code is catbell's own.
The spans, including the time this interpreter spent importing catbell, are
written to SPANS_OUT as JSON for the parent to merge.
"""

from time import perf_counter

START = perf_counter()

import json  # noqa: E402
import runpy  # noqa: E402
import sys  # noqa: E402

import catbell.cli  # noqa: E402,F401  (the import is what the first span times)
from tracing import Tracer, cache_counts  # noqa: E402


def main() -> int:
    spans_out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.spans.append(["import.in_call", START, perf_counter(), -1, 0])
    tracer.install()
    sys.argv = ["catbell", *argv]
    code = 0
    try:
        with tracer.call():
            runpy.run_module("catbell", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code
    sys.stdout.flush()
    tracer.counts.update(cache_counts())
    with open(spans_out, "w") as handle:
        json.dump(tracer.dump(), handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
