"""Pinned bytes of the command line: exit code, stdout, stderr and --bins-out.

Each entry of ``tests/data/cli_golden.json`` is one argv run in-process
through ``cli.main``.  The corpus covers every subcommand in each output
format for both protocols, and the usage, model-domain, cap and infeasible
paths.  ``oracle`` entries compare only the exit code, stderr and the ``ok``
column: the ``p_oracle`` digits, and the disagreement the error message
quotes, come from LAPACK's ``eigh``.

To re-record after an intended output change (say what moved in CHANGES.md):

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import functools
import io
import json
import pathlib
import re

import pytest

from catbell import cli

GOLDEN = pathlib.Path(__file__).parent / "data" / "cli_golden.json"
BINS = "{bins}"  # stands for a temporary --bins-out path

_SUCCESS = {
    "rates": ["--distance-km-total", "140"],
    "oracle": ["--alpha", "2", "--distance-km-total", "10"],
    "plan": ["--rate-floor", "0.5"],
    "montecarlo": ["--duration-s", "40", "--seed", "7", "--distance-km-total", "100"],
}
_SWEEPS = [  # one per (output, protocol), cycling through the axes
    ["--axis", "delta_sigma_rad", "--start", "0", "--stop", "3.14159", "--steps", "5"],
    ["--axis", "phi_rad", "--start", "0.001", "--stop", "0.01", "--steps", "4"],
    ["--axis", "alpha", "--start", "50", "--stop", "150", "--steps", "3"],
    ["--axis", "distance_km_total", "--start", "0", "--stop", "400", "--steps", "5"],
    ["--axis", "alpha", "--start", "80", "--stop", "80", "--steps", "1"],
    ["--set", "sweep.variable=distance_km_total", "--set", "sweep.start=100",
     "--set", "sweep.stop=300", "--set", "sweep.steps=2"],
]


def _corpus() -> list[list[str]]:
    argvs = []
    combos = [(o, p) for o in cli.OUTPUTS for p in ("usd2", "usd4")]
    for i, (output, protocol) in enumerate(combos):
        tail = ["--protocol", protocol, "--output", output]
        argvs += [[name, *args, *tail] for name, args in _SUCCESS.items()]
        argvs.append(["sweep", *_SWEEPS[i], *tail])
    argvs += [
        ["rates", "--phi-rad", "0", "--output", "json"],
        ["rates", "--set", "source.alpha=50", "--protocol", "usd4"],
        ["montecarlo", "--phi-rad", "0", "--duration-s", "3", "--output", "csv"],
        ["montecarlo", "--duration-s", "20", "--seed", "3", "--bins-out", BINS],
        # usage and configuration errors
        ["rates", "--no-such-flag"],
        ["rates", "--set", "source.nope=1"],
        ["rates", "--set", "alpha"],
        ["rates", "--alpha", "1e200"],
        ["montecarlo", "--coincidence-window-s", "1"],
        ["sweep", "--steps", "3"],
        ["sweep", "--axis", "x", "--steps", "3"],
        ["sweep", "--axis", "alpha", "--start", "-1", "--stop", "1", "--steps", "3"],
        ["sweep", "--axis", "alpha", "--start=-1e308", "--stop=1e308", "--steps", "3"],
        ["sweep", "--axis", "alpha", "--start", "1", "--stop", "2",
         "--steps", str(cli.MAX_SWEEP_STEPS + 1)],
        ["montecarlo", "--duration-s", str(10 * cli.experiment.MAX_MC_BLOCKS)],
        # infeasible requests
        ["plan", "--rate-floor", "1e12"],
        ["plan", "--rate-floor", "1e12", "--output", "csv"],
        ["plan", "--rate-floor", "1e12", "--output", "json"],
        ["plan", "--alpha", "1e4", "--phi-rad", "0.5", "--output", "json"],
        ["oracle", "--alpha", "50", "--distance-km-total", "0"],
        ["oracle", "--tolerance", "1e-30", "--output", "csv"],
    ]
    return argvs


def run(argv: list[str], bins_path: pathlib.Path) -> dict:
    """Exit code, stdout, stderr (and --bins-out bytes) of one in-process run."""
    argv = [str(bins_path) if a == BINS else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(argv, out)
    result = {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
    if str(bins_path) in argv:
        result["bins"] = bins_path.read_text()
    return result


def _oracle_view(result: dict) -> dict:
    """The parts of an oracle run that do not depend on eigh's last digits."""
    ok = re.findall(r'^(?:ok +|.*,|\s*"ok": )(true|false),?$', result["stdout"], re.M)
    stderr = re.sub(r"disagreement \S+", "disagreement <eigh>", result["stderr"])
    return {"exit": result["exit"], "ok": ok, "stderr": stderr}


@functools.cache
def _golden() -> dict[tuple, dict]:
    return {tuple(e["argv"]): e for e in json.loads(GOLDEN.read_text())}


@pytest.mark.parametrize("argv", _corpus(), ids=" ".join)
def test_cli_bytes_match_golden(argv, tmp_path):
    want = dict(_golden()[tuple(argv)])
    del want["argv"]
    got = run(argv, tmp_path / "bins.csv")
    if argv[0] == "oracle":
        got, want = _oracle_view(got), _oracle_view(want)
    assert got == want


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        entries = [{"argv": argv, **run(argv, pathlib.Path(tmp) / "bins.csv")}
                   for argv in _corpus()]
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(entries, indent=1) + "\n")
    print(f"wrote {len(entries)} entries to {GOLDEN}")
