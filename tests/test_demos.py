"""Each demo runs from source, writes nothing to stderr, and prints its pinned output.

``oracle_check.py`` prints Fock-oracle digits, which come from LAPACK's
``eigh``, so only its exit code and silent stderr are checked.  To re-record
a demo after an intended change (say what moved in CHANGES.md):

    PYTHONPATH=src python demos/link_rates.py > tests/data/demos/link_rates.txt
"""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PINNED = pathlib.Path(__file__).parent / "data" / "demos"
DEMOS = sorted(p.stem for p in (ROOT / "demos").glob("*.py"))


def test_every_demo_is_covered():
    assert DEMOS == sorted([p.stem for p in PINNED.glob("*.txt")] + ["oracle_check"])


@pytest.mark.parametrize("name", DEMOS)
def test_demo_output(name):
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src if not path else src + os.pathsep + path}
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / f"{name}.py")],
                          capture_output=True, text=True, env=env, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    if name != "oracle_check":
        assert proc.stdout == (PINNED / f"{name}.txt").read_text()
