"""The README's examples run as written and print what it says they print."""

import contextlib
import io
import os
import pathlib
import re
import shlex
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", README, re.M | re.S)
SHELL = [line for lang, body in BLOCKS if not lang
         for line in body.splitlines() if line.startswith("catbell ")]


def test_quick_start_prints_its_comment():
    code = next(body for lang, body in BLOCKS if lang == "python")
    shown = code.rstrip().splitlines()[-1].lstrip("# ").split()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    got = [float(x) for x in out.getvalue().split()]
    assert len(got) == len(shown) == 3
    for value, text in zip(got, shown):
        mantissa, _, _ = text.partition("e")
        digits = len(mantissa.partition(".")[2])
        assert format(value, f".{digits}{'e' if 'e' in text else 'f'}") == text


def test_every_shell_example_is_collected():
    assert len(SHELL) == 6
    assert "catbell oracle --alpha 2 --distance-km-total 0" in SHELL


@pytest.mark.parametrize("line", SHELL)
def test_shell_example_runs(line, tmp_path):
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src if not path else src + os.pathsep + path}
    argv = [sys.executable, "-m", "catbell"] + shlex.split(line)[1:]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout
