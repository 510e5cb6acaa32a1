"""Every script in demos/ runs to completion against the library and prints
exactly its recorded output, ``tests/demo_output/<script>.txt``, and the
library example in README.md prints the value its comment gives."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
RECORDED = Path(__file__).resolve().parent / "demo_output"


@pytest.mark.parametrize("script", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, str(script)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == (RECORDED / (script.stem + ".txt")).read_text()


def test_readme_library_example(capsys):
    text = (ROOT / "README.md").read_text()
    block = re.search(r"## Library\n+```python\n(.*?)```", text, re.S).group(1)
    expected = re.search(r"print\(.*\)\s+# (\S+) =", block).group(1)
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out == expected + "\n"
