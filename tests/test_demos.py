"""Every demo runs to completion against this checkout and prints exactly its
golden output, `tests/golden/demos/<name>.txt`, and so does the README's
Python code, whose blocks together print `tests/golden/readme.txt`.

The demos are deterministic, so a golden file changes only with a deliberate
change to what a demo shows; regenerate one with
`PYTHONPATH=src python demos/<name>.py > tests/golden/demos/<name>.txt`.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = Path(__file__).resolve().parent / "golden" / "demos"
README = ROOT / "README.md"


def test_demos_are_found():
    assert len(DEMOS) >= 7
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == [p.stem for p in DEMOS]


def _stdout(argv) -> str:
    """What a Python run against this checkout's src/ prints; it must exit 0."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, *argv],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    assert _stdout([str(demo)]) == (GOLDEN / f"{demo.stem}.txt").read_text()


def test_readme_code_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert blocks
    printed = "".join(_stdout(["-c", block]) for block in blocks)
    assert printed == (GOLDEN.parent / "readme.txt").read_text()
