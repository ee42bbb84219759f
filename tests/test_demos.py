"""The demos and the README's Python blocks run clean.

Each ``demos/0*.py`` script and each fenced ``python`` block of
README.md runs in a fresh interpreter with ``PYTHONPATH=src`` and must
exit 0, so a change to what the package exports cannot break them
unnoticed.  The demos run from ``demos/``, as the README shows.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0*.py"))
README_BLOCKS = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)


def _run(argv, cwd) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable] + argv, cwd=cwd, env=env, capture_output=True, text=True)


@pytest.mark.parametrize("demo", DEMOS, ids=[path.stem for path in DEMOS])
def test_demo_runs(demo):
    done = _run([demo.name], demo.parent)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize(
    "block", README_BLOCKS, ids=["block%d" % i for i in range(1, len(README_BLOCKS) + 1)]
)
def test_readme_python_block_runs(block):
    done = _run(["-c", block], ROOT)
    assert done.returncode == 0, done.stderr


def test_there_is_something_to_run():
    assert len(DEMOS) == 5 and README_BLOCKS
