"""Start one benchmark task in a fresh interpreter and collect its result.

Tasks run one at a time (a closed loop with one client).  Each runs in
its own interpreter so that it pays the import and parsing a command
line user pays, and so no process-global cache carries over.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from typing import Optional

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(BENCH_DIR, "child.py")
TASK_TIMEOUT_S = 150


class ChildError(RuntimeError):
    """The child interpreter itself failed (not the courant command)."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: Optional[list], trace: bool = False, task_id: str = "", spans: str = "") -> dict:
    spec = {"argv": argv, "trace": trace, "task": task_id, "src": SRC, "spans": spans}
    try:
        proc = subprocess.run(
            [sys.executable, CHILD, json.dumps(spec)],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=TASK_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise ChildError("task %s exceeded %ds" % (task_id, TASK_TIMEOUT_S))
    if proc.returncode != 0 or not proc.stdout:
        raise ChildError("child for %s failed (%d): %s" % (task_id, proc.returncode, proc.stderr[-2000:]))
    return json.loads(proc.stdout)


def run_task(task, config_dir: str, trace: bool = False, spans: str = "") -> dict:
    path = os.path.relpath(os.path.join(config_dir, task.config + ".cfg"), ROOT)
    return run_child(task.argv(path), trace, task.id, spans)
