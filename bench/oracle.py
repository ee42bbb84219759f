"""Expected outputs of the benchmark tasks, and the judge that applies them.

An oracle entry holds the SHA-256 of the task's config (``input``), the
expected ``exit`` code and:

* for exit 0, the SHA-256 of the whole report (``sha256``): passing
  reports carry computed components, so they must match byte for byte;
* for exit 1, the check names and statuses (``checks``): later work may
  move failing witnesses, but not which checks fail;
* for exit 2, nothing more: the report must be empty.

A task listed in ``workloads.KNOWN_FAILURES`` expects exit 2 and keeps
``known_failure``, what the recording commit did instead.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional

from workloads import sha256

ORACLE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "oracle.json")


def load(path: str = ORACLE_PATH) -> Dict[str, dict]:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def report_checks(stdout: str, fmt: str) -> List[List[str]]:
    """[name, status] of every record of a text or JSON report."""
    if fmt == "json":
        return [[c["name"], c["status"]] for c in json.loads(stdout)["checks"]]
    return [[line.split(" ")[1], line.split(" ")[0].lower()] for line in stdout.splitlines()]


def expectation(task, result: dict, config: bytes) -> dict:
    """The oracle entry for ``task`` from the recording commit's ``result``."""
    entry = {"input": sha256(config)}
    if task.known_failure:
        entry.update(exit=2, known_failure=result["raised"] or "exit %s" % result["exit"])
        return entry
    if result["raised"]:
        raise RuntimeError("%s crashed while recording: %s" % (task.id, result["raised"]))
    entry["exit"] = result["exit"]
    if result["exit"] == 0:
        entry["sha256"] = sha256(result["stdout"].encode())
    elif result["exit"] == 1:
        entry["checks"] = report_checks(result["stdout"], task.fmt)
    return entry


def judge(task, entry: Optional[dict], result: dict, config: bytes) -> Optional[str]:
    """None when ``result`` is what ``entry`` expects, else the reason it is not."""
    if entry is None:
        return "no oracle entry"
    if entry["input"] != sha256(config):
        return "config differs from the one the oracle was recorded on"
    if result["raised"]:
        return "raised %s" % result["raised"]
    if result["exit"] != entry["exit"]:
        return "exit %s, expected %s" % (result["exit"], entry["exit"])
    stdout = result["stdout"]
    if entry["exit"] == 0 and sha256(stdout.encode()) != entry["sha256"]:
        return "report differs from the expected report"
    if entry["exit"] == 1:
        try:
            checks = report_checks(stdout, task.fmt)
        except (ValueError, KeyError, IndexError):
            return "report is not a %s report" % task.fmt
        if checks != entry["checks"]:
            return "check names or statuses differ"
    if entry["exit"] == 2 and stdout:
        return "exit 2 with a report"
    return None
