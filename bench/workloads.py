"""Workloads of the courant benchmark: seeded task lists drawn from the pool.

A workload is a list of *slots*.  Each slot lists the tasks that may
fill it; ``generate`` picks one task per slot with a ``random.Random``
seeded by the workload name and ``--seed``, then shuffles the order.
The chosen list is one *pass*, and a run repeats the same pass.  The
set of every task any seed can pick (``all_tasks``) is what the oracle
covers.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
POOL_DIR = os.path.join(BENCH_DIR, "pool")

FORMATS = ("text", "json")
# members of each seeded pool family (see make_pool.py)
FAMILY_SIZES = {"c": 8, "s": 8, "form": 4, "mut_d": 12, "mut_c": 12, "mut_s": 12, "iso_d": 40}
HELD_OUT_SEED = 7919  # never used while tuning; reserve it for claims

# Inputs that must exit 2 but crash the seed commit with a traceback.
# They stay in the forms workload so their share shows in failed_frac.
KNOWN_FAILURES = {
    "check@bad_deep_parens": "RecursionError in the polynomial parser",
    "check:degree=-1@form_d_hoist": "KeyError (0, 0) in the axiom check",
}


@dataclass(frozen=True)
class Task:
    command: str
    config: str  # pool member name, without .cfg
    fmt: str
    args: Tuple[str, ...] = ()

    @property
    def key(self) -> str:
        """Identity of the input, without the output format."""
        opts = ",".join(
            "%s=%s" % (self.args[i].lstrip("-"), self.args[i + 1])
            for i in range(0, len(self.args), 2)
        )
        return "%s%s@%s" % (self.command, ":" + opts if opts else "", self.config)

    @property
    def id(self) -> str:
        return "%s.%s" % (self.key, self.fmt)

    @property
    def known_failure(self) -> Optional[str]:
        return KNOWN_FAILURES.get(self.key)

    def argv(self, config_path: str) -> List[str]:
        return [self.command, config_path, "--format", self.fmt, *self.args]


def _both_formats(command, configs, args=()):
    return [Task(command, cfg, fmt, tuple(args)) for cfg in configs for fmt in FORMATS]


def _axioms():
    # fixture C and su(2) on n=4, p=3, plus one integer transport of each:
    # the base data is cheaper to check, so every pass holds both
    slots = []
    for family in ("c", "s"):
        slots.append(_both_formats("check", [family + "_0"], ("--degree", "2")))
        variants = ["%s_%d" % (family, k) for k in range(1, FAMILY_SIZES[family])]
        slots.append(_both_formats("check", variants, ("--degree", "2")))
    return slots


def _mutants():
    slots = []
    for family, degree in (("mut_d", "2"), ("mut_c", "1"), ("mut_s", "1")):
        for cls in range(3):
            members = ["%s_%d" % (family, k) for k in range(cls, FAMILY_SIZES[family], 3)]
            half = len(members) // 2
            for part in (members[:half], members[half:]):
                slots.append(_both_formats("check", part, ("--degree", degree)))
    return slots


def _transport():
    pairs = range(0, FAMILY_SIZES["iso_d"], 2)
    return [_both_formats("transport", ["iso_d_%d" % i, "iso_d_%d" % (i + 1)]) for i in pairs]


def _forms():
    c = ["form_c_%d" % k for k in range(FAMILY_SIZES["form"])]
    s = ["form_s_%d" % k for k in range(FAMILY_SIZES["form"])]
    d = ["form_d_hoist"]
    plans = []
    for configs in (c, s, d):
        for command in ("charform", "chernweil", "pontryagin", "naive", "roundtrip"):
            plans.append((command, configs, ()))
    plans += [
        ("shift", c, ("--kind", "omega")),
        ("shift", c, ("--kind", "central")),
        ("coherent", s, ()),
        ("build", s, ()),
        ("shift", d, ("--kind", "hoist")),
        ("shift", d, ("--kind", "central")),
        ("coherent", ["form_d_cform"], ()),
        ("build", ["form_d_cform"], ()),
        # malformed input: exit 2
        ("check", ["bad_section"], ()),
        ("check", ["bad_poly"], ()),
        ("check", ["bad_curv_order"], ()),
        ("transport", d, ()),  # no [iso] block
        # the two known crashers
        ("check", ["bad_deep_parens"], ()),
        ("check", d, ("--degree", "-1")),
    ]
    return [
        [Task(command, cfg, fmt, args) for cfg in configs]
        for command, configs, args in plans
        for fmt in FORMATS
    ]


SLOTS = {
    "axioms": _axioms(),
    "mutants": _mutants(),
    "transport": _transport(),
    "forms": _forms(),
}
WORKLOADS = tuple(SLOTS)


def generate(workload: str, seed: int) -> List[Task]:
    """The pass of ``workload`` for ``seed``: one task per slot, shuffled."""
    rng = random.Random("%s:%d" % (workload, seed))
    tasks = [rng.choice(slot) for slot in SLOTS[workload]]
    rng.shuffle(tasks)
    return tasks


def all_tasks() -> List[Task]:
    seen: Dict[str, Task] = {}
    for slots in SLOTS.values():
        for slot in slots:
            for task in slot:
                seen.setdefault(task.id, task)
    return [seen[k] for k in sorted(seen)]


def pool_text(name: str) -> bytes:
    with open(os.path.join(POOL_DIR, name + ".cfg"), "rb") as handle:
        return handle.read()


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def write_inputs(tasks: List[Task], directory: str) -> str:
    """Write the configs of ``tasks`` into ``directory``; return the input digest.

    The digest covers every task's argv and every config's bytes, so two
    results with the same digest ran the same inputs.
    """
    os.makedirs(directory, exist_ok=True)
    h = hashlib.sha256()
    for task in tasks:
        h.update(json.dumps(task.argv(task.config + ".cfg")).encode())
    for name in sorted({task.config for task in tasks}):
        data = pool_text(name)
        with open(os.path.join(directory, name + ".cfg"), "wb") as handle:
            handle.write(data)
        h.update(name.encode() + b"\0" + data)
    return h.hexdigest()
