"""Per-layer tracing of ``courant``, installed from outside the program.

A layer is one module of ``src/courant``.  ``Tracer.install`` wraps the
public functions and methods of each layer (plus the arithmetic dunders
and ``__str__``), and rebinds every ``courant.*`` module attribute that
aliases a wrapped function, because ``cli`` and ``morphism`` import
functions by name.  Nothing in ``src/`` changes.

Every wrapped call is counted and timed.  A call that enters a layer
from another one is also a span (name, start, end, parent span, task
id), kept in memory and appended to a JSON-lines file at the end;
calls into the arithmetic layers (``LEAF_LAYERS``) are not, since a
single axiom check makes millions of them.  A layer's self time is the
duration of its wrapped calls minus the time of the wrapped calls made
inside them.  Everything runs on one thread with no queues, so nothing
waits.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types
from collections import Counter
from fractions import Fraction
from typing import Dict, Tuple

LAYERS = ("poly", "fiber", "geometry", "linalg", "dorfman", "ample", "charform", "morphism", "report", "cli")
DUNDERS = frozenset({"__add__", "__sub__", "__mul__", "__rmul__", "__neg__", "__pow__", "__str__"})
LEAF_LAYERS = frozenset({"poly", "fiber", "geometry", "linalg"})


def _has_fraction(terms) -> bool:
    return Fraction in map(type, terms.values())


class Tracer:
    def __init__(self, task_id: str):
        self.task_id = task_id
        self.stats: Dict[str, list] = {}  # qualified name -> [calls, seconds of outermost calls]
        self.layers = {layer: [0.0, 0] for layer in LAYERS}  # layer -> [self seconds, raised]
        self.extra: Counter = Counter()  # counts taken at the boundary, see _hooks
        self.spans: list = []
        self._stack: list = [["", 0.0, -1]]  # frames [layer, child seconds, span index]
        self.missing: list = []  # metric sources that no longer exist in courant

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        import courant.cli  # noqa: F401  (loads every layer)

        hooks = self._hooks()
        wrapped: Dict[int, object] = {}

        def wrap(layer, qual, fn):
            if id(fn) not in wrapped:
                before, after = hooks.get(qual, (None, None))
                wrapped[id(fn)] = self._wrap(layer, qual, fn, before, after)
            return wrapped[id(fn)]

        for layer in LAYERS:
            mod = sys.modules["courant." + layer]
            for name, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__ or name.startswith("_"):
                    continue
                if isinstance(obj, types.FunctionType):
                    setattr(mod, name, wrap(layer, "%s.%s" % (layer, name), obj))
                elif isinstance(obj, type):
                    for attr, member in list(vars(obj).items()):
                        if attr.startswith("_") and attr not in DUNDERS:
                            continue
                        qual = "%s.%s.%s" % (layer, name, attr)
                        if isinstance(member, staticmethod):
                            setattr(obj, attr, staticmethod(wrap(layer, qual, member.__func__)))
                        elif isinstance(member, types.FunctionType):
                            setattr(obj, attr, wrap(layer, qual, member))
        for modname, mod in list(sys.modules.items()):
            if modname == "courant" or modname.startswith("courant."):
                for name, obj in list(vars(mod).items()):
                    if id(obj) in wrapped:
                        setattr(mod, name, wrapped[id(obj)])
        self.missing = sorted(TRACED_NAMES - set(self.stats))

    def _hooks(self) -> Dict[str, Tuple]:
        from courant.dorfman import Section
        from courant.poly import Poly

        extra = self.extra
        is_zero = Section.is_zero  # the original, so the hook makes no traced call

        def mul_before(args):
            a, b = args
            if type(b) is Poly:
                extra["poly.mul.term_products"] += len(a.terms) * len(b.terms)
                frac = _has_fraction(a.terms) or _has_fraction(b.terms)
            else:
                frac = type(b) is Fraction or _has_fraction(a.terms)
            if frac:
                extra["poly.mul.frac_calls"] += 1

        def dorfman_after(args, result):
            if is_zero(result):
                extra["dorfman.bracket.zero"] += 1

        def emit_before(args):
            extra["report.records"] += len(args[0].records)

        return {
            "poly.Poly.__mul__": (mul_before, None),
            "dorfman.Quintuple.dorfman": (None, dorfman_after),
            "report.Report.to_text": (emit_before, None),
            "report.Report.to_json": (emit_before, None),
        }

    def _wrap(self, layer, qual, fn, before, after):
        stat = self.stats.setdefault(qual, [0, 0.0])
        layer_stat = self.layers[layer]
        stack, spans, task = self._stack, self.spans, self.task_id
        leaf = layer in LEAF_LAYERS
        depth = [0]  # active calls of this function, for recursion
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat[0] += 1
            if before is not None:
                before(args)
            parent = stack[-1]
            keep = not leaf and parent[0] != layer
            if keep:
                index = len(spans)
                spans.append(None)
            else:
                index = parent[2]
            frame = [layer, 0.0, index]
            stack.append(frame)
            depth[0] += 1
            start = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if parent[0] != layer:
                    layer_stat[1] += 1
                raise
            finally:
                end = perf()
                stack.pop()
                duration = end - start
                layer_stat[0] += duration - frame[1]
                parent[1] += duration
                depth[0] -= 1
                if not depth[0]:
                    stat[1] += duration
                if keep:
                    spans[index] = (qual, start, end, parent[2], task)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    # -- output ------------------------------------------------------------

    def summary(self) -> dict:
        return {
            "calls": {q: s[0] for q, s in self.stats.items() if s[0]},
            "incl": {q: s[1] for q, s in self.stats.items() if s[0]},
            "self_s": {layer: s[0] for layer, s in self.layers.items()},
            "raised": {layer: s[1] for layer, s in self.layers.items()},
            "extra": dict(self.extra),
            "spans": sum(1 for s in self.spans if s is not None),
            "missing": self.missing,
        }

    def write_spans(self, path: str) -> None:
        """Append one JSON array per span: index, name, start, end, parent, task.

        Indices count within one task; a top-level span has parent -1.
        """
        if not path:
            return
        with open(path, "a", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                if span is not None:
                    name, start, end, parent, task = span
                    handle.write(json.dumps([index, name, start, end, parent, task]) + "\n")


# -- per-layer metrics -------------------------------------------------------------

COUNT, SECONDS, SHARE = "count", "s", "frac"

# metric -> (unit, summary key, qualified names whose values are summed)
_NAMED = {
    "poly.mul.calls": (COUNT, "calls", ("poly.Poly.__mul__",)),
    "poly.addsub.calls": (COUNT, "calls", ("poly.Poly.__add__", "poly.Poly.__sub__")),
    "poly.diff.calls": (COUNT, "calls", ("poly.Poly.diff",)),
    "poly.parse.calls": (COUNT, "calls", ("poly.parse_poly",)),
    "poly.parse.s": (SECONDS, "incl", ("poly.parse_poly",)),
    "dorfman.bracket.calls": (COUNT, "calls", ("dorfman.Quintuple.dorfman",)),
    "dorfman.pairing.calls": (COUNT, "calls", ("dorfman.Quintuple.pairing",)),
    "dorfman.axioms.s": (SECONDS, "incl", ("dorfman.Quintuple.check_axioms",)),
    "dorfman.validate.s": (SECONDS, "incl", ("dorfman.Quintuple.validate",)),
    "fiber.pairing.calls": (COUNT, "calls", ("fiber.QuadLieAlgebra.pairing",)),
    "fiber.bracket.calls": (COUNT, "calls", ("fiber.QuadLieAlgebra.bracket",)),
    "geometry.conn_apply.calls": (COUNT, "calls", ("geometry.GConnection.apply",)),
    "morphism.apply_iso.calls": (COUNT, "calls", ("morphism.apply_iso",)),
    "morphism.transport.s": (SECONDS, "incl", ("morphism.transport",)),
    "morphism.intertwining.s": (SECONDS, "incl", ("morphism.intertwining_report",)),
    "morphism.coboundary.s": (SECONDS, "incl", ("morphism.coboundary_identity_check",)),
    "ample.ce_differential.calls": (COUNT, "calls", ("ample.ce_differential",)),
    "charform.e_connection_form.s": (SECONDS, "incl", ("charform.e_connection_form",)),
    "charform.find_hoist.s": (SECONDS, "incl", ("charform.find_hoist",)),
    "report.emit.s": (SECONDS, "incl", ("report.Report.to_text", "report.Report.to_json")),
    "cli.parse.s": (SECONDS, "incl", ("cli.parse_config",)),
}
TRACED_NAMES = frozenset(q for _, _, quals in _NAMED.values() for q in quals)


def merge(summaries) -> dict:
    total = {key: Counter() for key in ("calls", "incl", "self_s", "raised", "extra")}
    for s in summaries:
        for key, counter in total.items():
            counter.update(s[key])
    return total


def layer_metrics(total: dict) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric, as name -> (value, unit), from a merged summary."""
    calls, extra = total["calls"], total["extra"]
    out = {}
    for name, (unit, source, quals) in _NAMED.items():
        out[name] = (sum(total[source][q] for q in quals), unit)
    mul = calls["poly.Poly.__mul__"]
    brackets = calls["dorfman.Quintuple.dorfman"]
    out["poly.mul.term_products"] = (extra["poly.mul.term_products"], COUNT)
    out["poly.mul.frac_share"] = (extra["poly.mul.frac_calls"] / mul if mul else 0.0, SHARE)
    out["dorfman.bracket.zero_share"] = (extra["dorfman.bracket.zero"] / brackets if brackets else 0.0, SHARE)
    out["linalg.calls"] = (sum(v for k, v in calls.items() if k.startswith("linalg.")), COUNT)
    out["report.records"] = (extra["report.records"], COUNT)
    for layer in LAYERS:
        out[layer + ".self_s"] = (total["self_s"][layer], SECONDS)
        out[layer + ".raised"] = (total["raised"][layer], COUNT)
    return out
