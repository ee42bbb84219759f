"""Validation reports shared by all checkers and the command line tool.

A report is an ordered list of named check records.  Failing records
carry a witness: the violated identity, the index tuple where it
failed, and the residual polynomial in canonical text form.  Reports
are fully deterministic (fixed record order, no timestamps), so two
runs on the same input produce byte-identical output.

One recorder: every check in ``src/`` records its verdict through a
``Check``, whose ``add*`` methods return whether it has failed, so a
first-witness loop stops with ``if check.add(...): break``.  Only this
module builds ``Witness`` and ``CheckRecord`` values; the one record
that is not a check, a component of a computed object, comes from
``Report.add_components``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple


class Record:
    """Base of the plain record classes: ``==`` field by field between
    records of the same class, a dataclass-style ``repr`` over
    ``_fields``, and no hash, since records are mutable.  Each subclass
    writes out its ``__init__``.  (The records are not ``dataclasses``:
    that import alone costs every command ~10 ms.)
    """

    __slots__ = ()
    _fields: Tuple[str, ...] = ()
    __hash__ = None

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join("%s=%r" % (name, getattr(self, name)) for name in self._fields)
        return "%s(%s)" % (type(self).__qualname__, fields)


class FrozenRecord(Record):
    """A record fixed at construction: assignment raises AttributeError,
    and equal records hash alike.  ``__init__`` fills ``__dict__``."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

    def __hash__(self) -> int:
        return hash(self._values())


class Witness(FrozenRecord):
    _fields = ("identity", "indices", "residual")

    def __init__(self, identity: str, indices: tuple, residual: str):
        self.__dict__.update(identity=identity, indices=indices, residual=residual)

    def to_dict(self) -> dict:
        return {
            "identity": self.identity,
            "indices": list(self.indices),
            "residual": self.residual,
        }


class CheckRecord(FrozenRecord):
    _fields = ("name", "status", "witness")

    def __init__(self, name: str, status: str, witness: Optional[Witness] = None):
        # status is "pass" or "fail"
        self.__dict__.update(name=name, status=status, witness=witness)

    @property
    def ok(self) -> bool:
        return self.status == "pass"


class Check:
    """First-witness recorder for one named identity.

    Feed it the instances of the identity as ``(indices, residual)``;
    the first nonzero residual becomes the witness of a failing record.
    ``add_section`` and ``add_form`` take a whole section or form and
    pick its residual by the shared rules: the first nonzero component
    of a section, and the component at the first key of a form.  Every
    ``add*`` returns ``failed``, so a loop stops on its first witness.
    """

    def __init__(self, name: str, identity: str):
        self.name = name
        self.identity = identity
        self.witness: Optional[Witness] = None

    @property
    def failed(self) -> bool:
        return self.witness is not None

    def add(self, indices: Sequence, residual) -> bool:
        if residual and self.witness is None:
            self.witness = Witness(self.identity, tuple(indices), str(residual))
        return self.failed

    def add_section(self, indices: Sequence, section) -> bool:
        if self.witness is None and not section.is_zero():
            self.add(indices, next(c for c in section.components() if c))
        return self.failed

    def add_form(self, form) -> bool:
        """The residual is the component at the form's first key.  Keys
        of forms on A, (fiber, leaf) pairs of index tuples, flatten to
        the fiber indices followed by the leaf indices."""
        keys = form.keys()
        if keys:
            key = keys[0]
            self.add(key[0] + key[1] if key and isinstance(key[0], tuple) else key, form.comps[key])
        return self.failed

    def add_sparse(self, residuals: dict) -> bool:
        """The residuals at their 0-based index tuples, in lexicographic
        order, up to the first witness: the witness of the dense loop
        over all index tuples, when ``residuals`` holds every nonzero
        residual of that loop."""
        for key in sorted(residuals):
            if self.add(tuple(t + 1 for t in key), residuals[key]):
                break
        return self.failed

    def record(self) -> CheckRecord:
        return CheckRecord(self.name, "fail" if self.failed else "pass", self.witness)


class Report(Record):
    _fields = ("records",)

    def __init__(self, records: Optional[List[CheckRecord]] = None):
        self.records: List[CheckRecord] = [] if records is None else records

    def add(self, record: CheckRecord) -> None:
        self.records.append(record)

    def add_components(self, prefix: str, entries) -> None:
        """A passing record ``prefix.i.j..`` per nonzero (indices, value),
        whose witness is the component itself."""
        for indices, value in entries:
            if value:
                name = "%s.%s" % (prefix, ".".join(str(t) for t in indices))
                self.records.append(CheckRecord(name, "pass", Witness("component", indices, str(value))))

    def extend(self, other: "Report") -> None:
        self.records.extend(other.records)

    def renamed(self, pattern: str) -> "Report":
        """A copy whose record names are ``pattern % name``."""
        return Report([CheckRecord(pattern % r.name, r.status, r.witness) for r in self.records])

    def __iter__(self):
        return iter(self.records)

    def __len__(self) -> int:
        return len(self.records)

    def __getitem__(self, name: str) -> CheckRecord:
        for record in self.records:
            if record.name == name:
                return record
        raise KeyError(name)

    @property
    def ok(self) -> bool:
        return all(record.ok for record in self.records)

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 1

    def failures(self) -> List[CheckRecord]:
        return [record for record in self.records if not record.ok]

    # -- rendering -------------------------------------------------------

    def to_text(self) -> str:
        lines = []
        for record in self.records:
            head = "PASS" if record.ok else "FAIL"
            if record.witness is None:
                lines.append("%s %s" % (head, record.name))
            else:
                w = record.witness
                idx = ",".join(str(i) for i in w.indices)
                lines.append(
                    "%s %s %s@(%s) = %s" % (head, record.name, w.identity, idx, w.residual)
                )
        return "\n".join(lines) + ("\n" if lines else "")

    def to_json(self) -> str:
        import json  # here, so that text reports never load it

        payload = {
            "version": 1,
            "checks": [
                {
                    "name": record.name,
                    "status": record.status,
                    "witness": record.witness.to_dict() if record.witness else None,
                }
                for record in self.records
            ],
            "exit": self.exit_code,
        }
        return json.dumps(payload, indent=2) + "\n"
