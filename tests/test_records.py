"""The `diag.Record` contract, for every record class, and what importing
the CLI loads."""

import os
import subprocess
import sys

import pytest

import defsort
import defsort.cli  # noqa: F401  (imports every module, so every record class exists)
from defsort import nodes as N
from defsort.defcollect import DefNode
from defsort.diag import POSITION_FIELDS, Record

RECORDS = sorted(Record.__subclasses__(), key=lambda c: (c.__module__, c.__qualname__))
VALUE_RECORDS = [c for c in RECORDS if c is not DefNode]


class _Value:
    """A stand-in field value, equal only to itself.  Each field gets a
    one-item tuple of these, which a FlatModule can index by `key`."""

    def __init__(self, n):
        self.key = n

    def __repr__(self):
        return f"<{self.key}>"


def _fields(cls) -> list:
    """The constructor's parameters: every slot but the private ones."""
    return [s for s in cls.__slots__ if not s.startswith("_")]


def _values(cls) -> list:
    return [(_Value(f"v{i}"),) for i in range(len(_fields(cls)))]


def _ids(classes):
    return [f"{c.__module__}.{c.__qualname__}" for c in classes]


def test_every_value_class_is_a_record():
    assert len(RECORDS) == 53
    assert {N.Lit, N.FuncDef, DefNode, defsort.cli.ToolConfig} <= set(RECORDS)


@pytest.mark.parametrize("cls", RECORDS, ids=_ids(RECORDS))
def test_the_constructor_takes_the_slots_in_order(cls):
    fields = _fields(cls)
    values = _values(cls)
    for r in (cls(*values), cls(**dict(zip(fields, values)))):
        assert [getattr(r, f) for f in fields] == values
    with pytest.raises(TypeError):
        cls(*values, None)
    with pytest.raises(TypeError):
        cls(*values[:-1])


@pytest.mark.parametrize("cls", VALUE_RECORDS, ids=_ids(VALUE_RECORDS))
def test_equality_and_hash_ignore_the_position_fields_only(cls):
    values = _values(cls)
    r = cls(*values)
    assert r == cls(*values) and hash(r) == hash(cls(*values))
    for i, f in enumerate(_fields(cls)):
        changed = cls(*values[:i], (_Value("other"),), *values[i + 1:])
        if f in POSITION_FIELDS:
            assert changed == r and hash(changed) == hash(r), f
        else:
            assert changed != r, f
    assert r != tuple(values)


@pytest.mark.parametrize("cls", VALUE_RECORDS, ids=_ids(VALUE_RECORDS))
def test_the_repr_lists_the_compared_fields_in_order(cls):
    values = _values(cls)
    shown = ", ".join(f"{f}={v!r}" for f, v in zip(_fields(cls), values) if f not in POSITION_FIELDS)
    assert repr(cls(*values)) == f"{cls.__qualname__}({shown})"


def test_records_of_different_classes_differ():
    elem = N.TNamed("T", None)
    assert N.TSeq(elem, None) != N.TSet(elem, None)
    assert N.PatIgnore(None) == N.PatIgnore(object()) and N.PatIgnore(None) != N.TBasic("nat", None)


def test_a_def_node_is_equal_only_to_itself():
    values = _values(DefNode)
    a, b = DefNode(*values), DefNode(*values)
    assert a == a and a != b
    assert len({a, b}) == 2
    assert hash(a) == object.__hash__(a)


# `python -I -S`: no site packages and no environment, so nothing but the
# CLI's own imports is loaded; `-B`, as `-I` ignores PYTHONDONTWRITEBYTECODE
# and the run must leave no bytecode cache in the source tree
FOOTPRINT = """\
import sys
sys.path.insert(0, sys.argv[1])
import defsort.cli
print(sorted(m for m in ("random", "shutil", "tempfile", "typing") if m in sys.modules))
print(sorted(f"{c.__module__}.{c.__qualname__}"
             for name, mod in list(sys.modules.items()) if name.startswith("defsort")
             for c in vars(mod).values()
             if isinstance(c, type) and c.__module__ == name and hasattr(c, "__dataclass_fields__")))
"""


def test_importing_the_cli_loads_no_more_than_it_needs():
    src = os.path.dirname(defsort.__path__[0])
    proc = subprocess.run([sys.executable, "-I", "-S", "-B", "-c", FOOTPRINT, src],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines() == ["[]", "['defsort.nodes.SourceModule']"]
