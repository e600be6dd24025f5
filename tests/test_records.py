"""The `diag.Record` contract, for every record class, and what importing
the CLI loads."""

import os
import subprocess
import sys

import pytest

import defsort
import defsort.cli
# with what they import, every module, so every record class exists
from defsort import dotviz, freevars, modorder  # noqa: F401
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
# and the run must leave no bytecode cache in the source tree.  After the
# import, the configuration is resolved (argparse loads `shutil` for its help
# width) and the CLI arguments given, if any, are run.
FOOTPRINT = """\
import os, sys
sys.path.insert(0, sys.argv[1])
import defsort.cli
print(sorted(m for m in ("random", "shutil", "tempfile", "typing") if m in sys.modules))
defsort.cli.resolve_config(defsort.cli.build_arg_parser().parse_args(["check", "x.vdmsl"]))
if sys.argv[2:]:
    sys.stdout = open(os.devnull, "w")
    code = defsort.cli.run(sys.argv[2:])
    sys.stdout = sys.__stdout__
    print(code)
print(sorted(f"{c.__module__}.{c.__qualname__}"
             for name, mod in list(sys.modules.items()) if name.startswith("defsort")
             for c in vars(mod).values()
             if isinstance(c, type) and c.__module__ == name and hasattr(c, "__dataclass_fields__")))
print(sorted(name for name in sys.modules if name.startswith("defsort")))
"""


def _footprint(cwd, *argv) -> list:
    src = os.path.dirname(defsort.__path__[0])
    proc = subprocess.run([sys.executable, "-I", "-S", "-B", "-c", FOOTPRINT, src, *argv],
                          capture_output=True, text=True, cwd=cwd)
    assert (proc.returncode, proc.stderr) == (0, "")
    return proc.stdout.splitlines()


def test_importing_the_cli_loads_no_more_than_it_needs(tmp_path):
    assert _footprint(tmp_path) == ["[]", "[]", "['defsort', 'defsort.cli', 'defsort.diag']"]


# what each command loads beyond `defsort`, `defsort.cli` and `defsort.diag`;
# `dot` calls every layer
COMMAND_LAYERS = {
    "order": ["depgraph", "modorder", "nodes", "syntax"],
    "check": ["defcollect", "depgraph", "freevars", "nodes", "syntax"],
    "sort": ["defcollect", "depgraph", "freevars", "nodes", "reorder", "syntax"],
    "dot": ["defcollect", "depgraph", "dotviz", "freevars", "modorder", "nodes", "reorder", "syntax"],
}


@pytest.mark.parametrize("command", sorted(COMMAND_LAYERS))
def test_a_command_loads_only_the_layers_it_runs(command, tmp_path):
    corpus = os.path.join(os.path.dirname(__file__), "corpus", "M.vdmsl")
    flags = {"sort": ["--check"], "dot": ["--dot", str(tmp_path)]}.get(command, [])
    loaded = ["defsort", "defsort.cli", "defsort.diag"] + [f"defsort.{m}" for m in COMMAND_LAYERS[command]]
    assert _footprint(tmp_path, command, *flags, corpus) == [
        "[]", "0", "['defsort.nodes.SourceModule']", repr(sorted(loaded))]


def test_every_layer_is_a_module_of_the_package():
    modules = {name[:-3] for name in os.listdir(defsort.__path__[0]) if name.endswith(".py")}
    assert modules - {"__init__", "cli", "diag"} == set(COMMAND_LAYERS["dot"])


# each layer name the commands call, by its module; `cli` reads each on first use
CLI_NAMES = {
    "syntax": ["parse_source", "parse_headers", "print_module"],
    "reorder": ["analyse"],
    "defcollect": ["collect"],
    "depgraph": ["build_graph"],
    "freevars": ["check_bodies", "check_init_cycles"],
    "modorder": ["order_modules", "build_module_graph"],
    "dotviz": ["emit_def_dot", "emit_module_dot"],
}

# in a fresh interpreter: `dir` lists the package's names before any is read;
# each CLI name read before any command runs is its layer's own; a star
# import binds the four package names, each its layer's own
LAZY_NAMES = """\
import importlib, sys
sys.path.insert(0, sys.argv[1])
names = eval(sys.argv[2])
import defsort
print(sorted(set(defsort.__all__) & set(dir(defsort))), sorted(set(defsort.__all__) & set(vars(defsort))))
import defsort.cli as cli
read = {name: getattr(cli, name) for layer in names for name in names[layer]}
print(sorted(name for layer in names for name in names[layer]
             if read[name] is not getattr(importlib.import_module(f"defsort.{layer}"), name)))
bound = {}
exec("from defsort import *", bound)
print(sorted(name for name in defsort.__all__ if bound.get(name) is not getattr(defsort, name)))
print(defsort.parse_source is importlib.import_module("defsort.syntax").parse_source,
      [getattr(defsort, name) is getattr(importlib.import_module("defsort.reorder"), name)
       for name in ("analyse", "sort_module", "verify_order")])
"""


def test_the_cli_and_package_names_resolve_on_first_read():
    src = os.path.dirname(defsort.__path__[0])
    proc = subprocess.run([sys.executable, "-I", "-S", "-B", "-c", LAZY_NAMES, src, repr(CLI_NAMES)],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines() == [
        f"{sorted(defsort.__all__)} []", "[]", "[]", "True [True, True, True]"]


def test_an_unknown_name_is_still_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        defsort.nope  # noqa: B018
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        defsort.cli.nope  # noqa: B018
