"""The cyclic garbage collector has nothing to find in defsort's work.

`cli.run` pauses the collector for the command it runs, because every
object a command builds stays reachable until the command returns.  That
holds only while the library leaves no reference cycles behind, errors
included, which the first test checks; the others check that `run` hands
the collector back as it found it.
"""

import gc
import os

import pytest

from conftest import CORPUS

from defsort import analyse, cli, parse_source, sort_module, verify_order
from defsort.cli import run
from defsort.defcollect import collect
from defsort.diag import ParseError
from defsort.dotviz import emit_def_dot, emit_module_dot
from defsort.freevars import check_duplicate_binds, check_init_cycles, check_precondition_calls
from defsort.modorder import build_module_graph, order_modules

BAD_INPUTS = {
    "parse error": "module Broken\n",
    "nesting too deep": "module P\ndefinitions\nvalues\n  v = " + "{ " * 1000 + "1" + " }" * 1000
                        + ";\nend P\n",
    "unexpected character": "module B\ndefinitions\nvalues\n  x = ²;\nend B\n",
}


def _parse_error(text):
    try:
        parse_source(text, "bad.vdmsl")
    except ParseError as exc:
        return str(exc)
    return None


def _every_stage(paths):
    mods = []
    for path in paths:
        file_mods = parse_source(path.read_text(encoding="utf-8"), str(path))
        mods += file_mods
        for m in file_mods:
            a = analyse(m)
            emit_def_dot(a.graph, a.report)
            sort_module(m)
            verify_order(m)
            fm = collect(m)
            check_duplicate_binds(m)
            check_init_cycles(fm)
            check_precondition_calls(m, fm)
    order_modules(mods)
    emit_module_dot(build_module_graph(mods)[0])
    return [_parse_error(text) for text in BAD_INPUTS.values()]


def test_the_library_leaves_no_cyclic_garbage():
    paths = sorted(CORPUS.glob("*.vdmsl"))
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        errors = _every_stage(paths)
        unreachable = gc.collect()
    finally:
        if was_enabled:
            gc.enable()
    assert all(errors), errors
    assert "nesting too deep" in errors[1] and "unexpected character" in errors[2]
    assert unreachable == 0


@pytest.fixture
def collector_state(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # no properties file
    for key in list(os.environ):
        if key.startswith("DEFSORT_"):
            monkeypatch.delenv(key)
    was_enabled = gc.isenabled()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.mark.parametrize("enabled", [True, False])
def test_run_pauses_the_collector_and_restores_it(enabled, collector_state, monkeypatch, capsys):
    seen = []
    monkeypatch.setattr(cli, "_cmd_check", lambda cfg, paths: seen.append(gc.isenabled()) or 0)
    gc.enable() if enabled else gc.disable()
    assert run(["check", str(CORPUS / "M.vdmsl")]) == 0
    assert seen == [False]
    assert gc.isenabled() is enabled


def _raises(cfg, paths):
    raise KeyboardInterrupt


@pytest.mark.parametrize("enabled", [True, False])
def test_run_restores_the_collector_when_the_command_raises(enabled, collector_state,
                                                            monkeypatch):
    monkeypatch.setattr(cli, "_cmd_check", _raises)
    gc.enable() if enabled else gc.disable()
    with pytest.raises(KeyboardInterrupt):
        run(["check", str(CORPUS / "M.vdmsl")])
    assert gc.isenabled() is enabled
