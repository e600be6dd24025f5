"""End-to-end command behaviour: trace output, config resolution, files."""

import contextlib
import os
import re
import stat
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CORPUS, parse_corpus
from exprwalk import subexpressions
from test_syntax_reference import exprs

import defsort
from defsort import cli, freevars
from defsort.cli import (
    DEFAULTS,
    _write_atomic,
    build_arg_parser,
    load_properties,
    resolve_config,
    run,
)
from defsort.defcollect import collect
from defsort.diag import CycleError, DuplicateNameError, ParseError
from defsort.freevars import check_duplicate_binds, check_init_cycles, check_precondition_calls
from defsort.reorder import verify_order
from defsort.syntax import parse_source

GOLDEN_TRACE = [
    "Calling Exu VDM analyser...",
    "Calculating declaration dependencies for module `M`...",
    "M`T declared after Rec",
    "M`S declared after Rec",
    "M`T declared after S",
    "tail declared after S",
    "tail declared after inv_S",
    "Found 5 definition use before declaration. Topological sorted required.",
    "Original names : Rec, S, T, tail, head",
    "Start points   : Rec",
    "Sorted names   : tail, head, inv_S, inv_Rec, inv_T, T, S, Rec",
    "Organised names: tail, head, T, S, Rec",
    "Exu successfully sorted module M definitions",
]


@pytest.fixture(autouse=True)
def _isolated(tmp_path, monkeypatch):
    for key in list(os.environ):
        if key.startswith("DEFSORT_"):
            monkeypatch.delenv(key)
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _corpus(name):
    return str(CORPUS / name)


def _mutrec_cut(command):
    """What `command` on the corpus file mutrec.vdmsl prints to stderr:
    `sort` warns of the one definition-cycle edge it cuts."""
    if command != "sort":
        return ""
    return (f"{_corpus('mutrec.vdmsl')}:11:34: warning: definition cycle broken: "
            "ignoring use of f by g [cycle-cut]\n")


def _output(command, out="out"):
    """`--output out` for `sort`, the one command that reads it."""
    return ["--output", out] if command == "sort" else []


def test_sort_debug_prints_the_full_trace(capsys, tmp_path):
    code = run(["sort", "--debug", _corpus("M.vdmsl")])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out == GOLDEN_TRACE


def test_a_use_of_a_clause_is_a_use_of_its_definition(capsys):
    # f uses inv_T, so T moves before f; in SAMENAME the function T uses the
    # invariant of the type T, a different definition of the same name
    assert run(["sort", "--debug", _corpus("clauseuse.vdmsl")]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "Calling Exu VDM analyser...",
        "Calculating declaration dependencies for module `CLAUSEUSE`...",
        "CLAUSEUSE`T declared after f",
        "inv_T declared after f",
        "g declared after h",
        "Found 3 definition use before declaration. Topological sorted required.",
        "Original names : f, h, g, T",
        "Start points   : f, h",
        "Sorted names   : g, pre_g, h, inv_T, T, f",
        "Organised names: g, h, T, f",
        "Exu successfully sorted module CLAUSEUSE definitions",
        "Calculating declaration dependencies for module `SAMENAME`...",
        "SAMENAME`T declared after T",
        "inv_T declared after T",
        "Found 2 definition use before declaration. Topological sorted required.",
        "Original names : T, T",
        "Start points   : T",
        "Sorted names   : inv_T, T, T",
        "Organised names: T, T",
        "Exu successfully sorted module SAMENAME definitions",
    ]


def test_a_function_named_like_a_clause_its_type_lacks_is_no_clause(capsys):
    # R is a record type, which has no eq clause: eq_R is a plain function
    # that R does not depend on, so the module is already sorted
    assert run(["sort", "--debug", _corpus("clausename.vdmsl")]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "Calling Exu VDM analyser...",
        "Calculating declaration dependencies for module `CLAUSENAME`...",
        "Found 0 definition use before declaration. Topological sort not required.",
        "Exu module CLAUSENAME definitions already sorted",
    ]


@pytest.mark.parametrize("argv", [["check"], ["sort"], ["dot"]])
def test_a_function_named_like_an_implicit_invariant_is_a_duplicate(argv, tmp_path, capsys):
    # a type without an inv clause has the implicit invariant inv_T
    (tmp_path / "d.vdmsl").write_text(_module(
        "D", "types\n  T = nat;\nfunctions\n  inv_T : nat -> bool\n  inv_T(x) == x > 0;"))
    assert run(argv + ["d.vdmsl"]) == 1
    assert capsys.readouterr().err == (
        "d.vdmsl:6:3: duplicate function name 'inv_T', the implicit invariant of type T\n")
    assert not (tmp_path / ".generated").exists()


def test_sort_writes_a_verified_module(tmp_path, capsys):
    assert run(["sort", _corpus("M.vdmsl")]) == 0
    written = tmp_path / ".generated" / "sorted" / "M.vdmsl"
    assert written.exists()
    mods = parse_source(written.read_text(), str(written))
    assert len(mods) == 1 and verify_order(mods[0])
    assert capsys.readouterr().out.splitlines() == [
        "Exu successfully sorted module M definitions",
    ]


def test_sort_leaves_sorted_input_alone(tmp_path, capsys):
    assert run(["sort", _corpus("arith.vdmsl")]) == 0
    assert not (tmp_path / ".generated").exists()
    out = capsys.readouterr().out
    assert "already sorted" in out


def test_sort_debug_reports_gate_off_counts(capsys):
    run(["sort", "--debug", _corpus("arith.vdmsl")])
    out = capsys.readouterr().out
    assert "Found 0 definition use before declaration. Topological sort not required." in out
    assert "definitions already sorted" in out


def test_sort_check_flag_writes_nothing(tmp_path):
    assert run(["sort", "--check", _corpus("M.vdmsl")]) == 0
    assert not (tmp_path / ".generated").exists()


def test_sort_debug_with_dot_mentions_the_file(tmp_path, capsys):
    code = run(["sort", "--debug", "--dot", ".", _corpus("M.vdmsl")])
    assert code == 0
    out = capsys.readouterr().out
    assert "Printed dependencies for module M.dot at ./M.dot" in out
    assert (tmp_path / "M.dot").exists()


def test_sort_keeps_multi_module_files_together(tmp_path):
    assert run(["sort", _corpus("multimod.vdmsl")]) == 0
    written = tmp_path / ".generated" / "sorted" / "multimod.vdmsl"
    mods = parse_source(written.read_text(), str(written))
    assert [m.name for m in mods] == ["FIRST", "SECOND"]
    assert all(verify_order(m) for m in mods)


def test_check_reports_errors_and_fails(capsys):
    code = run(["check", _corpus("dupbind.vdmsl")])
    out = capsys.readouterr().out
    assert code == 1
    assert out.splitlines() == [
        f"{_corpus('dupbind.vdmsl')}:4:44: error: "
        "comprehension binds 'x' more than once [dup-bind]",
    ]


def test_check_reports_a_value_that_reads_itself(capsys):
    code = run(["check", _corpus("valself.vdmsl")])
    assert code == 1
    assert capsys.readouterr().out.splitlines() == [
        f"{_corpus('valself.vdmsl')}:5:5: error: value initialization cycle: v -> v [init-cycle]",
    ]


def test_check_warnings_do_not_fail(capsys):
    code = run(["check", _corpus("precall.vdmsl")])
    out = capsys.readouterr().out
    assert code == 0
    assert "warning: call to f is not guarded by pre_f [pre-call]" in out


def test_check_clean_module_is_silent(capsys, tmp_path):
    code = run(["check", _corpus("valcond.vdmsl")])
    assert code == 0
    assert capsys.readouterr().out == ""
    assert list(tmp_path.iterdir()) == []


def test_check_never_writes_output(tmp_path):
    run(["check", _corpus("M.vdmsl")])
    assert list(tmp_path.iterdir()) == []


def test_order_prints_imported_modules_first(capsys):
    code = run(["order", _corpus("chain_a.vdmsl"), _corpus("chain_b.vdmsl"),
                _corpus("chain_c.vdmsl")])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.splitlines() == ["C", "B", "A"]
    assert captured.err == ""


def test_order_warns_on_import_cycles_via_stderr(capsys):
    code = run(["order", _corpus("cyc_p.vdmsl"), _corpus("cyc_q.vdmsl")])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.splitlines() == ["Q", "P"]
    assert captured.err.splitlines() == [
        f"{_corpus('cyc_q.vdmsl')}:1:8: warning: import cycle broken: "
        "ignoring import of P by Q [import-cycle]",
    ]


def test_dot_command_writes_graphs(tmp_path, capsys):
    code = run(["dot", "--dot", "graphs", _corpus("M.vdmsl")])
    captured = capsys.readouterr()
    assert code == 0
    dot = (tmp_path / "graphs" / "M.dot").read_text()
    assert dot.startswith("digraph M {\n")
    assert '"inv_S" -> "tail";' in dot
    assert (tmp_path / "graphs" / "modules.dot").read_text() == (
        'digraph modules {\n    "M";\n}\n'
    )
    lines = captured.out.splitlines()
    assert lines == [
        f"Printed dependencies for module M.dot at {os.path.join('graphs', 'M.dot')}",
        f"Printed module imports at {os.path.join('graphs', 'modules.dot')}",
    ]


@pytest.mark.parametrize("command", ["sort", "dot"])
def test_dot_files_show_the_edges_that_cycle_breaking_cuts(command, tmp_path):
    assert run([command, "--dot", "graphs", _corpus("mutrec.vdmsl")]) == 0
    dot = (tmp_path / "graphs" / "MUTREC.dot").read_text()
    assert '"f" -> "g";' in dot and '"g" -> "f";' in dot


@pytest.mark.parametrize("argv", [["sort"], ["sort", "--debug"], ["check"], ["check", "--debug"]])
def test_sort_warns_of_each_definition_cycle_cut(argv, tmp_path, capsys):
    assert run(argv + _output(argv[0]) + [_corpus("mutrec.vdmsl")]) == 0
    assert capsys.readouterr().err == _mutrec_cut(argv[0])


def test_a_sort_with_several_cuts_warns_of_each_at_its_use(tmp_path, capsys):
    cycles = tmp_path / "cycles.vdmsl"
    cycles.write_text(_module("C", "functions\n  u : nat -> nat\n  u(x) == p(x) + r(x);\n"
                               + "".join(f"  {a} : nat -> nat\n  {a}(x) == {b}(x);\n"
                                         f"  {b} : nat -> nat\n  {b}(x) == {a}(x);\n"
                                         for a, b in (("p", "q"), ("r", "s")))))
    assert run(["sort", "--output", "out", str(cycles)]) == 0
    captured = capsys.readouterr()
    assert captured.out == "Exu successfully sorted module C definitions\n"
    assert captured.err.splitlines() == [
        f"{cycles}:9:11: warning: definition cycle broken: ignoring use of p by q [cycle-cut]",
        f"{cycles}:13:11: warning: definition cycle broken: ignoring use of r by s [cycle-cut]",
    ]


def test_parse_errors_exit_nonzero(tmp_path, capsys):
    bad = tmp_path / "bad.vdmsl"
    bad.write_text("module Broken\n")
    assert run(["sort", str(bad)]) == 1
    assert "error" in capsys.readouterr().err


def test_missing_file_exits_nonzero(capsys):
    assert run(["sort", "no-such-file.vdmsl"]) == 1
    assert capsys.readouterr().err != ""


def test_usage_errors_exit_two():
    with pytest.raises(SystemExit) as err:
        run(["sort"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        run([])
    assert err.value.code == 2


@pytest.mark.parametrize("argv", [
    ["check", "--dot", "d"],
    ["order", "--output", "o", "--check"],
    ["dot", "--output", "o"],
    ["check", "--check"],
])
def test_a_flag_the_command_does_not_read_is_a_usage_error(argv, tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        run([*argv, _corpus("M.vdmsl")])
    captured = capsys.readouterr()
    assert err.value.code == 2
    assert captured.out == "" and "unrecognized arguments" in captured.err
    # the command's own usage, naming only the flags it does not read
    assert captured.err.startswith(f"usage: defsort {argv[0]} ")
    assert "M.vdmsl" not in captured.err
    assert list(tmp_path.iterdir()) == []


def test_the_set_up_namespace_of_a_command_without_output_flags_resolves():
    args = build_arg_parser().parse_args(["check", "x.vdmsl"])
    assert resolve_config(args)[0] == resolve_config(build_arg_parser().parse_args(["sort", "x.vdmsl"]))[0]


def test_load_properties_parses_and_warns(tmp_path):
    p = tmp_path / "t.properties"
    p.write_text(
        "# comment\n"
        "\n"
        "output.dir = out\n"
        "oops\n"
        "debug=true\n"
        "output.dir=final\n"
    )
    props, warnings = load_properties(str(p))
    assert props == {"output.dir": "final", "debug": "true"}
    assert [w.code for w in warnings] == ["bad-property"]
    assert "oops" in warnings[0].message


def test_load_properties_missing_file_is_empty():
    assert load_properties("absent.properties") == ({}, [])


def _resolve(argv):
    args = build_arg_parser().parse_args(argv)
    cfg, _ = resolve_config(args)
    return cfg


def test_config_defaults():
    cfg = _resolve(["sort", "x.vdmsl"])
    assert cfg.output_dir == DEFAULTS["output.dir"]
    assert cfg.dot_dir == DEFAULTS["dot.dir"]
    assert not cfg.dot_enabled and not cfg.debug and not cfg.check_only


def test_config_properties_file_overrides_defaults(tmp_path):
    (tmp_path / "defsort.properties").write_text("output.dir=from-props\ndebug=true\n")
    cfg = _resolve(["sort", "x.vdmsl"])
    assert cfg.output_dir == "from-props"
    assert cfg.debug is True


def test_config_environment_overrides_properties(tmp_path, monkeypatch):
    (tmp_path / "defsort.properties").write_text("output.dir=from-props\n")
    monkeypatch.setenv("DEFSORT_OUTPUT_DIR", "from-env")
    monkeypatch.setenv("DEFSORT_DOT_ENABLED", "yes")
    cfg = _resolve(["sort", "x.vdmsl"])
    assert cfg.output_dir == "from-env"
    assert cfg.dot_enabled is True


def test_config_flags_win_over_everything(tmp_path, monkeypatch):
    (tmp_path / "defsort.properties").write_text("output.dir=from-props\n")
    monkeypatch.setenv("DEFSORT_OUTPUT_DIR", "from-env")
    cfg = _resolve(["sort", "--output", "from-flag", "x.vdmsl"])
    assert cfg.output_dir == "from-flag"


def test_config_explicit_properties_file(tmp_path):
    other = tmp_path / "alt.properties"
    other.write_text("dot.dir=alt-dots\n")
    cfg = _resolve(["sort", "--properties", str(other), "x.vdmsl"])
    assert cfg.dot_dir == "alt-dots"


def test_bad_property_warning_reaches_stderr(tmp_path, capsys):
    (tmp_path / "defsort.properties").write_text("garbage\n")
    run(["sort", _corpus("arith.vdmsl")])
    assert "bad-property" in capsys.readouterr().err


def test_sort_overwrites_atomically(tmp_path):
    assert run(["sort", _corpus("M.vdmsl")]) == 0
    target = tmp_path / ".generated" / "sorted" / "M.vdmsl"
    first = target.read_text()
    assert run(["sort", _corpus("M.vdmsl")]) == 0
    assert target.read_text() == first
    assert not (tmp_path / ".generated" / "sorted" / "M.vdmsl.tmp").exists()


def test_sort_ignores_a_stale_temp_path(tmp_path, capsys):
    (tmp_path / "out" / "M.vdmsl.tmp").mkdir(parents=True)
    assert run(["sort", "--output", "out", _corpus("M.vdmsl")]) == 0
    written = tmp_path / "out" / "M.vdmsl"
    assert verify_order(parse_source(written.read_text(), str(written))[0])
    assert sorted(os.listdir(tmp_path / "out")) == ["M.vdmsl", "M.vdmsl.tmp"]


def test_write_atomic_removes_its_temp_file_on_failure(tmp_path):
    (tmp_path / "M.vdmsl").mkdir()
    with pytest.raises(OSError):
        _write_atomic(str(tmp_path / "M.vdmsl"), "module M\n")
    assert os.listdir(tmp_path) == ["M.vdmsl"]


def test_a_written_file_gets_the_mode_open_would_give(tmp_path):
    target = tmp_path / "out" / "M.vdmsl"
    old = os.umask(0o027)
    try:
        _write_atomic(str(target), "module M\n")
    finally:
        os.umask(old)
    assert stat.S_IMODE(os.stat(target).st_mode) == 0o640
    assert os.listdir(tmp_path / "out") == ["M.vdmsl"]


@pytest.mark.parametrize("argv, blocked, written", [
    (["sort", "--output", "out"], "out/M.vdmsl", ["out/mutrec.vdmsl"]),
    (["sort", "--output", "out", "--dot", "out"], "out/M.dot", ["out/MUTREC.dot", "out/mutrec.vdmsl"]),
    (["dot", "--dot", "out"], "out/M.dot", ["out/MUTREC.dot", "out/modules.dot"]),
])
def test_an_output_path_that_is_a_directory_is_an_error(argv, blocked, written, tmp_path, capsys):
    (tmp_path / blocked).mkdir(parents=True)
    code = run(argv + [_corpus("M.vdmsl"), _corpus("mutrec.vdmsl")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == (f"{os.path.join(*blocked.split('/'))}: error: Is a directory\n"
                            + _mutrec_cut(argv[0]))
    assert sorted(os.listdir(tmp_path / "out")) == sorted(
        os.path.basename(p) for p in [blocked, *written])
    assert os.listdir(tmp_path / blocked) == []


def test_the_module_entry_point_starts_without_a_warning(tmp_path):
    env = {k: v for k, v in os.environ.items() if not k.startswith("DEFSORT_")}
    env["PYTHONPATH"] = os.path.dirname(defsort.__path__[0])
    proc = subprocess.run([sys.executable, "-m", "defsort.cli", "order", _corpus("M.vdmsl")],
                          capture_output=True, text=True, cwd=tmp_path, env=env)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "M\n", "")


def test_a_failing_module_stops_its_file_but_not_the_others(tmp_path, capsys):
    multi = tmp_path / "multi.vdmsl"
    multi.write_text(
        "module A\ndefinitions\nvalues\n  x = y;\n  y = 1;\nend A\n"
        "module B\ndefinitions\ntypes\n  T = U;\nend B\n"
        "module C\ndefinitions\nvalues\n  p = q;\n  q = 1;\nend C\n"
    )
    code = run(["sort", "--output", "out", str(multi), _corpus("M.vdmsl")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == f"{multi}:10:7: unknown type name 'U'\n"
    assert captured.out.splitlines() == ["Exu successfully sorted module M definitions"]
    assert os.listdir(tmp_path / "out") == ["M.vdmsl"]


def _module(name, section):
    return f"module {name}\ndefinitions\n{section}\nend {name}\n"


TOO_DEEP = {
    "braces": _module("P", "values\n  v = " + "{ " * 1000 + "1" + " }" * 1000 + ";"),
    "pattern": _module("P", "values\n  " + "[" * 1000 + "x" + "]" * 1000 + " = [1];"),
    "type": _module("P", "types\n  S = " + "seq of " * 1000 + "nat;"),
}


@pytest.mark.parametrize("command", ["sort", "check"])
@pytest.mark.parametrize("shape", sorted(TOO_DEEP))
def test_too_deep_nesting_is_a_located_error(shape, command, tmp_path, capsys):
    deep = tmp_path / "deep.vdmsl"
    deep.write_text(TOO_DEEP[shape])
    code = run([command, "--debug", str(deep), _corpus("M.vdmsl")])
    captured = capsys.readouterr()
    assert code == 1
    assert re.fullmatch(re.escape(f"{deep}:4:") + r"\d+: nesting too deep\n", captured.err)
    assert "Calculating declaration dependencies for module `M`..." in captured.out


@pytest.mark.parametrize("argv", [["check"], ["check", "--debug"], ["sort", "--check"], ["dot"]])
def test_an_unknown_type_name_is_the_same_error_under_every_command(argv, tmp_path, capsys):
    (tmp_path / "u.vdmsl").write_text(_module("U", "types\n  T = Missing;"))
    assert run(argv + ["u.vdmsl"]) == 1
    assert capsys.readouterr().err == "u.vdmsl:4:7: unknown type name 'Missing'\n"


@pytest.mark.parametrize("argv", [["sort"], ["check"], ["check", "--debug"]])
def test_an_unknown_type_name_in_a_value_that_binds_no_name_is_an_error(argv, tmp_path, capsys):
    (tmp_path / "v.vdmsl").write_text(_module("V", "values\n  - : Missing = 1;"))
    assert run(argv + ["v.vdmsl"]) == 1
    assert capsys.readouterr().err == "v.vdmsl:4:7: unknown type name 'Missing'\n"
    assert not (tmp_path / ".generated").exists()


# a quote is no keyword, so `in <set>` and `not <in> set` are no operators:
# the value ends before them, and no definition starts with them
@pytest.mark.parametrize("line, err", [
    ("v = 1 in <set> s;", "q.vdmsl:5:9: expected ';' or a new definition, found 'in'"),
    ("w = 1 not <in> set s;", "q.vdmsl:5:9: expected ';' or a new definition, found 'not'"),
])
def test_a_quote_named_like_a_keyword_is_a_located_parse_error(line, err, tmp_path, capsys):
    (tmp_path / "q.vdmsl").write_text(_module("Q", f"values\n  s = {{1}};\n  {line}"))
    assert run(["check", "q.vdmsl"]) == 1
    assert capsys.readouterr().err == err + "\n"


# parentheses and applications (calls, `mk_T(…)`, `is_T(…)`, `is_(…, type)`)
# are frames of the expression loop, not of the interpreter, so their depth
# is bounded by nothing but memory
NESTED = {
    "calls": _module("C", "functions\n  f : nat -> nat\n  f(x) == x;\n  g : nat -> nat\n  g(y) == "
                     + "f(" * 10000 + "y" + ")" * 10000 + ";"),
    "parentheses": _module("P", "values\n  v = " + "(" * 10000 + "1" + ")" * 10000 + ";"),
    "mk_": _module("K", "types\n  R :: f : nat;\nvalues\n  v = " + "mk_R(" * 10000 + "1" + ")" * 10000 + ";"),
    "is_T": _module("T", "types\n  R :: f : nat;\nvalues\n  v = " + "is_R(" * 10000 + "1" + ")" * 10000 + ";"),
    "is_": _module("I", "values\n  v = " + "is_(" * 10000 + "1" + ", nat)" * 10000 + ";"),
}


def _frames_down(n, fn):
    """fn(), called n interpreter frames below the caller."""
    return _frames_down(n - 1, fn) if n else fn()


@pytest.mark.parametrize("shape", sorted(NESTED))
def test_deep_parentheses_and_calls_parse_at_any_stack_depth(shape, tmp_path, capsys):
    deep = tmp_path / "deep.vdmsl"
    deep.write_text(NESTED[shape])
    seen = []
    for frames in (0, 600):
        code = _frames_down(frames, lambda: run(["check", "--debug", str(deep)]))
        captured = capsys.readouterr()
        [m] = _frames_down(frames, lambda: parse_source(deep.read_text(), str(deep)))
        body = m.definitions[-1].body if shape == "calls" else m.definitions[-1].init
        nodes = [(type(e).__name__, str(e.loc)) for e in subexpressions(body)]
        seen.append((code, captured.out, captured.err, nodes))
    assert seen[1] == seen[0]
    code, out, err, nodes = seen[0]
    assert (code, err, len(nodes)) == (0, "", 1 if shape == "parentheses" else 10001)
    assert "Calculating declaration dependencies for module" in out


def test_long_operator_and_field_chains_sort_and_check(tmp_path, capsys):
    (tmp_path / "plus.vdmsl").write_text(
        _module("A", "values\n  v = w" + " + 1" * 20000 + ";\n  w = 1;"))
    (tmp_path / "field.vdmsl").write_text(
        _module("F", "types\n  R :: f : nat;\nvalues\n  v = r" + ".f" * 5000 + ";\n  r = mk_R(1);"))
    for name in ("plus.vdmsl", "field.vdmsl"):
        assert run(["check", name]) == 0
        assert run(["sort", "--output", "out", name]) == 0
        written = tmp_path / "out" / name
        assert verify_order(parse_source(written.read_text(), str(written))[0])
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command", ["sort", "check"])
@pytest.mark.parametrize("digit", ["²", "٣"])
def test_a_non_ascii_digit_is_a_located_error(digit, command, tmp_path, capsys):
    bad = tmp_path / "bad.vdmsl"
    bad.write_text(_module("B", f"values\n  x = {digit};"), encoding="utf-8")
    code = run([command, "--debug", *_output(command), str(bad), _corpus("M.vdmsl")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == f"{bad}:4:7: unexpected character {digit!r}\n"
    assert "Calculating declaration dependencies for module `M`..." in captured.out


CHAINS = {
    "not": "v = " + "not " * 5000 + "w;\n  w = true;",
    "minus": "v = " + "- " * 5000 + "w;\n  w = 1;",
    "hd": "v = " + "hd " * 5000 + "w;\n  w = [1];",
    "implies": "v = w" + " => w" * 5000 + ";\n  w = true;",
}


@pytest.mark.parametrize("kind", sorted(CHAINS))
def test_long_prefix_and_implication_chains_sort_and_check(kind, tmp_path, capsys):
    (tmp_path / "chain.vdmsl").write_text(_module("C", "values\n  " + CHAINS[kind]))
    assert run(["check", "chain.vdmsl"]) == 0
    assert run(["sort", "--output", "out", "chain.vdmsl"]) == 0
    written = tmp_path / "out" / "chain.vdmsl"
    assert verify_order(parse_source(written.read_text(), str(written))[0])
    assert capsys.readouterr().err == ""


def _planted_fault(*args):
    raise ValueError("planted fault")


@pytest.mark.parametrize("argv", [["sort"], ["sort", "--dot", "dots"], ["check", "--debug"],
                                  ["dot"], ["order"]])
def test_a_fault_while_parsing_one_file_is_an_error_line(argv, tmp_path, monkeypatch, capsys):
    target = "parse_headers" if argv[0] == "order" else "parse_source"  # `order` reads only headers
    real = getattr(cli, target)
    monkeypatch.setattr(cli, target, lambda text, path: (
        _planted_fault() if path == _corpus("M.vdmsl") else real(text, path)))
    code = run(argv + _output(argv[0]) + [_corpus("M.vdmsl"), _corpus("mutrec.vdmsl")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == (f"{_corpus('M.vdmsl')}: error: internal error: ValueError: planted fault\n"
                            + _mutrec_cut(argv[0]))
    if argv[0] == "order":  # ordering needs every file
        assert captured.out == ""
    else:
        assert "MUTREC" in captured.out


@pytest.mark.parametrize("argv", [["sort"], ["check", "--debug"], ["dot"]])
def test_a_fault_while_analysing_one_module_is_an_error_line(argv, tmp_path, monkeypatch, capsys):
    target = "collect" if argv[0] == "dot" else "analyse"  # `dot` only graphs a module
    real = getattr(cli, target)
    monkeypatch.setattr(cli, target, lambda m: _planted_fault() if m.name == "M" else real(m))
    code = run(argv + _output(argv[0]) + [_corpus("M.vdmsl"), _corpus("mutrec.vdmsl")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == (f"{_corpus('M.vdmsl')}: error: internal error: ValueError: planted fault\n"
                            + _mutrec_cut(argv[0]))
    assert "MUTREC" in captured.out
    if argv[0] == "sort":
        assert os.listdir(tmp_path / "out") == ["mutrec.vdmsl"]


@pytest.mark.parametrize("argv", [["check"], ["dot", "--dot", "dots"]])
def test_a_fault_in_one_module_stops_the_rest_of_its_file(argv, tmp_path, monkeypatch, capsys):
    """A fault outside the text stops its file, as a fault in the text does:
    module B after the faulty A gets no diagnostics and no dot file, and no
    module of the file reaches `modules.dot`; the next file still runs."""
    real = cli.collect
    monkeypatch.setattr(cli, "collect", lambda m: _planted_fault() if m.name == "A" else real(m))
    (tmp_path / "two.vdmsl").write_text(
        _module("A", "values\n  a = 1;") + _module("B", "values\n  v = v + 1;"))
    (tmp_path / "next.vdmsl").write_text(_module("N", "values\n  w = w + 1;"))
    assert run(argv + ["two.vdmsl", "next.vdmsl"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "two.vdmsl: error: internal error: ValueError: planted fault\n"
    if argv[0] == "check":
        assert captured.out == "next.vdmsl:4:3: error: value initialization cycle: w -> w [init-cycle]\n"
        return
    dots = {name: os.path.join("dots", name) for name in ("N.dot", "modules.dot")}
    assert captured.out == (f"Printed dependencies for module N.dot at {dots['N.dot']}\n"
                            f"Printed module imports at {dots['modules.dot']}\n")
    assert sorted(os.listdir(tmp_path / "dots")) == ["N.dot", "modules.dot"]
    assert (tmp_path / "dots" / "modules.dot").read_text() == 'digraph modules {\n    "N";\n}\n'


@pytest.mark.parametrize("argv, target, where", [
    (["order"], "order_modules", "defsort"),
    (["dot", "--dot", "out"], "build_module_graph", os.path.join("out", "modules.dot")),
])
def test_a_fault_across_all_files_is_one_error_line(argv, target, where, monkeypatch, capsys):
    monkeypatch.setattr(cli, target, _planted_fault)
    assert run(argv + [_corpus("M.vdmsl"), _corpus("mutrec.vdmsl")]) == 1
    assert capsys.readouterr().err == f"{where}: error: internal error: ValueError: planted fault\n"


def test_a_stuck_sort_is_an_internal_error(tmp_path, monkeypatch, capsys):
    # every sort the CLI runs is of a graph whose cycles are cut, so a
    # CycleError is defsort's fault, not the input's
    def stuck(m):
        raise CycleError("cycle prevents sorting: f, g")

    monkeypatch.setattr(cli, "analyse", stuck)
    assert run(["sort", "--output", "out", _corpus("M.vdmsl")]) == 1
    assert capsys.readouterr() == ("", f"{_corpus('M.vdmsl')}: error: internal error: "
                                       "CycleError: cycle prevents sorting: f, g\n")
    assert not (tmp_path / "out").exists()


# module B of a two-module file binds one name twice or names an unknown
# type; a declared duplicate, a clash with a clause's name and one with an
# implicit invariant's name each stop the whole file, at the second site, and
# an unknown type name does too, at the name
CLASHES = {
    "declared": ("values\n  v = 1;\n  v = 2;",
                 "10:3: duplicate function or value name 'v' in module B"),
    "clause": ("functions\n  f : nat -> nat\n  f(x) == x\n  pre x > 0;\n"
               "  pre_f : nat -> bool\n  pre_f(x) == true;",
               "12:3: duplicate function name 'pre_f'"),
    "implicit-invariant": ("types\n  T = nat;\nfunctions\n  inv_T : nat -> bool\n  inv_T(x) == x > 0;",
                           "11:3: duplicate function name 'inv_T', the implicit invariant of type T"),
    "unknown-type": ("types\n  S = Missing;", "9:7: unknown type name 'Missing'"),
}


@pytest.mark.parametrize("argv", [["sort", "--output", "out"], ["sort", "--dot", "dots"], ["check"],
                                  ["check", "--debug"], ["dot", "--dot", "dots"]])
@pytest.mark.parametrize("clash", sorted(CLASHES))
def test_a_duplicate_name_stops_its_file(clash, argv, tmp_path, capsys):
    section, error = CLASHES[clash]
    (tmp_path / "clash.vdmsl").write_text(_module("A", "values\n  a = 1;") + _module("B", section))
    assert run(argv + ["clash.vdmsl"]) == 1
    banner = cli.BANNER + "\n" if "--debug" in argv else ""
    assert capsys.readouterr() == (banner, f"clash.vdmsl:{error}\n")
    assert not (tmp_path / "out").exists() and not (tmp_path / "dots").exists()
    assert not (tmp_path / ".generated").exists()


def test_a_file_that_is_not_utf8_is_an_error_line(tmp_path, capsys):
    bad = tmp_path / "bad.vdmsl"
    bad.write_bytes(b"module B\ndefinitions\nvalues\n  x = \xff;\nend B\n")
    code = run(["check", str(bad), _corpus("M.vdmsl")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == (
        f"{bad}: error: 'utf-8' codec can't decode byte 0xff in position 34: invalid start byte\n")


ONE_LINE = "module P definitions functions f: nat -> nat f(x) == x pre x > 0; " \
           "g: nat -> nat g(y) == f(y); end P\n"


@pytest.mark.parametrize("command", ["sort", "check"])
def test_a_byte_order_mark_is_not_part_of_the_text(command, tmp_path, capsys):
    runs = []
    for kind, mark in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
        d = tmp_path / kind
        d.mkdir()
        (d / "P.vdmsl").write_bytes(mark + ONE_LINE.encode())
        for name in ("M.vdmsl", "precall.vdmsl"):
            (d / name).write_bytes(mark + (CORPUS / name).read_bytes())
        paths = [str(d / name) for name in ("P.vdmsl", "M.vdmsl", "precall.vdmsl")]
        code = run([command, "--debug", *_output(command, str(d / "out"))] + paths)
        captured = capsys.readouterr()
        written = {p.name: p.read_bytes() for p in (d / "out").glob("*")} if command == "sort" else {}
        runs.append((code, captured.out.replace(str(d), "<dir>"), captured.err, written))
    assert runs[1] == runs[0]
    code, out, err, written = runs[1]
    assert code == 0 and err == ""
    if command == "check":  # a location on the first line counts from after the mark
        assert "<dir>/P.vdmsl:1:89: warning: call to f is not guarded by pre_f [pre-call]" in out
        assert "<dir>/precall.vdmsl:9:13: warning: call to f" in out
    else:
        assert list(written) == ["M.vdmsl"]  # the only module out of order
        assert not any(text.startswith(b"\xef\xbb\xbf") for text in written.values())


@pytest.mark.parametrize("argv, blocked, err", [
    (["--properties", "bad.properties"], None,
     "bad.properties: error: 'utf-8' codec can't decode byte 0xff in position 6: "
     "invalid start byte\n"),
    (["--properties", "dir.properties"], "dir.properties",
     "dir.properties: error: Is a directory\n"),
    ([], "defsort.properties", "./defsort.properties: error: Is a directory\n"),
], ids=["undecodable", "directory", "default-directory"])
def test_an_unreadable_properties_file_is_a_usage_error(argv, blocked, err, tmp_path, capsys):
    (tmp_path / "bad.properties").write_bytes(b"debug=\xff\n")
    if blocked:
        (tmp_path / blocked).mkdir()
    for command in ("sort", "check"):
        code = run([command, "--debug", *_output(command)] + argv + [_corpus("M.vdmsl")])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (2, "", err)
    assert not (tmp_path / "out").exists()


def test_a_missing_named_properties_file_is_a_usage_error(tmp_path, capsys):
    """A properties file named by `--properties` must exist; the absent
    default `./defsort.properties` stays silent."""
    for command in ("sort", "check", "order", "dot"):
        code = run([command, "--properties", "nope.properties", _corpus("M.vdmsl")])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (
            2, "", "nope.properties: error: No such file or directory\n")
    assert os.listdir(tmp_path) == []
    assert run(["check", _corpus("M.vdmsl")]) == 0
    assert capsys.readouterr() == ("", "")


def test_a_properties_file_may_start_with_a_byte_order_mark(tmp_path, capsys):
    (tmp_path / "bom.properties").write_bytes(b"\xef\xbb\xbfdebug=true\ncheck=true\n")
    assert load_properties("bom.properties") == ({"debug": "true", "check": "true"}, [])
    assert run(["sort", "--properties", "bom.properties", _corpus("M.vdmsl")]) == 0
    assert capsys.readouterr().out.splitlines() == GOLDEN_TRACE
    assert not (tmp_path / ".generated").exists()


def test_no_output_depends_on_hashing(tmp_path):
    """Set order follows string hashes, which vary with PYTHONHASHSEED, and
    namespace keys, which hash by address; neither may reach an output."""
    paths = [str(p) for p in sorted(CORPUS.glob("*.vdmsl"))]
    runs = []
    for seed in ("0", "1"):
        cwd = tmp_path / seed
        cwd.mkdir()
        env = {k: v for k, v in os.environ.items() if not k.startswith("DEFSORT_")}
        env.update(PYTHONPATH=os.path.dirname(defsort.__path__[0]), PYTHONHASHSEED=seed)
        outcomes = []
        for argv in (["sort", "--debug", "--dot", "dots", "--output", "out"],
                     ["check", "--debug"], ["order"], ["dot", "--dot", "graphs"]):
            proc = subprocess.run([sys.executable, "-m", "defsort.cli"] + argv + paths,
                                  capture_output=True, text=True, cwd=cwd, env=env)
            outcomes.append((proc.returncode, proc.stdout, proc.stderr))
        written = {str(p.relative_to(cwd)): p.read_bytes() for p in cwd.rglob("*") if p.is_file()}
        runs.append((outcomes, written))
    assert runs[1] == runs[0]
    outcomes, written = runs[0]
    assert [code for code, _, _ in outcomes] == [0, 1, 0, 0]
    assert {"out/M.vdmsl", "dots/M.dot", "graphs/M.dot", "graphs/modules.dot"} <= set(written)


def test_check_reports_a_pre_call_once_per_call_site(tmp_path, capsys):
    """A value that binds several names, or none, is one expression."""
    (tmp_path / "V.vdmsl").write_text(
        "module V\ndefinitions\ntypes\n    R :: a : nat b : nat;\nvalues\n"
        "    mk_R(p, q) = mk_R(g(1), 2);\n"
        "    [s, t] = [g(2), 0];\n"
        "    - = g(3);\n"
        "functions\n    g: nat -> nat\n    g(x) == x\n    pre x > 0;\nend V\n"
    )
    assert run(["check", "V.vdmsl"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"V.vdmsl:{line}:{col}: warning: call to g is not guarded by pre_g [pre-call]"
        for line, col in ((6, 23), (7, 15), (8, 9))
    ]


def _separate_checks(m, fm):
    diags = check_duplicate_binds(m) + check_init_cycles(fm) + check_precondition_calls(m, fm)
    return sorted(diags, key=lambda d: (d.at.line, d.at.col, d.code))


@pytest.mark.parametrize("name", sorted(p.name for p in CORPUS.glob("*.vdmsl")))
def test_one_walk_equals_the_separate_checks_on_the_corpus(name):
    for m in parse_corpus(name):
        fm = collect(m)
        assert cli._module_diagnostics(m, fm) == _separate_checks(m, fm)


def test_check_walks_each_definition_expression_once(monkeypatch, capsys):
    """Two value initialisers and a function body: three walks, the init
    cycle check reading the values from the same walk as the other checks."""
    walks = []

    def counting_walk(*args, **kwargs):
        walks.append(args[0])
        return walk(*args, **kwargs)

    walk = freevars.walk
    monkeypatch.setattr(freevars, "walk", counting_walk)
    assert run(["check", str(CORPUS / "fwdvals.vdmsl")]) == 0
    assert capsys.readouterr() == ("", "")
    assert len(walks) == 3


# value patterns binding one name, several, or none; no two bind the same name
VALUE_PATTERNS = ["v", "[ s , w ]", "mk_R ( a , - )", "{ b }", "-", "[ - , - ]"]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(VALUE_PATTERNS), exprs(), st.booleans()),
                min_size=1, max_size=4, unique_by=lambda v: v[0]),
       exprs(), exprs())
def test_one_walk_equals_the_separate_checks_on_generated_modules(values, body, pre):
    text = "module M\ndefinitions\ntypes\n  R :: fld : nat;\nvalues\n"
    text += "".join(f"  {pattern} = {f'g ( {init} )' if call else init};\n"
                    for pattern, init, call in values)
    text += (
        "functions\n  g : nat -> nat\n  g(x) == x\n  pre x > 0;\n"
        f"  f : nat * R -> nat\n  f(x, y) == {body}\n  pre {pre}\nend M\n"
    )
    try:
        [m] = parse_source(text, "M.vdmsl")
        fm = collect(m)
    except (ParseError, DuplicateNameError):
        return
    assert cli._module_diagnostics(m, fm) == _separate_checks(m, fm)


# ── one file at a time ────────────────────────────────────────────────────


def _write_file(path, text):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return str(path)


def test_a_second_output_file_of_one_base_name_is_an_error(tmp_path, capsys):
    first = _write_file(tmp_path / "x" / "M.vdmsl", (CORPUS / "M.vdmsl").read_text())
    second = _write_file(tmp_path / "y" / "M.vdmsl",
                         (CORPUS / "M.vdmsl").read_text().replace("M\n", "N\n"))
    code = run(["sort", "--output", "out", first, second])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out.splitlines() == ["Exu successfully sorted module M definitions",
                                         "Exu successfully sorted module N definitions"]
    out = os.path.join("out", "M.vdmsl")
    assert captured.err == f"{out}: error: already written in this run, for {first}\n"
    assert os.listdir(tmp_path / "out") == ["M.vdmsl"]
    assert parse_source((tmp_path / out).read_text())[0].name == "M"


def test_a_second_dot_file_of_one_module_name_is_an_error(tmp_path, capsys):
    first = _write_file(tmp_path / "a.vdmsl", _module("S", "values\n  x = y;\n  y = 1;"))
    second = _write_file(tmp_path / "b.vdmsl", _module("S", "values\n  p = 1;"))
    code = run(["sort", "--check", "--dot", "dots", first, second])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == "Exu successfully sorted module S definitions\n"
    dot = os.path.join("dots", "S.dot")
    assert captured.err == f"{dot}: error: already written in this run, for {first}\n"
    assert os.listdir(tmp_path / "dots") == ["S.dot"]
    assert '"x" -> "y";' in (tmp_path / dot).read_text()


def test_the_import_graph_does_not_overwrite_a_module_named_modules(tmp_path, capsys):
    source = _write_file(tmp_path / "m.vdmsl", _module("modules", "values\n  x = y;\n  y = 1;"))
    code = run(["dot", "--dot", "graphs", source])
    captured = capsys.readouterr()
    assert code == 1
    dot = os.path.join("graphs", "modules.dot")
    assert captured.out == f"Printed dependencies for module modules.dot at {dot}\n"
    assert captured.err == f"{dot}: error: already written in this run, for {source}\n"
    assert '"x" -> "y";' in (tmp_path / dot).read_text()


@pytest.mark.parametrize("argv", [["sort"], ["sort", "--dot", "dots"], ["check"],
                                  ["check", "--debug"], ["dot", "--dot", "dots"]])
def test_errors_are_reported_in_file_order(argv, tmp_path, capsys):
    """A file with an unknown type name, then one that does not parse: the
    errors come in that order, and no command writes anything."""
    unknown = _write_file(tmp_path / "u.vdmsl", _module("U", "types\n  T = Missing;"))
    broken = _write_file(tmp_path / "bad.vdmsl", "module Broken\n")
    with pytest.raises(ParseError) as parse_error:
        parse_source("module Broken\n", broken)
    assert run(argv + [unknown, broken]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"{unknown}:4:7: unknown type name 'Missing'\n{parse_error.value}\n"
    assert captured.out == (cli.BANNER + "\n") * ("--debug" in argv)
    assert sorted(os.listdir(tmp_path)) == ["bad.vdmsl", "u.vdmsl"]


def _copy(i, n=14):
    """A module that sorts, checks and imports the copy before it."""
    lines = [f"module COPY{i}"] + [f"imports from COPY{i - 1} all"] * (i > 0)
    lines += ["definitions", "types"]
    lines += [f"    T{k} = seq of T{k + 1} inv t == len t < {k + 3};" for k in range(n)]
    lines += [f"    T{n} = nat;", "functions"]
    for k in range(n):
        lines += [f"    f{k}: T{k} -> nat",
                  f"    f{k}(x) == if len x > {k} then f{k + 1}([]) + {k} else let y = {k} in y"
                  " pre len x < 9;"]
    lines += [f"    f{n}: T{n} -> nat", f"    f{n}(x) == x;", f"end COPY{i}"]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("argv", [["sort", "--output", "out"],
                                  ["sort", "--output", "out", "--dot", "dots"],
                                  ["check"], ["order"], ["dot", "--dot", "dots"]])
def test_memory_does_not_grow_with_the_number_of_files(argv, tmp_path):
    """Each file is read, analysed and written before the next is read, so
    eight distinct modules take no more memory than the largest of them."""
    paths = [_write_file(tmp_path / f"copy{i}.vdmsl", _copy(i)) for i in range(8)]

    def peak(files):
        tracemalloc.start()
        try:
            run(argv + files)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # printed lines go straight to a file: captured or buffered output
    # would grow with the number of files
    with open(os.devnull, "w", buffering=1) as sink, contextlib.redirect_stdout(sink):
        run(argv + paths)  # imports, caches and output directories come first
        one, eight = peak(paths[:1]), peak(paths)
    assert eight <= 1.2 * one, (one, eight)
