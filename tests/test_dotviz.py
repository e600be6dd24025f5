"""Deterministic dot output for definition and module graphs."""

import pytest
from conftest import single_module

from defsort.defcollect import collect
from defsort.depgraph import build_graph
from defsort.dotviz import emit_def_dot, emit_module_dot
from defsort.modorder import build_module_graph
from defsort.reorder import sort_module
from defsort.syntax import parse_source

GOLDEN_DOT = '''digraph M {
    "Rec" [label="Rec\\n(line 6)", shape=invtriangle, color=red];
    "inv_Rec" [label="inv_Rec\\n(line 6)", shape=doublecircle];
    "S" [label="S\\n(line 9)", shape=ellipse];
    "inv_S" [label="inv_S\\n(line 9)", shape=ellipse];
    "T" [label="T\\n(line 12)", shape=ellipse];
    "inv_T" [label="inv_T\\n(line 12)", shape=doublecircle];
    "tail" [label="tail\\n(line 15)", shape=triangle];
    "head" [label="head\\n(line 18)", shape=triangle];
    "Rec" -> "inv_Rec";
    "Rec" -> "S";
    "Rec" -> "T";
    "S" -> "inv_S";
    "S" -> "T";
    "inv_S" -> "tail";
    "inv_S" -> "head";
    "T" -> "inv_T";
}
'''


def _def_dot(name):
    m = single_module(name)
    fm = collect(m)
    g = build_graph(fm)
    _, report = sort_module(m)
    return emit_def_dot(g, report)


def test_golden_module_dot_is_exact():
    assert _def_dot("M.vdmsl") == GOLDEN_DOT


def test_dot_output_is_stable_across_runs():
    assert _def_dot("M.vdmsl") == _def_dot("M.vdmsl")


def test_every_node_has_exactly_one_shape():
    dot = _def_dot("M.vdmsl")
    for line in dot.splitlines():
        if "[label=" in line:
            assert line.count("shape=") == 1


def test_single_type_yields_two_nodes_and_the_invariant_edge():
    src = "module ONE\nexports all\ndefinitions\ntypes\n    T = nat;\nend ONE\n"
    m = parse_source(src)[0]
    fm = collect(m)
    g = build_graph(fm)
    _, report = sort_module(m)
    dot = emit_def_dot(g, report)
    assert dot.count("[label=") == 2
    assert dot.count(" -> ") == 1
    assert '"T" -> "inv_T";' in dot


def test_name_collision_across_namespaces_gets_suffixed_ids():
    dot = _def_dot("twospace.vdmsl")
    assert '"T.type"' in dot and '"T.function"' in dot
    node_ids = [line.split('"')[1] for line in dot.splitlines() if "[label=" in line]
    assert len(node_ids) == len(set(node_ids))


def test_def_dot_shows_the_graph_before_cycle_breaking():
    m = single_module("mutrec.vdmsl")
    fm = collect(m)
    g = build_graph(fm)
    _, report = sort_module(m)
    dot = emit_def_dot(g, report)
    assert '"f" -> "g";' in dot
    assert '"g" -> "f";' in dot


def test_module_dot_lists_nodes_then_import_edges():
    src = (
        "module B\nimports from A all\ndefinitions\nend B\n"
        "module A\nimports from B all\ndefinitions\nend A\n"
    )
    mg, _ = build_module_graph(parse_source(src))
    dot = emit_module_dot(mg)
    assert dot == (
        "digraph modules {\n"
        '    "B";\n'
        '    "A";\n'
        '    "B" -> "A";\n'
        '    "A" -> "B";\n'
        "}\n"
    )


def test_empty_module_dot_has_header_only():
    src = "module E\nexports all\ndefinitions\nend E\n"
    m = parse_source(src)[0]
    fm = collect(m)
    g = build_graph(fm)
    _, report = sort_module(m)
    dot = emit_def_dot(g, report)
    assert dot == "digraph E {\n}\n"


@pytest.mark.parametrize("name, header", [
    ("Node", 'digraph "Node" {'),
    ("EDGE", 'digraph "EDGE" {'),
    ("graph", 'digraph "graph" {'),
    ("DiGraph", 'digraph "DiGraph" {'),
    ("subGraph", 'digraph "subGraph" {'),
    ("Strict", 'digraph "Strict" {'),
    ("M", "digraph M {"),
])
def test_a_module_named_like_a_dot_keyword_is_quoted(name, header):
    m = parse_source(f"module {name}\nexports all\ndefinitions\nend {name}\n")[0]
    _, report = sort_module(m)
    assert emit_def_dot(build_graph(collect(m)), report).splitlines()[0] == header
