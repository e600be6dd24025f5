"""Flattening modules into namespace-separated definition nodes."""

import pytest

from conftest import CORPUS, parse_corpus, single_module

from defsort.nodes import declared_names

from defsort.defcollect import (
    DefKind,
    Namespace,
    collect,
    pattern_names,
    type_dependency_links,
)
from defsort.depgraph import build_graph
from defsort.diag import DuplicateNameError, UnknownNameError
from defsort.syntax import parse_source


def _flat(text):
    mods = parse_source(text)
    assert len(mods) == 1
    return collect(mods[0])


def test_pattern_names_walks_structured_patterns():
    m = _flat(
        "module P\nexports all\ndefinitions\nvalues\n"
        "    [i, j]: seq of nat = [1, 2];\n"
        "end P\n"
    )
    defn = m.source.definitions[0]
    assert pattern_names(defn.pattern) == ["i", "j"]


def test_collect_makes_a_node_of_each_declared_name_in_its_order():
    for path in sorted(CORPUS.glob("*.vdmsl")):
        for m in parse_corpus(path.name):
            names = [name for _, _, name, _ in declared_names(m.definitions)]
            assert names == [n.name for n in collect(m).nodes], path.name


def test_collect_orders_user_nodes_before_synthetic_invariants():
    fm = collect(single_module("M.vdmsl"))
    names = [n.name for n in fm.nodes]
    assert names == ["Rec", "S", "inv_S", "T", "tail", "head", "inv_Rec", "inv_T"]
    assert build_graph(fm).keys == [n.key for n in fm.nodes]


def test_collect_marks_only_missing_invariants_synthetic():
    fm = collect(single_module("M.vdmsl"))
    synth = {n.name for n in fm.nodes if n.synthetic}
    assert synth == {"inv_Rec", "inv_T"}
    assert fm.get(Namespace.FUNCTION, "inv_S").synthetic is False


def test_collect_namespaces_and_kinds():
    fm = collect(single_module("M.vdmsl"))
    assert fm.get(Namespace.TYPE, "Rec").kind is DefKind.TYPE_DEF
    assert fm.get(Namespace.FUNCTION, "inv_S").kind is DefKind.INVARIANT_FN
    assert fm.get(Namespace.FUNCTION, "tail").kind is DefKind.FUNCTION_DEF
    assert fm.get(Namespace.TYPE, "tail") is None
    assert fm.get(Namespace.FUNCTION, "Rec") is None


def test_collect_original_names_follow_declaration_order():
    fm = collect(single_module("M.vdmsl"))
    assert fm.original_names == ["Rec", "S", "T", "tail", "head"]


def test_collect_locations_point_at_declarations():
    fm = collect(single_module("M.vdmsl"))
    lines = {n.name: n.location.line for n in fm.nodes}
    assert lines == {
        "Rec": 6, "inv_Rec": 6,
        "S": 9, "inv_S": 9,
        "T": 12, "inv_T": 12,
        "tail": 15, "head": 18,
    }


def test_collect_shares_def_index_between_origin_and_clauses():
    fm = collect(single_module("M.vdmsl"))
    assert fm.get(Namespace.TYPE, "S").def_index == 1
    assert fm.get(Namespace.FUNCTION, "inv_S").def_index == 1
    assert fm.get(Namespace.FUNCTION, "inv_Rec").def_index == 0


def test_collect_binds_clause_patterns_and_params():
    fm = collect(single_module("M.vdmsl"))
    assert fm.get(Namespace.FUNCTION, "inv_S").bound == frozenset({"s"})
    assert fm.get(Namespace.FUNCTION, "tail").bound == frozenset({"s"})
    assert fm.get(Namespace.TYPE, "Rec").bound == frozenset()


def test_collect_function_clause_nodes():
    fm = _flat(
        "module F\nexports all\ndefinitions\nfunctions\n"
        "    f: nat -> nat\n"
        "    f(x) == x\n"
        "    pre x > 0\n"
        "    post RESULT >= x\n"
        "    measure x;\n"
        "end F\n"
    )
    kinds = {n.name: n.kind for n in fm.nodes}
    assert kinds == {
        "f": DefKind.FUNCTION_DEF,
        "pre_f": DefKind.PRE_FN,
        "post_f": DefKind.POST_FN,
        "measure_f": DefKind.MEASURE_FN,
    }
    assert fm.get(Namespace.FUNCTION, "post_f").bound == frozenset({"x", "RESULT"})
    assert fm.get(Namespace.FUNCTION, "pre_f").bound == frozenset({"x"})
    f = fm.get(Namespace.FUNCTION, "f")
    assert f.owner is None and all(n.owner is f for n in fm.nodes if n is not f)


def test_collect_eq_and_ord_clause_nodes():
    fm = _flat(
        "module Q\nexports all\ndefinitions\ntypes\n"
        "    T = nat\n"
        "    eq a = b == a = b\n"
        "    ord a < b == a < b;\n"
        "end Q\n"
    )
    kinds = {n.name: n.kind for n in fm.nodes}
    assert kinds["eq_T"] is DefKind.EQ_FN
    assert kinds["ord_T"] is DefKind.ORD_FN
    assert fm.get(Namespace.FUNCTION, "eq_T").bound == frozenset({"a", "b"})
    # no user inv, so a synthetic one is appended last
    assert fm.nodes[-1].name == "inv_T" and fm.nodes[-1].synthetic


def test_collect_splits_pattern_values_into_one_node_per_name():
    fm = collect(single_module("patvals.vdmsl"))
    value_nodes = [n for n in fm.nodes if n.kind is DefKind.VALUE_DEF]
    by_name = {n.name: n for n in value_nodes}
    assert all(n.owner is None for n in value_nodes)
    sibling_groups = {}
    for n in value_nodes:
        sibling_groups.setdefault(n.def_index, []).append(n.name)
    assert any(len(g) > 1 for g in sibling_groups.values())


def test_collect_rejects_function_colliding_with_invariant_clause():
    src = (
        "module D\nexports all\ndefinitions\ntypes\n"
        "    T = nat inv t == t > 0;\n"
        "functions\n"
        "    inv_T: nat -> bool\n"
        "    inv_T(x) == x > 0;\n"
        "end D\n"
    )
    with pytest.raises(DuplicateNameError) as err:
        _flat(src)
    assert err.value.name == "inv_T"


def test_collect_rejects_function_colliding_with_synthetic_invariant():
    # a bare type T owns an implicit inv_T, so a user inv_T is a duplicate,
    # reported at the user's definition
    with pytest.raises(DuplicateNameError) as err:
        _flat(
            "module D\nexports all\ndefinitions\ntypes\n"
            "    T = nat;\n"
            "functions\n"
            "    inv_T: nat -> bool\n"
            "    inv_T(x) == x > 0;\n"
            "end D\n"
        )
    assert (err.value.name, err.value.at.line, err.value.at.col) == ("inv_T", 7, 5)
    assert str(err.value).endswith("duplicate function name 'inv_T', the implicit invariant of type T")


def test_type_links_for_golden_module():
    fm = collect(single_module("M.vdmsl"))
    pairs = [(l.user_name, l.used_name) for l in type_dependency_links(fm)]
    assert pairs == [
        ("Rec", "inv_Rec"),
        ("Rec", "S"),
        ("Rec", "T"),
        ("S", "inv_S"),
        ("S", "T"),
        ("T", "inv_T"),
    ]


def test_type_links_from_value_declared_type_and_signatures():
    fm = _flat(
        "module V\nexports all\ndefinitions\ntypes\n"
        "    T = nat;\n"
        "values\n"
        "    v: T = 1;\n"
        "functions\n"
        "    f: T -> T\n"
        "    f(x) == x\n"
        "    pre x > 0;\n"
        "end V\n"
    )
    pairs = [(l.user_name, l.used_name) for l in type_dependency_links(fm)]
    assert ("v", "T") in pairs
    # one link per named occurrence: parameter and return type both count
    assert pairs.count(("f", "T")) == 2
    # clause nodes inherit the signature of their function
    assert pairs.count(("pre_f", "T")) == 2


def test_type_links_walk_compound_type_expressions():
    fm = _flat(
        "module W\nexports all\ndefinitions\ntypes\n"
        "    A = nat;\n"
        "    B = map A to seq of A;\n"
        "    C = [A] | set of A;\n"
        "end W\n"
    )
    pairs = [(l.user_name, l.used_name) for l in type_dependency_links(fm)]
    assert pairs.count(("B", "A")) == 2
    assert pairs.count(("C", "A")) == 2


def test_recursive_type_does_not_link_to_itself():
    fm = _flat(
        "module R\nexports all\ndefinitions\ntypes\n"
        "    Tree = seq of Tree;\n"
        "end R\n"
    )
    pairs = [(l.user_name, l.used_name) for l in type_dependency_links(fm)]
    assert pairs == [("Tree", "inv_Tree")]


def test_unknown_type_name_is_an_error_without_imports():
    with pytest.raises(UnknownNameError):
        _flat(
            "module U\nexports all\ndefinitions\ntypes\n"
            "    S = Missing;\n"
            "end U\n"
        )


def test_unknown_type_name_is_an_error_in_a_value_that_binds_no_name():
    # such a value has no node, but its declared type is read all the same
    with pytest.raises(UnknownNameError) as err:
        _flat(
            "module U\nexports all\ndefinitions\nvalues\n"
            "    - : Missing = 1;\n"
            "end U\n"
        )
    assert (err.value.name, err.value.at.line, err.value.at.col) == ("Missing", 5, 9)


def test_unknown_type_name_is_assumed_imported_when_imports_exist():
    fm = _flat(
        "module U\nexports all\nimports from LIB all\ndefinitions\ntypes\n"
        "    S = Missing;\n"
        "end U\n"
    )
    pairs = [(l.user_name, l.used_name) for l in type_dependency_links(fm)]
    assert ("S", "Missing") not in pairs
    assert ("S", "inv_S") in pairs


def test_a_node_builds_its_key_once_and_the_graph_shares_it():
    from defsort.depgraph import build_graph

    fm = collect(single_module("M.vdmsl"))
    keys = {id(n.key): n for n in fm.nodes}
    assert all(n.key is n.key and n.key == (n.namespace, n.name) for n in fm.nodes)
    g = build_graph(fm)
    assert g.edges and all(id(k) in keys for k in g.nodes)
    assert all(id(e.user) in keys and id(e.used) in keys for e in g.edges)


def test_every_node_that_binds_no_name_shares_one_empty_set():
    fm = _flat(
        "module E\ndefinitions\ntypes\n    T = nat;\n    S = nat inv s == s > 0;\n"
        "values\n    v = 1;\nfunctions\n    f: () -> nat\n    f() == 1;\n"
        "    g: nat -> nat\n    g(x) == x pre x > 0;\nend E\n"
    )
    empty = [n for n in fm.nodes if not n.bound]
    assert [n.name for n in empty] == ["T", "S", "v", "f", "inv_T"]
    assert len({id(n.bound) for n in empty}) == 1
    assert {n.name: sorted(n.bound) for n in fm.nodes if n.bound} == {
        "inv_S": ["s"], "g": ["x"], "pre_g": ["x"]}
