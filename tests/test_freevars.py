"""Free-variable collection, conditional marking, and body diagnostics."""

import pytest
from conftest import single_module

from defsort import nodes as N
from defsort.defcollect import DefKind, Namespace, collect
from defsort.diag import Record
from defsort.freevars import (
    check_duplicate_binds,
    check_init_cycles,
    check_precondition_calls,
    def_use_sites,
    free_uses,
    init_dependencies,
)
from defsort.syntax import parse_source


def _value_body(expr_src):
    # the module imports, so its snippets may name types it does not declare
    src = f"module X\nimports from L all\nexports all\ndefinitions\nvalues\n    v = {expr_src};\nend X\n"
    fm = collect(parse_source(src)[0])
    return fm.get(Namespace.FUNCTION, "v").body


def _uses(expr_src, bound=()):
    body = _value_body(expr_src)
    return free_uses(body, frozenset(bound))


def _triples(uses):
    return [(u.name, u.space, u.conditional) for u in uses]


def test_names_and_applications_respect_bindings():
    assert _triples(_uses("x + y", bound={"x"})) == [
        ("y", Namespace.FUNCTION, False),
    ]
    assert _triples(_uses("f(x)", bound={"x"})) == [
        ("f", Namespace.FUNCTION, False),
    ]


def test_if_branches_are_conditional_but_conditions_are_not():
    got = _triples(_uses("if c then a elseif d then b else e"))
    assert got == [
        ("c", Namespace.FUNCTION, False),
        ("a", Namespace.FUNCTION, True),
        ("d", Namespace.FUNCTION, False),
        ("b", Namespace.FUNCTION, True),
        ("e", Namespace.FUNCTION, True),
    ]


def test_quantifier_bodies_are_conditional_and_binders_scope():
    got = _triples(_uses("forall x in set s & x > t"))
    assert got == [
        ("s", Namespace.FUNCTION, False),
        ("t", Namespace.FUNCTION, True),
    ]


def test_type_binds_emit_type_uses():
    got = _triples(_uses("forall m : T & m > 0"))
    assert got == [("T", Namespace.TYPE, False)]


def test_let_bindings_scope_sequentially():
    got = _triples(_uses("let a = p, b = a + q in a + b + r"))
    assert got == [
        ("p", Namespace.FUNCTION, False),
        ("q", Namespace.FUNCTION, False),
        ("r", Namespace.FUNCTION, False),
    ]


def test_comprehension_parts_stay_unconditional():
    got = _triples(_uses("{ x + w | x in set s, y in set x & y > z }"))
    assert got == [
        ("s", Namespace.FUNCTION, False),
        ("w", Namespace.FUNCTION, False),
        ("z", Namespace.FUNCTION, False),
    ]


def test_a_binding_ends_with_its_node():
    for src, inner, outer in (
        ("(let x = p in x) + x", "p", "x"),
        ("{y | y in set s} union {y}", "s", "y"),
        ("(forall z in set s & z > 0) and z", "s", "z"),
    ):
        assert _triples(_uses(src)) == [
            (inner, Namespace.FUNCTION, False),
            (outer, Namespace.FUNCTION, False),
        ], src


def test_constructors_and_type_tests_use_type_names():
    got = _triples(_uses("mk_Point(a, b)", bound={"a", "b"}))
    assert got == [("Point", Namespace.TYPE, False)]
    got = _triples(_uses("is_T(x)", bound={"x"}))
    assert got == [("T", Namespace.TYPE, False)]


def test_field_selection_walks_the_record_expression_only():
    got = _triples(_uses("r.fld + r.fld"))
    assert got == [
        ("r", Namespace.FUNCTION, False),
        ("r", Namespace.FUNCTION, False),
    ]


def test_builtin_operators_are_not_uses():
    assert _uses("len s + card t + hd u", bound={"s", "t", "u"}) == []


def test_def_use_sites_drop_self_references():
    src = (
        "module R\nexports all\ndefinitions\nfunctions\n"
        "    f: nat -> nat\n"
        "    f(x) == if x = 0 then 0 else f(x - 1)\n"
        "    measure f(x);\n"
        "end R\n"
    )
    fm = collect(parse_source(src)[0])
    f = fm.get(Namespace.FUNCTION, "f")
    assert def_use_sites(f, fm) == []
    measure = fm.get(Namespace.FUNCTION, "measure_f")
    assert def_use_sites(measure, fm) == []


def test_def_use_sites_drop_unresolved_names():
    src = (
        "module R\nexports all\ndefinitions\nvalues\n"
        "    v = external_helper(1);\n"
        "end R\n"
    )
    fm = collect(parse_source(src)[0])
    assert def_use_sites(fm.get(Namespace.FUNCTION, "v"), fm) == []


def test_def_dependencies_for_golden_invariant():
    fm = collect(single_module("M.vdmsl"))
    inv_s = fm.get(Namespace.FUNCTION, "inv_S")
    assert {target.name for _, target in def_use_sites(inv_s, fm)} == {"tail", "head"}


def test_init_dependencies_ignore_conditional_uses():
    fm = collect(single_module("valcond.vdmsl"))
    a = fm.get(Namespace.FUNCTION, "A")
    b = fm.get(Namespace.FUNCTION, "B")
    assert init_dependencies(a, fm) == {"c"}
    assert init_dependencies(b, fm) == {"A"}


def test_init_dependencies_only_apply_to_values():
    fm = collect(single_module("M.vdmsl"))
    assert init_dependencies(fm.get(Namespace.FUNCTION, "tail"), fm) == set()


def test_duplicate_bind_reported_once_at_second_bind():
    m = single_module("dupbind.vdmsl")
    diags = check_duplicate_binds(m)
    assert len(diags) == 1
    d = diags[0]
    assert (d.severity, d.code) == ("error", "dup-bind")
    assert (d.at.line, d.at.col) == (4, 44)
    assert str(d).endswith(
        "4:44: error: comprehension binds 'x' more than once [dup-bind]"
    )


@pytest.mark.parametrize("body, at, name", [
    ("forall x in set {n}, x in set {1} & x > 0", "5:30", "x"),
    ("exists z : nat, z : nat & z > n", "5:25", "z"),
    ("forall [a, b] in set {[1, 2]}, mk_R(-, b) in set {r} & a = b", "5:40", "b"),
])
def test_a_quantifier_that_binds_a_name_twice_is_a_dup_bind(body, at, name):
    src = f"module Q\ndefinitions\nvalues\n    n = 1;\n    v = {body};\nend Q\n"
    diags = check_duplicate_binds(parse_source(src, "Q.vdmsl")[0])
    assert [str(d) for d in diags] == [
        f"Q.vdmsl:{at}: error: quantifier binds {name!r} more than once [dup-bind]"]


def test_distinct_binds_are_clean():
    src = (
        "module OK\nexports all\ndefinitions\nvalues\n"
        "    v = { x + y | x in set {1}, y in set {2} };\n"
        "end OK\n"
    )
    assert check_duplicate_binds(parse_source(src)[0]) == []


def test_init_cycle_reported_at_first_member():
    fm = collect(single_module("valcycle.vdmsl"))
    diags = check_init_cycles(fm)
    assert len(diags) == 1
    d = diags[0]
    assert (d.severity, d.code) == ("error", "init-cycle")
    assert d.message == "value initialization cycle: A -> B -> A"
    assert (d.at.line, d.at.col) == (4, 5)


def test_conditional_use_breaks_init_cycle():
    fm = collect(single_module("valcond.vdmsl"))
    assert check_init_cycles(fm) == []


def test_value_that_reads_itself_unconditionally_is_an_init_cycle():
    fm = collect(single_module("valself.vdmsl"))
    deps = {name: init_dependencies(fm.get(Namespace.FUNCTION, name), fm) for name in "vwu"}
    assert deps == {"v": {"v"}, "w": {"c"}, "u": set()}
    diags = check_init_cycles(fm)
    assert [(d.code, d.message, d.at.line, d.at.col) for d in diags] == [
        ("init-cycle", "value initialization cycle: v -> v", 5, 5),
    ]


def test_unguarded_precondition_call_warns():
    m = single_module("precall.vdmsl")
    diags = check_precondition_calls(m, collect(m))
    assert len(diags) == 1
    d = diags[0]
    assert (d.severity, d.code) == ("warning", "pre-call")
    assert d.message == "call to f is not guarded by pre_f"
    assert (d.at.line, d.at.col) == (9, 13)


def test_guarded_call_suppresses_the_warning():
    src = (
        "module G\nexports all\ndefinitions\nfunctions\n"
        "    f: nat -> nat\n"
        "    f(x) == x\n"
        "    pre x > 0;\n"
        "    g: nat -> nat\n"
        "    g(y) == if pre_f(y) then f(y) else 0;\n"
        "end G\n"
    )
    m = parse_source(src)[0]
    assert check_precondition_calls(m, collect(m)) == []


# one value definition binds two names, or none, yet is one expression
SHARED_VALUES = (
    "module V\ndefinitions\ntypes\n    R :: a : nat b : nat;\nvalues\n"
    "    mk_R(p, q) = mk_R(g(1), 2);\n"
    "    [s, t] = [g(2), 0];\n"
    "    - = g(3);\n"
    "functions\n    g: nat -> nat\n    g(x) == x\n    pre x > 0;\nend V\n"
)


def test_precondition_call_in_a_multi_name_value_is_reported_once():
    m = parse_source(SHARED_VALUES)[0]
    diags = check_precondition_calls(m, collect(m))
    assert [(d.at.line, d.at.col) for d in diags if d.at.line in (6, 7)] == [(6, 23), (7, 15)]


def test_precondition_call_in_a_nameless_value_is_reported():
    m = parse_source(SHARED_VALUES)[0]
    diags = check_precondition_calls(m, collect(m))
    assert [str(d) for d in diags if d.at.line == 8] == [
        "<string>:8:9: warning: call to g is not guarded by pre_g [pre-call]",
    ]


def test_an_unknown_node_is_the_same_type_error_as_for_children():
    class Odd(Record):
        __slots__ = ("loc",)

    odd = Odd(None)
    with pytest.raises(TypeError) as from_children:
        N.children(odd)
    for body in (odd, N.Binary("+", N.Lit("nat", 1, None), odd, None)):
        with pytest.raises(TypeError) as from_walk:
            free_uses(body)
        assert str(from_walk.value) == str(from_children.value) == "unexpected expression node Odd"
