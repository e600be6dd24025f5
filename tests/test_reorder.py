"""Forward-reference reporting and whole-module rewriting."""

from conftest import CORPUS, parse_corpus, single_module

from defsort import nodes as N
from defsort.defcollect import Namespace, collect, pattern_names
from defsort.depgraph import build_graph
from defsort.reorder import forward_references, sort_module, verify_order
from defsort.syntax import parse_source, print_module

GOLDEN_MESSAGES = [
    "M`T declared after Rec",
    "M`S declared after Rec",
    "M`T declared after S",
    "tail declared after S",
    "tail declared after inv_S",
]


def _refs(module):
    fm = collect(module)
    return forward_references(fm, build_graph(fm))


def test_forward_reference_messages_for_golden_module():
    refs = _refs(single_module("M.vdmsl"))
    assert [r.message for r in refs] == GOLDEN_MESSAGES


def test_type_space_messages_are_module_qualified():
    for ref in _refs(single_module("M.vdmsl")):
        qualified = ref.message.startswith("M`")
        assert qualified == (ref.used.namespace is Namespace.TYPE)


def test_at_most_one_function_space_finding_per_user():
    src = (
        "module FN\ndefinitions\nvalues\n"
        "    a = p() + q();\n"
        "functions\n"
        "    q: () -> nat\n"
        "    q() == 1;\n"
        "    p: () -> nat\n"
        "    p() == 2;\n"
        "end FN\n"
    )
    refs = _refs(parse_source(src)[0])
    assert [r.message for r in refs] == ["q declared after a"]


def test_backward_uses_are_not_findings():
    src = (
        "module OK\ndefinitions\nfunctions\n"
        "    f: nat -> nat\n"
        "    f(x) == x;\n"
        "    g: nat -> nat\n"
        "    g(x) == f(x);\n"
        "end OK\n"
    )
    assert _refs(parse_source(src)[0]) == []


def test_sort_report_for_golden_module():
    out, report = sort_module(single_module("M.vdmsl"))
    assert report.sorted is True
    assert report.module_name == "M"
    assert report.original_names == ["Rec", "S", "T", "tail", "head"]
    assert report.start_points == ["Rec"]
    assert report.sorted_names == [
        "tail", "head", "inv_S", "inv_Rec", "inv_T", "T", "S", "Rec",
    ]
    assert report.organised_names == ["tail", "head", "T", "S", "Rec"]
    assert report.removed_edges == []
    assert [d.name for d in out.definitions] == ["tail", "head", "T", "S", "Rec"]


def test_rewrite_preserves_doc_comments():
    out, _ = sort_module(single_module("M.vdmsl"))
    text = print_module(out)
    assert "--@doc implicit inv_T needed" in text
    assert text.index("tail(s) == tl s") < text.index("T = seq1 of nat")


def test_sorted_module_passes_verification():
    m = single_module("M.vdmsl")
    assert verify_order(m) is False
    out, _ = sort_module(m)
    assert verify_order(out) is True


def test_gate_off_returns_module_untouched():
    out, _ = sort_module(single_module("M.vdmsl"))
    again, report = sort_module(out)
    assert again is out
    assert report.sorted is False
    assert report.forward_refs == []
    assert report.sorted_names == []
    assert report.organised_names == []
    assert report.original_names == [d.name for d in out.definitions]


def test_mutual_recursion_is_exempt_but_callers_are_not():
    out, report = sort_module(single_module("mutrec.vdmsl"))
    assert [r.message for r in report.forward_refs] == ["f declared after h"]
    assert [(e.user_name, e.used_name) for e in report.removed_edges] == [("g", "f")]
    assert report.organised_names == ["g", "f", "h"]
    assert verify_order(out) is True


def test_pattern_values_move_as_one_definition():
    out, report = sort_module(single_module("fwdvals.vdmsl"))
    assert report.sorted is True
    assert verify_order(out) is True
    assert len(out.definitions) == len(single_module("fwdvals.vdmsl").definitions)


def test_sorting_is_idempotent_over_the_corpus():
    for path in sorted(CORPUS.glob("*.vdmsl")):
        for m in parse_corpus(path.name):
            once, _ = sort_module(m)
            twice, report = sort_module(once)
            assert report.sorted is False, path.name
            assert print_module(once) == print_module(twice), path.name


def _declared_names(m):
    names = []
    for d in m.definitions:
        if isinstance(d, N.ValueDef):
            names.extend(pattern_names(d.pattern))
        else:
            names.append(d.name)
    return sorted(names)


def test_sorting_conserves_definition_names_over_the_corpus():
    for path in sorted(CORPUS.glob("*.vdmsl")):
        for m in parse_corpus(path.name):
            out, _ = sort_module(m)
            assert _declared_names(out) == _declared_names(m), path.name


def test_reported_modules_really_need_sorting_over_the_corpus():
    for path in sorted(CORPUS.glob("*.vdmsl")):
        for m in parse_corpus(path.name):
            out, report = sort_module(m)
            assert report.sorted == (not verify_order(m)), path.name
            assert verify_order(out) is True, path.name


def test_a_definition_that_binds_no_name_survives_sorting():
    [m] = parse_source("module D\ndefinitions\nvalues\n  - = b;\n  b = c;\n  c = 1;\nend D\n")
    out, report = sort_module(m)
    assert report.sorted is True
    assert [d.verbatim.strip() for d in out.definitions] == ["c = 1;", "b = c;", "- = b;"]
    assert verify_order(out) is True


def test_rewrite_keeps_the_comments_that_end_a_section():
    [m] = parse_source(
        "module C\ndefinitions\nvalues\n  a = b;\n  b = 1;\n  -- note on b\n"
        "functions\n  f : nat -> nat\n  f(x) == g(x);\n"
        "  g : nat -> nat\n  g(x) == x; -- after g\n  -- note before end\nend C\n"
    )
    assert m.definitions[1].verbatim == "  b = 1;\n  -- note on b"
    assert m.definitions[3].verbatim.endswith("g(x) == x; -- after g\n  -- note before end")
    out, report = sort_module(m)
    assert report.organised_names == ["b", "a", "g", "f"]
    printed = print_module(out)
    for comment in ("-- note on b", "-- after g", "-- note before end"):
        assert printed.count(comment) == 1, comment
