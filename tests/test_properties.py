"""Rewrite invariants as properties over corpus modules whose definitions
are permuted, then printed and parsed.

The CLI writes the text `analyse` prints without parsing it again, so these
properties are what make that text trustworthy: it re-parses to the module
`sort_module` returns, it is in declaration order, and it keeps every
definition's text.  No stage may change the syntax it is given, as the
syntax classes are not frozen.  And a text the parser accepts, corpus texts
with a name renamed included, analyses without an error.
"""

from collections import Counter
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CORPUS, parse_corpus
from test_syntax_reference import dump, ref_definition_exprs

from defsort import analyse, sort_module, verify_order
from defsort.defcollect import Namespace, collect, signature_types
from defsort.depgraph import break_cycles, build_graph
from defsort.diag import ParseError
from defsort.freevars import (check_bodies, check_duplicate_binds, check_init_cycles,
                              check_precondition_calls, walk)
from defsort.modorder import order_modules
from defsort.nodes import named_types
from defsort.syntax import BASIC_TYPES, lex, parse_source, print_module

MODULES = [m for path in sorted(CORPUS.glob("*.vdmsl")) for m in parse_corpus(path.name)]


@st.composite
def permuted_modules(draw):
    m = draw(st.sampled_from(MODULES))
    defs = draw(st.permutations(m.definitions))
    return parse_source(print_module(replace(m, definitions=tuple(defs))), m.file)[0]


@settings(max_examples=300, deadline=None)
@given(permuted_modules())
def test_a_module_is_rewritten_exactly_when_it_is_out_of_order(m):
    assert (analyse(m).text is None) == verify_order(m)


@settings(max_examples=300, deadline=None)
@given(permuted_modules())
def test_the_rewritten_text_is_what_sort_module_parses(m):
    text = analyse(m).text
    out, _ = sort_module(m)
    assert print_module(out) == (text or print_module(m))


@settings(max_examples=300, deadline=None)
@given(permuted_modules())
def test_sorting_verifies_and_is_idempotent(m):
    out, _ = sort_module(m)
    assert verify_order(out)
    again, report = sort_module(out)
    assert again is out and report.sorted is False


@settings(max_examples=300, deadline=None)
@given(permuted_modules())
def test_sorting_conserves_every_definition_text(m):
    out, _ = sort_module(m)
    assert Counter(d.verbatim for d in out.definitions) == Counter(d.verbatim for d in m.definitions)


@settings(max_examples=200, deadline=None)
@given(permuted_modules())
def test_a_sort_cuts_what_break_cycles_cuts(m):
    report = analyse(m).report
    cuts = break_cycles(build_graph(collect(m))) if report.sorted else []
    assert report.removed_edges == cuts


@settings(max_examples=100, deadline=None)
@given(st.lists(permuted_modules(), min_size=1, max_size=3))
def test_no_stage_changes_the_syntax_it_is_given(mods):
    before = dump(mods)  # every field, locations included
    for m in mods:
        analyse(m)
        sort_module(m)
        verify_order(m)
        fm = collect(m)
        check_duplicate_binds(m)
        check_precondition_calls(m, fm)
        check_init_cycles(fm)
    order_modules(mods)
    assert dump(mods) == before


# each corpus file's name, text and name tokens
NAMED_TEXTS = [(path.name, text, [t for t in lex(text, path.name)[0] if t.kind == "name"])
               for path in sorted(CORPUS.glob("*.vdmsl")) for text in [path.read_text()]]


@st.composite
def renamed_texts(draw):
    """A corpus text with one name token renamed to a name no corpus text uses."""
    file, text, names = draw(st.sampled_from(NAMED_TEXTS))
    t = draw(st.sampled_from(names))
    return file, text[:t.off] + "Renamed" + text[t.end:]


@settings(max_examples=150, deadline=None)
@given(renamed_texts())
def test_whatever_parses_analyses(renamed):
    file, text = renamed
    try:
        mods = parse_source(text, file)
    except ParseError:
        return
    for m in mods:
        analyse(m)
        fm = collect(m)
        check_bodies(m, fm)
        check_init_cycles(fm)
        verify_order(m)


@st.composite
def type_name_texts(draw):
    """A corpus text, or one with a name token replaced by a type name no
    corpus text declares, bare or in a constructor or a type test."""
    file, text, names = draw(st.sampled_from(NAMED_TEXTS))
    if draw(st.integers(0, 4)) == 0:
        return file, text
    t = draw(st.sampled_from(names))
    return file, text[:t.off] + draw(st.sampled_from(["Renamed", "mk_Renamed", "is_Renamed"])) + text[t.end:]


@settings(max_examples=150, deadline=None)
@given(type_name_texts())
def test_every_type_name_of_an_accepted_module_without_imports_resolves(case):
    file, text = case
    try:
        mods = parse_source(text, file)
    except ParseError:
        return
    for m in mods:
        if m.imports:
            continue
        types = {n.name for n in collect(m).nodes if n.namespace is Namespace.TYPE}
        refs = {ref.name for d in m.definitions for t in signature_types(d) for ref in named_types(t)}
        uses = {use.name for d in m.definitions for root in ref_definition_exprs(d)
                for use in walk(root)[0] if use.space is Namespace.TYPE}
        assert (refs | uses) - BASIC_TYPES <= types
