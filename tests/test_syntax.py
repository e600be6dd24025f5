from __future__ import annotations

import glob
import os
import signal
from contextlib import contextmanager

import pytest

from defsort import nodes as N
from defsort.diag import DuplicateNameError, Loc, ParseError, Record, UnknownNameError
from defsort.syntax import Token, lex, parse_source, print_module
from exprwalk import subexpressions
from test_syntax_reference import ref_definition_exprs, ref_lex

CORPUS = os.path.join(os.path.dirname(__file__), "corpus")


def _corpus_files():
    for path in sorted(glob.glob(os.path.join(CORPUS, "*.vdmsl"))):
        with open(path, encoding="utf-8") as f:
            yield path, f.read()


def _corpus(name: str) -> str:
    with open(os.path.join(CORPUS, name), encoding="utf-8") as f:
        return f.read()


def _module(text: str):
    mods = parse_source(text)
    assert len(mods) == 1
    return mods[0]


def test_lex_tracks_lines_and_columns():
    toks, comments = lex("module M\n  T = nat;\nend M\n")
    kinds = [(t.text, t.line, t.col) for t in toks[:3]]
    assert kinds == [("module", 1, 1), ("M", 1, 8), ("T", 2, 3)]
    assert comments == []


def test_lex_separates_comments_and_doc_comments():
    toks, comments = lex("-- plain\n--@doc hello\nx\n")
    assert [t.text for t in toks if t.kind != "eof"] == ["x"]
    assert [c.text.startswith("--@doc") for c in comments] == [False, True]


def test_lex_distinguishes_quotes_from_comparisons():
    toks, _ = lex("a <= b <> <Red> <=> c")
    texts = [t.text for t in toks]
    assert "<=" in texts and "<>" in texts and "<=>" in texts
    assert any(t.kind == "quote" and t.text == "Red" for t in toks)


def test_parse_module_m_has_five_definitions():
    m = _module(_corpus("M.vdmsl"))
    assert m.name == "M"
    assert m.exports_all
    names = []
    for d in m.definitions:
        if isinstance(d, (N.RecordTypeDef, N.NamedTypeDef, N.FuncDef)):
            names.append(d.name)
    assert names == ["Rec", "S", "T", "tail", "head"]


def test_definition_name_locations_match_listing():
    m = _module(_corpus("M.vdmsl"))
    lines = [d.name_loc.line for d in m.definitions]
    assert lines == [6, 9, 12, 15, 18]


def test_definitions_ordered_by_start_location():
    text = _corpus("records.vdmsl")
    m = _module(text)
    starts = [(d.name_loc.line, d.name_loc.col) for d in m.definitions]
    assert len(starts) > 1 and starts == sorted(starts)


def test_verbatim_is_exact_substring_of_input():
    # each definition's text occurs in its input, in source order without
    # overlap, and starts at its first leading comment, or at its first token
    # when it has none; at the start of the line when only white space
    # comes before that
    for path, text in _corpus_files():
        toks, comments = lex(text, path)
        index = {t.off: k for k, t in enumerate(toks)}
        end = 0
        for m in parse_source(text, path):
            for d in m.definitions:
                first = d.name_loc.off
                before = toks[index[first] - 1].end
                leading = [c.off for c in comments if before <= c.off < first]
                start = leading[0] if leading else first
                line_start = text.rfind("\n", 0, start) + 1
                if text[line_start:start].strip() == "":
                    start = line_start
                assert start >= end and text.startswith(d.verbatim, start), (path, d.verbatim)
                end = start + len(d.verbatim)
    m = _module(_corpus("M.vdmsl"))
    assert "--@doc uses types S and T" in m.definitions[0].verbatim


def test_pattern_value_parses_to_seq_pattern():
    m = _module("module V\ndefinitions\nvalues\n    [i,j]: seq of nat = [1,2];\nend V\n")
    d = m.definitions[0]
    assert isinstance(d, N.ValueDef)
    assert isinstance(d.pattern, N.PatSeq)
    assert [p.name for p in d.pattern.items] == ["i", "j"]


def test_empty_module_parses():
    m = _module("module E\nexports all\ndefinitions\nend E\n")
    assert m.definitions == ()
    assert print_module(m) == "module E\nexports all\ndefinitions\nend E\n"


def test_multiple_modules_in_one_file():
    mods = parse_source(_corpus("multimod.vdmsl"))
    assert [m.name for m in mods] == ["FIRST", "SECOND"]
    assert mods[1].imports[0].module == "FIRST"


def test_the_iso_module_header_parses_and_prints():
    mods = parse_source(_corpus("isoheader.vdmsl"))
    headers = [(m.name, [imp.module for imp in m.imports], m.exports_all) for m in mods]
    assert headers == [("ISOBASE", [], True), ("ISOLIB", [], True),
                       ("ISOUSER", ["ISOBASE", "ISOLIB"], True), ("ISOLAST", ["ISOUSER"], True)]
    user = mods[2]
    assert [str(imp.loc) for imp in user.imports] == ["<string>:16:14", "<string>:16:32"]
    printed = print_module(user)
    assert printed.startswith("module ISOUSER\nimports from ISOBASE all\n"
                              "imports from ISOLIB all\nexports all\ndefinitions\n")
    assert parse_source(printed) == [user]
    # the header forms read before: `exports` first, one `imports` per import
    old = printed.replace("imports from ISOBASE all\nimports from ISOLIB all\nexports all\n",
                          "exports all\nimports from ISOBASE all\nimports from ISOLIB all\n")
    assert old != printed and parse_source(old) == [user]


@pytest.mark.parametrize("header, error", [
    ("imports from A all,\n", "3:1: expected 'from', found 'definitions'"),
    ("exports all\nimports from A all\nexports all\n", "4:1: expected 'definitions', found 'exports'"),
    ("imports from A all\nexports all\nimports from B all\n",
     "4:1: expected 'definitions', found 'imports'"),
    ("imports from A\n", "3:1: expected 'all', found 'definitions'"),
    ("imports from all\n", "2:14: expected module name, found 'all'"),
    ("imports A all\n", "2:9: expected 'from', found name 'A'"),
    ("imports from A all, B all\n", "2:21: expected 'from', found name 'B'"),
])
def test_a_module_header_has_one_exports_clause_and_one_import_list(header, error):
    with pytest.raises(ParseError) as exc:
        parse_source(f"module M\n{header}definitions\nend M\n")
    assert str(exc.value) == f"<string>:{error}"


def test_union_types_flatten():
    m = _module("module U\ndefinitions\ntypes\n    T = nat | seq of char | [int];\nend U\n")
    rhs = m.definitions[0].rhs
    assert isinstance(rhs, N.TUnion)
    assert len(rhs.members) == 3
    assert not any(isinstance(t, N.TUnion) for t in rhs.members)


def test_function_signature_arity_checked():
    bad = "module F\ndefinitions\nfunctions\n    f: nat * nat -> nat\n    f(x) == x;\nend F\n"
    with pytest.raises(ParseError):
        parse_source(bad)


def test_function_body_name_must_match_signature():
    bad = "module F\ndefinitions\nfunctions\n    f: nat -> nat\n    g(x) == x;\nend F\n"
    with pytest.raises(ParseError):
        parse_source(bad)


def test_end_name_must_match_module_name():
    with pytest.raises(ParseError):
        parse_source("module A\ndefinitions\nend B\n")


def test_duplicate_type_name_is_parse_error():
    bad = "module D\ndefinitions\ntypes\n    T = nat;\n    T = int;\nend D\n"
    with pytest.raises(ParseError):
        parse_source(bad)


def test_duplicate_value_and_function_share_namespace():
    bad = "module D\ndefinitions\nvalues\n    f = 1;\nfunctions\n    f: nat -> nat\n    f(x) == x;\nend D\n"
    with pytest.raises(ParseError):
        parse_source(bad)


def test_type_and_value_namespaces_are_separate():
    m = _module(_corpus("twospace.vdmsl"))
    assert m.name == "TWOSPACE"


def test_repeated_pattern_name_in_one_pattern_rejected():
    bad = "module D\ndefinitions\nvalues\n    [x,x] = [1,2];\nend D\n"
    with pytest.raises(ParseError):
        parse_source(bad)


@pytest.mark.parametrize("section, error", [
    ("functions\n  f: nat * nat -> nat\n  f(x, x) == x;", "5:8: name 'x' bound twice in parameter list"),
    ("values\n  v = let [a, a] = [1, 2] in a;", "4:15: name 'a' bound twice in let binding"),
    ("values\n  [a, a] = [1, 2];", "4:7: name 'a' bound twice in value pattern"),
    ("values\n  v = forall [a, a] in set {[1, 2]} & true;", "4:18: name 'a' bound twice in binding pattern"),
    ("values\n  v = exists mk_R(a, -, a) : R & true;", "4:25: name 'a' bound twice in binding pattern"),
    ("values\n  v = {a | [a, a] in set {[1, 2]}};", "4:16: name 'a' bound twice in binding pattern"),
    ("values\n  v = [a | {a, a} in set {{1}}];", "4:16: name 'a' bound twice in binding pattern"),
    ("types\n  R :: x : nat\n       y : nat\n  inv mk_R(a, a) == true;", "6:15: name 'a' bound twice in inv clause"),
    ("types\n  T = nat\n  eq a = a == true;", "5:10: name 'a' bound twice in eq clause"),
    ("types\n  T = nat\n  ord a < a == true;", "5:11: name 'a' bound twice in ord clause"),
    ("types\n  T = nat\n  eq [a, b] = b == true;", "5:15: name 'b' bound twice in eq clause"),
    # a definition's name is bound once in its namespace; a value's duplicate
    # is located at the name, not at the start of its pattern
    ("types\n  T = nat;\n  T = int;", "5:3: duplicate type name 'T' in module M"),
    ("types\n  T = nat;\n  T :: x : nat;", "5:3: duplicate type name 'T' in module M"),
    ("values\n  a = 1;\n  [x, a] = [1, 2];", "5:7: duplicate function or value name 'a' in module M"),
    ("values\n  f = 1;\nfunctions\n  f : nat -> nat\n  f(x) == x;",
     "6:3: duplicate function or value name 'f' in module M"),
    ("functions\n  f : nat -> nat\n  f(x) == x;\nvalues\n  {b, f} = {1, 2};",
     "7:7: duplicate function or value name 'f' in module M"),
    # a lone name or `-` binds one name at most
    ("values\n  v = let a = 1 in a;", None),
    ("values\n  v = let - = 1 in 2;", None),
])
def test_a_name_bound_twice_is_a_located_error(section, error):
    text = f"module M\ndefinitions\n{section}\nend M\n"
    if error is None:
        assert _module(text).name == "M"
        return
    with pytest.raises(ParseError) as err:
        parse_source(text)
    assert str(err.value) == f"<string>:{error}"


FUNCTION_F = "functions\n  f : nat -> nat\n  f(x) == x\n  pre x > 0\n  post RESULT = x\n  measure x;"


@pytest.mark.parametrize("section, error", [
    # a clause function is at its function's name, a type clause at its
    # keyword: the second of two sites is reported
    (FUNCTION_F + "\n  pre_f : nat -> bool\n  pre_f(x) == true;", "9:3: duplicate function name 'pre_f'"),
    (FUNCTION_F + "\n  post_f : nat * nat -> bool\n  post_f(x, y) == true;",
     "9:3: duplicate function name 'post_f'"),
    ("functions\n  measure_f : nat -> nat\n  measure_f(x) == x;\n" + FUNCTION_F,
     "7:3: duplicate function name 'measure_f'"),
    ("functions\n  inv_T : nat -> bool\n  inv_T(x) == true;\ntypes\n  T = nat\n  inv t == t > 0;",
     "8:3: duplicate function name 'inv_T'"),
    ("values\n  eq_T = 1;\ntypes\n  T = nat\n  eq a = b == a = b;", "7:3: duplicate function name 'eq_T'"),
    ("types\n  T = nat\n  ord a < b == a < b;\nvalues\n  ord_T = 1;", "7:3: duplicate function name 'ord_T'"),
    # an implicit invariant's clash is at the other name, wherever it stands
    ("values\n  inv_T = 1;\ntypes\n  T = nat;",
     "4:3: duplicate function name 'inv_T', the implicit invariant of type T"),
    ("types\n  T = nat;\nvalues\n  [x, inv_T] = [1, 2];",
     "6:7: duplicate function name 'inv_T', the implicit invariant of type T"),
    # a value's clash is at its name inside the pattern
    (FUNCTION_F + "\nvalues\n  [x, pre_f] = [1, 2];", "10:7: duplicate function name 'pre_f'"),
    # the first clash in declaration order wins, whichever its kind
    (FUNCTION_F + "\n  pre_f : nat -> bool\n  pre_f(x) == true;\nvalues\n  v = 1;\n  v = 2;",
     "9:3: duplicate function name 'pre_f'"),
    ("values\n  v = 1;\n  v = 2;\n" + FUNCTION_F + "\n  pre_f : nat -> bool\n  pre_f(x) == true;",
     "5:3: duplicate function or value name 'v' in module M"),
    ("types\n  T = nat;\n  T = int;\nvalues\n  inv_T = 1;", "5:3: duplicate type name 'T' in module M"),
])
def test_a_duplicate_name_is_a_duplicate_name_error_of_the_parse(section, error):
    text = f"module M\ndefinitions\n{section}\nend M\n"
    with pytest.raises(DuplicateNameError) as err:
        parse_source(text)
    assert isinstance(err.value, ParseError)
    assert str(err.value) == f"<string>:{error}"
    assert err.value.name == error.split("'")[1]


@pytest.mark.parametrize("section, at", [
    ("types\n  S = seq of Missing;", "4:14"),  # a type's right-hand side
    ("types\n  R :: a : nat\n       b : Missing;", "5:12"),  # a record field
    ("values\n  v : Missing = 1;", "4:7"),  # a value's declared type
    ("values\n  - : Missing = 1;", "4:7"),  # a value that binds no name
    ("functions\n  f : nat * Missing -> nat\n  f(x, y) == x;", "4:13"),  # a parameter type
    ("functions\n  f : nat -> Missing\n  f(x) == x;", "4:14"),  # a result type
    # the first in source order is reported
    ("types\n  T = map Missing to Other;\n  U = Zeroth;", "4:11"),
    ("functions\n  f : Missing -> nat\n  f(x) == 1;\ntypes\n  T = Other;", "4:7"),
    # a body's type names: a type test, a constructor, a let type and a bind type
    ("values\n  v = is_(1, Missing);", "4:14"),
    ("values\n  v = is_Missing(1);", "4:7"),
    ("values\n  v = mk_Missing(1);", "4:7"),
    ("values\n  v = mk_Missing();", "4:7"),
    ("values\n  v = let x : Missing = 1 in x;", "4:15"),
    ("values\n  v = forall x : Missing & x > 0;", "4:18"),
    ("values\n  v = {x | x : seq of Missing};", "4:23"),
    ("types\n  T = nat\n  inv t == is_Missing(t);", "5:12"),
    ("functions\n  f : nat -> nat\n  f(x) == x\n  pre is_(x, [Missing]);", "6:15"),
    # an application's type name is read where its group opens, before its items
    ("values\n  v = is_Missing(is_(1, Other));", "4:7"),
    ("values\n  v = mk_Missing(let y : Other = 1 in y);", "4:7"),
    # a body before a signature, in source order
    ("values\n  v = is_Missing(1);\n  w : Other = 2;", "4:7"),
])
def test_an_unknown_type_name_is_an_unknown_name_error_of_the_parse(section, at):
    with pytest.raises(UnknownNameError) as err:
        parse_source(f"module M\ndefinitions\n{section}\nend M\n")
    assert isinstance(err.value, ParseError)
    assert str(err.value) == f"<string>:{at}: unknown type name 'Missing'"
    assert err.value.name == "Missing"


def test_a_module_that_imports_may_name_types_it_does_not_declare():
    m = _module("module M\nimports from LIB all\ndefinitions\ntypes\n  S = Missing;\n"
                "values\n  v : Other = 1;\nend M\n")
    assert [type(d) for d in m.definitions] == [N.NamedTypeDef, N.ValueDef]


@pytest.mark.parametrize("body", ["mk_token(1)", "is_nat(1)", "is_(1, nat | token)",
                                  "let x : seq of char = [] in is_bool(x)"])
def test_a_basic_type_in_a_body_is_no_unknown_type_name(body):
    m = _module(f"module M\ndefinitions\nvalues\n  v = {body};\nend M\n")
    assert [type(d) for d in m.definitions] == [N.ValueDef]


def test_a_module_that_imports_may_name_types_it_does_not_declare_in_bodies():
    m = _module("module M\nimports from LIB all\ndefinitions\nvalues\n"
                "  v = is_(mk_Missing(1), Other) and is_Third(2);\n"
                "  w = let x : Fourth = 1 in forall y : Fifth & x = y;\nend M\n")
    assert len(m.definitions) == 2


def test_a_duplicate_name_is_reported_before_an_unknown_type_name():
    with pytest.raises(DuplicateNameError, match=r"^<string>:7:3: duplicate function or value name"):
        parse_source("module M\ndefinitions\ntypes\n  S = Missing;\nvalues\n  v = 1;\n  v = 2;\nend M\n")


def test_a_duplicate_name_is_reported_before_an_unknown_type_name_in_a_body():
    with pytest.raises(DuplicateNameError, match=r"^<string>:5:3: duplicate function or value name"):
        parse_source("module M\ndefinitions\nvalues\n  v = is_Missing(1);\n  v = 2;\nend M\n")


@pytest.mark.parametrize("fields, at", [
    ("x : nat\n       x : bool", "5:8"),
    ("x : nat\n       y : nat\n       x : nat", "6:8"),
])
def test_a_duplicate_record_field_is_a_duplicate_name_error_of_the_parse(fields, at):
    with pytest.raises(DuplicateNameError) as err:
        parse_source(f"module M\ndefinitions\ntypes\n  P :: {fields};\nend M\n")
    assert isinstance(err.value, ParseError)
    assert str(err.value) == f"<string>:{at}: duplicate field name 'x' in record P"
    assert err.value.name == "x"


def test_a_fault_in_an_earlier_module_is_reported_first():
    # module A's unknown type name is found before module B's duplicate name
    text = ("module A\ndefinitions\ntypes\n  S = Missing;\nend A\n"
            "module B\ndefinitions\nvalues\n  v = 1;\n  v = 2;\nend B\n")
    with pytest.raises(ParseError) as err:
        parse_source(text)
    assert str(err.value) == "<string>:4:7: unknown type name 'Missing'"


def test_parse_error_carries_location():
    try:
        parse_source("module A\ndefinitions\ntypes\n    = nat;\nend A\n")
    except ParseError as e:
        assert e.at.line == 4
    else:
        raise AssertionError("expected ParseError")


def test_print_groups_consecutive_sections():
    text = _corpus("noexports.vdmsl")
    m = _module(text)
    printed = print_module(m)
    assert printed.count("types") == 2
    assert printed.count("functions") == 1


def test_roundtrip_fixpoint_over_corpus():
    paths = sorted(glob.glob(os.path.join(CORPUS, "*.vdmsl")))
    assert len(paths) >= 20
    for path in paths:
        with open(path, encoding="utf-8") as f:
            text = f.read()
        for m in parse_source(text, path):
            again = parse_source(print_module(m), path)
            assert len(again) == 1
            assert again[0] == m, f"round-trip changed {m.name} in {path}"


def test_print_then_print_is_stable():
    m = _module(_corpus("M.vdmsl"))
    once = print_module(m)
    twice = print_module(parse_source(once)[0])
    assert once == twice


def test_identifiers_are_ascii_only():
    with pytest.raises(ParseError) as err:
        parse_source("module M\ndefinitions\nvalues\n  café = 1;\nend M\n")
    assert str(err.value) == "<string>:4:6: unexpected character 'é'"


@pytest.mark.parametrize("digit", ["²", "٣"])
def test_numbers_are_ascii_digits_only(digit):
    with pytest.raises(ParseError) as err:
        parse_source(f"module M\ndefinitions\nvalues\n  x = 1{digit};\nend M\n")
    assert str(err.value) == f"<string>:4:8: unexpected character {digit!r}"


@pytest.mark.parametrize("section, error", [
    ("types\n  T = nat 5;", "<string>:4:11: expected ';' or a new definition, found nat '5'"),
    ("values\n  v = 1 in <set> s;", "<string>:4:9: expected ';' or a new definition, found 'in'"),
    ("functions\n  f : nat -> nat\n  f(x) == x);", "<string>:5:12: expected ';' or a new definition, found ')'"),
    ("values\n  v = 1\n  w = 2 ;;", "<string>:5:10: expected a pattern, found ';'"),
    # a record type takes no `eq` or `ord`; `ord` relates its patterns by `<`
    ("types\n  R :: x : nat\n  eq a = b == true;", "<string>:5:3: expected ';' or a new definition, found 'eq'"),
    ("types\n  T = nat\n  ord a = b == true;", "<string>:5:9: expected '<', found '='"),
    # a list separator with nothing after it
    ("functions\n  f : nat -> nat\n  f(x) == g(x,);", "<string>:5:15: expected an expression, found ')'"),
    ("values\n  v = mk_R(1,);", "<string>:4:14: expected an expression, found ')'"),
    ("functions\n  f : nat * nat -> nat\n  f(x,) == x;", "<string>:5:7: expected a pattern, found ')'"),
    ("values\n  [a,] = [1];", "<string>:4:6: expected a pattern, found ']'"),
    ("values\n  {a,} = {1};", "<string>:4:6: expected a pattern, found '}'"),
    ("values\n  mk_R(a,) = 1;", "<string>:4:10: expected a pattern, found ')'"),
    ("values\n  v = let a = 1, in a;", "<string>:4:18: expected a pattern, found 'in'"),
    ("values\n  v = forall a in set {1}, & true;", "<string>:4:28: expected a pattern, found '&'"),
    ("values\n  v = {1,};", "<string>:4:10: expected an expression, found '}'"),
    ("values\n  v = [1,];", "<string>:4:10: expected an expression, found ']'"),
    ("values\n  v = {1 |-> 2,};", "<string>:4:16: expected an expression, found '}'"),
    ("types\n  T = nat |;", "<string>:4:12: expected a type, found ';'"),
    ("functions\n  f : nat * -> nat\n  f(x) == x;", "<string>:4:13: expected a type, found '->'"),
    # an application: `mk_` needs a type name, `is_T` takes one operand, `is_` an operand and a type
    ("values\n  v = mk_(1);", "<string>:4:7: record constructor needs a type name"),
    ("values\n  v = mk_R(1 2);", "<string>:4:14: expected ')', found nat '2'"),
    ("values\n  v = is_R();", "<string>:4:12: expected an expression, found ')'"),
    ("values\n  v = is_R(1, 2);", "<string>:4:13: expected ')', found ','"),
    ("values\n  v = is_(1);", "<string>:4:12: expected ',', found ')'"),
    ("values\n  v = is_(1,);", "<string>:4:13: expected a type, found ')'"),
    ("values\n  v = is_(1, nat 2);", "<string>:4:18: expected ')', found nat '2'"),
])
def test_a_stray_token_after_a_definition_is_no_new_definition(section, error):
    with pytest.raises(ParseError) as err:
        parse_source(f"module M\ndefinitions\n{section}\nend M\n")
    assert str(err.value) == error


@pytest.mark.parametrize("section", [
    "values\n  v = 1\n  w = 2\n  [a] = [4]\n  {b} = {5};\n  - = 3",
    "types\n  T = nat\n  U = T\nvalues\n  x = 1",
    "functions\n  f : nat -> nat\n  f(x) == x\n  g : nat -> nat\n  g(y) == y",
])
def test_the_semicolon_after_a_definition_is_optional(section):
    parse_source(f"module M\ndefinitions\n{section}\nend M\n")


def test_a_character_literal_cannot_hold_a_line_break():
    with pytest.raises(ParseError) as err:
        parse_source("module M\ndefinitions\nvalues\n  x = '\n'; y = 1 + ;\nend M\n")
    assert str(err.value) == "<string>:4:7: malformed character literal"


def _locs(tokens):
    return [(t.text, t.line, t.col) for t in tokens]


def test_lex_counts_columns_after_crlf_line_ends():
    toks, comments = lex("module M\r\n  x -- note\r\nend M\r\n")
    assert _locs(toks) == [("module", 1, 1), ("M", 1, 8), ("x", 2, 3), ("end", 3, 1),
                           ("M", 3, 5), ("", 4, 1)]
    assert [(c.text, c.line, c.col) for c in comments] == [("-- note", 2, 5)]


@pytest.mark.parametrize("text, line, col", [("", 1, 1), ("a  ", 1, 4), ("a  \n  ", 2, 3),
                                             ("a\n\n", 3, 1), ("a\t\r\n \t", 2, 3)])
def test_end_of_input_is_located_after_trailing_white_space(text, line, col):
    eof = lex(text, "E.vdmsl")[0][-1]
    assert (eof.kind, eof.off, eof.line, eof.col, eof.file) == ("eof", len(text), line, col, "E.vdmsl")


@contextmanager
def _within(seconds):
    def expire(signum, frame):
        raise TimeoutError(f"took over {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_lexing_long_white_space_runs_is_linear():
    # A token pattern that can fail after its leading white space backtracks
    # through it and is retried at each later offset, which is quadratic:
    # such a lexer took seconds on 8000 line breaks.  The character loop
    # this lexer replaced passes this test too.
    n = 100_000
    with _within(10):
        toks, _ = lex("a" + " " * n)
        assert _locs(toks) == [("a", 1, 1), ("", 1, n + 2)]
        toks, _ = lex("a" + "\n" * n)
        assert _locs(toks) == [("a", 1, 1), ("", n + 1, 1)]
        for bad, message in (("é", "unexpected character 'é'"), ("'", "malformed character literal")):
            with pytest.raises(ParseError) as err:
                lex("x =" + " " * n + bad, "W.vdmsl")
            assert (err.value.message, err.value.at) == (message, Loc(1, n + 4, "W.vdmsl"))


def test_loc_compares_hashes_and_prints_by_value():
    a, b = Loc(3, 7, "M.vdmsl"), Loc(3, 7, "M.vdmsl")
    assert a == b and a is not b and hash(a) == hash(b)
    assert {a: "seen"}[b] == "seen"
    assert a != Loc(3, 7) and a != Loc(3, 8, "M.vdmsl")
    # ordered by line, then column, then file
    locs = [Loc(3, 2, "B"), Loc(3, 2, "A"), Loc(2, 9, "Z"), Loc(3, 1, "Z")]
    assert sorted(locs) == [Loc(2, 9, "Z"), Loc(3, 1, "Z"), Loc(3, 2, "A"), Loc(3, 2, "B")]
    assert Loc(2, 9, "Z") < Loc(3, 1, "A") and not Loc(3, 2, "B") < Loc(3, 2, "A")
    assert repr(a) == "Loc(line=3, col=7, file='M.vdmsl')"
    assert str(a) == "M.vdmsl:3:7" and str(Loc(1, 1)) == "<string>:1:1"

    # a token is its own location: it behaves as the Loc of its place
    for path, text in _corpus_files():
        toks, comments = lex(text, path)
        everything = toks + comments
        for t in everything:
            loc = Loc(t.line, t.col, t.file)
            assert t == loc and loc == t and not t != loc and t <= loc and t >= loc
            assert (hash(t), str(t), repr(t)) == (hash(loc), str(loc), repr(loc))
            assert {loc: "seen"}[t] == "seen"
            for other in ((t.line, t.col, t.file), str(t), t.off, None):
                assert t != other and loc != other
            with pytest.raises(TypeError):
                t < (t.line, t.col, t.file)
        mixed = [t if i % 2 else Loc(t.line, t.col, t.file) for i, t in enumerate(everything)]
        as_locs = [Loc(t.line, t.col, t.file) for t in everything]
        mixed.reverse()
        assert [repr(x) for x in sorted(mixed)] == [repr(x) for x in sorted(as_locs)]
        assert [str(x) for x in sorted(mixed, reverse=True)] == [str(x) for x in sorted(as_locs)[::-1]]


def _located(m):
    """(node, location) for every definition, clause, bind, expression, type
    and pattern of a module, walked through the record slots."""
    found = [(m, m.name_loc)]
    stack = [*m.imports, *m.definitions]
    while stack:
        x = stack.pop()
        if isinstance(x, (tuple, list)):
            stack.extend(x)
        elif isinstance(x, Record):
            for name in x.__slots__:
                if name in ("loc", "name_loc"):
                    found.append((x, getattr(x, name)))
                elif name not in ("span", "doc_comments", "verbatim"):
                    stack.append(getattr(x, name))
    return found


def test_every_syntax_node_keeps_the_token_it_starts_at():
    # no Loc is built while parsing: each node stores the token it has, and
    # that token's location is the one the character-loop lexer gives it
    for path, text in _corpus_files():
        ref_tokens = {off: loc for _, _, loc, off, _ in ref_lex(text, path)[0]}
        for m in parse_source(text, path):
            located = _located(m)
            exprs = {id(e) for d in m.definitions for root in ref_definition_exprs(d)
                     for e in subexpressions(root)}
            assert exprs <= {id(node) for node, _ in located}
            for node, loc in located:
                assert type(loc) is Token, (path, node)
                assert loc == ref_tokens[loc.off], (path, node)
