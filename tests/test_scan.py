"""The whole-text scan against the character-loop lexer, and the tokens the
parser builds on demand against the tokens `lex` returns."""

import dataclasses
import importlib.util
import pathlib
import sys

import pytest
from test_syntax_reference import CORPUS, lex_both, module_text, parse_both

from defsort.diag import Record
from defsort.syntax import Token, lex, parse_source

PERFBENCH = pathlib.Path(__file__).parent.parent / "perfbench"

# where whole-text passes could part from a character loop: comments next
# to dashes, quotes next to the marks that start with `<`, numbers with two
# dots, quote marks opening no literal, bad characters, line ends, no text
BOUNDARY_CASES = [
    "'-'--c",
    "a--b",
    "x-- c",
    "x--",
    "'-'-c",
    "<A><<A>",
    "<<A>",
    "<A><",
    "<=<A>",
    "<A><=",
    "<><A>",
    "<A><>",
    "<=><A>",
    "<A><=>",
    "<A>>",
    "<<A>>",
    "<=A>",
    "<A",
    "1.5.2",
    "1.5.2.",
    "1..2",
    "x '",
    "'",
    "'x",
    "'x'y'",
    "-- é\nx",
    "x -- bad é here\ny",
    "x -- note\ny é",
    "-- note\n!",
    "'--'",
    "'-- c\n'a'",
    "module M\r\n  x -- note\r\n  'c' <Q>\r\nend M\r\n",
    "a\r\n\r\n--c\r\n",
    "",
    " ",
    " \t\r\n \n",
    "\n",
]


@pytest.mark.parametrize("text", BOUNDARY_CASES)
def test_lexer_matches_the_character_loop_reference_on_boundary_cases(text):
    new, ref = lex_both(text)
    assert new == ref


# the loop parser tells `in set` and `not in set` by token text, as the
# reference does, and a quote's text drops its brackets
QUOTES_NAMED_LIKE_KEYWORDS = [
    "a in <set> b",
    "a not in <set> b",
    "a not <in> set b",
    "a not <in> <set> b",
    "a in <in> b",
    "{ x | x in <set> s }",
    "exists x in <set> s & x",
]


@pytest.mark.parametrize("body", QUOTES_NAMED_LIKE_KEYWORDS)
def test_parser_matches_the_reference_on_quotes_named_like_keywords(body):
    new, ref = parse_both(module_text(body, "x > 0"))
    assert new == ref


def _workload_texts():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    workloads = sys.modules.setdefault(spec.name, importlib.util.module_from_spec(spec))
    spec.loader.exec_module(workloads)  # its dataclasses look their module up by name
    for name in ("chain-rev", "mutual-cycles", "sorted-tree"):
        for file, text in workloads.generate(name, 401).files.items():
            yield f"{name}/{file}", text


def _reachable_tokens(mods):
    """Every Token a parsed module holds, found through record slots,
    module fields, tuples and lists."""
    found = []
    stack = list(mods)
    while stack:
        x = stack.pop()
        if isinstance(x, Token):
            found.append(x)
        elif isinstance(x, (tuple, list)):
            stack.extend(x)
        elif isinstance(x, Record):
            stack.extend(getattr(x, name) for name in x.__slots__)
        elif dataclasses.is_dataclass(x):
            stack.extend(getattr(x, f.name) for f in dataclasses.fields(x))
    return found


def _fields(t):
    return (t.kind, t.text, t.off, t.end, t.line, t.col, t.file)


def test_parser_builds_the_tokens_lex_returns():
    inputs = [(f"corpus/{i}", text) for i, text in enumerate(CORPUS)] + list(_workload_texts())
    kinds = set()
    for path, text in inputs:
        toks, comments = lex(text, path)
        by_off = {t.off: t for t in toks + comments}
        for t in _reachable_tokens(parse_source(text, path)):
            assert _fields(t) == _fields(by_off[t.off]), path
            kinds.add(t.kind)
    # every kind the parser builds, those whose text drops its delimiters included
    assert {"kw", "punct", "name", "nat", "real", "char", "quote"} <= kinds
