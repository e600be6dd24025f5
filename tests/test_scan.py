"""The whole-text scan against the character-loop lexer, its tags against
the lookups that made them before, and the tokens the parser builds on
demand against the tokens `lex` returns."""

import ast
import dataclasses
import importlib
import importlib.util
import pathlib
import random
import re
import sys

import pytest
from test_syntax_reference import CORPUS, lex_both, module_text, parse_both

from defsort.diag import ParseError, Record
from defsort.syntax import _FIRST, _TAG, _TOKEN, BAD, EOF, NAT, REAL, Token, _scan, lex, parse_source

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


# the loop parser tells `in set` and `not in set` by token tags, and the
# reference by token kinds, so a quote named like a keyword is no keyword
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


def _workload_texts(seed=401):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    workloads = sys.modules.setdefault(spec.name, importlib.util.module_from_spec(spec))
    spec.loader.exec_module(workloads)  # its dataclasses look their module up by name
    for name in ("chain-rev", "mutual-cycles", "sorted-tree"):
        for file, text in workloads.generate(name, seed).files.items():
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


# ── the scan's tag table ──────────────────────────────────────────────────


def _formula_tag(word):
    """A token's tag as three lookups per token gave it: its spelling's own,
    else the label of its first character; a number with a dot is a real."""
    tag = _TAG.get(word, _FIRST.get(word[0], BAD))
    return REAL if tag == NAT and "." in word else tag


def _scan_tags(text, path):
    """(the scan's words, its tags) without the end of input, which is checked."""
    texts, tags, _, _ = _scan(text, path)
    assert (texts[-1], tags[-1]) == ("", EOF), path
    return texts[:-1], tags[:-1]


# spellings a token may be replaced by: one of each kind, reals, and words
# that begin no token, one of them the quote mark that opens no literal
SPELLINGS = ["x", "mk_R", "is_", "in", "set", "not", "nat1", "42", "4.5", "0.25", "'c'",
             "<Q>", "|->", "<=>", "::", "-", "<", ".", "'", "!", "é", "_"]


def _mutated_texts():
    """Each corpus text with one of its tokens replaced, five times over."""
    rng = random.Random(20)
    for k, text in enumerate(CORPUS):
        texts, _, ends, _ = _scan(text, "m")
        for _ in range(5):
            i = rng.randrange(len(texts) - 1)
            word = rng.choice(SPELLINGS)
            yield f"mutated/{k}", f"{text[:ends[i] - len(texts[i])]} {word} {text[ends[i]:]}"


def test_the_scan_tags_every_token_as_the_three_lookups_did():
    inputs = [(f"corpus/{i}", text) for i, text in enumerate(CORPUS)]
    inputs += [*_workload_texts(1), *_workload_texts(401), *_mutated_texts()]
    tagged = set()
    for path, text in inputs:
        try:
            words, tags = _scan_tags(text, path)
        except ParseError as exc:  # a word tagged as beginning no token
            assert _formula_tag(exc.at.text) == BAD, path
            tagged.add(BAD)
            continue
        assert tags == list(map(_formula_tag, words)), path
        tagged.update(tags)
    assert {BAD, NAT, REAL, "#name", "#char", "#quote", "in", "<=>"} <= tagged


def test_no_tag_outlives_its_scan():
    seed = dict(_TAG)
    first = CORPUS[0] + " 1.5 x_9 <Q> 'c'"
    later = dict(_workload_texts(1))["sorted-tree/tree00.vdmsl"]
    fresh = _scan_tags(later, "B")
    _scan_tags(first, "A")
    assert _TAG == seed  # the table a scan starts from gains no spelling
    assert _scan_tags(later, "B") == fresh


# ── patterns every supported Python compiles ──────────────────────────────

SRC = pathlib.Path(__file__).parent.parent / "src" / "defsort"
RE_FUNCTIONS = {"compile", "match", "fullmatch", "search", "findall", "finditer", "split", "sub", "subn"}
# possessive repeats and atomic groups came to `re` in Python 3.11
NEWER_SYNTAX = ("*+", "++", "?+", "}+", "(?>")


def _regex_patterns():
    """(where, pattern) for each regular expression in `src/defsort`: the
    first argument of each `re` call, worked out in its module's namespace
    where it can be, and every string literal in that argument, and each
    compiled pattern a module holds."""
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(f"defsort.{path.stem}")
        for value in vars(module).values():
            if isinstance(value, re.Pattern):
                yield path.name, value.pattern
        for call in ast.walk(ast.parse(path.read_text())):
            if (isinstance(call, ast.Call) and call.args and isinstance(call.func, ast.Attribute)
                    and isinstance(call.func.value, ast.Name) and call.func.value.id == "re"
                    and call.func.attr in RE_FUNCTIONS):
                where = f"{path.name}:{call.lineno}"
                try:
                    yield where, eval(compile(ast.Expression(call.args[0]), path.name, "eval"), vars(module))
                except NameError:  # built from local names
                    pass
                for node in ast.walk(call.args[0]):
                    if isinstance(node, ast.Constant) and isinstance(node.value, str):
                        yield where, node.value


def test_no_pattern_needs_a_newer_python_than_the_package_supports():
    patterns = list(_regex_patterns())
    assert _TOKEN.pattern in {pattern for _, pattern in patterns}
    for where, pattern in patterns:
        assert not [s for s in NEWER_SYNTAX if s in pattern], (where, pattern)
