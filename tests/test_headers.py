"""`parse_headers`, which `order` reads its files with, against `parse_source`:
equal headers wherever the bodies parse, the same located error for a fault
outside the definitions, and no error for a fault inside one."""

import random
from itertools import chain, zip_longest

import pytest
from conftest import CORPUS
from test_places import _counted
from test_scan import SPELLINGS, _workload_texts

from defsort import cli, syntax
from defsort.cli import run
from defsort.diag import ParseError
from defsort.syntax import _TAG, _TOKEN, BAD, _Parser, _scan, _stops, _Tags, lex, parse_headers, parse_source


def _input_sets():
    """(id, {file name: text}): each corpus file alone, all of them at once,
    and each workload at three seeds."""
    corpus = {path.name: path.read_text() for path in sorted(CORPUS.glob("*.vdmsl"))}
    sets = [(name, {name: text}) for name, text in corpus.items()] + [("corpus", corpus)]
    for seed in (1, 23, 401):
        workloads: dict = {}
        for path, text in _workload_texts(seed):
            workload, name = path.split("/")
            workloads.setdefault(workload, {})[name] = text
        sets += [(f"{workload}-{seed}", files) for workload, files in workloads.items()]
    return sets


INPUT_SETS = _input_sets()


def _header(m):
    """What `order` reads of a module."""
    return (m.name, m.exports_all, [(i.module, i.loc.line, i.loc.col, i.loc.file) for i in m.imports],
            (m.name_loc.line, m.name_loc.col, m.name_loc.file), m.file)


def test_the_input_sets_hold_every_corpus_file_and_workload():
    assert len(INPUT_SETS) == 42
    assert "isoheader.vdmsl" in dict(INPUT_SETS)


@pytest.mark.parametrize("files", [files for _, files in INPUT_SETS], ids=[key for key, _ in INPUT_SETS])
def test_the_header_reader_reads_the_headers_parse_source_reads(files):
    for name, text in files.items():
        headers = parse_headers(text, name)
        assert [_header(m) for m in headers] == [_header(m) for m in parse_source(text, name)]
        assert all(m.definitions == () for m in headers)


def _write(tmp_path, files):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    return [str(tmp_path / name) for name in files]


def _order_both(paths, monkeypatch, capsys):
    """(exit code, stdout, stderr) of `order` on `paths`, and of `order` with
    every file read through the full parse."""
    results = []
    for parse in (cli.parse_headers, parse_source):
        monkeypatch.setattr(cli, "parse_headers", parse)
        code = run(["order", *paths])
        results.append((code, *capsys.readouterr()))
    return results


@pytest.mark.parametrize("files", [files for _, files in INPUT_SETS], ids=[key for key, _ in INPUT_SETS])
def test_order_prints_what_the_full_parse_prints(files, tmp_path, monkeypatch, capsys):
    headers, full = _order_both(_write(tmp_path, files), monkeypatch, capsys)
    assert headers == full
    assert headers[0] == 0 and headers[1]


def _module(name, body, header="", end=None):
    return f"module {name}\n{header}definitions\n{body}\nend {end or name}\n"


# a fault inside a definition does not change the load order, so `order`
# reads past it; `check` reports it
BODY_FAULTS = {
    "syntax-error": _module("M", "values\n  x = 1 +;"),
    "duplicate-name": _module("M", "values\n  x = 1;\n  x = 2;"),
    "clause-name": _module("M", "functions\n  f : nat -> nat\n  f(x) == x\n  pre x > 0;\n"
                                "  pre_f : nat -> bool\n  pre_f(x) == true;"),
    "implicit-invariant-name": _module("M", "types\n  T = nat;\nfunctions\n"
                                            "  inv_T : nat -> bool\n  inv_T(x) == x > 0;"),
    "unknown-type": _module("M", "types\n  S = Missing;"),
}


@pytest.mark.parametrize("fault", sorted(BODY_FAULTS))
def test_order_reads_past_a_fault_inside_a_definition(fault, tmp_path, capsys):
    paths = _write(tmp_path, {"m.vdmsl": BODY_FAULTS[fault],
                              "n.vdmsl": _module("N", "values\n  y = 2;", "imports from M all\n")})
    with pytest.raises(ParseError):
        parse_source(BODY_FAULTS[fault], paths[0])
    assert run(["order", *paths]) == 0
    assert capsys.readouterr() == ("M\nN\n", "")
    assert run(["check", *paths]) == 1


# a fault outside the definitions is the full parse's error, at its location
HEADER_FAULTS = {
    "bad-character": _module("M", "values\n  x = 1 ! 2;"),
    "bad-import": _module("M", "values\n  x = 1;", "imports from N,\n"),
    "import-without-all": _module("M", "values\n  x = 1;", "imports from N\n"),
    "end-of-another-module": _module("A", "values\n  x = 1;", end="B"),
    "missing-end": "module M\ndefinitions\nvalues\n  x = 1;\n",
    "missing-end-name": "module M\ndefinitions\nvalues\n  x = 1;\nend\n",
    "token-after-end": _module("M", "values\n  x = 1;") + "x\n",
    "no-definitions": "module M\nvalues\n  x = 1;\nend M\n",
    # the first `end` is the next module's, but the full parse fails first
    "end-missing-before-a-module": "module A\ndefinitions\nvalues\n  x = 1;\n" + _module("B", ""),
    "body-fault-before-a-header-fault": BODY_FAULTS["syntax-error"] + _module("N", "", "imports N all\n"),
}


@pytest.mark.parametrize("fault", sorted(HEADER_FAULTS))
def test_a_fault_outside_the_definitions_is_the_full_parse_error(fault, tmp_path, monkeypatch, capsys):
    paths = _write(tmp_path, {"m.vdmsl": HEADER_FAULTS[fault]})
    with pytest.raises(ParseError) as error:
        parse_source(HEADER_FAULTS[fault], paths[0])
    headers, full = _order_both(paths, monkeypatch, capsys)
    assert headers == full == (1, "", f"{error.value}\n")


# words a token may be replaced by or inserted as, header words included
WORDS = SPELLINGS + ["end", "module", "imports", "exports", "from", "all", "definitions",
                     "values", "functions", "types", "M", ",", ";"]


def _mutated_texts():
    """Each corpus text with one to three tokens deleted, replaced or
    inserted, twenty times over."""
    rng = random.Random(25)
    for path in sorted(CORPUS.glob("*.vdmsl")):
        text = path.read_text()
        texts, _, ends, _ = _scan(text, path.name)
        starts = [end - len(word) for word, end in zip(texts, ends)]
        for _ in range(20):
            cuts = sorted(rng.sample(range(len(texts) - 1), rng.randint(1, 3)))
            out, at = [], 0
            for i in cuts:
                out.append(text[at:starts[i]])
                edit = rng.randrange(3)
                if edit:  # replace, or insert before
                    out.append(f" {rng.choice(WORDS)} ")
                at = ends[i] if edit < 2 else starts[i]
            yield path.name, "".join(out) + text[at:]


def _read(parse, text, name):
    """The headers `parse` reads from `text`, or the text of its ParseError."""
    try:
        return [_header(m) for m in parse(text, name)]
    except ParseError as exc:
        return str(exc)


def test_on_mutated_text_the_header_reader_fails_only_as_the_full_parse_does():
    outcomes = set()
    for name, text in _mutated_texts():
        headers, full = _read(parse_headers, text, name), _read(parse_source, text, name)
        if isinstance(headers, list) and isinstance(full, str):
            outcomes.add("a fault inside a definition")
        else:
            assert headers == full, text
            outcomes.add(type(full).__name__)
    assert outcomes == {"list", "str", "a fault inside a definition"}


# ── the header-read scan against the full scan ────────────────────────────


def _outcome(text, name, bodies):
    """The full scan's header read (`bodies`) or the header-read scan's: the
    headers, or the type and text of the error."""
    try:
        return [_header(m) for m in _Parser(text, name, bodies).parse_file(bodies=False)]
    except (ParseError, ValueError) as exc:  # ValueError: no `end` follows a header
        return type(exc).__name__, str(exc)


def _two(body_a="x = 1;", body_b="y = 2;"):
    return _module("A", "values\n  " + body_a) + _module("B", "values\n  " + body_b, "imports from A all\n")


# where skipping a definitions block could part from tokenizing it: an
# `end` glued to the token before it or inside one, a character that
# begins no token, `definitions` in a body, comments and line ends
SCAN_CASES = {
    "1end": "module M\ndefinitions\nvalues x = 1end M\n",
    "x1.5end": "module M\ndefinitions\nvalues x = x1.5end M\n",
    "<end>": _two("x = <end>;"),
    "<end": "module M\ndefinitions\nvalues x = 1 <end M\n",
    "ending": _two("ending = 1;"),
    "end_x": _two("end_x = 1;"),
    "_end": _two("x = _end;"),
    "'e'": _two("x = 'e';"),
    "letter-past-ascii": _two(body_b="y\u00e9 = 2;"),
    "lone-quote": _two("x = 'ab';"),
    "bad-character-in-the-second-body": _two(body_b="y = 1 ! 2;"),
    "definitions-in-a-body": _two("x = 1; definitions y = 2;"),
    "end-and-definitions-in-comments": "-- end A definitions\nmodule A -- end A\ndefinitions -- end\n"
                                       "values -- definitions end A\n  x = 1; -- end A\nend A -- definitions\n",
    "crlf-and-tabs": _two().replace("\n", "\r\n").replace("  ", "\t"),
}


@pytest.mark.parametrize("case", sorted(SCAN_CASES))
def test_the_header_read_scan_reads_what_the_full_scan_reads(case):
    text = SCAN_CASES[case]
    assert _outcome(text, "m", bodies=False) == _outcome(text, "m", bodies=True)


def test_the_scan_cases_read_as_intended():
    assert parse_headers(SCAN_CASES["1end"])[0].name == "M"
    assert [m.name for m in parse_headers(SCAN_CASES["<end>"])] == ["A", "B"]
    for case in ("_end", "lone-quote", "letter-past-ascii", "bad-character-in-the-second-body"):
        with pytest.raises(ParseError):
            parse_headers(SCAN_CASES[case])


# glued to a token or standing alone: text an edit may insert
INSERTS = ["1end", "<end>", "<end", "_end", "x1.5end", "end", " end ", "definitions", "'", "'e'",
           "!", "\u00e9", "\r\n", "\t", "-- end\n", " M ", "module"]


def _character_mutated_texts():
    """Each corpus text with one to three characters deleted, or snippets
    from `INSERTS` put in at any character, twenty times over."""
    rng = random.Random(29)
    for path in sorted(CORPUS.glob("*.vdmsl")):
        text = path.read_text()
        for _ in range(20):
            out = text
            for at in sorted(rng.sample(range(len(text)), rng.randint(1, 3)), reverse=True):
                cut = rng.randrange(2)
                out = out[:at] + ("" if cut else rng.choice(INSERTS)) + out[at + cut:]
            yield path.name, out


def test_on_every_input_the_header_read_scan_reads_what_the_full_scan_reads():
    inputs = [item for _, files in INPUT_SETS for item in files.items()]
    inputs += [*_mutated_texts(), *_character_mutated_texts()]
    inputs += [(name, text.replace("\n", "\r\n")) for name, text in inputs]
    outcomes = set()
    for name, text in inputs:
        headers = _outcome(text, name, bodies=False)
        assert headers == _outcome(text, name, bodies=True), text
        outcomes.add(headers[0] if isinstance(headers, tuple) else "headers")
    assert outcomes == {"headers", "ParseError", "ValueError"}


def test_the_header_read_scan_leaves_out_every_body_token():
    def tokens(definitions):
        text = _module("M", "values\n" + "".join(f"  x{i} = {i} + 'c';\n" for i in range(definitions)))
        return _scan(text, "m", bodies=False)[0]

    assert tokens(400) == tokens(0) == ["module", "M", "definitions", "end", "M", ""]


# ── the header read's skip against tokenizing ─────────────────────────────


def _reference_skip(text, start, stop):
    """Where the header read's skip from the token boundary `start` stops,
    token by token: the start of the first `definitions`, `end` or
    character that begins no token, else `stop`."""
    tags = _Tags(_TAG)
    for word in _TOKEN.findall(text, start, stop):
        start += len(word)
        word = word.lstrip(" \t\r\n")
        if tags[word] in ("definitions", "end", BAD):
            return start - len(word)
    return stop


def _reference_stops(text, stop):
    """The reference skip from the text's start, and from just past each
    token it stops at, to `stop`: from every start a skip could have."""
    found = [_reference_skip(text, 0, stop)]
    while found[-1] < stop:
        at = found[-1]
        width = 11 if text.startswith("definitions", at) else 3 if text.startswith("end", at) else 1
        found.append(_reference_skip(text, at + width, stop))
    return found


def _header_read_skips(text, monkeypatch):
    """(what `_stops` yields, what the reference skip stops at) on the
    text and bound that a header-read scan of `text` hands `_stops`; what
    `_header_spans` took of it is checked to lead it."""
    handed, taken = [], []

    def spy(blanked, stop):
        handed.append((blanked, stop))
        for at in _stops(blanked, stop):
            taken.append(at)
            yield at

    monkeypatch.setattr(syntax, "_stops", spy)
    try:
        _scan(text, "m", bodies=False)
    except ParseError:
        pass
    monkeypatch.undo()
    assert len(handed) == 1
    found = list(_stops(*handed[0]))
    assert taken == found[:len(taken)]
    return found, _reference_stops(*handed[0])


def test_from_every_start_on_every_input_the_skip_stops_where_tokenizing_does(monkeypatch):
    inputs = [item for _, files in INPUT_SETS for item in files.items()]
    inputs += [*_mutated_texts(), *_character_mutated_texts()]
    inputs += [(name, text.replace("\n", "\r\n")) for name, text in inputs]
    assert len(inputs) == 2760
    for _, text in inputs:
        found, reference = _header_read_skips(text, monkeypatch)
        assert found == reference, text


# snippets where a place a search finds may or may not begin a stop
SKIP_CASES = {
    **{case: _two(f"x = {case};") for case in ("x_1", "1_", "x1_", "_end", "'", "'e'", "1end", "x1.5end",
                                               "1.end", "<end>", "<end", "ending", "end_x", "xdefinitions",
                                               "definitions1", "é", "\f")},
    "end-glued-after-a-letter": _two("x = xend;"),
    "a-literal-past-ascii-then-a-question-mark": _two("x = '\u00e9';", "y = 1 ? 2;"),
    "two-places-on-one-line": _two("x = 'e' + x_1 + 'f'; y = <end>;"),
    "crlf": _two("x = 'e';", "y = x_1;").replace("\n", "\r\n"),
    "no-newline-at-the-end": _two("x = 'e';", "y = 'f';").rstrip("\n"),
    "a-place-on-the-last-line": _two().rstrip("\n") + " 'e'",
}


@pytest.mark.parametrize("case", sorted(SKIP_CASES))
def test_the_skip_stops_where_tokenizing_does(case, monkeypatch):
    text = SKIP_CASES[case]
    found, reference = _header_read_skips(text, monkeypatch)
    assert found == reference
    assert _outcome(text, "m", bodies=False) == _outcome(text, "m", bodies=True)


def test_the_skip_cases_read_as_intended():
    for case in ("'e'", "ending"):  # the skip over module A's body runs on to its `end`
        text = SKIP_CASES[case]
        assert list(_stops(text, len(text)))[1] == text.index("end A")
    for case in ("1end", "x1.5end", "1.end", "<end"):  # the glued `end` ends module A
        assert _outcome(SKIP_CASES[case], "m", bodies=False)[0] == "ParseError"
    for case in ("_end", "1_", "'", "é", "\f", "a-literal-past-ascii-then-a-question-mark"):
        with pytest.raises(ParseError):
            parse_headers(SKIP_CASES[case])
    for case in ("x_1", "x1_", "'e'", "<end>", "ending", "end_x", "xdefinitions", "definitions1", "crlf"):
        assert [m.name for m in parse_headers(SKIP_CASES[case])] == ["A", "B"]


def _guarded_module(definitions):
    """A module whose functions use `mk_T(…)`, `is_T(…)` and `pre_f` names."""
    return _module("M", "types\n  T :: a : nat;\nfunctions\n  f : T -> bool\n  f(t) == t.a > 0\n  pre t.a < 9;\n"
                   + "".join(f"  g{i} : T -> bool\n  g{i}(t) == is_T(mk_T(t.a)) and pre_f(t);\n"
                             for i in range(definitions)))


def test_the_skip_tokenizes_only_the_lines_where_it_stops(monkeypatch):
    handed = []

    class CountingToken:
        def findall(self, text, start, stop):
            handed.append(text[start:stop])
            return _TOKEN.findall(text, start, stop)

    def tokenized(definitions):
        handed.clear()
        monkeypatch.setattr(syntax, "_TOKEN", CountingToken())
        headers = parse_headers(_guarded_module(definitions))
        monkeypatch.undo()
        assert [m.name for m in headers] == ["M"]
        return list(handed)

    parse_source(_guarded_module(400))  # a module that parses
    # the lines the skip tokenizes, each before the span `_scan` tokenizes after it
    assert tokenized(400) == tokenized(0) == ["definitions", "module M\ndefinitions", "end M", "end M"]


# ── the header read's locations, counted out when read ────────────────────


def _in_reverse(modules):
    return [t for tokens in reversed(modules) for t in reversed(tokens)]


def _interleaved(modules):
    """The first token of each module, then the second of each, and so on."""
    return [t for t in chain.from_iterable(zip_longest(*modules)) if t is not None]


def _interleaved_from_the_last(modules):
    return _interleaved(modules[::-1])


def _in_text_order(modules):
    return [t for tokens in modules for t in tokens]


def _located(text, name, bodies, order):
    """(line, column, file) of each module name and import token of the
    header read, in text order, read in the order `order` gives, each
    checked against the line and column counted from the text; or the type
    and text of the read's error, whose location is checked so too."""
    try:
        modules = _Parser(text, name, bodies).parse_file(bodies=False)
    except ValueError as exc:  # no `end` follows a header
        return type(exc).__name__, str(exc)
    except ParseError as exc:
        assert (exc.at.line, exc.at.col) == _counted(text, [exc.at.off])[exc.at.off]
        return type(exc).__name__, str(exc)
    tokens = [[m.name_loc, *(imp.loc for imp in m.imports)] for m in modules]
    at = {id(t): (t.line, t.col, t.file) for t in order(tokens)}
    located = [at[id(t)] for t in _in_text_order(tokens)]
    counted = _counted(text, [t.off for t in _in_text_order(tokens)])
    assert located == [(*counted[t.off], name) for t in _in_text_order(tokens)], order.__name__
    return located


READ_ORDERS = (_in_text_order, _in_reverse, _interleaved, _interleaved_from_the_last)


def _every_input(sets=INPUT_SETS):
    """The files of `sets` and the mutated corpus texts, on LF and on CRLF text."""
    inputs = [item for _, files in sets for item in files.items()]
    inputs += [*_mutated_texts(), *_character_mutated_texts()]
    return inputs + [(name, text.replace("\n", "\r\n")) for name, text in inputs]


def test_on_every_input_the_header_read_locates_its_tokens_in_any_order_as_the_full_scan_does():
    inputs = _every_input()
    assert len(inputs) == 2760
    located = 0
    for name, text in inputs:
        full = _located(text, name, True, _in_text_order)
        for order in READ_ORDERS:
            assert _located(text, name, False, order) == full, (order.__name__, text)
        located += isinstance(full, list) and len(full) > 1
    assert located > 200  # texts with two or more header tokens


def _scanned(text, name, order):
    """(offset, line, column, file, and a comment's end) of every token and
    comment that `lex` returns, in text order, each read in the order
    `order` gives with the tokens grouped by module; None if the text does
    not lex."""
    try:
        tokens, comments = lex(text, name)
    except ParseError:
        return None
    modules = []
    for t in sorted(tokens + comments, key=lambda t: t.off):
        if not modules or t.kind == "kw" and t.text == "module":
            modules.append([])
        modules[-1].append(t)
    at = {id(t): (t.off, t.line, t.col, t.file, t.end if t.kind == "comment" else None) for t in order(modules)}
    return [at[id(t)] for t in _in_text_order(modules)]


def test_on_every_input_the_full_scan_locates_its_tokens_in_any_order_as_the_text_does():
    # the workloads at one seed, as the full scan's tokens are many, and
    # texts that end in a comment with no line break after it
    inputs = _every_input([(key, files) for key, files in INPUT_SETS if not key.endswith(("-23", "-401"))])
    inputs += [(case, text.rstrip("\r\n") + " -- the end") for case, text in LOCATION_CASES.items()]
    scanned = 0
    for name, text in inputs:
        read = [_scanned(text, name, order) for order in READ_ORDERS]
        if read[0] is None:
            continue
        lines = text.split("\n")
        counted = _counted(text, [off for off, *_ in read[0]])
        expected = []
        for off, *_, end in read[0]:
            line, col = counted[off]
            # a comment ends where its line does
            expected.append((off, line, col, name, None if end is None else off - col + 1 + len(lines[line - 1])))
        for order, located in zip(READ_ORDERS, read):
            assert located == expected, (order.__name__, text)
        scanned += 1
    assert scanned > 1000


def _three(header_b="imports from A all\n", between=""):
    return (_module("A", "values\n  x = 1;") + between + _module("B", "values\n  y = 2;", header_b)
            + _module("C", "values\n  z = 3;", "imports from A all, from B all\n"))


# where counting line breaks could part from the full scan's index: long
# runs of comment or blank lines before a header, other line ends, tabs,
# and an error deep in a body
LOCATION_CASES = {
    "a-module-after-1000-comment-lines": "".join(f"-- comment {i}\n" for i in range(1000)) + _three(),
    "a-second-module-after-500-blank-lines": _three(between="\n" * 500),
    "crlf": _three().replace("\n", "\r\n"),
    "tab-indented-headers": _three("\timports\tfrom A all\n").replace("module", "\t\tmodule")
                                                               .replace("end", "\tend"),
    "no-newline-at-the-end": _three().rstrip("\n"),
    "a-bad-character-on-line-503": _module("D", "values\n" + "".join(f"  v{i} = {i};\n" for i in range(499))
                                           + "  w = 1 ! 2;") + _three(),
}


@pytest.mark.parametrize("case", sorted(LOCATION_CASES))
def test_the_header_read_locates_what_the_full_parse_locates(case):
    text = LOCATION_CASES[case]
    full = _located(text, "m", True, _in_text_order)
    for order in READ_ORDERS:
        assert _located(text, "m", False, order) == full, order.__name__
    assert _read(parse_headers, text, "m") == _read(parse_source, text, "m")


def test_the_location_cases_read_as_intended():
    for case in ("a-module-after-1000-comment-lines", "a-second-module-after-500-blank-lines"):
        text = LOCATION_CASES[case]
        lines = [text[:text.index(f"module {name}")].count("\n") + 1 for name in "ABC"]
        assert [m.name_loc.line for m in parse_headers(text)] == lines
    tabbed = parse_headers(LOCATION_CASES["tab-indented-headers"])
    assert [(m.name_loc.line, m.name_loc.col) for m in tabbed] == [(1, 10), (6, 10), (12, 10)]
    with pytest.raises(ParseError) as error:
        parse_headers(LOCATION_CASES["a-bad-character-on-line-503"], "deep.vdmsl")
    assert str(error.value) == "deep.vdmsl:503:9: unexpected character '!'"


def test_a_bad_character_deep_in_a_body_is_reported_by_order_at_the_line_check_reports(tmp_path, capsys):
    paths = _write(tmp_path, {"deep.vdmsl": LOCATION_CASES["a-bad-character-on-line-503"]})
    assert run(["check", *paths]) == 1
    checked = capsys.readouterr()
    assert run(["order", *paths]) == 1
    assert capsys.readouterr() == checked == ("", f"{paths[0]}:503:9: unexpected character '!'\n")


def test_every_scan_counts_line_breaks_only_up_to_the_tokens_it_locates():
    counted = []

    class CountingText(str):
        def count(self, sub, *span):
            start, stop = span
            counted.append(stop - start)
            return str.count(self, sub, *span)

    text = CountingText(_guarded_module(400))
    for parse in (parse_source, parse_headers):
        counted.clear()
        [module] = parse(text)
        assert counted == []  # no location is read while parsing
        assert (module.name_loc.line, module.name_loc.col) == (1, 8)
        assert sum(counted) == len("module ")
