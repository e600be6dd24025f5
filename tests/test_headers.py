"""`parse_headers`, which `order` reads its files with, against `parse_source`:
equal headers wherever the bodies parse, the same located error for a fault
outside the definitions, and no error for a fault inside one."""

import random

import pytest
from conftest import CORPUS
from test_scan import SPELLINGS, _workload_texts

from defsort import cli
from defsort.cli import run
from defsort.diag import ParseError
from defsort.syntax import _scan, parse_headers, parse_source


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
