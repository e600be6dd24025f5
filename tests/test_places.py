"""Locations order and label by one key, `Location.place` (`line << 32 | col`):
the parser's tokens that flattened nodes keep, against the text they came
from, tokens read from four threads at once, and modules whose locations
are `Loc`s against their parsed twins."""

import dataclasses
import random
import re
import sys
import threading

from conftest import CORPUS
from test_scan import _workload_texts

from defsort import cli
from defsort.defcollect import collect
from defsort.depgraph import build_graph, start_points
from defsort.diag import Loc, Location, ParseError, Record
from defsort.dotviz import emit_def_dot
from defsort.reorder import analyse
from defsort.syntax import Token, lex, parse_headers, parse_source


def _inputs():
    """(file name, text): each corpus file, and each workload file at seeds 1 and 401."""
    texts = [(path.name, path.read_text()) for path in sorted(CORPUS.glob("*.vdmsl"))]
    for seed in (1, 401):
        texts += [(f"{seed}/{name}", text) for name, text in _workload_texts(seed)]
    return texts


INPUTS = _inputs()


def _parsed(name, text):
    try:
        return parse_source(text, name)
    except ParseError:
        return []


def _counted(text, offsets):
    """{offset: (line, column)} for each of `offsets`, counted from the text
    alone, each line break once."""
    line, last, found = 1, 0, {}
    for off in sorted(set(offsets)):
        line += text.count("\n", last, off)
        last = off
        found[off] = line, off - text.rfind("\n", 0, off)
    return found


def test_every_node_keeps_the_token_of_its_site_and_it_locates_as_the_text_does():
    nodes = 0
    for name, text in INPUTS:
        for m in _parsed(name, text):
            fm = collect(m)
            counted = _counted(text, [n.location.off for n in fm.nodes])
            for node in fm.nodes:
                at = node.location
                assert type(at) is Token, node  # the parser's own token, not a copy
                assert (at.line, at.col, at.file) == (*counted[at.off], name), node
                nodes += 1
    assert nodes > 3000


def test_graph_places_and_dot_labels_read_each_node_line_and_column():
    graphs = 0
    for name, text in INPUTS:
        for m in _parsed(name, text):
            fm = collect(m)
            g = build_graph(fm)
            counted = _counted(text, [n.location.off for n in fm.nodes])
            located = [counted[n.location.off] for n in g.nodes.values()]
            assert g.places() == [line << 32 | col for line, col in located]
            labels = re.findall(r'\[label="([^"\\]*)\\n\(line (\d+)\)"', emit_def_dot(g, fm))
            assert sorted(labels) == sorted((n.name, str(line))
                                            for n, (line, _) in zip(g.nodes.values(), located))
            graphs += 1
    assert graphs > 50


def _header_tokens(name, text):
    try:
        modules = parse_headers(text, name)
    except (ParseError, ValueError):
        return []
    return [t for m in modules for t in (m.name_loc, *(imp.loc for imp in m.imports))]


def test_a_token_place_is_that_of_a_loc_of_its_line_and_column():
    tokens = 0
    for name, text in INPUTS:
        for text in (text, text.replace("\n", "\r\n")):
            try:
                scanned, comments = lex(text, name)
            except ParseError:
                scanned, comments = [], []
            read = [*scanned, *comments, *_header_tokens(name, text)]
            counted = _counted(text, [t.off for t in read])
            for t in read:
                assert t.place == Loc(t.line, t.col, t.file).place == Loc(*counted[t.off], name).place
                tokens += 1
    assert tokens > 100_000


def _read_from_four_threads(text, tokens, reads):
    """How many reads of a token of `text` give a (line, column) other
    than the counted one, each of four threads reading `reads` tokens at
    random while the interpreter switches threads every microsecond."""
    right = []  # whether each read was right

    def read(seed):
        right.extend((t.line, t.col) == counted[t.off] for t in random.Random(seed).choices(tokens, k=reads))

    counted = _counted(text, [t.off for t in tokens])
    threads = [threading.Thread(target=read, args=(seed,)) for seed in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(right) == 4 * reads
    return right.count(False)


def _web():
    return next(text for name, text in _workload_texts(23) if name == "sorted-tree/web.vdmsl")


def test_header_read_tokens_read_from_four_threads_at_once_locate_as_the_text_does():
    text = _web()
    tokens = _header_tokens("web.vdmsl", text)
    assert len(tokens) > 1500
    assert _read_from_four_threads(text, tokens, 10_000) == 0


def test_full_scan_tokens_read_from_four_threads_at_once_locate_as_the_text_does():
    text = _web()
    scanned, comments = lex(text, "web.vdmsl")
    assert _read_from_four_threads(text, scanned + comments, 10_000) == 0


def _with_locs(x):
    """`x` with each location in it replaced by a `Loc` of the same place."""
    if isinstance(x, Location):
        return Loc(x.line, x.col, x.file)
    if isinstance(x, Record):
        return type(x)(*(_with_locs(getattr(x, f)) for f in type(x).__slots__ if not f.startswith("_")))
    if isinstance(x, (tuple, list)):
        return type(x)(map(_with_locs, x))
    return x


def _twin(m, relocated):
    """`m` built again with the definitions that `relocated` picks by index
    holding `Loc`s where the parser put tokens."""
    defs = tuple(_with_locs(d) if relocated(di) else d for di, d in enumerate(m.definitions))
    return dataclasses.replace(m, definitions=defs, name_loc=_with_locs(m.name_loc))


def _views(m):
    """What the commands print of one module that reads its locations."""
    fm = collect(m)
    g = build_graph(fm)
    a = analyse(m)
    return (g.places(), [n.name for n in start_points(g)], emit_def_dot(g, fm),
            [(e.user, e.used, str(e.at)) for e in g.edges],
            [str(d) for d in cli._module_diagnostics(m, fm)],
            cli._trace_lines(a.report), cli._cut_warnings(a.report))


def test_a_module_built_with_loc_locations_orders_and_labels_as_its_parsed_twin():
    mixed = 0
    for name, text in INPUTS:
        for m in _parsed(name, text):
            parsed = _views(m)
            for relocated in (lambda di: True, lambda di: di % 2 == 0, lambda di: di % 2 == 1):
                twin = _twin(m, relocated)
                kinds = {type(n.location) for n in collect(twin).nodes}
                assert (Loc in kinds) == any(map(relocated, range(len(m.definitions))))
                mixed += kinds == {Loc, Token}
                assert _views(twin) == parsed, name
    assert mixed > 50
