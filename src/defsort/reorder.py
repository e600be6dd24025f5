"""Use-before-declaration detection and module rewriting.

A module is rewritten only when it contains a forward reference that is not
part of a dependency cycle; cyclic definitions can never all precede each
other, so edges inside a strongly connected component are exempt both from
reporting and from the decision to sort.  This also keeps the rewrite
idempotent: a sorted module reports nothing and is returned untouched.
"""

from __future__ import annotations

from dataclasses import replace
from operator import itemgetter

from . import nodes as N
from .defcollect import FlatModule, Namespace, collect
from .depgraph import DepGraph, build_graph, kahn_sort, search, start_points
from .diag import Record
from .syntax import parse_source, print_module


class ForwardRef(Record):
    """A definition that uses a name declared only further down the module:
    `user` is the DefNode charged with the early use, `used` the DefNode
    declared later."""

    __slots__ = ("user", "used", "module")

    @property
    def message(self) -> str:
        if self.used.namespace is Namespace.TYPE:
            return f"{self.module}`{self.used.name} declared after {self.user.name}"
        return f"{self.used.name} declared after {self.user.name}"


def forward_references(fm: FlatModule, g: DepGraph, labels: list | None = None) -> list:
    """Every reportable use of a name declared later in the module.

    All forward type uses of a node are reported; of its forward function
    uses only the earliest-declared one is, which is how a reader would be
    pointed at the first blocking definition.  A clause's finding is also
    charged to the definition it belongs to.  Findings are deduplicated by
    (charged name, used definition) and returned in presentation order:
    type-space findings first, then by the charged definition's position.
    `labels` are `g`'s component numbers by position (`search`), found when
    omitted.
    """
    if labels is None:
        labels = search(g)[0]
    nodes = list(g.nodes.values())
    place = g.places()
    seen: set = set()
    found: list = []  # (presentation order, ForwardRef)

    def emit(i, j):
        user, used = nodes[i], nodes[j]
        charge = (user.name, j)
        if charge in seen:
            return
        seen.add(charge)
        order = (used.namespace is not Namespace.TYPE, place[i], user.owner is not None, -place[j])
        found.append((order, ForwardRef(user, used, fm.module_name)))

    def emit_with_attribution(i, j):
        emit(i, j)
        owner = nodes[i].owner
        if owner is not None and place[j] > place[g.pos[owner.key]]:
            emit(g.pos[owner.key], j)

    for i, node in enumerate(nodes):
        label, at, def_index = labels[i], place[i], node.def_index
        first = None  # the earliest-declared forward function use
        for j in g.deps[i]:
            if labels[j] == label or place[j] <= at or nodes[j].def_index == def_index:
                continue
            if nodes[j].namespace is Namespace.TYPE:
                emit_with_attribution(i, j)
            elif first is None or place[j] < place[first]:
                first = j
        if first is not None:
            emit_with_attribution(i, first)
    found.sort(key=itemgetter(0))
    return [ref for _, ref in found]


class SortReport(Record):
    __slots__ = ("module_name", "original_names", "start_points", "sorted_names",
                 "organised_names", "forward_refs", "removed_edges", "sorted")


def organised_definitions(fm: FlatModule, order: list, g: DepGraph):
    """Project a node order back onto user definitions.

    Clause and synthetic nodes drop out; a definition binding several names
    moves once, to the position of its earliest sorted name.  Definitions
    that bind no name (`- = e`) have no node; they follow the sorted ones in
    source order, after everything they can use.
    """
    nodes = [g.nodes[k] for k in order if g.nodes[k].owner is None]
    names = [n.name for n in nodes]
    placed = dict.fromkeys(n.def_index for n in nodes)
    nameless = [i for i in range(len(fm.source.definitions)) if i not in placed]
    return names, [fm.source.definitions[i] for i in [*placed, *nameless]]


class Analysis(Record):
    """Everything the commands need to know about one module: its `graph`
    is from before any cycle is broken, and `rewritten` is the module with
    its definitions in the new order, or None when no rewrite is needed."""

    __slots__ = ("flat", "graph", "report", "rewritten")

    @property
    def text(self):
        """The rewritten module's text, printed when read, or None."""
        return None if self.rewritten is None else print_module(self.rewritten)


def analyse(m: N.SourceModule) -> Analysis:
    """Collect, graph and report one module, and reorder it if needed.

    One search of the graph gives both its components, which exempt
    cyclic uses from the forward references, and its back edges.  Without
    forward references there is nothing to rewrite.  Otherwise the back
    edges are cut, the nodes sorted and the cut edges put back, and the
    definitions are put in the new order; only `Analysis.text` prints them.
    """
    fm = collect(m)
    g = build_graph(fm)
    labels, back = search(g)
    refs = forward_references(fm, g, labels)
    starts = [n.name for n in start_points(g)]
    removed, sorted_names, organised, rewritten = [], [], [], None
    if refs:
        for e in back:
            g.remove_edge(e.user, e.used)
        order = kahn_sort(g)
        for e in back:  # the analysis keeps the graph from before the cuts
            g.add_edge(e)
        removed = back
        sorted_names = [g.nodes[k].name for k in order]
        organised, defs = organised_definitions(fm, order, g)
        rewritten = replace(m, definitions=tuple(defs))
    report = SortReport(fm.module_name, list(fm.original_names), starts,
                        sorted_names, organised, refs, removed, bool(refs))
    return Analysis(fm, g, report, rewritten)


def sort_module(m: N.SourceModule):
    """Analyse one module; returns (module, SortReport).

    Without forward references the input module is handed back untouched.
    Otherwise the rewritten text is parsed again, so the caller gets a
    module with locations that match it.
    """
    a = analyse(m)
    if a.rewritten is None:
        return m, a.report
    return parse_source(a.text, m.file)[0], a.report


def verify_order(m: N.SourceModule) -> bool:
    """True when every definition is declared before its first use."""
    fm = collect(m)
    g = build_graph(fm)
    return not forward_references(fm, g)
