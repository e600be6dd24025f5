"""Use-before-declaration detection and module rewriting.

A module is rewritten only when it contains a forward reference that is not
part of a dependency cycle; cyclic definitions can never all precede each
other, so edges inside a strongly connected component are exempt both from
reporting and from the decision to sort.  This also keeps the rewrite
idempotent: a sorted module reports nothing and is returned untouched.
"""

from __future__ import annotations

from dataclasses import replace

from . import nodes as N
from .defcollect import FlatModule, Namespace, collect
from .depgraph import DepGraph, build_graph, kahn_sort, scc_labels, search, start_points
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


def _declared_after(later, earlier) -> bool:
    a, b = later.location, earlier.location
    return (a.line, a.col) > (b.line, b.col)


def forward_references(fm: FlatModule, g: DepGraph, labels: dict | None = None) -> list:
    """Every reportable use of a name declared later in the module.

    All forward type uses of a node are reported; of its forward function
    uses only the earliest-declared one is, which is how a reader would be
    pointed at the first blocking definition.  A clause's finding is also
    charged to the definition it belongs to.  Findings are deduplicated by
    (charged name, used definition) and returned in presentation order:
    type-space findings first, then by the charged definition's position.
    `labels` are `g`'s component numbers (`scc_labels`), found when omitted.
    """
    if labels is None:
        labels = scc_labels(search(g)[0])
    seen: set = set()
    found: list = []

    def emit(user, used):
        key = (user.name, used.key)
        if key in seen:
            return
        seen.add(key)
        found.append(ForwardRef(user, used, fm.module_name))

    def emit_with_attribution(node, used):
        emit(node, used)
        owner = node.owner
        if owner is not None and _declared_after(used, owner):
            emit(owner, used)

    for node in fm.nodes:
        forward_fns: list = []
        label = labels[node.key]
        for used_key in g.out(node.key):
            if labels[used_key] == label:
                continue
            used = g.nodes[used_key]
            if used.def_index == node.def_index:
                continue
            if not _declared_after(used, node):
                continue
            if used.namespace is Namespace.TYPE:
                emit_with_attribution(node, used)
            else:
                forward_fns.append(used)
        if forward_fns:
            first = min(forward_fns, key=lambda n: (n.location.line, n.location.col))
            emit_with_attribution(node, first)

    def order(ref: ForwardRef):
        return (
            0 if ref.used.namespace is Namespace.TYPE else 1,
            ref.user.location.line,
            ref.user.location.col,
            ref.user.owner is not None,
            -ref.used.location.line,
            -ref.used.location.col,
        )

    found.sort(key=order)
    return found


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
    is from before any cycle is broken, and `text` is the rewritten module,
    or None when no rewrite is needed."""

    __slots__ = ("flat", "graph", "report", "text")


def analyse(m: N.SourceModule) -> Analysis:
    """Collect, graph and report one module, and print its rewrite if needed.

    One search of the graph gives both its components, which exempt
    cyclic uses from the forward references, and its back edges.  Without
    forward references there is nothing to rewrite.  Otherwise the back
    edges are cut and the nodes sorted on a copy of the graph, and the
    definitions are printed in the new order.
    """
    fm = collect(m)
    g = build_graph(fm)
    sccs, back = search(g)
    refs = forward_references(fm, g, scc_labels(sccs))
    starts = [n.name for n in start_points(g)]
    removed, sorted_names, organised, text = [], [], [], None
    if refs:
        cut = DepGraph(g.nodes, g.edges)
        for e in back:
            cut.remove_edge(e.user, e.used)
        removed = back
        order = kahn_sort(cut)
        sorted_names = [g.nodes[k].name for k in order]
        organised, defs = organised_definitions(fm, order, cut)
        text = print_module(replace(m, definitions=tuple(defs)))
    report = SortReport(fm.module_name, list(fm.original_names), starts,
                        sorted_names, organised, refs, removed, bool(refs))
    return Analysis(fm, g, report, text)


def sort_module(m: N.SourceModule):
    """Analyse one module; returns (module, SortReport).

    Without forward references the input module is handed back untouched.
    Otherwise the rewritten text is parsed again, so the caller gets a
    module with locations that match it.
    """
    a = analyse(m)
    if a.text is None:
        return m, a.report
    return parse_source(a.text, m.file)[0], a.report


def verify_order(m: N.SourceModule) -> bool:
    """True when every definition is declared before its first use."""
    fm = collect(m)
    g = build_graph(fm)
    return not forward_references(fm, g)
