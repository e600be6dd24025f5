"""Graphviz dot renderings of the dependency graphs.

Both emitters are deterministic: node statements come first, ordered by
declaration location, then edge statements.  Every node carries exactly one
shape; when styling rules overlap the order of precedence is start point,
then synthetic invariant, then terminal, then plain ellipse.
"""

from __future__ import annotations

from collections import Counter

from .defcollect import FlatModule
from .depgraph import DepGraph, start_points
from .reorder import SortReport

# DOT's keywords, in any case, are an ID only when quoted
_DOT_KEYWORDS = frozenset({"node", "edge", "graph", "digraph", "subgraph", "strict"})


def _node_style(node, start: bool, has_out: bool) -> str:
    if start:
        return "shape=invtriangle, color=red"
    if node.synthetic:
        return "shape=doublecircle"
    if not has_out:
        return "shape=triangle"
    return "shape=ellipse"


def _node_ids(nodes: list) -> list:
    """Node ids by position are bare names; a name claimed by both
    namespaces gets a namespace suffix so node statements stay unique."""
    count = Counter(node.name for node in nodes)
    return [node.name if count[node.name] == 1 else f"{node.name}.{node.namespace.value}"
            for node in nodes]


def emit_def_dot(g: DepGraph, report: SortReport | FlatModule) -> str:
    """Definition dependency graph for one module, pre-break view: nodes and
    each node's edges by declaration location, then collection order.  Of
    `report` only the module name is read, which a FlatModule has too."""
    nodes = list(g.nodes.values())
    place = g.places().__getitem__
    starts = {n.key for n in start_points(g)}
    ids = _node_ids(nodes)
    order = sorted(range(len(nodes)), key=place)
    name = report.module_name
    if name.lower() in _DOT_KEYWORDS:
        name = f'"{name}"'
    lines = [f"digraph {name} {{"]
    for i in order:
        node = nodes[i]
        style = _node_style(node, node.key in starts, bool(g.deps[i]))
        lines.append(
            f'    "{ids[i]}" [label="{node.name}\\n(line {node.location.line})", {style}];'
        )
    for i in order:
        lines += [f'    "{ids[i]}" -> "{ids[j]}";' for j in sorted(g.deps[i], key=place)]
    lines.append("}")
    return "\n".join(lines) + "\n"


def emit_module_dot(g: DepGraph) -> str:
    """Import graph across modules, before any cycle breaking."""
    lines = ["digraph modules {"]
    for name in g.nodes:
        lines.append(f'    "{name}";')
    for e in g.edges:
        lines.append(f'    "{e.user}" -> "{e.used}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
