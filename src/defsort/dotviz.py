"""Graphviz dot renderings of the dependency graphs.

Both emitters are deterministic: node statements come first, ordered by
declaration location, then edge statements.  Every node carries exactly one
shape; when styling rules overlap the order of precedence is start point,
then synthetic invariant, then terminal, then plain ellipse.
"""

from __future__ import annotations

from .depgraph import DepGraph, start_points
from .reorder import SortReport


def _node_style(node, starts: set, has_out: set) -> str:
    if node.key in starts:
        return "shape=invtriangle, color=red"
    if node.synthetic:
        return "shape=doublecircle"
    if node.key not in has_out:
        return "shape=triangle"
    return "shape=ellipse"


def _node_ids(g: DepGraph) -> dict:
    """Node ids are bare names; a name claimed by both namespaces gets a
    namespace suffix so node statements stay unique."""
    count: dict = {}
    for node in g.nodes.values():
        count[node.name] = count.get(node.name, 0) + 1
    return {
        key: node.name if count[node.name] == 1 else f"{node.name}.{node.namespace.value}"
        for key, node in g.nodes.items()
    }


def emit_def_dot(g: DepGraph, report: SortReport) -> str:
    """Definition dependency graph for one module, pre-break view."""
    starts = {n.key for n in start_points(g)}
    has_out = {e.user for e in g.edges}
    ids = _node_ids(g)
    lines = [f"digraph {report.module_name} {{"]
    order = sorted(g.nodes.values(),
                   key=lambda n: (n.location.line, n.location.col, n.index))
    for node in order:
        style = _node_style(node, starts, has_out)
        lines.append(
            f'    "{ids[node.key]}" [label="{node.name}\\n(line {node.location.line})", {style}];'
        )
    def edge_key(e):
        u, v = g.nodes[e.user], g.nodes[e.used]
        return (u.location.line, u.location.col, u.index,
                v.location.line, v.location.col, v.index)
    for e in sorted(g.edges, key=edge_key):
        lines.append(f'    "{ids[e.user]}" -> "{ids[e.used]}";')
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
