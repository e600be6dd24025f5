"""Import-order analysis across modules.

Modules are emitted imported-before-importer so the most depended-on module
loads first; ties fall back to the order the modules were given in.  Import
cycles are broken by the same graph kernel as definition cycles: every edge
that closes a cycle in input order is dropped with a warning.
"""

from __future__ import annotations

from .depgraph import DepGraph, Edge, break_cycles, kahn_sort
from .diag import Diagnostic


def build_module_graph(mods: list):
    """(graph, warnings): each module name's first module, and an edge per
    resolvable import, in input order; unresolved imports only warn."""
    warnings: list = []
    byname: dict = {}
    for m in mods:
        if m.name in byname:
            warnings.append(Diagnostic(
                "warning", "dup-module",
                f"duplicate module {m.name!r}; keeping the first definition",
                m.name_loc,
            ))
            continue
        byname[m.name] = m
    g = DepGraph(byname)
    for name, m in byname.items():
        for imp in m.imports:
            if imp.module not in byname:
                warnings.append(Diagnostic(
                    "warning", "unresolved-import",
                    f"module {name} imports unknown module {imp.module}",
                    m.name_loc,
                ))
            else:  # a repeated import keeps its first edge
                g.add_edge(Edge(name, imp.module, m.name_loc))
    return g, warnings


def order_modules(mods: list):
    """Returns (ordered module names, removed (importer, imported) edges,
    warnings)."""
    g, warnings = build_module_graph(mods)
    removed: list = []
    for e in break_cycles(g):
        removed.append((e.user, e.used))
        warnings.append(Diagnostic(
            "warning", "import-cycle",
            f"import cycle broken: ignoring import of {e.used} by {e.user}",
            e.at,
        ))
    return kahn_sort(g), removed, warnings
