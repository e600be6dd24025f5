"""Import-order analysis across modules.

Modules are emitted imported-before-importer so the most depended-on module
loads first; ties fall back to the order the modules were given in.  Import
cycles are broken by the same graph kernel as definition cycles: every edge
that closes a cycle in input order is dropped with a warning.
"""

from __future__ import annotations

from dataclasses import dataclass

from .depgraph import DepGraph, Edge, break_cycles, kahn_sort
from .diag import Diagnostic


@dataclass
class ModuleGraph:
    nodes: list  # module names, input order
    edges: list  # (importer, imported) pairs, input order


def build_module_graph(mods: list):
    """Graph of resolvable imports; unresolved ones only produce warnings."""
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
    edges: dict = {}  # (importer, imported) -> None, input order
    for name, m in byname.items():
        for imp in m.imports:
            if imp.module not in byname:
                warnings.append(Diagnostic(
                    "warning", "unresolved-import",
                    f"module {name} imports unknown module {imp.module}",
                    m.name_loc,
                ))
            else:
                edges[(name, imp.module)] = None
    return ModuleGraph(list(byname), list(edges)), warnings


def order_modules(mods: list):
    """Returns (ordered module names, removed (importer, imported) edges,
    warnings)."""
    mg, warnings = build_module_graph(mods)
    first: dict = {}
    for m in mods:
        first.setdefault(m.name, m)
    g = DepGraph(first, (Edge(u, v, first[u].name_loc) for u, v in mg.edges))
    removed: list = []
    for e in break_cycles(g):
        removed.append((e.user, e.used))
        warnings.append(Diagnostic(
            "warning", "import-cycle",
            f"import cycle broken: ignoring import of {e.used} by {e.user}",
            e.at,
        ))
    return kahn_sort(g), removed, warnings
