"""defsort: declaration-order analysis and rewriting for VDM-SL modules.

The library parses a module subset, flattens definitions into per-name
nodes across the type and function namespaces, builds a dependency graph,
reports uses of names declared later in the module, and can rewrite the
module so every definition precedes its uses.
"""

from .defcollect import (
    DefKind,
    DefNode,
    FlatModule,
    Namespace,
    collect,
    pattern_names,
    type_dependency_links,
)
from .depgraph import (
    Cycle,
    DepGraph,
    Edge,
    break_cycles,
    build_graph,
    find_cycles,
    kahn_sort,
    start_points,
)
from .diag import (
    CycleError,
    Diagnostic,
    DuplicateNameError,
    Loc,
    ParseError,
    Span,
    UnknownNameError,
)
from .dotviz import emit_def_dot, emit_module_dot
from .freevars import (
    BoundContext,
    UseSite,
    check_duplicate_binds,
    check_init_cycles,
    check_precondition_calls,
    def_dependencies,
    def_use_sites,
    free_uses,
    init_dependencies,
)
from .modorder import ModuleGraph, build_module_graph, order_modules
from .reorder import (
    ForwardRef,
    SortReport,
    forward_references,
    organised_definitions,
    sort_module,
    verify_order,
)
from .syntax import lex, parse_source, print_module
from .cli import ToolConfig, load_properties, run

__version__ = "0.1.0"

__all__ = [
    "BoundContext",
    "Cycle",
    "CycleError",
    "DefKind",
    "DefNode",
    "DepGraph",
    "Diagnostic",
    "DuplicateNameError",
    "Edge",
    "FlatModule",
    "ForwardRef",
    "Loc",
    "ModuleGraph",
    "Namespace",
    "ParseError",
    "SortReport",
    "Span",
    "ToolConfig",
    "UnknownNameError",
    "UseSite",
    "break_cycles",
    "build_graph",
    "build_module_graph",
    "check_duplicate_binds",
    "check_init_cycles",
    "check_precondition_calls",
    "collect",
    "def_dependencies",
    "def_use_sites",
    "emit_def_dot",
    "emit_module_dot",
    "find_cycles",
    "forward_references",
    "free_uses",
    "init_dependencies",
    "kahn_sort",
    "lex",
    "load_properties",
    "order_modules",
    "organised_definitions",
    "parse_source",
    "pattern_names",
    "print_module",
    "run",
    "sort_module",
    "start_points",
    "type_dependency_links",
    "verify_order",
]
