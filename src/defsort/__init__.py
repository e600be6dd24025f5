"""defsort: declaration-order analysis and rewriting for VDM-SL modules.

The library parses a module subset, flattens definitions into per-name
nodes across the type and function namespaces, builds a dependency graph,
reports uses of names declared later in the module, and can rewrite the
module so every definition precedes its uses.
"""

from .reorder import analyse, sort_module, verify_order
from .syntax import parse_source

__version__ = "0.1.0"

__all__ = ["analyse", "parse_source", "sort_module", "verify_order"]
