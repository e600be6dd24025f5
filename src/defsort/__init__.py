"""defsort: declaration-order analysis and rewriting for VDM-SL modules.

The library parses a module subset, flattens definitions into per-name
nodes across the type and function namespaces, builds a dependency graph,
reports uses of names declared later in the module, and can rewrite the
module so every definition precedes its uses.

The four public names resolve on first use (PEP 562): `import defsort`
loads no stage, and reading `sort_module`, say, imports `defsort.reorder`
and what it needs.
"""

__version__ = "0.1.0"

__all__ = ["analyse", "parse_source", "sort_module", "verify_order"]


def _import_on_first_read(namespace: dict, homes: dict):
    """A module `__getattr__` (PEP 562) for the module whose globals are
    `namespace`: it imports each name of `homes` from the sibling module
    `homes[name]` on its first read and keeps it in `namespace`, so later
    reads, or a replacement a caller sets, are plain globals."""

    def __getattr__(name: str):
        module = homes.get(name)
        if module is None:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        value = namespace[name] = getattr(__import__(module, namespace, level=1, fromlist=(name,)), name)
        return value

    return __getattr__


__getattr__ = _import_on_first_read(globals(), {
    "analyse": "reorder", "parse_source": "syntax", "sort_module": "reorder", "verify_order": "reorder",
})


def __dir__():
    """The module's globals and the public names, read or not."""
    return sorted({*globals(), *__all__})
