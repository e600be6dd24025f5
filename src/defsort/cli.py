"""Command-line front end: sort, check, order and dot commands.

All behaviour lives in the library modules; this file only dispatches,
resolves configuration (defaults, then a properties file, then DEFSORT_*
environment variables, then flags) and formats the trace output.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from functools import partial

from .defcollect import collect
from .depgraph import build_graph
from .diag import Diagnostic, Loc, ParseError, Record
from .dotviz import emit_def_dot, emit_module_dot
from .freevars import check_bodies, check_init_cycles
from .modorder import build_module_graph, order_modules
from .nodes import ImportRef, SourceModule
from .reorder import analyse
from .syntax import parse_headers, parse_source, print_module

BANNER = "Calling Exu VDM analyser..."

DEFAULT_PROPERTIES_FILE = "./defsort.properties"

DEFAULTS = {
    "output.dir": "./.generated/sorted",
    "dot.dir": ".",
    "dot.enabled": "false",
    "debug": "false",
    "check": "false",
}


class _OutputError(Exception):
    """An output file could not be written; the message names the file."""


# each stops its file, and is reported by its message
_ERRORS = (ParseError, _OutputError)


def _report(exc: Exception, path: str) -> int:
    """Print the error line for an exception that stopped `path`; returns 1.

    An unreadable file gives its reason; any other exception is a fault of
    defsort's, reported as an internal error so the remaining files still run."""
    if isinstance(exc, _ERRORS):
        print(str(exc), file=sys.stderr)
    elif isinstance(exc, (OSError, UnicodeDecodeError)):
        print(f"{path}: error: {getattr(exc, 'strerror', None) or exc}", file=sys.stderr)
    else:
        print(f"{path}: error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
    return 1


class ToolConfig(Record):
    __slots__ = ("output_dir", "dot_dir", "dot_enabled", "debug", "check_only")


def load_properties(path: str):
    """Parse a key=value properties file into (map, warnings).

    `#` starts a comment, blank lines are skipped, a later key overrides an
    earlier one, and a line without `=` is skipped with a warning.
    """
    props: dict = {}
    warnings: list = []
    if not os.path.exists(path):
        return props, warnings
    with open(path, encoding="utf-8-sig") as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                warnings.append(Diagnostic(
                    "warning", "bad-property",
                    f"malformed property line {line!r}", Loc(lineno, 1, path),
                ))
                continue
            key, _, value = line.partition("=")
            props[key.strip()] = value.strip()
    return props, warnings


def _truthy(value) -> bool:
    return str(value).strip().lower() in ("1", "true", "yes", "on")


def resolve_config(args):
    """Defaults < properties file < DEFSORT_* environment < flags."""
    props = dict(DEFAULTS)
    path = args.properties or DEFAULT_PROPERTIES_FILE
    file_props, warnings = load_properties(path)
    props.update(file_props)
    for key, value in os.environ.items():
        if key.startswith("DEFSORT_"):
            props[key[len("DEFSORT_"):].lower().replace("_", ".")] = value
    # a flag its command does not take is absent from `args`
    if getattr(args, "output", None):
        props["output.dir"] = args.output
    if getattr(args, "dot", None):
        props["dot.dir"] = args.dot
        props["dot.enabled"] = "true"
    if args.debug:
        props["debug"] = "true"
    if getattr(args, "check", False):
        props["check"] = "true"
    cfg = ToolConfig(
        output_dir=props["output.dir"],
        dot_dir=props["dot.dir"],
        dot_enabled=_truthy(props["dot.enabled"]),
        debug=_truthy(props["debug"]),
        check_only=_truthy(props["check"]),
    )
    return cfg, warnings


def _write_atomic(path: str, text: str):
    """Write through a fresh temporary file in the target's directory, so
    concurrent runs never share one and readers never see half a file."""
    parent = os.path.dirname(path) or "."
    os.makedirs(parent, exist_ok=True)
    tmp = f"{path}.{os.getpid()}.{os.urandom(6).hex()}.tmp"
    # the kernel applies the umask, so the file gets the mode open() would give
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _write(path: str, text: str, written: dict, source: str):
    """_write_atomic, with a failure raised as an error line naming `path`;
    `written` maps each path the run wrote to its input, as none is written twice."""
    key = os.path.abspath(path)
    if key in written:
        raise _OutputError(f"{path}: error: already written in this run, for {written[key]}")
    try:
        _write_atomic(path, text)
    except OSError as exc:
        raise _OutputError(f"{path}: error: {exc.strerror or exc}") from None
    written[key] = source


def _read(path: str) -> str:
    with open(path, encoding="utf-8-sig") as f:  # a byte-order mark is not text
        return f.read()


def _run_file(path: str, handle, parse) -> int:
    """Parse one file by `parse`, hand its modules to `handle(path, mods)`; returns
    its error count.  Any error stops the file: the one place one is caught.  The
    text is freed once parsed, and the trees and analyses on return."""
    try:
        return handle(path, parse(_read(path), path))
    except Exception as exc:
        return _report(exc, path)


def _run_files(paths, handle, parse=None) -> int:
    """1 when any of `paths`, handled in the order given, had an error, else 0."""
    return 1 if sum(_run_file(path, handle, parse or parse_source) for path in paths) else 0


def _header(m) -> SourceModule:
    """What `order` and `dot` keep of a module across files: its name, the
    names it imports and its name location, as a `Loc` that holds no token."""
    imports = tuple(ImportRef(imp.module, None) for imp in m.imports)
    at = Loc(m.name_loc.line, m.name_loc.col, m.file)
    return SourceModule(m.name, m.exports_all, imports, (), m.file, at)


def _emit_module_dot_file(cfg: ToolConfig, fm, g, written: dict, source: str) -> str:
    """Write the definition graph `g` of the module `fm`; returns the file path."""
    path = os.path.join(cfg.dot_dir, f"{fm.module_name}.dot")
    _write(path, emit_def_dot(g, fm), written, source)
    return path


def _status_line(report) -> str:
    if report.sorted:
        return f"Exu successfully sorted module {report.module_name} definitions"
    return f"Exu module {report.module_name} definitions already sorted"


def _trace_lines(report, dot_path=None) -> list:
    lines = [f"Calculating declaration dependencies for module `{report.module_name}`..."]
    if dot_path is not None:
        lines.append(f"Printed dependencies for module {report.module_name}.dot at {dot_path}")
    for ref in report.forward_refs:
        lines.append(ref.message)
    n = len(report.forward_refs)
    if report.sorted:
        lines.append(f"Found {n} definition use before declaration. Topological sorted required.")
        for label, names in (
            ("Original names", report.original_names),
            ("Start points", report.start_points),
            ("Sorted names", report.sorted_names),
            ("Organised names", report.organised_names),
        ):
            lines.append(f"{label:<15}: {', '.join(names)}")
    else:
        lines.append(f"Found {n} definition use before declaration. Topological sort not required.")
    lines.append(_status_line(report))
    return lines


def _cut_warnings(report) -> list:
    """One warning per definition edge the sort cut, at its use."""
    return [str(Diagnostic("warning", "cycle-cut", "definition cycle broken: "
                           f"ignoring use of {e.used_name} by {e.user_name}", e.at))
            for e in report.removed_edges]


def _sort_file(cfg: ToolConfig, written: dict, path: str, mods) -> int:
    out: list = []  # each module as it is written, printed only if the file is
    any_sorted = False
    for m in mods:
        a = analyse(m)
        dot_path = None
        if cfg.dot_enabled:
            dot_path = _emit_module_dot_file(cfg, a.flat, a.graph, written, path)
        if a.report.removed_edges:
            print("\n".join(_cut_warnings(a.report)), file=sys.stderr)
        lines = _trace_lines(a.report, dot_path) if cfg.debug else [_status_line(a.report)]
        print("\n".join(lines))
        any_sorted = any_sorted or a.report.sorted
        out.append(a.rewritten or m)
    if any_sorted and not cfg.check_only:
        text = "\n".join(map(print_module, out))
        _write(os.path.join(cfg.output_dir, os.path.basename(path)), text, written, path)
    return 0


def _cmd_sort(cfg: ToolConfig, paths) -> int:
    return _run_files(paths, partial(_sort_file, cfg, {}))


def _module_diagnostics(m, fm) -> list:
    dups, calls, reads = check_bodies(m, fm)
    diags = dups + check_init_cycles(fm, reads) + calls
    diags.sort(key=lambda d: (d.at.line, d.at.col, d.code))
    return diags


def _check_file(cfg: ToolConfig, path: str, mods) -> int:
    errors = 0
    for m in mods:
        if cfg.debug:
            a = analyse(m)
            fm, lines = a.flat, _trace_lines(a.report)
        else:
            fm, lines = collect(m), []
        diags = _module_diagnostics(m, fm)
        for line in lines + [str(d) for d in diags]:
            print(line)
        errors += sum(1 for d in diags if d.severity == "error")
    return errors


def _cmd_check(cfg: ToolConfig, paths) -> int:
    return _run_files(paths, partial(_check_file, cfg))


def _keep_headers(headers: list, path: str, mods) -> int:
    """`order`'s file handler: keeps each module's header, and finds no error."""
    headers += map(_header, mods)
    return 0


def _cmd_order(cfg: ToolConfig, paths) -> int:
    headers: list = []
    if _run_files(paths, partial(_keep_headers, headers), parse_headers):
        return 1
    try:
        ordered, _, warnings = order_modules(headers)
    except Exception as exc:  # no one file is at fault
        return _report(exc, "defsort")
    sys.stderr.write("".join(f"{w}\n" for w in warnings))
    sys.stdout.write("".join(f"{name}\n" for name in ordered))
    return 0


def _dot_file(cfg: ToolConfig, written: dict, headers: list, path: str, mods) -> int:
    for m in mods:
        fm = collect(m)
        dot_path = _emit_module_dot_file(cfg, fm, build_graph(fm), written, path)
        print(f"Printed dependencies for module {m.name}.dot at {dot_path}")
    return _keep_headers(headers, path, mods)  # a stopped file adds no module to `modules.dot`


def _cmd_dot(cfg: ToolConfig, paths) -> int:
    written: dict = {}
    headers: list = []
    errors = _run_files(paths, partial(_dot_file, cfg, written, headers))
    if headers:
        path = os.path.join(cfg.dot_dir, "modules.dot")
        try:
            mg, warnings = build_module_graph(headers)
            for w in warnings:
                print(str(w), file=sys.stderr)
            _write(path, emit_module_dot(mg), written, "the import graph")
        except Exception as exc:
            return _report(exc, path)
        print(f"Printed module imports at {path}")
    return errors


# every command reads --debug and --properties; these are all the flags
_OPTIONS = {
    "--debug": dict(action="store_true", help="print the analysis trace"),
    "--check": dict(action="store_true", help="analyse only, write no rewritten module"),
    "--output": dict(metavar="DIR", help="directory for rewritten modules"),
    "--dot": dict(metavar="DIR", help="write dot files into DIR"),
    "--properties": dict(metavar="FILE", help="properties file to load"),
}
# each command with its help text and the other flags it reads
_COMMANDS = (
    ("sort", "rewrite modules in dependency order", ("--check", "--output", "--dot")),
    ("check", "report diagnostics without writing anything", ()),
    ("order", "print the inter-module load order", ()),
    ("dot", "write dependency graphs as dot files", ("--dot",)),
)


def _arg_parsers():
    """The top-level parser and each command's own parser, by name."""
    ap = argparse.ArgumentParser(
        prog="defsort",
        description="Analyse and rewrite VDM-SL modules so definitions precede their uses.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, text, flags in _COMMANDS:
        p = sub.add_parser(name, help=text)
        p.add_argument("files", nargs="+", help="input .vdmsl files")
        for flag in ("--debug", *flags, "--properties"):
            p.add_argument(flag, **_OPTIONS[flag])
    return ap, sub.choices


def build_arg_parser() -> argparse.ArgumentParser:
    """Each command accepts only the flags it reads, so any other is a usage error."""
    return _arg_parsers()[0]


def run(argv=None) -> int:
    ap, commands = _arg_parsers()
    args, extra = ap.parse_known_args(argv)
    if extra:
        flags = [a for a in extra if a.startswith("-")]
        if flags:  # show the usage of the command, which lists the flags it reads
            commands[args.command].error(f"unrecognized arguments: {' '.join(flags)}")
        ap.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        cfg, warnings = resolve_config(args)
    except (OSError, UnicodeDecodeError) as exc:  # an unreadable properties file
        _report(exc, args.properties or DEFAULT_PROPERTIES_FILE)
        return 2
    for w in warnings:
        print(str(w), file=sys.stderr)
    if cfg.debug:
        print(BANNER)
    command = {
        "sort": _cmd_sort,
        "check": _cmd_check,
        "order": _cmd_order,
        "dot": _cmd_dot,
    }[args.command]
    # what a command builds lives until it returns and holds no cycles, so the
    # cyclic collector would only walk a growing heap; the library leaves it be
    collecting = gc.isenabled()
    gc.disable()
    try:
        return command(cfg, args.files)
    finally:
        if collecting:
            gc.enable()


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
