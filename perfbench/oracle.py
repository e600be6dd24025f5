"""Checks of the program's outputs against what the generator expects.

Nothing here imports defsort: every check reads the program's output text
and compares it with answers the generator knows by construction, or with
the small naive reference for module ordering below.  Each check returns a
list of failure messages; an empty list means the output is right.
"""

from __future__ import annotations

import os
import re

_DEF = re.compile(r"^    ([A-Za-z]\w*)\s*(::|:|=)")
_DOC = re.compile(r"^    --@doc (.*)$")
_DIAG = re.compile(r"^(.*):(\d+):(\d+): (warning|error): .* \[([\w-]+)\]$")
_DOT_EDGE = re.compile(r'^    "[^"]+" -> "[^"]+";$')
_DOT_NODE = re.compile(r'^    "[^"]+" \[label=.*\];$')


def scan_definitions(text: str) -> dict:
    """module name -> [(section, name, [doc lines])] in declaration order.

    Reads only the layout the generators write: one definition per
    four-space-indented line that starts with its name, `--@doc` comments
    on the lines just above it.
    """
    modules: dict = {}
    defs = None
    section = None
    docs: list = []
    for line in text.splitlines():
        if line.startswith("module "):
            defs = modules.setdefault(line.split()[1], [])
        elif line in ("types", "values", "functions"):
            section = line
        elif (m := _DOC.match(line)) is not None:
            docs.append(m.group(1))
        elif (m := _DEF.match(line)) is not None and defs is not None:
            defs.append((section, m.group(1), docs))
            docs = []
    return modules


def check_rewrite(spec: dict, defs: list) -> list:
    """A rewritten module keeps every definition and doc comment, matches
    the expected organised order, and puts each definition after what it
    uses."""
    errs = []
    want = sorted((s, n, list(d)) for s, n, d in spec["definitions"])
    got = sorted((s, n, list(d)) for s, n, d in defs)
    if want != got:
        errs.append(f"{spec['name']}: definitions or doc comments not conserved")
    names = [n for _, n, _ in defs]
    if names != spec["organised"]:
        errs.append(f"{spec['name']}: organised order differs from the expected one")
    pos = {n: i for i, n in enumerate(names)}
    for user, used in spec["must_follow"].items():
        late = [u for u in used if pos.get(u, -1) > pos.get(user, -1)]
        if late:
            errs.append(f"{spec['name']}: {user} still precedes {', '.join(late)}")
            break
    return errs


def status_line(module: str, moved: bool) -> str:
    """The line `sort` prints for a module without `--debug`."""
    if moved:
        return f"Exu successfully sorted module {module} definitions"
    return f"Exu module {module} definitions already sorted"


def check_sort(exp: dict, code: int, stdout: str, outputs: dict) -> list:
    """`sort`: one status line per module, a file only where one moved."""
    errs = [] if code == 0 else [f"sort exited {code}"]
    want_status = [status_line(m["name"], m["organised"] is not None) for m in exp["modules"]]
    if stdout.splitlines() != want_status:
        errs.append("sort status lines differ from the expected ones")
    moved = {m["file"] for m in exp["modules"] if m["organised"] is not None}
    if set(outputs) != moved:
        errs.append(f"sort wrote {sorted(outputs)}, expected {sorted(moved)}")
    for m in exp["modules"]:
        if m["file"] in outputs and m["organised"] is not None:
            scanned = scan_definitions(outputs[m["file"]]).get(m["name"], [])
            errs += check_rewrite(m, scanned)
    return errs


def check_dot(exp: dict, dots: dict) -> list:
    """One dot file per module with a node line per node and an edge line
    per pre-break edge."""
    errs = []
    for m in exp["modules"]:
        text = dots.get(f"{m['name']}.dot")
        if text is None:
            errs.append(f"no dot file for {m['name']}")
            continue
        lines = text.splitlines()
        edges = sum(1 for line in lines if _DOT_EDGE.match(line))
        nodes = sum(1 for line in lines if _DOT_NODE.match(line))
        if (edges, nodes) != (m["edges"], m["nodes"]):
            errs.append(f"{m['name']}.dot has {nodes} nodes and {edges} edges, "
                        f"expected {m['nodes']} and {m['edges']}")
    if set(dots) != {f"{m['name']}.dot" for m in exp["modules"]}:
        errs.append(f"unexpected dot files {sorted(dots)}")
    return errs


def check_diagnostics(exp: dict, indir: str, code: int, stdout: str) -> list:
    """`check`: exactly the planted diagnostics, at the planted lines."""
    errs = [] if code == 0 else [f"check exited {code}"]
    got = []
    for line in stdout.splitlines():
        m = _DIAG.match(line)
        if m is None:
            errs.append(f"unparsable check line {line!r}")
            continue
        got.append((os.path.relpath(m.group(1), indir), int(m.group(2)), m.group(5)))
    want = [(f, line, c) for f, line, c in exp["diagnostics"]]
    if sorted(got) != sorted(want):
        errs.append(f"check reported {len(got)} diagnostics, expected {len(want)}")
    return errs


def naive_module_order(modules: list):
    """Reference import order: restart a depth-first search after every cut
    of the first back edge, then Kahn's algorithm with input-order ties.

    `modules` is [(name, [imported names])] in input order; returns
    (order, cuts).
    """
    names = [n for n, _ in modules]
    pos = {n: i for i, n in enumerate(names)}
    deps = {n: [] for n in names}
    for n, imports in modules:
        for imp in imports:
            if imp in deps and imp not in deps[n]:
                deps[n].append(imp)

    def first_back_edge():
        state: dict = {}

        def visit(u):
            state[u] = "open"
            for v in sorted(deps[u], key=pos.get):
                if state.get(v) == "open":
                    return (u, v)
                if v not in state:
                    found = visit(v)
                    if found:
                        return found
            state[u] = "done"
            return None

        for root in names:
            if root not in state:
                found = visit(root)
                if found:
                    return found
        return None

    cuts = []
    while (edge := first_back_edge()) is not None:
        deps[edge[0]].remove(edge[1])
        cuts.append(edge)
    order: list = []
    while len(order) < len(names):
        ready = [n for n in names if n not in order and all(d in order for d in deps[n])]
        order.append(min(ready, key=pos.get))
    return order, cuts


def check_order(exp: dict, code: int, stdout: str, stderr: str) -> list:
    errs = [] if code == 0 else [f"order exited {code}"]
    order, cuts = naive_module_order([(m["name"], m["imports"]) for m in exp["modules"]])
    if stdout.splitlines() != order:
        errs.append("order output differs from the naive reference")
    warned = sum(1 for line in stderr.splitlines() if line.endswith("[import-cycle]"))
    if warned != len(cuts):
        errs.append(f"order warned about {warned} import cycles, reference cuts {len(cuts)}")
    return errs


def check_debug_trace(exp: dict, stdout: str) -> list:
    """`sort --debug`: the forward-reference count and organised order of
    every module."""
    errs = []
    found = re.findall(r"^Found (\d+) definition use before declaration", stdout, re.M)
    want = [m["forward_refs"] for m in exp["modules"]]
    if [int(n) for n in found] != want:
        errs.append(f"forward references {found[:5]}..., expected {want[:5]}...")
    organised = [line.split(":", 1)[1].strip().split(", ")
                 for line in stdout.splitlines() if line.startswith("Organised names")]
    if organised != [m["organised"] for m in exp["modules"] if m["organised"] is not None]:
        errs.append("organised names in the debug trace differ from the expected ones")
    return errs


def check_resorted(stdout: str, count: int) -> list:
    """Sorting a sorted module again must report nothing."""
    found = re.findall(r"^Found (\d+) definition use before declaration", stdout, re.M)
    if len(found) != count or any(n != "0" for n in found):
        return [f"re-sorting the output reported {found}"]
    return []
