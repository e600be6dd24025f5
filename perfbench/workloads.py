"""Seeded generators for the benchmark workloads.

Each generator returns a `Workload`: the `.vdmsl` files the program is given,
plus the answers expected from it, known by construction.  The seed picks
names, literals, operators and call targets; it never changes the shape of
a workload, so every seed gives the same number of tokens, definitions and
nodes, and timings from different seeds stay comparable.

Run `python3 perfbench/workloads.py --workload chain-rev --seed 1 --out DIR`
to write one workload's files and its expected answers (`expected.json`).
"""

from __future__ import annotations

import argparse
import json
import os
import random
from dataclasses import dataclass, field

# Sizes.  chain-rev and mutual-cycles are sized so one `sort` takes a few
# tenths of a second at the seed commit; sorted-tree so that lexing and
# parsing dominate `sort` and `check`, and its import web so that module
# ordering is a large share of `order`.
CHAIN_N = 400  # types, and as many functions
CYCLE_K = 150  # g_i/h_i pairs
TREE_FILES = 8
TREE_VALUES = 3  # per tree module
TREE_FUNCTIONS = 8  # per tree module
TREE_DEPTH = 5
WEB_MODULES = 60  # import-web modules; `sort --dot` writes one file for each
WEB_BACK = 40  # earlier import-web modules each one imports

WORDS = ("alpha", "bravo", "delta", "gamma", "kappa", "sigma", "omega", "theta",
         "lambd", "kilos", "metro", "nodal", "pivot", "radix", "vocab", "zonal")


@dataclass
class ModuleSpec:
    """What the generator knows about one module it wrote."""

    name: str
    file: str
    # user definitions in declaration order: (section, name, doc lines)
    definitions: list
    # user definition -> user definitions it must follow once rewritten
    must_follow: dict
    imports: list
    forward_refs: int
    edges: int  # pre-break dependency edges, one dot edge line each
    nodes: int
    organised: list | None  # None: the module is handed back untouched
    cuts: list  # (user, used) names, in the order they are cut


@dataclass
class Workload:
    name: str
    seed: int
    files: dict = field(default_factory=dict)  # file name -> text, argv order
    modules: list = field(default_factory=list)
    diagnostics: list = field(default_factory=list)  # (file, line, code)

    def write(self, directory: str):
        os.makedirs(directory, exist_ok=True)
        for name, text in self.files.items():
            with open(os.path.join(directory, name), "w", encoding="utf-8") as f:
                f.write(text)

    def expected(self) -> dict:
        return {
            "workload": self.name,
            "seed": self.seed,
            "files": list(self.files),
            "diagnostics": [list(d) for d in self.diagnostics],
            "modules": [vars(m) for m in self.modules],
        }


def _stem(rng: random.Random) -> str:
    return rng.choice(WORDS).capitalize()


# ── chain-rev ─────────────────────────────────────────────────────────────


def chain_rev(seed: int) -> Workload:
    """One module whose n = CHAIN_N types and functions each use the next one.

    T_i = seq of T_{i+1} with `inv t == ... f_i(..)`, and f_i calls
    f_{i+1}; everything is declared in reverse dependency order, so every
    definition moves.  There are no cycles.
    """
    n = CHAIN_N
    rng = random.Random(seed)
    mod = f"{_stem(rng)}Chain"
    ty, fn = f"{_stem(rng)}T", f"{_stem(rng).lower()}f"
    lines = [f"module {mod}", "exports all", "definitions", "types"]
    defs, must = [], {}
    for i in range(n):
        doc = f"{ty}{i} layer {rng.randint(100, 999)}"
        last = i + 1 == n
        rhs = "nat" if last else f"seq of {ty}{i + 1}"
        size = "t" if last else "len t"
        lines += [f"    --@doc {doc}", f"    {ty}{i} = {rhs}",
                  f"        inv t == {size} {rng.choice('<>')}= {fn}{i}({rng.randint(1, 9)});", ""]
        defs.append(("types", f"{ty}{i}", [doc]))
        must[f"{ty}{i}"] = [f"{fn}{i}"] + ([f"{ty}{i + 1}"] if i + 1 < n else [])
    lines.append("functions")
    for i in range(n):
        doc = f"{fn}{i} step {rng.randint(100, 999)}"
        op = rng.choice("+*")
        body = f"{fn}{i + 1}(x) {op} {rng.randint(1, 9)}" if i + 1 < n else f"x {op} {rng.randint(1, 9)}"
        lines += [f"    --@doc {doc}", f"    {fn}{i}: nat -> nat",
                  f"    {fn}{i}(x) == {body};", ""]
        defs.append(("functions", f"{fn}{i}", [doc]))
        must[f"{fn}{i}"] = [f"{fn}{i + 1}"] if i + 1 < n else []
    lines.append(f"end {mod}")
    # Kahn with collection-order ties drains f_{n-1}, inv_T_{n-1}, T_{n-1},
    # f_{n-2}, ...: each function first, then the type whose invariant it
    # unblocks.
    organised = []
    for i in reversed(range(n)):
        organised += [f"{fn}{i}", f"{ty}{i}"]
    spec = ModuleSpec(
        name=mod, file="chain.vdmsl", definitions=defs, must_follow=must, imports=[],
        # T_i -> T_{i+1}, inv_T_i -> f_i charged to inv_T_i and to T_i,
        # f_i -> f_{i+1}
        forward_refs=(n - 1) + 2 * n + (n - 1),
        # T_i -> T_{i+1}, T_i -> inv_T_i, inv_T_i -> f_i, f_i -> f_{i+1}
        edges=(n - 1) + n + n + (n - 1),
        nodes=3 * n,
        organised=organised,
        cuts=[],
    )
    return Workload("chain-rev", seed, {spec.file: "\n".join(lines) + "\n"}, [spec])


# ── mutual-cycles ─────────────────────────────────────────────────────────


def mutual_cycles(seed: int) -> Workload:
    """One forward user of g_0, then k = CYCLE_K mutually recursive g_i/h_i pairs.

    The forward use makes the module need sorting, so every pair's cycle
    must be broken; the first back edge in declaration order is h_i -> g_i.
    """
    k = CYCLE_K
    rng = random.Random(seed)
    mod = f"{_stem(rng)}Cycles"
    g, h, user = f"{_stem(rng).lower()}g", f"{_stem(rng).lower()}h", f"{_stem(rng).lower()}user"
    lines = [f"module {mod}", "definitions", "functions"]
    defs = []

    def fun(name, body):
        doc = f"{name} case {rng.randint(100, 999)}"
        lines.extend([f"    --@doc {doc}", f"    {name}: nat -> nat",
                      f"    {name}(n) == {body};", ""])
        defs.append(("functions", name, [doc]))

    fun(user, f"{g}0(n) {rng.choice('+*')} {rng.randint(1, 9)}")
    for i in range(k):
        fun(f"{g}{i}", f"if n = {rng.randint(0, 9)} then {rng.randint(0, 9)} else {h}{i}(n - 1)")
        fun(f"{h}{i}", f"if n = {rng.randint(0, 9)} then {rng.randint(0, 9)} else {g}{i}(n - 1)")
    lines.append(f"end {mod}")
    # after the cuts only user -> g_0 and g_i -> h_i remain; Kahn with
    # collection-order ties gives h_0, g_0, user, h_1, g_1, ...
    organised = [f"{h}0", f"{g}0", user]
    for i in range(1, k):
        organised += [f"{h}{i}", f"{g}{i}"]
    spec = ModuleSpec(
        name=mod, file="cycles.vdmsl", definitions=defs,
        must_follow={user: [f"{g}0"]}, imports=[],
        forward_refs=1,  # g_i -> h_i lies inside a cycle and is exempt
        edges=1 + 2 * k,
        nodes=1 + 2 * k,
        organised=organised,
        cuts=[[f"{h}{i}", f"{g}{i}"] for i in range(k)],
    )
    return Workload("mutual-cycles", seed, {spec.file: "\n".join(lines) + "\n"}, [spec])


# ── sorted-tree ───────────────────────────────────────────────────────────

# The construct used at each nesting level depends only on the function's
# index and the level, never on the seed, so every seed lexes to the same
# number of tokens.
_SCHEDULE = ("if", "let", "forall", "call", "setcomp", "exists", "seqcomp", "arith")


class _TreeModule:
    """Writes one already-sorted module of wide, nested function bodies."""

    def __init__(self, rng, index: int, name: str, file: str, imports: list):
        self.rng = rng
        self.index = index
        self.name = name
        self.file = file
        self.imports = imports
        self.lines = [f"module {name}"]
        self.lines += [f"imports from {imp} all" for imp in imports]
        self.lines += ["definitions"]
        self.defs: list = []
        self.edges: set = set()  # (user, used) names, one per pre-break edge
        self.nodes = 0
        self.diagnostics: list = []
        self.fns: list = []  # (name, has_pre)
        self.values: list = []

    def doc(self, name: str) -> str:
        return f"{name} part {self.rng.randint(100, 999)}"

    def types(self):
        p = self.name.lower()
        rec, wrap = f"R{p}", f"W{p}"
        self.lines += ["types"]
        for name, text in (
            (rec, [f"    {rec} :: lo : nat hi : seq of nat",
                   f"        inv r == r.lo < {self.rng.randint(100, 999)};"]),
            (wrap, [f"    {wrap} = seq of {rec};"]),
        ):
            doc = self.doc(name)
            self.lines += [f"    --@doc {doc}"] + text + [""]
            self.defs.append(("types", name, [doc]))
        self.edges.add((wrap, rec))
        self.edges.add((rec, f"inv_{rec}"))
        self.edges.add((wrap, f"inv_{wrap}"))  # synthetic invariant
        self.nodes += 4

    def value_defs(self):
        self.lines += ["values"]
        p = self.name.lower()
        for i in range(TREE_VALUES):
            name = f"c{p}{i}"
            doc = self.doc(name)
            if self.values:
                prev = self.rng.choice(self.values)
                init = f"{prev} + {self.rng.randint(1, 9)}"
                self.edges.add((name, prev))
            else:
                init = str(self.rng.randint(1, 9))
            self.lines += [f"    --@doc {doc}", f"    {name} : nat = {init};", ""]
            self.defs.append(("values", name, [doc]))
            self.values.append(name)
            self.nodes += 1

    def expr(self, fname: str, level: int, scope: list, slot: int) -> str:
        rng = self.rng
        if level == TREE_DEPTH:
            pool = scope + self.values
            leaf = rng.choice(pool) if rng.random() < 0.7 else str(rng.randint(1, 9))
            if leaf in self.values:
                self.edges.add((fname, leaf))
            return leaf
        kind = _SCHEDULE[(self.index + len(self.fns) + level + slot) % len(_SCHEDULE)]

        def sub(s, extra=()):
            return self.expr(fname, level + 1, scope + list(extra), s)

        b = f"v{level}"
        d = lambda: rng.randint(1, 9)  # noqa: E731
        if kind == "if":
            return f"(if {sub(0)} > {d()} then {sub(1)} elseif x = {d()} then {d()} else y)"
        if kind == "let":
            return f"(let {b} = {sub(0)} in {b} {rng.choice('+*')} {sub(1, [b])})"
        if kind in ("forall", "exists"):
            return f"(if ({kind} {b} in set {{{sub(0)}, {d()}}} & {b} > {sub(1, [b])}) then {d()} else {d()})"
        if kind == "setcomp":
            return f"card {{{b} + {sub(0, [b])} | {b} in set {{{sub(1)}, {d()}}} & {b} > 1}}"
        if kind == "seqcomp":
            return f"len [{b} * {sub(0, [b])} | {b} in set {{{sub(1)}, {d()}}}]"
        if kind == "call":
            plain = [name for name, has_pre in self.fns if not has_pre]
            if plain:
                target = rng.choice(plain)
                self.edges.add((fname, target))
                return f"{target}({sub(0)}, {sub(1)})"
        return f"({sub(0)} {rng.choice('+-*')} {sub(1)} {rng.choice('+-*')} {d()})"

    def functions(self):
        self.lines += ["functions"]
        p = self.name.lower()
        for i in range(TREE_FUNCTIONS):
            name = f"f{p}{i}"
            has_pre = i % 4 == 1
            body = self.expr(name, 0, ["x", "y"], 0)
            guarded = [fn for fn, pre in self.fns if pre]
            if guarded and i % 4 == 3:
                # planted: a call the precondition check must flag
                target = self.rng.choice(guarded)
                self.edges.add((name, target))
                body = f"{target}(x, y) + {body}"
                # the body goes after the doc and signature lines
                self.diagnostics.append((self.file, len(self.lines) + 3, "pre-call"))
            elif guarded and i % 4 == 2:
                # guarded by the precondition: no finding
                target = self.rng.choice(guarded)
                self.edges.add((name, target))
                self.edges.add((name, f"pre_{target}"))
                body = f"(if pre_{target}(x, y) then {target}(x, y) else 0) + {body}"
            doc = self.doc(name)
            self.lines += [f"    --@doc {doc}", f"    {name}: nat * nat -> nat",
                           f"    {name}(x, y) == {body}"]
            if has_pre:
                self.lines.append(f"    pre x > {self.rng.randint(0, 9)};")
                self.nodes += 1
            else:
                self.lines[-1] += ";"
            self.lines.append("")
            self.defs.append(("functions", name, [doc]))
            self.fns.append((name, has_pre))
            self.nodes += 1

    def spec(self) -> ModuleSpec:
        self.lines.append(f"end {self.name}")
        return ModuleSpec(
            name=self.name, file=self.file, definitions=self.defs, must_follow={},
            imports=self.imports, forward_refs=0, edges=len(self.edges), nodes=self.nodes,
            organised=None, cuts=[],
        )


def sorted_tree(seed: int) -> Workload:
    """Already-sorted modules with wide nested bodies and cyclic imports.

    Every tree module imports the next one round the ring plus one other
    chosen by the seed, so the import graph has cycles `order` must break.
    Every fourth function has a precondition; calls to it are planted both
    guarded (no finding) and unguarded (one `pre-call` warning each).
    A small first file needs one definition moved, so every rewrite stage
    runs, briefly, and its time is measured rather than absent.  A last
    file holds the import web (see `_web_modules`).
    """
    rng = random.Random(seed)
    names = [f"{s.capitalize()}{i}" for i, s in enumerate(rng.sample(WORDS, TREE_FILES))]
    w = Workload("sorted-tree", seed)
    w.modules.append(_fixup_module(rng, w, names[0]))
    for i, name in enumerate(names):
        others = [j for j in range(TREE_FILES) if j not in (i, (i + 1) % TREE_FILES)]
        imports = [names[(i + 1) % TREE_FILES], names[rng.choice(others)]]
        tm = _TreeModule(rng, i, name, f"tree{i:02d}.vdmsl", imports)
        tm.types()
        tm.value_defs()
        tm.functions()
        spec = tm.spec()
        w.files[spec.file] = "\n".join(tm.lines) + "\n"
        w.modules.append(spec)
        w.diagnostics.extend(tm.diagnostics)
    _web_modules(rng, w)
    return w


def _web_modules(rng, w: Workload):
    """Many small modules with many cyclic imports, in one file.

    WEB_MODULES modules form a chain: each imports the next one and the
    WEB_BACK before it.  Every backward import closes a cycle, so `order`
    cuts all of them, and each cut costs a depth-first search restarted
    from the first module.  Each module holds one already-sorted function.
    """
    stem = _stem(rng)
    names = [f"{stem}Web{i}" for i in range(WEB_MODULES)]
    file, lines = "web.vdmsl", []
    for i, name in enumerate(names):
        imports = names[i + 1:i + 2] + names[max(0, i - WEB_BACK):i]
        fn = f"{name.lower()}f"
        lines += [f"module {name}"] + [f"imports from {imp} all" for imp in imports]
        lines += ["definitions", "functions", f"    {fn}: nat -> nat",
                  f"    {fn}(x) == x + {rng.randint(1, 9)};", f"end {name}", ""]
        w.modules.append(ModuleSpec(
            name=name, file=file, definitions=[("functions", fn, [])], must_follow={},
            imports=imports, forward_refs=0, edges=0, nodes=1, organised=None, cuts=[],
        ))
    w.files[file] = "\n".join(lines)


def _fixup_module(rng, w: Workload, imported: str) -> ModuleSpec:
    """Two functions, the first calling the second."""
    name, file = f"{_stem(rng)}Fixup", "fixup.vdmsl"
    a, b = f"{name.lower()}a", f"{name.lower()}b"
    docs = [f"{a} part {rng.randint(100, 999)}", f"{b} part {rng.randint(100, 999)}"]
    w.files[file] = "\n".join([
        f"module {name}", f"imports from {imported} all", "definitions", "functions",
        f"    --@doc {docs[0]}", f"    {a}: nat -> nat", f"    {a}(x) == {b}(x) + {rng.randint(1, 9)};",
        "",
        f"    --@doc {docs[1]}", f"    {b}: nat -> nat", f"    {b}(x) == x * {rng.randint(1, 9)};",
        f"end {name}",
    ]) + "\n"
    return ModuleSpec(
        name=name, file=file, definitions=[("functions", a, [docs[0]]), ("functions", b, [docs[1]])],
        must_follow={a: [b], b: []}, imports=[imported], forward_refs=1, edges=1, nodes=2,
        organised=[b, a], cuts=[],
    )


GENERATORS = {
    "chain-rev": chain_rev,
    "mutual-cycles": mutual_cycles,
    "sorted-tree": sorted_tree,
}


def generate(name: str, seed: int) -> Workload:
    return GENERATORS[name](seed)


def main():
    ap = argparse.ArgumentParser(description="write one seeded benchmark workload")
    ap.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True, help="directory for the .vdmsl files")
    args = ap.parse_args()
    w = generate(args.workload, args.seed)
    w.write(args.out)
    with open(os.path.join(args.out, "expected.json"), "w", encoding="utf-8") as f:
        json.dump(w.expected(), f, indent=1)


if __name__ == "__main__":
    main()
