"""The traced run: every command re-enacted stage by stage, with spans.

Spans are recorded here, around calls into each layer's public functions;
the program itself is not instrumented.  Where a public function runs
another layer inside it (`parse_source` lexes, `build_graph` collects use
sites), that inner work is measured by a second call of the inner function
on the same input right after the outer one.  Such a "shadow" span is the
outer span's child, so the outer span's self time excludes it.

The re-enactment repeats what the CLI does at the seed commit, including
the second analysis of every module under `sort --dot`.
`cli.unaccounted_s` is the CLI's own time for a command minus the summed
stage spans of its re-enactment: argument handling, file I/O and printing,
plus any work the CLI has started or stopped doing since the re-enactment
was written.  Garbage collection is off during traced repetitions and runs
between commands, so a collection cannot land in whichever span happens to
allocate when the threshold is crossed.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import os
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from statistics import median

from defsort.defcollect import collect
from defsort.depgraph import break_cycles, build_graph, find_cycles, kahn_sort, start_points
from defsort.dotviz import emit_def_dot, emit_module_dot
from defsort.freevars import (check_duplicate_binds, check_init_cycles,
                              check_precondition_calls, def_use_sites)
from defsort.modorder import build_module_graph, order_modules
from defsort.reorder import (SortReport, forward_references, organised_definitions,
                             sort_module, verify_order)
from defsort.syntax import lex, parse_source, print_module

import oracle
import refloop

# stage span names; each is reported as `<name>_s`, its summed self time
STAGES = (
    "syntax.lex", "syntax.parse", "syntax.print", "syntax.reparse",
    "defcollect.collect",
    "freevars.use_sites", "freevars.diagnostics",
    "depgraph.build_graph", "depgraph.start_points", "depgraph.kahn_sort",
    "depgraph.break_cycles", "depgraph.find_cycles",
    "reorder.forward_references", "reorder.organise", "reorder.sort_module",
    "reorder.verify_order",
    "modorder.order_modules",
    "dotviz.emit_def_dot", "dotviz.emit_module_dot",
)

# input and work sizes; each must repeat exactly from run to run
COUNTS = (
    "bench.files", "bench.bytes", "bench.definitions", "syntax.tokens",
    "defcollect.nodes", "freevars.use_sites", "freevars.diagnostics",
    "depgraph.edges", "depgraph.cuts", "depgraph.cycles", "reorder.forward_refs",
    "modorder.import_cuts", "dotviz.bytes",
)


class Tracer:
    """In-memory spans: name, start, end, parent, workload, rep."""

    def __init__(self, workload: str):
        self.workload = workload
        self.rep = 0
        self.spans: list = []
        self._stack: list = []

    @contextmanager
    def span(self, name: str, shadow_of=None):
        """Time the block.  `shadow_of` names the span whose inner work the
        block measures again; the block then becomes that span's child."""
        parent = shadow_of if shadow_of is not None else (self._stack[-1] if self._stack else None)
        rec = {"id": len(self.spans), "name": name, "parent": parent,
               "workload": self.workload, "rep": self.rep, "shadow": shadow_of is not None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield rec["id"]
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def write(self, path: str):
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            for rec in self.spans:
                f.write(json.dumps(rec) + "\n")


def self_times(spans: list) -> dict:
    """span id -> duration minus the durations of its children."""
    child: dict = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    return {s["id"]: s["end"] - s["start"] - child[s["id"]] for s in spans}


def _report_view(r) -> tuple:
    """A SortReport as plain values; its definition nodes compare by identity."""
    return (r.module_name, r.original_names, r.start_points, r.sorted_names,
            r.organised_names, [f.message for f in r.forward_refs], r.removed_edges, r.sorted)


class Reenactor:
    def __init__(self, bench, tracer: Tracer, commands: tuple):
        self.bench = bench
        self.commands = commands
        self.tr = tracer
        self.errors: list = []
        self.counts: Counter = Counter()
        self.tokens_parsed = 0
        self.analyses: list = []  # (module, rewritten module, SortReport)
        self.pre_graphs: list = []
        self.modules: list = []

    def fail(self, message: str):
        if message not in self.errors:
            self.errors.append(message)

    # ── shared stages ─────────────────────────────────────────────────────

    def parse(self, path: str):
        with open(path, encoding="utf-8") as f:
            text = f.read()
        with self.tr.span("syntax.parse") as sid:
            mods = parse_source(text, path)
        with self.tr.span("syntax.lex", shadow_of=sid):
            tokens = len(lex(text, path)[0]) - 1  # without the end-of-input token
        self.tokens_parsed += tokens
        return text, mods, tokens

    def graph(self, fm):
        with self.tr.span("depgraph.build_graph") as sid:
            g = build_graph(fm)
        with self.tr.span("freevars.use_sites", shadow_of=sid):
            sites = sum(len(def_use_sites(n, fm)) for n in fm.nodes)
        return g, sites

    # ── commands ──────────────────────────────────────────────────────────

    def analyse(self, m):
        """`sort_module`, stage by stage; returns (module, SortReport, sizes)."""
        span = self.tr.span
        with span("defcollect.collect"):
            fm = collect(m)
        g, sites = self.graph(fm)
        edges = len(g.edges)
        with span("reorder.forward_references"):
            refs = forward_references(fm, g)
        with span("depgraph.start_points"):
            starts = [n.name for n in start_points(g)]
        out, removed, sorted_names, organised = m, [], [], []
        if refs:
            with span("depgraph.break_cycles"):
                removed = break_cycles(g)
            with span("depgraph.kahn_sort"):
                order = kahn_sort(g)
            sorted_names = [g.nodes[k].name for k in order]
            with span("reorder.organise"):
                organised, defs = organised_definitions(fm, order, g)
            rebuilt = dataclasses.replace(m, definitions=defs)
            with span("syntax.print"):
                rewritten = print_module(rebuilt)
            with span("syntax.reparse"):
                out = parse_source(rewritten, m.file)[0]
        report = SortReport(fm.module_name, list(fm.original_names), starts,
                            sorted_names, organised, refs, removed, bool(refs))
        sizes = {"bench.definitions": len(m.definitions), "defcollect.nodes": len(fm.nodes),
                 "freevars.use_sites": sites, "depgraph.edges": edges,
                 "reorder.forward_refs": len(refs), "depgraph.cuts": len(removed)}
        return out, report, sizes

    def sort(self, dot: bool = False):
        """`sort`, and with `dot` as the CLI runs `sort --dot`: per module
        the analysis, then a fresh pre-break graph, a second analysis for
        the report, and the dot text."""
        span, counts = self.tr.span, Counter()
        status, outputs, dots = [], {}, {}
        for path in self.bench.paths:
            text, mods, tokens = self.parse(path)
            counts.update({"bench.files": 1, "bench.bytes": len(text.encode()),
                           "syntax.tokens": tokens})
            texts, any_sorted = [], False
            for m in mods:
                out, report, sizes = self.analyse(m)
                counts.update(sizes)
                if dot:
                    with span("defcollect.collect"):
                        fm = collect(m)
                    pre, _ = self.graph(fm)
                    _, again, _ = self.analyse(m)
                    with span("dotviz.emit_def_dot"):
                        dots[f"{m.name}.dot"] = emit_def_dot(pre, again)
                    self.pre_graphs.append(pre)
                else:
                    self.analyses.append((m, out, report))
                status.append(oracle.status_line(report.module_name, report.sorted))
                with span("syntax.print"):
                    texts.append(print_module(out))
                any_sorted = any_sorted or report.sorted
            if texts and any_sorted:
                outputs[os.path.basename(path)] = "\n".join(texts)
        if dot:
            self.counts["dotviz.bytes"] += sum(len(t.encode()) for t in dots.values())
        else:
            self.counts.update(counts)
        return status, outputs, dots

    def sort_dot(self):
        return self.sort(dot=True)

    def check(self):
        lines = []
        for path in self.bench.paths:
            for m in self.parse(path)[1]:
                with self.tr.span("defcollect.collect"):
                    fm = collect(m)
                with self.tr.span("freevars.diagnostics"):
                    diags = (check_duplicate_binds(m) + check_init_cycles(fm)
                             + check_precondition_calls(m, fm))
                    diags.sort(key=lambda d: (d.at.line, d.at.col, d.code))
                lines += [str(d) for d in diags]
        self.counts["freevars.diagnostics"] += len(lines)
        return lines

    def order(self):
        mods = []
        for path in self.bench.paths:
            mods += self.parse(path)[1]
        with self.tr.span("modorder.order_modules"):
            ordered, removed, warnings = order_modules(mods)
        self.counts["modorder.import_cuts"] += len(removed)
        self.modules = mods
        return ordered, [str(w) for w in warnings]

    def compare(self, command: str, got, cli) -> None:
        if command in ("sort", "sort_dot"):
            status, outputs, dots = got
            same = (status == cli.stdout.splitlines() and outputs == dict(cli.outputs)
                    and dots == dict(cli.dots))
        elif command == "check":
            same = got == cli.stdout.splitlines()
        else:
            same = got == (cli.stdout.splitlines(), cli.stderr.splitlines())
        if not same:
            self.fail(f"re-enacted {command} differs from the CLI's output")

    # ── library-level checks, spanned apart from the commands ─────────────

    def oracle(self):
        """`sort_module` is what `sort` calls per module, so its span times
        the whole analysis again.  No benchmarked command calls
        `verify_order`, `emit_module_dot`, or `find_cycles` on a definition
        graph, so these spans move no end-to-end metric."""
        span, exp = self.tr.span, self.bench.exp
        for (m, out, report), spec in zip(self.analyses, exp["modules"]):
            with span("reorder.sort_module"):
                out2, report2 = sort_module(m)
            if (out2 != out or print_module(out2) != print_module(out)
                    or _report_view(report2) != _report_view(report)):
                self.fail(f"re-enacted sort of {m.name} differs from sort_module")
            with span("reorder.verify_order"):
                ok = verify_order(out2)
            if not ok:
                self.fail(f"verify_order fails on the sorted {m.name}")
            cuts = [[e.user_name, e.used_name] for e in report2.removed_edges]
            if cuts != spec["cuts"] or len(report2.forward_refs) != spec["forward_refs"]:
                self.fail(f"{m.name}: cuts or forward references differ from the generator's")
        cycles = 0
        for g in self.pre_graphs:
            with span("depgraph.find_cycles"):
                cycles += len(find_cycles(g))
        self.counts["depgraph.cycles"] += cycles
        mg, _ = build_module_graph(self.modules)
        with span("dotviz.emit_module_dot"):
            text = emit_module_dot(mg)
        self.counts["dotviz.bytes"] += len(text.encode())
        if text.count(" -> ") != len(mg.edges):
            self.fail("module dot has not one edge line per import edge")
        want = {"defcollect.nodes": sum(s["nodes"] for s in exp["modules"]),
                "depgraph.edges": sum(s["edges"] for s in exp["modules"]),
                "freevars.diagnostics": len(exp["diagnostics"])}
        for name, value in want.items():
            if self.counts[name] != value:
                self.fail(f"{name} is {self.counts[name]}, the generator made {value}")

    # ── one repetition ────────────────────────────────────────────────────

    def rep(self) -> dict:
        self.counts, self.tokens_parsed = Counter(), 0
        self.analyses, self.pre_graphs = [], []
        first = len(self.tr.spans)
        cli_time, roots, refs = {}, {}, []
        for command in self.commands:
            cli, cli_time[command], ref = self.bench.run_command(command)
            refs.append(ref)
            gc.collect()
            with self.tr.span(f"cmd.{command}") as roots[command]:
                got = getattr(self, command)()
            self.compare(command, got, cli)
        with self.tr.span("oracle"):
            self.oracle()
        spans = self.tr.spans[first:]
        own = self_times(spans)
        stages: dict = defaultdict(float)
        stage_sum: dict = defaultdict(float)
        root_ids = set(roots.values())
        for s in spans:
            if s["name"] in STAGES:
                stages[s["name"]] += own[s["id"]]
            if s["parent"] in root_ids:
                stage_sum[s["parent"]] += s["end"] - s["start"]
        root_time = {c: self.tr.spans[i]["end"] - self.tr.spans[i]["start"] for c, i in roots.items()}
        return {
            "scale": refloop.REF_S / median(refs),
            "stages": dict(stages),
            "counts": {name: self.counts[name] for name in COUNTS},
            "tokens_parsed": self.tokens_parsed,
            "unaccounted": sum(cli_time[c] - stage_sum[roots[c]] for c in self.commands),
            "overhead": sum(root_time[c] - cli_time[c] for c in self.commands),
        }


def per_layer(reps: list) -> dict:
    """Per-layer metrics: medians over repetitions of per-repetition sums,
    each time rescaled like the end-to-end ones (see refloop.py) by the
    reference loop timed around that repetition's CLI calls."""
    out = {}
    for name in STAGES:
        out[f"{name}_s"] = (median(r["stages"].get(name, 0.0) * r["scale"] for r in reps), "s")
    for name in COUNTS:
        out[name] = (reps[0]["counts"][name], "count")
    out["syntax.tokens_per_s"] = (median(
        r["tokens_parsed"] / (r["stages"]["syntax.lex"] + r["stages"]["syntax.parse"]) / r["scale"]
        for r in reps), "1/s")
    out["cli.unaccounted_s"] = (median(r["unaccounted"] * r["scale"] for r in reps), "s")
    out["bench.trace_overhead_s"] = (median(r["overhead"] * r["scale"] for r in reps), "s")
    return out
