"""Ten end-to-end acceptance checks, one printed PASS/FAIL line each.

Criteria 3 and 4 are property checks over seeded random inputs; their
expected results come from independent oracles written here, not from the
code under test.
"""

import itertools
import random
import time

from conftest import CORPUS, parse_corpus, single_module

from defsort.defcollect import DefKind, DefNode, Namespace, collect
from defsort.depgraph import (
    DepGraph,
    Edge,
    break_cycles,
    build_graph,
    find_cycles,
    kahn_sort,
)
from defsort.diag import Loc
from defsort.dotviz import emit_def_dot
from defsort.freevars import check_duplicate_binds, check_init_cycles
from defsort.modorder import order_modules
from defsort.reorder import forward_references, sort_module, verify_order
from defsort.syntax import parse_source, print_module

GOLDEN_MESSAGES = [
    "M`T declared after Rec",
    "M`S declared after Rec",
    "M`T declared after S",
    "tail declared after S",
    "tail declared after inv_S",
]

GOLDEN_PAIRS = [
    ("Rec", "T"),
    ("Rec", "S"),
    ("S", "T"),
    ("S", "tail"),
    ("inv_S", "tail"),
]


def _verdict(n, problems):
    status = "PASS" if not problems else "FAIL"
    print(f"acceptance criterion {n:2d}: {status}")
    assert not problems, f"criterion {n}: " + "; ".join(problems)


def _corpus_modules():
    for path in sorted(CORPUS.glob("*.vdmsl")):
        for m in parse_corpus(path.name):
            yield path.name, m


def test_criterion_01_golden_module_analysis():
    started = time.perf_counter()
    m = single_module("M.vdmsl")
    fm = collect(m)
    g = build_graph(fm)
    refs = forward_references(fm, g)
    out, report = sort_module(m)
    elapsed = time.perf_counter() - started

    problems = []
    if [(r.user.name, r.used.name) for r in refs] != GOLDEN_PAIRS:
        problems.append(f"finding pairs {[(r.user.name, r.used.name) for r in refs]}")
    if [r.message for r in refs] != GOLDEN_MESSAGES:
        problems.append(f"finding messages {[r.message for r in refs]}")
    if report.original_names != ["Rec", "S", "T", "tail", "head"]:
        problems.append(f"original names {report.original_names}")
    all_nodes = {n.name for n in fm.nodes}
    if sorted(report.sorted_names) != sorted(all_nodes):
        problems.append(f"sorted names not a permutation: {report.sorted_names}")
    position = {name: i for i, name in enumerate(report.sorted_names)}
    for e in g.edges:
        if position[e.user_name] <= position[e.used_name]:
            problems.append(f"edge {e.user_name}->{e.used_name} not respected")
    if report.organised_names != ["tail", "head", "T", "S", "Rec"]:
        problems.append(f"organised names {report.organised_names}")
    if not report.sorted:
        problems.append("module was not rewritten")
    if [d.name for d in out.definitions] != ["tail", "head", "T", "S", "Rec"]:
        problems.append("rewritten definition order wrong")
    if elapsed >= 1.0:
        problems.append(f"took {elapsed:.3f}s")
    _verdict(1, problems)


def test_criterion_02_gate_and_idempotence():
    problems = []
    out, _ = sort_module(single_module("M.vdmsl"))
    again, report = sort_module(out)
    if report.sorted or report.forward_refs:
        problems.append("rewritten module still reports forward references")
    if again is not out:
        problems.append("gate-off sort did not hand the module back untouched")
    for name, m in _corpus_modules():
        once, _ = sort_module(m)
        twice, _ = sort_module(once)
        if print_module(once) != print_module(twice):
            problems.append(f"{name} not idempotent")
    _verdict(2, problems)


# ── criterion 3: random module generator ────────────────────────────────────


def _random_module(rng, idx):
    """A module of up to 12 definitions whose first value is guaranteed to
    use the last function, which is declared at the bottom."""
    n = rng.randint(3, 12)
    kinds = ["value"] + [rng.choice(("type", "value", "func")) for _ in range(n - 2)]
    kinds.append("func")
    type_names = [f"T{i}" for i, k in enumerate(kinds) if k == "type"]
    last_fn = f"f{n - 1}"

    lines = [f"module GEN{idx}", "exports all", "definitions"]
    callable_before: list = []
    for i, kind in enumerate(kinds):
        if kind == "type":
            elem = rng.choice([t for t in type_names if t != f"T{i}"] + ["nat", "nat"])
            if rng.random() < 0.4:
                lines.extend(["types", f"    T{i} :: a : {elem} b : nat;"])
            else:
                lines.extend(["types", f"    T{i} = set of {elem};"])
        elif kind == "value":
            if i == 0:
                expr = f"{last_fn}(0)"
            elif callable_before and rng.random() < 0.6:
                expr = f"{rng.choice(callable_before)} + {i}"
            else:
                expr = str(i)
            lines.extend(["values", f"    v{i} = {expr};"])
            callable_before.append(f"v{i}")
        else:
            if i == n - 1:
                body = "x"
            elif callable_before and rng.random() < 0.5:
                body = f"{rng.choice(callable_before)} + x"
            elif rng.random() < 0.3 and i + 1 < n - 1 and kinds[i + 1] == "func":
                # forward call; closes a cycle when the callee calls back
                body = f"if x = 0 then 0 else f{i + 1}(x - 1)"
            else:
                body = "x + 1"
            lines.extend(["functions", f"    f{i}: nat -> nat", f"    f{i}(x) == {body};"])
            callable_before.append(f"f{i}(1)")
    lines.append(f"end GEN{idx}")
    return "\n".join(lines) + "\n"


def test_criterion_03_name_conservation_on_random_modules():
    rng = random.Random(30103)
    problems = []
    for idx in range(100):
        src = _random_module(rng, idx)
        try:
            m = parse_source(src)[0]
            _, report = sort_module(m)
        except Exception as exc:
            problems.append(f"module {idx}: {exc}")
            continue
        if not report.sorted:
            problems.append(f"module {idx}: guaranteed forward reference missed")
            continue
        if set(report.original_names) != set(report.organised_names):
            problems.append(f"module {idx}: names not conserved")
        if not set(report.sorted_names) >= set(report.organised_names):
            problems.append(f"module {idx}: organised names not in sorted names")
    _verdict(3, problems[:5])


# ── criterion 4: independent order-existence oracles ────────────────────────


def _spec_graph(n, edges):
    nodes = {}
    for i in range(n):
        node = DefNode(f"n{i}", Namespace.FUNCTION, DefKind.FUNCTION_DEF, None,
                       False, Loc(i + 1, 1), frozenset(), i, i, None)
        nodes[node.key] = node
    g = DepGraph(nodes)
    for u, v in edges:
        g.add_edge(Edge((Namespace.FUNCTION, f"n{u}"), (Namespace.FUNCTION, f"n{v}"),
                        Loc(u + 1, 1)))
    return g


def _oracle_order_exists(n, edges):
    """Backtracking search: place a node only once everything it uses is
    already placed; succeeds iff some use-respecting order exists."""
    needs = {i: set() for i in range(n)}
    for u, v in edges:
        needs[u].add(v)
    placed: set = set()

    def extend(count):
        if count == n:
            return True
        for cand in range(n):
            if cand not in placed and needs[cand] <= placed:
                placed.add(cand)
                if extend(count + 1):
                    return True
                placed.discard(cand)
        return False

    return extend(0)


def _every_permutation_order_exists(n, edges):
    for perm in itertools.permutations(range(n)):
        pos = {node: i for i, node in enumerate(perm)}
        if all(pos[u] > pos[v] for u, v in edges):
            return True
    return False


def test_criterion_04_sorting_matches_brute_force_oracle():
    rng = random.Random(40104)
    started = time.perf_counter()
    problems = []
    for idx in range(500):
        n = rng.randint(1, 8)
        density = rng.uniform(0.05, 0.5)
        edges = [(i, j) for i in range(n) for j in range(n)
                 if i != j and rng.random() < density]

        had_cycles = bool(find_cycles(_spec_graph(n, edges)))
        g = _spec_graph(n, edges)
        break_cycles(g)
        order = kahn_sort(g)
        pos = {k: i for i, k in enumerate(order)}
        if sorted(pos.values()) != list(range(n)):
            problems.append(f"graph {idx}: order is not a permutation")
        if any(pos[e.user] <= pos[e.used] for e in g.edges):
            problems.append(f"graph {idx}: retained edge violated")

        exists = _oracle_order_exists(n, edges)
        if exists != (not had_cycles):
            problems.append(f"graph {idx}: cycle report disagrees with oracle")
        if n <= 5 and _every_permutation_order_exists(n, edges) != exists:
            problems.append(f"graph {idx}: oracles disagree")
    elapsed = time.perf_counter() - started
    if elapsed >= 30.0:
        problems.append(f"took {elapsed:.1f}s")
    _verdict(4, problems[:5])


def test_criterion_05_every_sorted_output_verifies():
    problems = []
    sorted_count = 0
    for name, m in _corpus_modules():
        out, report = sort_module(m)
        if report.sorted:
            sorted_count += 1
            if not verify_order(out):
                problems.append(f"{name}: rewritten module fails verification")
    if sorted_count < 5:
        problems.append(f"only {sorted_count} corpus modules exercised the rewrite")
    _verdict(5, problems)


def test_criterion_06_mutual_recursion_sorts_with_one_cut_edge():
    problems = []
    out, report = sort_module(single_module("mutrec.vdmsl"))
    if len(report.removed_edges) != 1:
        problems.append(f"removed edges {len(report.removed_edges)}")
    order = [d.name for d in out.definitions]
    if not (order.index("f") < order.index("h") and order.index("g") < order.index("h")):
        problems.append(f"callee order wrong: {order}")
    if not verify_order(out):
        problems.append("rewritten module fails verification")
    _verdict(6, problems)


def test_criterion_07_diagnostics():
    problems = []
    dup = check_duplicate_binds(single_module("dupbind.vdmsl"))
    if len(dup) != 1 or dup[0].severity != "error":
        problems.append(f"duplicate-bind diagnostics: {dup}")
    elif (dup[0].at.line, dup[0].at.col) != (4, 44):
        problems.append(f"duplicate-bind location {dup[0].at}")

    cyc = check_init_cycles(collect(single_module("valcycle.vdmsl")))
    if len(cyc) != 1 or cyc[0].severity != "error":
        problems.append(f"init-cycle diagnostics: {cyc}")
    elif "A -> B -> A" not in cyc[0].message:
        problems.append(f"init-cycle message {cyc[0].message!r}")

    cond = check_init_cycles(collect(single_module("valcond.vdmsl")))
    if cond:
        problems.append(f"conditional variant reported {cond}")
    _verdict(7, problems)


def test_criterion_08_dot_conformance():
    problems = []
    m = single_module("M.vdmsl")
    fm = collect(m)
    g = build_graph(fm)
    _, report = sort_module(m)
    dot = emit_def_dot(g, report)

    node_lines = {ln.split('"')[1]: ln for ln in dot.splitlines() if "[label=" in ln}
    if len(node_lines) != 8:
        problems.append(f"{len(node_lines)} node statements")
    edge_lines = {ln.strip() for ln in dot.splitlines() if " -> " in ln}
    wanted = {f'"{u}" -> "{v}";' for u, v in (
        ("Rec", "inv_Rec"), ("Rec", "S"), ("Rec", "T"), ("S", "inv_S"),
        ("S", "T"), ("inv_S", "tail"), ("inv_S", "head"), ("T", "inv_T"),
    )}
    if edge_lines != wanted:
        problems.append(f"edge set {sorted(edge_lines)}")
    for name in ("inv_Rec", "inv_T"):
        if "doublecircle" not in node_lines[name]:
            problems.append(f"{name} missing doublecircle")
    for name in ("tail", "head"):
        if "triangle" not in node_lines[name]:
            problems.append(f"{name} missing triangle")
    if "invtriangle" not in node_lines["Rec"] or "color=red" not in node_lines["Rec"]:
        problems.append("start point not marked invtriangle+red")

    m2 = single_module("M.vdmsl")
    fm2 = collect(m2)
    _, report2 = sort_module(m2)
    if emit_def_dot(build_graph(fm2), report2) != dot:
        problems.append("output not byte-stable")
    _verdict(8, problems)


def test_criterion_09_round_trip_fixpoint_over_corpus():
    problems = []
    seen = 0
    for name, m in _corpus_modules():
        seen += 1
        printed = print_module(m)
        reparsed = parse_source(printed, f"printed:{name}")[0]
        if reparsed != m:
            problems.append(f"{name}: structure changed by printing")
        if print_module(reparsed) != printed:
            problems.append(f"{name}: printing is not a fixpoint")
    if seen < 20:
        problems.append(f"corpus holds only {seen} modules")
    _verdict(9, problems)


def test_criterion_10_module_ordering():
    problems = []
    chain = []
    for fname in ("chain_a.vdmsl", "chain_b.vdmsl", "chain_c.vdmsl"):
        chain.extend(parse_corpus(fname))
    ordered, removed, warnings = order_modules(chain)
    if ordered != ["C", "B", "A"]:
        problems.append(f"chain order {ordered}")
    if removed or warnings:
        problems.append("chain should break nothing")

    cyc = []
    for fname in ("cyc_p.vdmsl", "cyc_q.vdmsl"):
        cyc.extend(parse_corpus(fname))
    ordered, removed, warnings = order_modules(cyc)
    if sorted(ordered) != ["P", "Q"]:
        problems.append(f"cycle order {ordered}")
    if len(removed) != 1:
        problems.append(f"removed {removed}")
    cycle_warnings = [w for w in warnings if w.code == "import-cycle"]
    if len(cycle_warnings) != 1:
        problems.append(f"warnings {warnings}")
    _verdict(10, problems)
