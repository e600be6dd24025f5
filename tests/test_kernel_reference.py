"""The graph kernel against naive references on random graphs.

The references work on plain dicts of dependency lists: cycles are broken by
restarting a recursive depth-first search from scratch after every cut,
topological order picks the first ready node by rescanning all nodes, and
components come from pairwise reachability, or from Warshall's transitive
closure.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defsort.defcollect import DefKind, DefNode, Namespace
from defsort.depgraph import DepGraph, Edge, break_cycles, find_cycles, kahn_sort, scc_labels, search
from defsort.diag import CycleError, Loc
from defsort.modorder import build_module_graph, order_modules
from defsort.syntax import parse_source


def ref_first_back_edge(order, deps):
    """First edge closing a cycle when searching in `order`, or None."""
    color = {}  # 1 = on the current path, 2 = finished

    def visit(u):
        color[u] = 1
        for v in deps[u]:
            if color.get(v) == 1:
                return (u, v)
            if v not in color:
                found = visit(v)
                if found:
                    return found
        color[u] = 2
        return None

    for root in order:
        if root not in color:
            found = visit(root)
            if found:
                return found
    return None


def ref_break_cycles(order, deps):
    """Cut the first back edge, restart from scratch, repeat."""
    cuts = []
    while True:
        back = ref_first_back_edge(order, deps)
        if back is None:
            return cuts
        deps[back[0]].remove(back[1])
        cuts.append(back)


def ref_kahn(order, deps):
    """(emitted, stuck): repeatedly emit the first node whose deps are out."""
    emitted, done = [], set()
    while True:
        ready = [n for n in order if n not in done and all(d in done for d in deps[n])]
        if not ready:
            return emitted, [n for n in order if n not in done]
        emitted.append(ready[0])
        done.add(ready[0])


def ref_find_cycles(order, deps):
    """Shortest closed walk through the first member of each component."""

    def reach(u):
        seen, todo = {u}, [u]
        while todo:
            for v in deps[todo.pop()]:
                if v not in seen:
                    seen.add(v)
                    todo.append(v)
        return seen

    reachable = {u: reach(u) for u in order}
    walks, covered = [], set()
    for start in order:
        comp = {v for v in reachable[start] if start in reachable[v]}
        if start in covered or len(comp) < 2:
            continue
        covered |= comp
        parents, queue, walk = {start: None}, [start], None
        for u in queue:
            for v in deps[u]:
                if v == start:
                    walk = [u]
                    while parents[walk[-1]] is not None:
                        walk.append(parents[walk[-1]])
                    walk = walk[::-1] + [start]
                    break
                if v in comp and v not in parents:
                    parents[v] = u
                    queue.append(v)
            if walk:
                break
        walks.append(tuple(walk))
    return walks


def ref_mutually_reachable(order, deps):
    """Pairs (u, v), u == v included, where each reaches the other."""
    reach = {(u, u) for u in order} | {(u, v) for u in order for v in deps[u]}
    for k in order:
        for u in order:
            if (u, k) in reach:
                reach |= {(u, v) for v in order if (k, v) in reach}
    return {(u, v) for u, v in reach if (v, u) in reach}


def _key(i):
    return (Namespace.FUNCTION, f"n{i}")


@st.composite
def graphs(draw):
    """(node count, [(user, used, witness line)]), self-loops and repeats included."""
    n = draw(st.integers(1, 10))
    node = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(node, node, st.integers(1, 30)), max_size=4 * n))
    return n, edges


def kernel_graph(n, edges):
    nodes = {}
    for i in range(n):
        node = DefNode(f"n{i}", Namespace.FUNCTION, DefKind.FUNCTION_DEF, None, False,
                       Loc(i + 1, 1), frozenset(), i, i, None)
        nodes[node.key] = node
    return DepGraph(nodes, [Edge(_key(u), _key(v), Loc(line, 1)) for u, v, line in edges])


def reference_graph(n, edges):
    """(order, deps in collection order, earliest witness line per edge)."""
    order = [_key(i) for i in range(n)]
    line: dict = {}
    for u, v, at in edges:
        line[_key(u), _key(v)] = min(at, line.get((_key(u), _key(v)), at))
    deps = {k: [v for v in order if (k, v) in line] for k in order}
    return order, deps, line


@settings(max_examples=300, deadline=None)
@given(graphs())
def test_break_cycles_then_kahn_match_the_restart_reference(graph):
    g = kernel_graph(*graph)
    order, deps, line = reference_graph(*graph)
    cuts = ref_break_cycles(order, deps)
    assert [(e.user, e.used, e.at) for e in break_cycles(g)] == [
        (u, v, Loc(line[u, v], 1)) for u, v in cuts]
    assert kahn_sort(g) == ref_kahn(order, deps)[0]


@settings(max_examples=300, deadline=None)
@given(graphs())
def test_find_cycles_and_kahn_on_unbroken_graphs_match_the_reference(graph):
    g = kernel_graph(*graph)
    order, deps, _ = reference_graph(*graph)
    assert [c.keys for c in find_cycles(g)] == ref_find_cycles(order, deps)
    emitted, stuck = ref_kahn(order, deps)
    if stuck:
        with pytest.raises(CycleError) as err:
            kahn_sort(g)
        assert str(err.value) == "cycle prevents sorting: " + ", ".join(k[1] for k in stuck)
    else:
        assert kahn_sort(g) == emitted


@settings(max_examples=200, deadline=None)
@given(graphs())
def test_nodes_share_a_component_label_exactly_when_each_reaches_the_other(graph):
    labels = scc_labels(search(kernel_graph(*graph))[0])
    order, deps, _ = reference_graph(*graph)
    same = {(u, v) for u in order for v in order if labels[u] == labels[v]}
    assert same == ref_mutually_reachable(order, deps)


def ref_order_modules(mods):
    mg, diags = build_module_graph(mods)
    pairs = {(e.user, e.used) for e in mg.edges}
    deps = {u: [v for v in mg.nodes if (u, v) in pairs] for u in mg.nodes}
    cuts = ref_break_cycles(mg.nodes, deps)
    warnings = [str(d) for d in diags]
    for u, v in cuts:
        at = next(m.name_loc for m in mods if m.name == u)
        warnings.append(f"{at}: warning: import cycle broken: "
                        f"ignoring import of {v} by {u} [import-cycle]")
    return ref_kahn(mg.nodes, deps)[0], cuts, warnings


def _source(modules):
    """VDM-SL text for [(name, [imported names])]."""
    return "".join(
        f"module {name}\n" + "".join(f"imports from {i} all\n" for i in imports)
        + f"definitions\nend {name}\n"
        for name, imports in modules)


def _assert_orders_like_the_reference(modules):
    mods = parse_source(_source(modules), "web.vdmsl")
    ordered, removed, warnings = order_modules(mods)
    assert (ordered, removed, [str(w) for w in warnings]) == ref_order_modules(mods)
    return removed


@st.composite
def import_graphs(draw):
    """Modules named M0..; repeated names, self-imports, repeated and unknown
    imports all occur."""
    k = draw(st.integers(1, 8))
    name = st.integers(0, k - 1).map(lambda i: f"M{i}")
    imported = st.integers(0, k).map(lambda i: f"M{i}")  # M{k} is never defined
    return draw(st.lists(st.tuples(name, st.lists(imported, max_size=5)),
                         min_size=1, max_size=k + 2))


@settings(max_examples=200, deadline=None)
@given(import_graphs())
def test_order_modules_matches_the_restart_reference(modules):
    _assert_orders_like_the_reference(modules)


def test_self_import_is_cut_like_any_cycle():
    removed = _assert_orders_like_the_reference([("A", ["A", "B"]), ("B", ["A"])])
    assert removed == [("A", "A"), ("B", "A")]


def test_import_web_matches_the_restart_reference():
    """60 modules, each importing the next one and the 40 before it."""
    names = [f"Web{i}" for i in range(60)]
    web = [(n, names[i + 1:i + 2] + names[max(0, i - 40):i]) for i, n in enumerate(names)]
    assert len(_assert_orders_like_the_reference(web)) == 1580
