"""Dependency graph construction, cycle handling, and topological sorting."""

import pytest

from conftest import single_module

from defsort.defcollect import DefKind, DefNode, Namespace, collect
from defsort.depgraph import (
    DepGraph,
    Edge,
    break_cycles,
    build_graph,
    find_cycles,
    kahn_sort,
    scc_labels,
    search,
    start_points,
)
from defsort.diag import CycleError, Loc
from defsort.syntax import parse_source

GOLDEN_EDGES = {
    ("Rec", "inv_Rec"),
    ("Rec", "S"),
    ("Rec", "T"),
    ("S", "inv_S"),
    ("S", "T"),
    ("inv_S", "tail"),
    ("inv_S", "head"),
    ("T", "inv_T"),
}


def _node(name, i, ns=Namespace.FUNCTION):
    return DefNode(name, ns, DefKind.FUNCTION_DEF, None, False,
                   Loc(i + 1, 1), frozenset(), i, i, None)


def _graph(names, pairs):
    nodes = {}
    for i, name in enumerate(names):
        n = _node(name, i)
        nodes[n.key] = n
    g = DepGraph(nodes)
    for user, used in pairs:
        g.add_edge(Edge((Namespace.FUNCTION, user), (Namespace.FUNCTION, used),
                        Loc(names.index(user) + 1, 1)))
    return g


def _golden_graph():
    return build_graph(collect(single_module("M.vdmsl")))


def test_build_graph_collects_signature_and_body_edges():
    g = _golden_graph()
    assert len(g.nodes) == 8
    assert {(e.user_name, e.used_name) for e in g.edges} == GOLDEN_EDGES


def test_edges_keep_the_earliest_witness_location():
    g = _graph(["a", "b"], [])
    a, b = (Namespace.FUNCTION, "a"), (Namespace.FUNCTION, "b")
    g.add_edge(Edge(a, b, Loc(5, 3)))
    g.add_edge(Edge(a, b, Loc(2, 1)))
    g.add_edge(Edge(a, b, Loc(9, 9)))
    assert len(g.edges) == 1
    assert g.edge(a, b).at == Loc(2, 1)


def test_edge_endpoints_must_exist():
    g = _graph(["a"], [])
    with pytest.raises(KeyError):
        g.add_edge(Edge((Namespace.FUNCTION, "a"), (Namespace.FUNCTION, "zz"), Loc(1, 1)))


def test_out_neighbours_follow_collection_order():
    g = _graph(["a", "b", "c"], [("c", "b"), ("c", "a")])
    assert [k[1] for k in g.out((Namespace.FUNCTION, "c"))] == ["a", "b"]


def test_remove_edge_and_in_degree():
    g = _graph(["a", "b"], [("a", "b")])
    assert g.in_degree()[(Namespace.FUNCTION, "b")] == 1
    g.remove_edge((Namespace.FUNCTION, "a"), (Namespace.FUNCTION, "b"))
    assert (Namespace.FUNCTION, "b") not in g.out((Namespace.FUNCTION, "a"))
    assert g.in_degree()[(Namespace.FUNCTION, "b")] == 0


def test_find_cycles_reports_one_walk_per_component():
    g = build_graph(collect(single_module("mutrec.vdmsl")))
    cycles = find_cycles(g)
    assert len(cycles) == 1
    assert cycles[0].members == ("f", "g", "f")
    assert len(cycles[0]) == 2


def test_find_cycles_empty_on_acyclic_graph():
    assert find_cycles(_golden_graph()) == []


def test_intra_scc_pairs_cover_both_directions():
    g = build_graph(collect(single_module("mutrec.vdmsl")))
    labels = scc_labels(search(g)[0])
    pairs = {(u[1], v[1]) for u in g.nodes for v in g.out(u) if labels[u] == labels[v]}
    assert pairs == {("f", "g"), ("g", "f")}


def test_break_cycles_cuts_the_first_back_edge():
    g = build_graph(collect(single_module("mutrec.vdmsl")))
    removed = break_cycles(g)
    assert [(e.user_name, e.used_name) for e in removed] == [("g", "f")]
    assert find_cycles(g) == []


def test_break_cycles_handles_several_components():
    g = _graph(["a", "b", "c", "d"],
               [("a", "b"), ("b", "a"), ("c", "d"), ("d", "c")])
    removed = break_cycles(g)
    assert [(e.user_name, e.used_name) for e in removed] == [("b", "a"), ("d", "c")]
    assert find_cycles(g) == []


def test_break_cycles_noop_on_acyclic_graph():
    g = _golden_graph()
    before = len(g.edges)
    assert break_cycles(g) == []
    assert len(g.edges) == before


def test_start_points_golden_module():
    assert [n.name for n in start_points(_golden_graph())] == ["Rec"]


def test_start_points_sorted_by_location():
    g = _graph(["b", "a"], [])
    assert [n.name for n in start_points(g)] == ["b", "a"]


def test_kahn_sort_golden_module():
    order = [k[1] for k in kahn_sort(_golden_graph())]
    assert order == ["tail", "head", "inv_S", "inv_Rec", "inv_T", "T", "S", "Rec"]


def test_kahn_sort_puts_every_node_after_its_dependencies():
    g = _golden_graph()
    order = kahn_sort(g)
    position = {k: i for i, k in enumerate(order)}
    for e in g.edges:
        assert position[e.user] > position[e.used]


def test_kahn_sort_raises_on_unbroken_cycle():
    g = build_graph(collect(single_module("mutrec.vdmsl")))
    with pytest.raises(CycleError) as err:
        kahn_sort(g)
    assert "f" in str(err.value) and "g" in str(err.value)


def test_kahn_sort_cycle_error_spanning_both_namespaces():
    src = (
        "module C\nexports all\ndefinitions\ntypes\n"
        "    A = B;\n"
        "    B = A;\n"
        "end C\n"
    )
    g = build_graph(collect(parse_source(src)[0]))
    with pytest.raises(CycleError):
        kahn_sort(g)


def test_sort_then_break_is_stable_for_two_space_names():
    g = build_graph(collect(single_module("twospace.vdmsl")))
    order = kahn_sort(g)
    assert len(order) == len(g.nodes)
    position = {k: i for i, k in enumerate(order)}
    for e in g.edges:
        assert position[e.user] > position[e.used]
