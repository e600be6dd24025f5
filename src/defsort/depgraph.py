"""Dependency graph kernel for definition order and module import order.

Edges point from the user to the definition (or module) it uses.  All
traversals visit nodes and neighbours in collection order, the order the
nodes were given in, which keeps every result of this module deterministic
for a given input.
"""

from __future__ import annotations

import heapq
from collections import deque

from .defcollect import Edge, FlatModule, NodeKey, type_dependency_links
from .diag import CycleError, Record
from .freevars import def_use_sites


class DepGraph:
    """Nodes in collection order, which is their insertion order, and for
    each node a map from every node it uses to the edge witnessing that use.
    """

    def __init__(self, nodes: dict, edges=()):
        self.nodes = dict(nodes)  # key -> DefNode or module, collection order
        self._pos = {k: i for i, k in enumerate(self.nodes)}
        self._out: dict = {k: {} for k in self.nodes}  # user -> {used: Edge}
        for e in edges:
            self.add_edge(e)

    @property
    def edges(self) -> list:
        return [e for adj in self._out.values() for e in adj.values()]

    def add_edge(self, e: Edge):
        if e.user not in self.nodes or e.used not in self.nodes:
            raise KeyError(f"edge endpoints must be graph nodes: {e}")
        adj = self._out[e.user]
        old = adj.get(e.used)
        if old is None or (e.at.line, e.at.col) < (old.at.line, old.at.col):
            adj[e.used] = e

    def edge(self, user: NodeKey, used: NodeKey) -> Edge:
        return self._out[user][used]

    def remove_edge(self, user: NodeKey, used: NodeKey):
        del self._out[user][used]

    def out(self, key: NodeKey) -> list:
        """Dependencies of `key`, in collection order of the target."""
        return sorted(self._out[key], key=self._pos.__getitem__)

    def in_degree(self) -> dict:
        deg = {k: 0 for k in self.nodes}
        for adj in self._out.values():
            for used in adj:
                deg[used] += 1
        return deg


def build_graph(fm: FlatModule) -> DepGraph:
    """Graph of every flattened node with signature and body dependencies;
    a use of another definition's clause is also a use of its owner."""
    g = DepGraph({n.key: n for n in fm.nodes}, type_dependency_links(fm))
    for node in fm.nodes:
        for use, target in def_use_sites(node, fm):
            g.add_edge(Edge(node.key, target.key, use.at))
            if target.owner is not None and target.def_index != node.def_index:
                g.add_edge(Edge(node.key, target.owner.key, use.at))
    return g


class Cycle(Record):
    """A closed walk through one strongly connected component: `keys` is
    the walk of node keys, first == last, and `members` the same walk as
    bare names."""

    __slots__ = ("keys", "members")

    def __len__(self):
        return len(self.keys) - 1


def search(g: DepGraph) -> tuple:
    """Tarjan's algorithm (Tarjan 1972), iteratively, in collection order.

    Returns the strongly connected components in the order they complete,
    and the back edges, the edges to a node on the current search path
    (self-loops included), in the order the search meets them.  Removing
    the back edges leaves the graph acyclic.
    """
    index_of: dict = {}
    low: dict = {}
    on_stack: set = set()  # visited, component not yet complete
    on_path: set = set()  # the nodes of `work`
    stack: list = []
    sccs: list = []
    back: list = []
    work: list = []  # (node, iterator over its remaining dependencies)

    def visit(v):
        index_of[v] = low[v] = len(index_of)
        stack.append(v)
        on_stack.add(v)
        on_path.add(v)
        work.append((v, iter(g.out(v))))

    for root in g.nodes:
        if root in index_of:
            continue
        visit(root)
        while work:
            v, it = work[-1]
            for w in it:
                if w not in index_of:
                    visit(w)
                    break
                if w in on_stack:
                    if w in on_path:
                        back.append(g.edge(v, w))
                    x = index_of[w]
                    if x < low[v]:
                        low[v] = x
            else:
                work.pop()
                on_path.discard(v)
                if work:
                    parent = work[-1][0]
                    if low[v] < low[parent]:
                        low[parent] = low[v]
                if low[v] == index_of[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        comp.append(w)
                        if w == v:
                            break
                    sccs.append(comp)
    return sccs, back


def scc_labels(sccs: list) -> dict:
    """Each node's component number: two nodes share one exactly when each
    reaches the other."""
    return {k: i for i, comp in enumerate(sccs) for k in comp}


def find_cycles(g: DepGraph) -> list:
    """One closed-walk witness per strongly connected component of size > 1."""
    cycles: list = []
    for comp in search(g)[0]:
        if len(comp) < 2:
            continue
        members = set(comp)
        start = min(comp, key=g._pos.__getitem__)
        # breadth-first parents give the shortest closed walk through start
        parents = {start: None}
        queue = deque([start])
        walk = None
        while queue and walk is None:
            u = queue.popleft()
            for v in g.out(u):
                if v not in members:
                    continue
                if v == start:
                    path = [u]
                    while parents[path[-1]] is not None:
                        path.append(parents[path[-1]])
                    path.reverse()
                    walk = path + [start]
                    break
                if v not in parents:
                    parents[v] = u
                    queue.append(v)
        keys = tuple(walk)
        cycles.append(Cycle(keys, tuple(g.nodes[k].name for k in keys)))
    cycles.sort(key=lambda c: g._pos[c.keys[0]])
    return cycles


def break_cycles(g: DepGraph) -> list:
    """Remove the back edges of `search(g)`; returns them, as cut.

    A back edge is never a tree edge, so a search restarted from scratch
    after each cut would replay the same states up to the next back edge:
    the cuts equal those of repeatedly removing the first edge that closes a
    cycle in declaration order.
    """
    back = search(g)[1]
    for e in back:
        g.remove_edge(e.user, e.used)
    return back


def start_points(g: DepGraph) -> list:
    """Nodes no other definition depends on, by declaration location."""
    deg = g.in_degree()
    starts = [g.nodes[k] for k, d in deg.items() if d == 0]
    starts.sort(key=lambda n: (n.location.line, n.location.col))
    return starts


def kahn_sort(g: DepGraph) -> list:
    """Keys in dependency order: a node comes after everything it uses.

    Ties are broken by collection order, so among simultaneously-ready nodes
    the earliest-declared user definition is emitted first and synthetic
    invariants drain last.
    """
    keys = list(g.nodes)
    remaining = [len(g._out[k]) for k in keys]
    users_of: list = [[] for _ in keys]
    for user, adj in g._out.items():
        for used in adj:
            users_of[g._pos[used]].append(g._pos[user])
    heap = [i for i, r in enumerate(remaining) if r == 0]
    heapq.heapify(heap)
    emitted: list = []
    while heap:
        i = heapq.heappop(heap)
        emitted.append(keys[i])
        for user in users_of[i]:
            remaining[user] -= 1
            if remaining[user] == 0:
                heapq.heappush(heap, user)
    if len(emitted) != len(keys):
        stuck = [g.nodes[k].name for k, r in zip(keys, remaining) if r]
        raise CycleError(f"cycle prevents sorting: {', '.join(stuck)}")
    return emitted
