"""Dependency graph kernel for definition order and module import order.

Edges point from the user to the definition (or module) it uses.  All
traversals visit nodes and neighbours in collection order, the order the
nodes were given in, which keeps every result of this module deterministic
for a given input.
"""

from __future__ import annotations

import heapq
from bisect import insort
from collections import deque
from itertools import chain, count

from .diag import CycleError, Record


class Edge(Record):
    """`user` depends on `used`, two node keys; `at` is the earliest use site
    witnessing the edge.  The name properties assume definition keys."""

    __slots__ = ("user", "used", "at")

    @property
    def user_name(self):
        return self.user[1]

    @property
    def used_name(self):
        return self.used[1]


class DepGraph:
    """Nodes in collection order, which is their insertion order, numbered by
    that order: a node's position is its index in `keys` (`pos` maps a key
    back).  `deps` holds, per position, the positions that node uses, in
    ascending order, kept current by `add_edge` and `remove_edge`; each such
    pair keeps the edge of its earliest use as its witness.  `add_edge` and
    `remove_edge` take keys; the traversals read positions.
    """

    def __init__(self, nodes: dict, edges=()):
        self.nodes = dict(nodes)  # key -> DefNode or module, collection order
        self.keys = list(self.nodes)
        self.pos = {k: i for i, k in enumerate(self.keys)}
        self.deps: list = [[] for _ in self.keys]  # position -> used positions, ascending
        self._witness: dict = {}  # (user position, used position) -> Edge
        self._places = None
        for e in edges:
            self.add_edge(e)

    @property
    def edges(self) -> list:
        """Each pair's edge, in the order the pairs were first added."""
        return list(self._witness.values())

    def add_edge(self, e: Edge):
        i, j = self.pos.get(e.user), self.pos.get(e.used)
        if i is None or j is None:
            raise KeyError(f"edge endpoints must be graph nodes: {e}")
        old = self._witness.get((i, j))
        if old is None:
            self._witness[i, j] = e
            insort(self.deps[i], j)
        elif e.at.place < old.at.place:
            self._witness[i, j] = e

    def remove_edge(self, user, used):
        i, j = self.pos[user], self.pos[used]
        del self._witness[i, j]
        self.deps[i].remove(j)

    def places(self) -> list:
        """Per position, where the node is declared: its `location`'s
        `place`, `line << 32 | col`, whatever the location's class.  Worked
        out on first use and kept, as the nodes never change; definition
        graphs only, as a module node has no location."""
        if self._places is None:
            self._places = [n.location.place for n in self.nodes.values()]
        return self._places


def build_graph(fm) -> DepGraph:
    """Graph of every node of the flat module `fm` with signature and body
    dependencies; a use of another definition's clause is also a use of its
    owner.  `order` runs the kernel without the definition layers, so they
    load here."""
    from .defcollect import type_dependency_links
    from .freevars import def_use_sites

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

    Returns each position's component number, the components numbered in
    the order they complete, so two nodes share one exactly when each
    reaches the other; and the back edges, the edges to a node on the
    current search path (self-loops included), in the order the search
    meets them.  Removing the back edges leaves the graph acyclic.
    """
    deps, witness = g.deps, g._witness
    n = len(deps)
    index = [-1] * n  # visit order, -1 before the visit
    low = [0] * n
    label = [-1] * n  # component number, -1 until the component completes
    on_path = [False] * n  # a node of `work`
    stack: list = []  # visited, component not yet complete
    back: list = []
    work: list = []  # (node, iterator over its remaining dependencies)
    visits = count()
    components = 0

    def visit(v):
        index[v] = low[v] = next(visits)
        stack.append(v)
        on_path[v] = True
        work.append((v, iter(deps[v])))

    for root in range(n):
        if index[root] >= 0:
            continue
        visit(root)
        while work:
            v, it = work[-1]
            for w in it:
                if index[w] < 0:
                    visit(w)
                    break
                if label[w] < 0:  # on the stack
                    if on_path[w]:
                        back.append(witness[v, w])
                    if index[w] < low[v]:
                        low[v] = index[w]
            else:
                work.pop()
                on_path[v] = False
                if work:
                    parent = work[-1][0]
                    if low[v] < low[parent]:
                        low[parent] = low[v]
                if low[v] == index[v]:
                    while True:
                        w = stack.pop()
                        label[w] = components
                        if w == v:
                            break
                    components += 1
    return label, back


def find_cycles(g: DepGraph) -> list:
    """One closed-walk witness per strongly connected component of size > 1,
    by the collection order of the component's first node."""
    labels = search(g)[0]
    members: dict = {}  # component -> its positions, ascending
    for i, c in enumerate(labels):
        members.setdefault(c, []).append(i)
    cycles: list = []
    for comp in members.values():
        if len(comp) < 2:
            continue
        start = comp[0]
        label = labels[start]
        # breadth-first parents give the shortest closed walk through start
        parents = {start: None}
        queue = deque([start])
        walk = None
        while queue and walk is None:
            u = queue.popleft()
            for v in g.deps[u]:
                if labels[v] != label:
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
        keys = tuple(g.keys[i] for i in walk)
        cycles.append(Cycle(keys, tuple(g.nodes[k].name for k in keys)))
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
    place, used = g.places(), set(chain.from_iterable(g.deps))
    starts = sorted((i for i in range(len(g.keys)) if i not in used), key=place.__getitem__)
    return [g.nodes[g.keys[i]] for i in starts]


def kahn_sort(g: DepGraph) -> list:
    """Keys in dependency order: a node comes after everything it uses.

    Ties are broken by collection order, so among simultaneously-ready nodes
    the earliest-declared user definition is emitted first and synthetic
    invariants drain last.
    """
    deps = g.deps
    remaining = list(map(len, deps))
    users_of: list = [[] for _ in deps]
    for i, used in enumerate(deps):
        for j in used:
            users_of[j].append(i)
    heap = [i for i, r in enumerate(remaining) if not r]  # ascending, so a heap
    emitted: list = []
    while heap:
        i = heapq.heappop(heap)
        emitted.append(i)
        for user in users_of[i]:
            remaining[user] -= 1
            if not remaining[user]:
                heapq.heappush(heap, user)
    keys = g.keys
    if len(emitted) != len(keys):
        stuck = [g.nodes[k].name for k, r in zip(keys, remaining) if r]
        raise CycleError(f"cycle prevents sorting: {', '.join(stuck)}")
    return [keys[i] for i in emitted]
