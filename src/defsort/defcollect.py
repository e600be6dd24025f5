"""Flattening of module definitions into sortable, namespace-separated nodes.

Every type clause (invariant, equality, order) and every function clause
(pre, post, measure) becomes its own node, named after its definition
(``inv_T``, ``pre_f`` and so on) and linked to that definition's node, its
`owner`.  Types without a user invariant receive a synthetic, trivially-true
invariant node so that invariant totality holds.  The parser has rejected
any name that two of these nodes would share.
"""

from __future__ import annotations

from enum import Enum

from . import nodes as N
from .diag import Loc, Record, UnknownNameError
from .nodes import pattern_names


class Namespace(Enum):
    TYPE = "type"
    FUNCTION = "function"
    __hash__ = object.__hash__  # members are singletons; Enum.__hash__ runs in Python


class DefKind(Enum):
    TYPE_DEF = "type"
    VALUE_DEF = "value"
    FUNCTION_DEF = "function"
    INVARIANT_FN = "inv"
    EQ_FN = "eq"
    ORD_FN = "ord"
    PRE_FN = "pre"
    POST_FN = "post"
    MEASURE_FN = "measure"
    __hash__ = object.__hash__  # as for Namespace


# a clause field's node kind, by the field's name
_CLAUSE_KINDS = {kind.value: kind for kind in DefKind}

# a type's clause kinds, in the order a type links to its clause nodes
TYPE_CLAUSES = tuple(_CLAUSE_KINDS[attr] for attr in N.NamedTypeDef.clauses)

# (namespace, name): names are unique per namespace, not per module
NodeKey = tuple


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


class DefNode(Record):
    """One flattened node; two nodes are equal only when they are one.

    `owner` is the type or function node a clause node was flattened from,
    None for a primary (type, value or function) node, `location` its
    declaration `Loc` (for ordering and labels), `bound` the names its body
    may use without depending on them, `def_index` the index of its
    definition in the source module (equal for the nodes of one definition)
    and `body` its expression, or None.  Its key is built once, so graphs
    share the tuple.
    """

    __slots__ = ("name", "namespace", "kind", "owner", "synthetic", "location", "bound",
                 "def_index", "body", "_node_key")
    _derived = {"_node_key": "(namespace, name)"}
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    @property
    def key(self) -> NodeKey:
        return self._node_key

    def __repr__(self):
        return f"<DefNode {self.name} {self.kind.value}@{self.location.line}>"


class FlatModule(Record):
    __slots__ = ("module_name", "nodes", "original_names", "source", "_by_key", "_type_refs")
    _derived = {"_by_key": "{n.key: n for n in nodes}", "_type_refs": "None"}

    def get(self, namespace: Namespace, name: str):
        return self._by_key.get((namespace, name))

    def type_refs(self) -> list:
        """Per definition index, the type names its signature uses, as
        `TNamed` nodes in source order; walked once, on first use."""
        if self._type_refs is None:
            self._type_refs = [[ref for t in _signature_types(d) for ref in N.named_types(t)]
                               for d in self.source.definitions]
        return self._type_refs


def _signature_types(d) -> list:
    """A definition's field, right-hand side, declared, parameter and
    result types, in source order."""
    if isinstance(d, N.RecordTypeDef):
        return [fld.type for fld in d.fields]
    if isinstance(d, N.NamedTypeDef):
        return [d.rhs]
    if isinstance(d, N.ValueDef):
        return [] if d.decl_type is None else [d.decl_type]
    return [*d.param_types, d.ret_type]


TRUE_LIT = N.Lit("bool", True, Loc(0, 0))


def collect(m: N.SourceModule) -> FlatModule:
    """Flatten a parsed module, whose names the parser has checked to be
    distinct (`syntax._check_toplevel_names`).  Raises UnknownNameError on
    the first signature type name that no type definition declares, unless
    the module imports (and so may name types it does not declare)."""
    nodes: list = []

    def add(name, ns, kind, owner, loc, bound, di, body, synthetic=False):
        loc = Loc(loc.line, loc.col, loc.file)  # resolved once: every edge and sort reads it
        node = DefNode(name, ns, kind, owner, synthetic, loc, frozenset(bound), di, body)
        nodes.append(node)
        return node

    for di, d in enumerate(m.definitions):
        if isinstance(d, N.ValueDef):
            for name in pattern_names(d.pattern):
                add(name, Namespace.FUNCTION, DefKind.VALUE_DEF, None, d.name_loc, (), di, d.init)
            continue
        is_function = isinstance(d, N.FuncDef)
        if is_function:
            params = frozenset(name for p in d.params for name in pattern_names(p))
            owner = add(d.name, Namespace.FUNCTION, DefKind.FUNCTION_DEF, None, d.name_loc,
                        params, di, d.body)
        else:
            owner = add(d.name, Namespace.TYPE, DefKind.TYPE_DEF, None, d.name_loc, (), di, None)
        for attr in d.clauses:
            c = getattr(d, attr)
            if c is None:
                continue
            name = f"{attr}_{d.name}"
            kind = _CLAUSE_KINDS[attr]
            if is_function:  # sees the parameters, and a post also RESULT
                bound = params | {"RESULT"} if kind is DefKind.POST_FN else params
                add(name, Namespace.FUNCTION, kind, owner, d.name_loc, bound, di, c)
            else:  # binds its own patterns
                pats = (c.pattern,) if kind is DefKind.INVARIANT_FN else (c.left, c.right)
                bound = [n for p in pats for n in pattern_names(p)]
                add(name, Namespace.FUNCTION, kind, owner, c.loc, bound, di, c.expr)

    # second stage: every type gets an invariant node, synthesized when it
    # owns none, which is when its definition has no inv clause
    for node in list(nodes):
        if node.kind is DefKind.TYPE_DEF and m.definitions[node.def_index].inv is None:
            add(f"inv_{node.name}", Namespace.FUNCTION, DefKind.INVARIANT_FN, node,
                node.location, (), node.def_index, TRUE_LIT, synthetic=True)

    original = [node.name for node in nodes if node.owner is None]
    fm = FlatModule(m.name, nodes, original, m)
    if not m.imports:
        for refs in fm.type_refs():
            for ref in refs:
                if fm.get(Namespace.TYPE, ref.name) is None:
                    raise UnknownNameError(ref.name, ref.loc)
    return fm


def type_dependency_links(fm: FlatModule) -> list:
    """Structural edges: type-to-clause links plus named references.

    A record's field types and a named type's right-hand side attach to the
    type node itself; invariant/eq/ord nodes carry no signature links.
    Type names that resolve to no definition are skipped: `collect` has
    rejected them unless the module imports them.
    """
    owned: dict = {}  # a type node -> its clause nodes by kind
    for node in fm.nodes:
        if node.kind in TYPE_CLAUSES:
            owned.setdefault(node.owner, {})[node.kind] = node
    links: list = []
    type_refs = fm.type_refs()
    for node in fm.nodes:
        if node.kind is DefKind.TYPE_DEF:
            clauses = owned[node]  # it owns an invariant node at least
            for kind in TYPE_CLAUSES:
                if kind in clauses:
                    links.append(Edge(node.key, clauses[kind].key, node.location))
        elif node.kind in TYPE_CLAUSES:
            continue
        for ref in type_refs[node.def_index]:
            used = fm.get(Namespace.TYPE, ref.name)
            # a recursive type does not order against itself
            if used is not None and used is not node:
                links.append(Edge(node.key, used.key, ref.loc))
    return links
