"""Flattening of module definitions into sortable, namespace-separated nodes.

Every type clause (invariant, equality, order) and every function clause
(pre, post, measure) becomes its own node, named after its origin
(``inv_T``, ``pre_f`` and so on).  Types without a user invariant receive a
synthetic, trivially-true invariant node so that invariant totality holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from . import nodes as N
from .diag import DuplicateNameError, Loc, Location, UnknownNameError
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


PRIMARY_KINDS = frozenset({DefKind.TYPE_DEF, DefKind.VALUE_DEF, DefKind.FUNCTION_DEF})
CLAUSE_KINDS = frozenset(set(DefKind) - PRIMARY_KINDS)

# (namespace, name): names are unique per namespace, not per module
NodeKey = tuple


@dataclass(slots=True, unsafe_hash=True)
class Edge:
    """`user` depends on `used`; the name properties assume definition keys."""

    user: NodeKey
    used: NodeKey
    at: Location  # earliest use site witnessing the edge

    @property
    def user_name(self):
        return self.user[1]

    @property
    def used_name(self):
        return self.used[1]


@dataclass(eq=False, slots=True)
class DefNode:
    name: str
    namespace: Namespace
    kind: DefKind
    origin: str  # user definition this node was flattened from
    synthetic: bool
    location: Loc  # declaration location used for ordering and labels
    bound: frozenset  # names the node's body may use without depending on them
    def_index: int  # index into the source module's definition list
    index: int  # collection order; synthesized nodes come after all user nodes
    body: object  # Expr or None

    @property
    def key(self) -> NodeKey:
        return (self.namespace, self.name)

    @property
    def is_clause(self) -> bool:
        return self.kind in CLAUSE_KINDS

    def __repr__(self):
        return f"<DefNode {self.name} {self.kind.value}@{self.location.line}>"


@dataclass
class FlatModule:
    module_name: str
    nodes: list
    original_names: list
    source: N.SourceModule

    def __post_init__(self):
        self._by_key = {n.key: n for n in self.nodes}

    def get(self, namespace: Namespace, name: str):
        return self._by_key.get((namespace, name))


def _param_names(d: N.FuncDef) -> frozenset:
    names: list = []
    for p in d.params:
        names.extend(pattern_names(p))
    return frozenset(names)


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
    """Flatten a module; raises DuplicateNameError on a namespace collision,
    then UnknownNameError on the first signature type name that no type
    definition declares, unless the module imports (and so may name types
    it does not declare)."""
    nodes: list = []
    seen: dict = {}

    def add(node: DefNode):
        if node.key in seen:
            raise DuplicateNameError(node.name, node.namespace.value, node.location)
        seen[node.key] = node
        nodes.append(node)

    def mk(name, ns, kind, origin, synthetic, loc, bound, di, body):
        loc = Loc(loc.line, loc.col, loc.file)  # resolved once: every edge and sort reads it
        return DefNode(name, ns, kind, origin, synthetic, loc, frozenset(bound), di, len(nodes), body)

    for di, d in enumerate(m.definitions):
        if isinstance(d, (N.RecordTypeDef, N.NamedTypeDef)):
            add(mk(d.name, Namespace.TYPE, DefKind.TYPE_DEF, d.name, False, d.name_loc, (), di, None))
            if d.inv is not None:
                add(mk(f"inv_{d.name}", Namespace.FUNCTION, DefKind.INVARIANT_FN, d.name,
                       False, d.inv.loc, pattern_names(d.inv.pattern), di, d.inv.expr))
            if isinstance(d, N.NamedTypeDef):
                if d.eq is not None:
                    bound = pattern_names(d.eq.left) + pattern_names(d.eq.right)
                    add(mk(f"eq_{d.name}", Namespace.FUNCTION, DefKind.EQ_FN, d.name,
                           False, d.eq.loc, bound, di, d.eq.expr))
                if d.ord is not None:
                    bound = pattern_names(d.ord.left) + pattern_names(d.ord.right)
                    add(mk(f"ord_{d.name}", Namespace.FUNCTION, DefKind.ORD_FN, d.name,
                           False, d.ord.loc, bound, di, d.ord.expr))
        elif isinstance(d, N.ValueDef):
            for name in pattern_names(d.pattern):
                add(mk(name, Namespace.FUNCTION, DefKind.VALUE_DEF, name,
                       False, d.name_loc, (), di, d.init))
        elif isinstance(d, N.FuncDef):
            params = _param_names(d)
            add(mk(d.name, Namespace.FUNCTION, DefKind.FUNCTION_DEF, d.name,
                   False, d.name_loc, params, di, d.body))
            if d.pre is not None:
                add(mk(f"pre_{d.name}", Namespace.FUNCTION, DefKind.PRE_FN, d.name,
                       False, d.name_loc, params, di, d.pre))
            if d.post is not None:
                add(mk(f"post_{d.name}", Namespace.FUNCTION, DefKind.POST_FN, d.name,
                       False, d.name_loc, params | {"RESULT"}, di, d.post))
            if d.measure is not None:
                add(mk(f"measure_{d.name}", Namespace.FUNCTION, DefKind.MEASURE_FN, d.name,
                       False, d.name_loc, params, di, d.measure))

    # second stage: every type gets an invariant node, synthesized when absent
    for node in list(nodes):
        if node.kind is DefKind.TYPE_DEF and not (Namespace.FUNCTION, f"inv_{node.name}") in seen:
            add(mk(f"inv_{node.name}", Namespace.FUNCTION, DefKind.INVARIANT_FN, node.name,
                   True, node.location, (), node.def_index, TRUE_LIT))

    if not m.imports:  # a definition with no node (`- : T = e`) is not read
        for di in dict.fromkeys(node.def_index for node in nodes):
            for t in _signature_types(m.definitions[di]):
                for ref in N.named_types(t):
                    if (Namespace.TYPE, ref.name) not in seen:
                        raise UnknownNameError(ref.name, ref.loc)

    original = list(dict.fromkeys(node.origin for node in nodes if not node.synthetic))
    return FlatModule(m.name, nodes, original, m)


def type_dependency_links(fm: FlatModule) -> list:
    """Structural edges: type-to-clause links plus named references.

    A record's field types and a named type's right-hand side attach to the
    type node itself; invariant/eq/ord nodes carry no signature links.
    Type names that resolve to no definition are skipped: `collect` has
    rejected them unless the module imports them.
    """
    links: list = []
    for node in fm.nodes:
        d = fm.source.definitions[node.def_index]
        if node.kind is DefKind.TYPE_DEF:
            for clause in ("inv", "eq", "ord"):
                other = fm.get(Namespace.FUNCTION, f"{clause}_{node.name}")
                if other is not None:
                    links.append(Edge(node.key, other.key, node.location))
        elif node.kind in (DefKind.INVARIANT_FN, DefKind.EQ_FN, DefKind.ORD_FN):
            continue
        for t in _signature_types(d):
            for ref in N.named_types(t):
                used = (Namespace.TYPE, ref.name)
                # a recursive type does not order against itself
                if used != node.key and used in fm._by_key:
                    links.append(Edge(node.key, used, ref.loc))
    return links
