"""AST for the VDM-SL module subset.

Structural equality deliberately ignores locations, spans and verbatim text,
so a module compares equal to the result of printing and reparsing it.

The classes built once per syntax node or definition are slotted and not
frozen, because a frozen dataclass costs several times as much to build.
The parser sets a definition's comments, span and text on the object it
built, so a definition is built once; no later stage assigns to them.  Only
modules stay frozen.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from .diag import Location, Span


def _pos():
    # position-ish payload: never part of structural equality
    return field(compare=False, repr=False)


# ── patterns ──────────────────────────────────────────────────────────────


@dataclass(slots=True, unsafe_hash=True)
class PatName:
    name: str
    loc: Location = _pos()


@dataclass(slots=True, unsafe_hash=True)
class PatIgnore:
    loc: Location = _pos()


@dataclass(slots=True, unsafe_hash=True)
class PatSeq:
    items: tuple
    loc: Location = _pos()


@dataclass(slots=True, unsafe_hash=True)
class PatSet:
    items: tuple
    loc: Location = _pos()


@dataclass(slots=True, unsafe_hash=True)
class PatCtor:
    type_name: str
    items: tuple
    loc: Location = _pos()


Pattern = Union[PatName, PatIgnore, PatSeq, PatSet, PatCtor]


# ── type expressions ──────────────────────────────────────────────────────


@dataclass(slots=True, unsafe_hash=True)
class TBasic:
    name: str  # nat nat1 int real bool char token
    loc: Location = _pos()


@dataclass(slots=True, unsafe_hash=True)
class TQuote:
    name: str
    loc: Location = _pos()


@dataclass(slots=True, unsafe_hash=True)
class TNamed:
    name: str
    loc: Location = _pos()


@dataclass(slots=True, unsafe_hash=True)
class TSeq:
    elem: "TypeExpr"
    loc: Location = _pos()


@dataclass(slots=True, unsafe_hash=True)
class TSeq1:
    elem: "TypeExpr"
    loc: Location = _pos()


@dataclass(slots=True, unsafe_hash=True)
class TSet:
    elem: "TypeExpr"
    loc: Location = _pos()


@dataclass(slots=True, unsafe_hash=True)
class TMap:
    key: "TypeExpr"
    val: "TypeExpr"
    loc: Location = _pos()


@dataclass(slots=True, unsafe_hash=True)
class TOptional:
    elem: "TypeExpr"
    loc: Location = _pos()


@dataclass(slots=True, unsafe_hash=True)
class TUnion:
    # parser flattens nested unions; always two or more members
    members: tuple
    loc: Location = _pos()


TypeExpr = Union[TBasic, TQuote, TNamed, TSeq, TSeq1, TSet, TMap, TOptional, TUnion]


# ── expressions ───────────────────────────────────────────────────────────


@dataclass(slots=True, unsafe_hash=True)
class Lit:
    kind: str  # nat real bool char quote nil
    value: object
    loc: Location = _pos()


@dataclass(slots=True, unsafe_hash=True)
class Name:
    name: str
    loc: Location = _pos()


@dataclass(slots=True, unsafe_hash=True)
class Apply:
    callee: str
    args: tuple
    loc: Location = _pos()


@dataclass(slots=True, unsafe_hash=True)
class Unary:
    op: str
    operand: "Expr"
    loc: Location = _pos()


@dataclass(slots=True, unsafe_hash=True)
class Binary:
    op: str
    left: "Expr"
    right: "Expr"
    loc: Location = _pos()


@dataclass(slots=True, unsafe_hash=True)
class If:
    cond: "Expr"
    then: "Expr"
    elifs: tuple  # of (cond, expr)
    els: "Expr"
    loc: Location = _pos()


@dataclass(slots=True, unsafe_hash=True)
class LetBind:
    pattern: Pattern
    decl_type: Optional[TypeExpr]
    init: "Expr"
    loc: Location = _pos()


@dataclass(slots=True, unsafe_hash=True)
class Let:
    binds: tuple  # of LetBind, bound sequentially
    body: "Expr"
    loc: Location = _pos()


@dataclass(slots=True, unsafe_hash=True)
class Bind:
    """`pattern in set expr` or `pattern : type` in quantifiers/comprehensions."""

    pattern: Pattern
    domain: Optional["Expr"]  # the set expression, if a set bind
    decl_type: Optional[TypeExpr]  # the type, if a type bind
    loc: Location = _pos()


@dataclass(slots=True, unsafe_hash=True)
class Quant:
    which: str  # forall | exists
    binds: tuple
    body: "Expr"
    loc: Location = _pos()


@dataclass(slots=True, unsafe_hash=True)
class SetEnum:
    items: tuple
    loc: Location = _pos()


@dataclass(slots=True, unsafe_hash=True)
class SeqEnum:
    items: tuple
    loc: Location = _pos()


@dataclass(slots=True, unsafe_hash=True)
class MapEnum:
    maplets: tuple  # of (key, value)
    loc: Location = _pos()


@dataclass(slots=True, unsafe_hash=True)
class SetComp:
    elem: "Expr"
    binds: tuple
    pred: Optional["Expr"]
    loc: Location = _pos()


@dataclass(slots=True, unsafe_hash=True)
class SeqComp:
    elem: "Expr"
    binds: tuple
    pred: Optional["Expr"]
    loc: Location = _pos()


@dataclass(slots=True, unsafe_hash=True)
class MapComp:
    key: "Expr"
    val: "Expr"
    binds: tuple
    pred: Optional["Expr"]
    loc: Location = _pos()


@dataclass(slots=True, unsafe_hash=True)
class Is:
    expr: "Expr"
    type: TypeExpr
    loc: Location = _pos()


@dataclass(slots=True, unsafe_hash=True)
class FieldSel:
    expr: "Expr"
    field: str
    loc: Location = _pos()


@dataclass(slots=True, unsafe_hash=True)
class MkCtor:
    type_name: str
    args: tuple
    loc: Location = _pos()


@dataclass(slots=True, unsafe_hash=True)
class BuiltinApp:
    op: str  # hd tl len elems card dom rng inds
    args: tuple
    loc: Location = _pos()


Expr = Union[
    Lit, Name, Apply, Unary, Binary, If, Let, Quant,
    SetEnum, SeqEnum, MapEnum, SetComp, SeqComp, MapComp,
    Is, FieldSel, MkCtor, BuiltinApp,
]


# ── definitions ───────────────────────────────────────────────────────────


@dataclass(slots=True, unsafe_hash=True)
class InvClause:
    pattern: Pattern
    expr: Expr
    loc: Location = _pos()


@dataclass(slots=True, unsafe_hash=True)
class EqClause:
    left: Pattern
    right: Pattern
    expr: Expr
    loc: Location = _pos()


@dataclass(slots=True, unsafe_hash=True)
class OrdClause:
    left: Pattern
    right: Pattern
    expr: Expr
    loc: Location = _pos()


@dataclass(slots=True, unsafe_hash=True)
class RecordField:
    name: str
    type: TypeExpr
    loc: Location = _pos()


@dataclass(slots=True, unsafe_hash=True)
class RecordTypeDef:
    name: str
    fields: tuple
    inv: Optional[InvClause]
    doc_comments: tuple
    name_loc: Location = _pos()
    span: Span = _pos()
    verbatim: str = _pos()

    section = "types"


@dataclass(slots=True, unsafe_hash=True)
class NamedTypeDef:
    name: str
    rhs: TypeExpr
    inv: Optional[InvClause]
    eq: Optional[EqClause]
    ord: Optional[OrdClause]
    doc_comments: tuple
    name_loc: Location = _pos()
    span: Span = _pos()
    verbatim: str = _pos()

    section = "types"


@dataclass(slots=True, unsafe_hash=True)
class ValueDef:
    pattern: Pattern
    decl_type: Optional[TypeExpr]
    init: Expr
    doc_comments: tuple
    name_loc: Location = _pos()  # location of the pattern
    span: Span = _pos()
    verbatim: str = _pos()

    section = "values"


@dataclass(slots=True, unsafe_hash=True)
class FuncDef:
    name: str
    param_types: tuple
    ret_type: TypeExpr
    params: tuple  # one pattern per domain component
    body: Expr
    pre: Optional[Expr]
    post: Optional[Expr]
    measure: Optional[Expr]
    doc_comments: tuple
    name_loc: Location = _pos()
    span: Span = _pos()
    verbatim: str = _pos()

    section = "functions"


Definition = Union[RecordTypeDef, NamedTypeDef, ValueDef, FuncDef]


@dataclass(slots=True, unsafe_hash=True)
class ImportRef:
    module: str
    loc: Location = _pos()


@dataclass(frozen=True)
class SourceModule:
    name: str
    exports_all: bool
    imports: tuple
    definitions: tuple
    file: str = _pos()
    name_loc: Location = _pos()
    span: Span = _pos()
    text: str = _pos()  # exact source slice of the whole module


# ── walkers ───────────────────────────────────────────────────────────────
# One walker per syntax category.  Each keeps an explicit stack, so nesting
# depth costs no interpreter stack frames.


def pattern_name_sites(p) -> list:
    """(name, loc) for every identifier a pattern binds, left to right."""
    sites: list = []
    stack = [p]
    while stack:
        p = stack.pop()
        if type(p) is PatName:
            sites.append((p.name, p.loc))
        elif type(p) is not PatIgnore:
            stack.extend(reversed(p.items))
    return sites


def pattern_names(p) -> list:
    """All identifiers bound by a pattern, left to right."""
    return [name for name, _ in pattern_name_sites(p)]


def named_types(t) -> list:
    """Every TNamed inside a type expression, left to right."""
    found: list = []
    stack = [t]
    while stack:
        t = stack.pop()
        kind = type(t)
        if kind is TNamed:
            found.append(t)
        elif kind is TMap:
            stack += (t.val, t.key)
        elif kind is TUnion:
            stack.extend(reversed(t.members))
        elif kind in (TSeq, TSeq1, TSet, TOptional):
            stack.append(t.elem)
    return found


def _domains(binds) -> tuple:
    return tuple(b.domain for b in binds if b.domain is not None)


def _optional(e) -> tuple:
    return () if e is None else (e,)


_CHILDREN = {
    Lit: lambda e: (),
    Name: lambda e: (),
    Apply: lambda e: e.args,
    MkCtor: lambda e: e.args,
    BuiltinApp: lambda e: e.args,
    Unary: lambda e: (e.operand,),
    Binary: lambda e: (e.left, e.right),
    If: lambda e: (e.cond, e.then, *(x for pair in e.elifs for x in pair), e.els),
    Let: lambda e: (*(b.init for b in e.binds), e.body),
    Quant: lambda e: (*_domains(e.binds), e.body),
    SetEnum: lambda e: e.items,
    SeqEnum: lambda e: e.items,
    MapEnum: lambda e: tuple(x for maplet in e.maplets for x in maplet),
    SetComp: lambda e: (*_domains(e.binds), e.elem, *_optional(e.pred)),
    SeqComp: lambda e: (*_domains(e.binds), e.elem, *_optional(e.pred)),
    MapComp: lambda e: (*_domains(e.binds), e.key, e.val, *_optional(e.pred)),
    Is: lambda e: (e.expr,),
    FieldSel: lambda e: (e.expr,),
}


def children(e) -> tuple:
    """An expression's direct sub-expressions, in source order.

    The exception is a comprehension, whose bind domains come before its
    element: the binds are evaluated, and come into scope, first.
    """
    try:
        return _CHILDREN[type(e)](e)
    except KeyError:
        raise TypeError(f"unexpected expression node {type(e).__name__}") from None


def subexpressions(e):
    """`e` and every expression nested in it, in pre-order."""
    stack = [e]
    while stack:
        e = stack.pop()
        yield e
        stack.extend(reversed(children(e)))
