"""AST for the VDM-SL module subset.

Every syntax class is a `diag.Record`: a plain slotted class whose fields
are its `__slots__`, with a generated constructor.  Structural equality,
hash and repr ignore locations and verbatim text, so a module compares
equal to the result of printing and reparsing it.

Records are not frozen.  The parser sets a definition's source text
(`verbatim`, its comments included) on the object it built, so a
definition is built once; no later stage assigns to it.  Only modules stay
frozen dataclasses, because the benchmark's re-enactment
(`perfbench/reenact.py`) copies a module with `dataclasses.replace`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .diag import Location, Record

# ── patterns ──────────────────────────────────────────────────────────────


class PatName(Record):
    __slots__ = ("name", "loc")


class PatIgnore(Record):
    __slots__ = ("loc",)


class PatSeq(Record):
    __slots__ = ("items", "loc")


class PatSet(Record):
    __slots__ = ("items", "loc")


class PatCtor(Record):
    __slots__ = ("type_name", "items", "loc")


# ── type expressions ──────────────────────────────────────────────────────


class TBasic(Record):
    __slots__ = ("name", "loc")  # name: nat nat1 int real bool char token


class TQuote(Record):
    __slots__ = ("name", "loc")


class TNamed(Record):
    __slots__ = ("name", "loc")


class TSeq(Record):
    __slots__ = ("elem", "loc")


class TSeq1(Record):
    __slots__ = ("elem", "loc")


class TSet(Record):
    __slots__ = ("elem", "loc")


class TMap(Record):
    __slots__ = ("key", "val", "loc")


class TOptional(Record):
    __slots__ = ("elem", "loc")


class TUnion(Record):
    # parser flattens nested unions; always two or more members
    __slots__ = ("members", "loc")


# ── expressions ───────────────────────────────────────────────────────────


class Lit(Record):
    __slots__ = ("kind", "value", "loc")  # kind: nat real bool char quote nil


class Name(Record):
    __slots__ = ("name", "loc")


class Apply(Record):
    __slots__ = ("callee", "args", "loc")


class Unary(Record):
    __slots__ = ("op", "operand", "loc")


class Binary(Record):
    __slots__ = ("op", "left", "right", "loc")


class If(Record):
    __slots__ = ("cond", "then", "elifs", "els", "loc")  # elifs: (cond, expr) pairs


class LetBind(Record):
    __slots__ = ("pattern", "decl_type", "init", "loc")  # decl_type may be None


class Let(Record):
    __slots__ = ("binds", "body", "loc")  # binds: LetBinds, bound sequentially


class Bind(Record):
    """`pattern in set expr` or `pattern : type` in quantifiers/comprehensions:
    `domain` is the set expression of a set bind and `decl_type` the type of
    a type bind; the other is None."""

    __slots__ = ("pattern", "domain", "decl_type", "loc")


class Quant(Record):
    __slots__ = ("which", "binds", "body", "loc")  # which: forall | exists


class SetEnum(Record):
    __slots__ = ("items", "loc")


class SeqEnum(Record):
    __slots__ = ("items", "loc")


class MapEnum(Record):
    __slots__ = ("maplets", "loc")  # maplets: (key, value) pairs


class SetComp(Record):
    __slots__ = ("elem", "binds", "pred", "loc")  # pred may be None


class SeqComp(Record):
    __slots__ = ("elem", "binds", "pred", "loc")


class MapComp(Record):
    __slots__ = ("key", "val", "binds", "pred", "loc")


class Is(Record):
    __slots__ = ("expr", "type", "loc")


class FieldSel(Record):
    __slots__ = ("expr", "field", "loc")


class MkCtor(Record):
    __slots__ = ("type_name", "args", "loc")


class BuiltinApp(Record):
    __slots__ = ("op", "args", "loc")  # op: hd tl len elems card dom rng inds


# ── definitions ───────────────────────────────────────────────────────────
# Optional parts (an invariant, a declared type, a precondition …) are None
# when absent.  `name_loc` is where the name, or a value's pattern, starts.
# `clauses` names a class's clause fields in order; clause `c` of `d` is the function `c_d`.


class InvClause(Record):
    __slots__ = ("pattern", "expr", "loc")


class EqClause(Record):
    __slots__ = ("left", "right", "expr", "loc")


class OrdClause(Record):
    __slots__ = ("left", "right", "expr", "loc")


class RecordField(Record):
    __slots__ = ("name", "type", "loc")


class RecordTypeDef(Record):
    __slots__ = ("name", "fields", "inv", "name_loc", "verbatim")

    section = "types"
    clauses = ("inv",)


class NamedTypeDef(Record):
    __slots__ = ("name", "rhs", "inv", "eq", "ord", "name_loc", "verbatim")

    section = "types"
    clauses = ("inv", "eq", "ord")


class ValueDef(Record):
    __slots__ = ("pattern", "decl_type", "init", "name_loc", "verbatim")

    section = "values"
    clauses = ()


class FuncDef(Record):
    # params: one pattern per domain component
    __slots__ = ("name", "param_types", "ret_type", "params", "body", "pre", "post", "measure",
                 "name_loc", "verbatim")

    section = "functions"
    clauses = ("pre", "post", "measure")


class ImportRef(Record):
    __slots__ = ("module", "loc")


def _pos():
    # position-ish payload: never part of structural equality
    return field(compare=False, repr=False)


@dataclass(frozen=True)
class SourceModule:
    name: str
    exports_all: bool
    imports: tuple
    definitions: tuple
    file: str = _pos()
    name_loc: Location = _pos()


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


def declared_names(defs):
    """(definition index, clause field or None, name, site) per declared name,
    in `defcollect.collect`'s node order: a value's pattern names at their
    sites; a type's or function's name, then each clause `c` as `c_<name>`,
    at the clause for a type and the name for a function; last, each
    implicit `inv_T` of a type without `inv`, with no site."""
    for di, d in enumerate(defs):
        if d.section == "values":
            for name, loc in pattern_name_sites(d.pattern):
                yield di, None, name, loc
            continue
        yield di, None, d.name, d.name_loc
        for attr in d.clauses:
            c = getattr(d, attr)
            if c is not None:
                yield di, attr, f"{attr}_{d.name}", d.name_loc if d.section == "functions" else c.loc
    for di, d in enumerate(defs):
        if d.section == "types" and d.inv is None:
            yield di, "inv", f"inv_{d.name}", None


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
