"""Free-variable analysis over definition bodies.

Use sites are collected by one stack walk whose every entry carries the
names bound at that point (parameters, let bindings, quantifier and
comprehension bindings), and are marked conditional when they sit under an
if/elseif branch or a quantifier body.  Initialization dependencies keep only
unconditional uses of other values, which is the conservative rule for
initialization-cycle errors.
"""

from __future__ import annotations

from . import nodes as N
from .defcollect import CLAUSES, DefKind, FlatModule, Namespace
from .diag import Diagnostic, Record


class UseSite(Record):
    __slots__ = ("name", "space", "at", "conditional")


_SCOPED = (N.Let, N.Quant, N.SetComp, N.SeqComp, N.MapComp)


def free_uses(body, bound=frozenset(), conditional: bool = False) -> list:
    """Every identifier used by `body` that is not in `bound`.

    The walk keeps an explicit stack of (item, conditional, bound) entries,
    where an item is an expression or a named type (a use in the type
    namespace) and `bound` holds the names bound at that point, so a scope
    ends with the node that opened it.
    """
    uses: list = []
    stack = [(body, conditional, bound)]
    while stack:
        e, cond, bound = stack.pop()
        kind = type(e)
        if kind is N.Name:
            if e.name not in bound:
                uses.append(UseSite(e.name, Namespace.FUNCTION, e.loc, cond))
            continue
        if kind in _SCOPED:
            stack.extend(reversed(_scoped_steps(e, cond, bound)))
            continue
        if kind is N.If:
            stack.append((e.els, True, bound))
            for c, branch in reversed(e.elifs):
                stack += ((branch, True, bound), (c, cond, bound))
            stack += ((e.then, True, bound), (e.cond, cond, bound))
            continue
        if kind is N.TNamed:
            uses.append(UseSite(e.name, Namespace.TYPE, e.loc, cond))
            continue
        if kind is N.Apply:
            if e.callee not in bound:
                uses.append(UseSite(e.callee, Namespace.FUNCTION, e.loc, cond))
        elif kind is N.MkCtor:
            uses.append(UseSite(e.type_name, Namespace.TYPE, e.loc, cond))
        elif kind is N.Is:
            stack.extend((t, cond, bound) for t in reversed(N.named_types(e.type)))
        stack.extend((c, cond, bound) for c in reversed(N.children(e)))
    return uses


def _scoped_steps(e, cond, bound) -> list:
    """free_uses entries for a node that binds names, first entry first.

    Binds are sequential: each one's expressions see the names bound before
    it, and the entries after it see its own names too.  Quantifier bodies
    are conditional.
    """
    steps: list = []
    for b in e.binds:
        if type(b) is N.Bind and b.domain is not None:
            steps.append((b.domain, cond, bound))
        if b.decl_type is not None:
            steps += [(t, cond, bound) for t in N.named_types(b.decl_type)]
        if type(b) is N.LetBind:
            steps.append((b.init, cond, bound))
        bound = bound.union(N.pattern_names(b.pattern))
    kind = type(e)
    if kind is N.Quant:
        steps.append((e.body, True, bound))
    elif kind is N.Let:
        steps.append((e.body, cond, bound))
    else:
        parts = (e.key, e.val) if kind is N.MapComp else (e.elem,)
        steps += [(x, cond, bound) for x in parts]
        if e.pred is not None:
            steps.append((e.pred, cond, bound))
    return steps


def def_use_sites(node, fm: FlatModule) -> list:
    """Resolved (UseSite, DefNode) pairs for a flattened node's body.

    Self references are ignored, as is a measure clause's use of the
    function it measures.  Names that resolve nowhere are dropped: with
    imports in scope they are external, otherwise they are not ours to sort.
    """
    if node.body is None:
        return []
    resolved: list = []
    for use in free_uses(node.body, node.bound):
        target = fm.get(use.space, use.name)
        if target is None or target.key == node.key:
            continue
        if node.kind is DefKind.MEASURE_FN and target is node.owner:
            continue
        resolved.append((use, target))
    return resolved


def init_dependencies(node, fm: FlatModule) -> set:
    """Names whose values are read before this value can initialize."""
    if node.kind is not DefKind.VALUE_DEF:
        return set()
    deps = set()
    for use, target in def_use_sites(node, fm):
        if not use.conditional and target.kind is DefKind.VALUE_DEF:
            deps.add(target.name)
    return deps


# ── diagnostics ───────────────────────────────────────────────────────────


def _definition_exprs(d) -> list:
    """A definition's expressions, in source order: a value's initializer, a
    function's body and clauses, a type's clause bodies."""
    if isinstance(d, N.ValueDef):
        return [d.init]
    clauses = [getattr(d, attr) for attr, _ in CLAUSES[type(d)]]
    if isinstance(d, N.FuncDef):
        return [e for e in (d.body, *clauses) if e is not None]
    return [c.expr for c in clauses if c is not None]


_COMPREHENSIONS = (N.SetComp, N.SeqComp, N.MapComp)


def _walk(root) -> tuple:
    """One pass over a definition expression: its dup-bind findings, its
    calls, and every name it mentions, called or not, in pre-order."""
    dups: list = []
    applies: list = []
    referenced: set = set()
    for e in N.subexpressions(root):
        kind = type(e)
        if kind is N.Name:
            referenced.add(e.name)
        elif kind is N.Apply:
            applies.append(e)
            referenced.add(e.callee)
        elif kind in _COMPREHENSIONS:
            seen: set = set()
            for b in e.binds:
                for name in N.pattern_names(b.pattern):
                    if name in seen:
                        dups.append(Diagnostic(
                            "error", "dup-bind",
                            f"comprehension binds {name!r} more than once",
                            b.loc,
                        ))
                    else:
                        seen.add(name)
    return dups, applies, referenced


def _walks(m: N.SourceModule):
    """_walk of every definition expression, in source order.  A value
    that binds several names, or none, is still one expression."""
    for d in m.definitions:
        for root in _definition_exprs(d):
            yield _walk(root)


def check_duplicate_binds(m: N.SourceModule) -> list:
    """A comprehension must not bind the same name twice.

    VDM treats repeated binds as an implicit union of ranges, which silently
    changes meaning; the second bind is reported as an error.
    """
    return [diag for dups, _, _ in _walks(m) for diag in dups]


def check_precondition_calls(m: N.SourceModule, fm: FlatModule) -> list:
    """Warn on calls to a function with a precondition when the calling
    expression never consults that precondition itself.  Each call site is
    reported once."""
    return check_bodies(m, fm)[1]


def check_bodies(m: N.SourceModule, fm: FlatModule) -> tuple:
    """(check_duplicate_binds(m), check_precondition_calls(m, fm)), with
    each definition expression walked once for both."""
    dups: list = []
    calls: list = []
    for found, applies, referenced in _walks(m):
        dups += found
        for call in applies:
            target = fm.get(Namespace.FUNCTION, call.callee)
            pre = fm.get(Namespace.FUNCTION, f"pre_{call.callee}")
            if (
                target is not None
                and target.kind is DefKind.FUNCTION_DEF
                and pre is not None
                and pre.kind is DefKind.PRE_FN
                and pre.name not in referenced
            ):
                calls.append(Diagnostic(
                    "warning", "pre-call",
                    f"call to {call.callee} is not guarded by {pre.name}",
                    call.loc,
                ))
    return dups, calls


def check_init_cycles(fm: FlatModule) -> list:
    """Unconditional value-initialization cycles are errors."""
    from .depgraph import DepGraph, Edge, find_cycles

    values = [n for n in fm.nodes if n.kind is DefKind.VALUE_DEF]
    g = DepGraph({n.key: n for n in values}, [])
    for n in values:
        for dep in sorted(init_dependencies(n, fm)):
            g.add_edge(Edge(n.key, (Namespace.FUNCTION, dep), n.location))
    diags: list = []
    for cycle in find_cycles(g):
        first = fm.get(Namespace.FUNCTION, cycle.members[0])
        diags.append(Diagnostic(
            "error", "init-cycle",
            "value initialization cycle: " + " -> ".join(cycle.members),
            first.location,
        ))
    return diags
