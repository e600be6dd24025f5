"""Free-variable analysis over definition bodies, by one expression walk.

`walk` keeps an explicit stack whose every entry carries the names bound at
that point (parameters, let bindings, quantifier and comprehension
bindings).  It marks a use conditional when it sits under an if/elseif
branch or a quantifier body.  Initialization dependencies keep only
unconditional uses of values, which is the conservative rule for
initialization-cycle errors.
"""

from __future__ import annotations

from . import nodes as N
from .defcollect import DefKind, FlatModule, Namespace
from .diag import Diagnostic, Record


class UseSite(Record):
    __slots__ = ("name", "space", "at", "conditional")


_SCOPED = (N.Let, N.Quant, N.SetComp, N.SeqComp, N.MapComp)


def walk(body, bound=frozenset(), conditional: bool = False) -> tuple:
    """One pass over an expression: (uses, calls, names, dups).

    `uses` are the UseSites of the identifiers not in `bound` and of the
    named types, in source order; `calls` the Apply nodes in pre-order;
    `names` every name mentioned, called or not, bound or not; `dups` the
    quantifiers' and comprehensions' dup-bind findings in pre-order.  A
    stack entry is (an expression or a named type, conditional, bound), so
    a scope ends with the node that opened it.  Kinds without a branch here
    read `nodes.children`.
    """
    uses: list = []
    calls: list = []
    names: set = set()
    dups: list = []
    stack = [(body, conditional, bound)]
    pop = stack.pop
    push = stack.append
    while stack:
        e, cond, bound = pop()
        kind = type(e)
        if kind is N.Lit:
            continue
        if kind is N.Name:
            names.add(e.name)
            if e.name not in bound:
                uses.append(UseSite(e.name, Namespace.FUNCTION, e.loc, cond))
        elif kind is N.Binary:
            stack += ((e.right, cond, bound), (e.left, cond, bound))
        elif kind is N.Apply:
            calls.append(e)
            names.add(e.callee)
            if e.callee not in bound:
                uses.append(UseSite(e.callee, Namespace.FUNCTION, e.loc, cond))
            for a in reversed(e.args):
                push((a, cond, bound))
        elif kind is N.BuiltinApp:
            for a in reversed(e.args):
                push((a, cond, bound))
        elif kind is N.If:
            push((e.els, True, bound))
            for c, branch in reversed(e.elifs):
                stack += ((branch, True, bound), (c, cond, bound))
            stack += ((e.then, True, bound), (e.cond, cond, bound))
        elif kind in _SCOPED:
            # a let's binds hide one another, and one bind binds each name once (parser)
            if kind is not N.Let and len(e.binds) > 1:
                dups += _duplicate_binds(e)
            stack.extend(reversed(_scoped_steps(e, cond, bound)))
        elif kind is N.TNamed:
            uses.append(UseSite(e.name, Namespace.TYPE, e.loc, cond))
        else:
            if kind is N.MkCtor:
                uses.append(UseSite(e.type_name, Namespace.TYPE, e.loc, cond))
            elif kind is N.Is:
                stack.extend((t, cond, bound) for t in reversed(N.named_types(e.type)))
            for c in reversed(N.children(e)):
                push((c, cond, bound))
    return uses, calls, names, dups


def free_uses(body, bound=frozenset(), conditional: bool = False) -> list:
    """Every identifier used by `body` that is not in `bound`: walk's uses."""
    return walk(body, bound, conditional)[0]


def _scoped_steps(e, cond, bound) -> list:
    """walk entries for a node that binds names, first entry first.

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


def _duplicate_binds(e) -> list:
    """A quantifier's or comprehension's binds of a name it has bound already."""
    what = "quantifier" if type(e) is N.Quant else "comprehension"
    dups: list = []
    seen: set = set()
    for b in e.binds:
        for name in N.pattern_names(b.pattern):
            if name in seen:
                dups.append(Diagnostic(
                    "error", "dup-bind", f"{what} binds {name!r} more than once", b.loc))
            seen.add(name)
    return dups


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
        if target is None or target is node:
            continue
        if node.kind is DefKind.MEASURE_FN and target is node.owner:
            continue
        resolved.append((use, target))
    return resolved


def init_dependencies(node, fm: FlatModule) -> set:
    """Names whose values are read before this value can initialize, its
    own name included when it reads itself unconditionally."""
    if node.kind is not DefKind.VALUE_DEF:
        return set()
    return _value_reads(free_uses(node.body, node.bound), fm)


def _value_reads(uses, fm: FlatModule) -> set:
    """The names of the values that `uses` read unconditionally."""
    targets = (fm.get(use.space, use.name) for use in uses if not use.conditional)
    return {t.name for t in targets if t is not None and t.kind is DefKind.VALUE_DEF}


# ── diagnostics ───────────────────────────────────────────────────────────


def _definition_exprs(d) -> list:
    """A definition's expressions, in source order: a value's initializer, a
    function's body and clauses, a type's clause bodies."""
    if isinstance(d, N.ValueDef):
        return [d.init]
    clauses = [getattr(d, attr) for attr in d.clauses]
    if isinstance(d, N.FuncDef):
        return [e for e in (d.body, *clauses) if e is not None]
    return [c.expr for c in clauses if c is not None]


def check_duplicate_binds(m: N.SourceModule) -> list:
    """A quantifier or comprehension must not bind the same name twice.

    VDM treats repeated binds as an implicit union of ranges, which silently
    changes meaning; the second bind is reported as an error.
    """
    return [diag for d in m.definitions for root in _definition_exprs(d) for diag in walk(root)[3]]


def check_precondition_calls(m: N.SourceModule, fm: FlatModule) -> list:
    """Warn on calls to a function with a precondition when the calling
    expression never consults that precondition itself.  Each call site is
    reported once."""
    return check_bodies(m, fm)[1]


def check_bodies(m: N.SourceModule, fm: FlatModule) -> tuple:
    """(check_duplicate_binds(m), check_precondition_calls(m, fm), reads),
    with each definition expression walked once for all three: `reads`
    maps the index of each value definition to its `init_dependencies`,
    for `check_init_cycles`.  A value that binds several names, or none, is
    still one expression."""
    dups: list = []
    calls: list = []
    reads: dict = {}
    for di, d in enumerate(m.definitions):
        for root in _definition_exprs(d):
            uses, applies, referenced, found = walk(root)
            if isinstance(d, N.ValueDef):
                reads[di] = _value_reads(uses, fm)
            dups += found
            for call in applies:
                # a pre_f node is always the clause of the function f
                pre = fm.get(Namespace.FUNCTION, f"pre_{call.callee}")
                if pre is not None and pre.kind is DefKind.PRE_FN and pre.name not in referenced:
                    calls.append(Diagnostic(
                        "warning", "pre-call", f"call to {call.callee} is not guarded by {pre.name}",
                        call.loc))
    return dups, calls, reads


def check_init_cycles(fm: FlatModule, reads: dict | None = None) -> list:
    """Unconditional value-initialization cycles are errors, a value that
    reads itself included.  `reads` is `check_bodies`' third result; without
    it each value definition's initialiser is walked here."""
    from .depgraph import DepGraph, Edge, find_cycles

    values = [n for n in fm.nodes if n.kind is DefKind.VALUE_DEF]
    g = DepGraph({n.key: n for n in values}, [])
    cycles: list = []
    if reads is None:  # def_index -> init_dependencies, one walk for all the names it binds
        reads = {n.def_index: n for n in values}
        reads = {di: init_dependencies(n, fm) for di, n in reads.items()}
    for n in values:
        deps = reads[n.def_index]
        if n.name in deps:  # find_cycles reports cycles of two or more
            cycles.append([n.name, n.name])
        for dep in sorted(deps):
            if dep != n.name:
                g.add_edge(Edge(n.key, (Namespace.FUNCTION, dep), n.location))
    cycles += [cycle.members for cycle in find_cycles(g)]
    return [Diagnostic("error", "init-cycle", "value initialization cycle: " + " -> ".join(members),
                       fm.get(Namespace.FUNCTION, members[0]).location) for members in cycles]
