"""The lexer, the expression parser and the body walkers against references.

The references are the earlier hand-written forms: a character-at-a-time
lexer, one parser method per precedence level, a scan of every comment for
every definition, and recursive walks for free uses and sub-expressions.
Generated text must give equal tokens and comments (every location
included) and equal lexer errors.  Generated expressions, well-formed and
with tokens deleted, inserted or replaced, must give equal trees (every
location included), equal parse errors, equal use sites and equal
diagnostics.
"""

import dataclasses
import pathlib
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exprwalk import subexpressions

from defsort import nodes as N
from defsort.defcollect import DefKind, Namespace, collect
from defsort.diag import Diagnostic, DuplicateNameError, Loc, Location, ParseError, Record
from defsort.freevars import (
    UseSite,
    check_duplicate_binds,
    check_precondition_calls,
    free_uses,
)
from defsort.syntax import _PUNCT, BASIC_TYPES, BUILTIN_OPS, KEYWORDS, _Parser, lex, parse_source

# ── references ────────────────────────────────────────────────────────────


def stored_loc(t):
    """A token's place as a `Loc`, as the earlier parser stored it."""
    return Loc(t.line, t.col, t.file)


def _is_ident_start(c):
    return c.isascii() and (c.isalpha())


def _is_ident_char(c):
    return c.isascii() and (c.isalnum() or c == "_")


def ref_lex(text, file="<string>"):
    """(tokens, comments) as (kind, text, loc, off, end) tuples, one character at a time."""
    toks = []
    comments = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        loc = Loc(line, col, file)
        if text.startswith("--", i):
            j = text.find("\n", i)
            if j < 0:
                j = n
            comments.append(("comment", text[i:j].rstrip("\r"), loc, i, j))
            col += j - i
            i = j
            continue
        if _is_ident_start(c):
            j = i + 1
            while j < n and _is_ident_char(text[j]):
                j += 1
            word = text[i:j]
            kind = "kw" if word in KEYWORDS else "name"
            toks.append((kind, word, loc, i, j))
            col += j - i
            i = j
            continue
        if c.isdigit():
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            if j < n - 1 and text[j] == "." and text[j + 1].isdigit():
                j += 2
                while j < n and text[j].isdigit():
                    j += 1
                toks.append(("real", text[i:j], loc, i, j))
            else:
                toks.append(("nat", text[i:j], loc, i, j))
            col += j - i
            i = j
            continue
        if c == "'":
            if i + 2 < n and text[i + 2] == "'" and text[i + 1] != "'":
                toks.append(("char", text[i + 1], loc, i, i + 3))
                i += 3
                col += 3
                continue
            raise ParseError("malformed character literal", loc)
        if c == "<":
            if text.startswith("<=>", i):
                toks.append(("punct", "<=>", loc, i, i + 3))
                i += 3
                col += 3
                continue
            if text[i : i + 2] in ("<=", "<>"):
                toks.append(("punct", text[i : i + 2], loc, i, i + 2))
                i += 2
                col += 2
                continue
            j = i + 1
            while j < n and _is_ident_char(text[j]):
                j += 1
            if j > i + 1 and j < n and text[j] == ">" and _is_ident_start(text[i + 1]):
                toks.append(("quote", text[i + 1 : j], loc, i, j + 1))
                col += j + 1 - i
                i = j + 1
                continue
            toks.append(("punct", "<", loc, i, i + 1))
            i += 1
            col += 1
            continue
        for op in _PUNCT:
            if text.startswith(op, i):
                toks.append(("punct", op, loc, i, i + len(op)))
                i += len(op)
                col += len(op)
                break
        else:
            raise ParseError(f"unexpected character {c!r}", loc)
    toks.append(("eof", "", Loc(line, col, file), n, n))
    return toks, comments


class RefParser(_Parser):
    """One method per precedence level, loosest first; comments scanned.

    It reads the tokens it tests, through the Token cursor below."""

    def __init__(self, text, file):
        super().__init__(text, file)
        self.comments = lex(text, file)[1]

    def cur(self):
        return self.tok(self.i)

    def peek(self, k=1):
        return self.tok(min(self.i + k, len(self.tags) - 1))

    def at(self, kind, text=None):
        t = self.cur()
        return t.kind == kind and (text is None or t.text == text)

    def at_kw(self, word, k=0):
        """Whether the token `k` ahead is the keyword `word`."""
        t = self.peek(k)
        return t.kind == "kw" and t.text == word

    def parse_definition(self, section, boundary):
        first = self.cur()
        leading = [c for c in self.comments if boundary <= c.off < first.off]
        if section == "types":
            core = self.parse_typedef()
        elif section == "values":
            core = self.parse_valuedef()
        else:
            core = self.parse_fundef()
        t = self.cur()
        starts = ("-", "[", "{") if section == "values" else ()
        if not self._skip(";") and not (t.kind in ("name", "eof")
                                        or t.kind == "kw" and t.text in ("types", "values", "functions", "end")
                                        or t.kind == "punct" and t.text in starts):
            raise ParseError(f"expected ';' or a new definition, found {t.describe()}", t)
        start = leading[0] if leading else first
        start_off = start.off
        if self.text[start.off - (start.col - 1) : start.off].strip() == "":
            start_off -= start.col - 1
        end = self.tok(self.i - 1).end
        nxt = self.cur()
        if nxt.kind == "eof" or nxt.kind == "kw" and nxt.text in ("types", "values", "functions", "end"):
            # the section's last definition takes the comments before the next section
            trailing = [c for c in self.comments if end <= c.off < nxt.off]
            if trailing:
                end = trailing[-1].end
        core.verbatim = self.text[start_off:end]
        return core

    def parse_expr(self):
        return self.parse_iff()

    def parse_iff(self):
        e = self.parse_implies()
        while self.at("punct", "<=>"):
            loc = stored_loc(self._take())
            e = N.Binary("<=>", e, self.parse_implies(), loc)
        return e

    def parse_implies(self):
        e = self.parse_or()
        if self.at("punct", "=>"):
            loc = stored_loc(self._take())
            return N.Binary("=>", e, self.parse_implies(), loc)
        return e

    def parse_or(self):
        e = self.parse_and()
        while self.at_kw("or"):
            loc = stored_loc(self._take())
            e = N.Binary("or", e, self.parse_and(), loc)
        return e

    def parse_and(self):
        e = self.parse_not()
        while self.at_kw("and"):
            loc = stored_loc(self._take())
            e = N.Binary("and", e, self.parse_not(), loc)
        return e

    def parse_not(self):
        if self.at_kw("not") and not self.at_kw("in", 1):
            loc = stored_loc(self._take())
            return N.Unary("not", self.parse_not(), loc)
        return self.parse_rel()

    def parse_rel(self):
        e = self.parse_add()
        while True:
            t = self.cur()
            if t.kind == "punct" and t.text in ("=", "<>", "<=", ">=", "<", ">"):
                self._take()
                e = N.Binary(t.text, e, self.parse_add(), stored_loc(t))
            elif t.kind == "kw" and t.text in ("subset", "psubset"):
                self._take()
                e = N.Binary(t.text, e, self.parse_add(), stored_loc(t))
            elif self.at_kw("in") and self.at_kw("set", 1):
                self._take()
                self._take()
                e = N.Binary("in set", e, self.parse_add(), stored_loc(t))
            elif self.at_kw("not") and self.at_kw("in", 1) and self.at_kw("set", 2):
                self._take()
                self._take()
                self._take()
                e = N.Binary("not in set", e, self.parse_add(), stored_loc(t))
            else:
                return e

    def parse_add(self):
        e = self.parse_mul()
        while True:
            t = self.cur()
            if (t.kind == "punct" and t.text in ("+", "-", "\\", "^")) or (
                t.kind == "kw" and t.text == "union"
            ):
                self._take()
                e = N.Binary(t.text, e, self.parse_mul(), stored_loc(t))
            else:
                return e

    def parse_mul(self):
        e = self.parse_prefix()
        while True:
            t = self.cur()
            if (t.kind == "punct" and t.text in ("*", "/")) or (
                t.kind == "kw" and t.text in ("div", "mod", "inter")
            ):
                self._take()
                e = N.Binary(t.text, e, self.parse_prefix(), stored_loc(t))
            else:
                return e

    def parse_primary(self):
        """The operands `parse_expr` reads itself, then the rest."""
        t = self.cur()
        if t.kind == "nat":
            self._take()
            return N.Lit("nat", int(t.text), t)
        if t.kind == "punct" and t.text == "(":
            self._take()
            e = self.parse_expr()
            self._need(")")
            return e
        applies = self.peek().kind == "punct" and self.peek().text == "("
        if t.kind == "name" and not (applies and t.text.startswith(("mk_", "is_"))):
            self._take()
            return N.Apply(t.text, self._parse_args(), t) if applies else N.Name(t.text, t)
        if t.kind == "name":
            return self.parse_mk_or_is()
        return super().parse_primary()

    def _parse_args(self):
        self._need("(")
        args = []
        if self.tags[self.i] != ")":
            args.append(self.parse_expr())
            while self._skip(","):
                args.append(self.parse_expr())
        self._need(")")
        return tuple(args)

    def parse_mk_or_is(self):
        """`mk_T(…)`, `is_T(e)` or `is_(e, type)`: a name starting with `mk_`
        or `is_`, with its argument list next."""
        t = self._take_name("a name")
        if t.text[3:] not in BASIC_TYPES and t.text not in ("mk_", "is_"):  # the type name it reads
            self.type_uses.append((t.text[3:], self.i - 1))
        if t.text.startswith("mk_"):
            if t.text == "mk_":
                raise ParseError("record constructor needs a type name", t)
            return N.MkCtor(t.text[3:], self._parse_args(), t)
        self._need("(")
        e = self.parse_expr()
        if t.text == "is_":
            self._need(",")
            ty = self.parse_type()
        else:
            name = t.text[3:]
            ty = N.TBasic(name, t) if name in BASIC_TYPES else N.TNamed(name, t)
        self._need(")")
        return N.Is(e, ty, t)

    def parse_prefix(self):
        ops = []
        while self.at("punct", "-") or (self.cur().kind == "kw" and self.cur().text in BUILTIN_OPS):
            ops.append(self._take())
        e = self.parse_primary()  # then its field selections, then the prefix run
        while self.at("punct", "."):
            dot = self._take()
            e = N.FieldSel(e, self._take_name("field name").text, dot)
        for t in reversed(ops):
            e = N.Unary("-", e, t) if t.text == "-" else N.BuiltinApp(t.text, (e,), t)
        return e


def ref_pattern_names(p):
    if isinstance(p, N.PatName):
        return [p.name]
    if isinstance(p, (N.PatSeq, N.PatSet, N.PatCtor)):
        return [name for item in p.items for name in ref_pattern_names(item)]
    return []


class BoundContext:
    """Stack of name scopes; a name is bound if any scope holds it."""

    def __init__(self, scopes=()):
        self.scopes = [frozenset(s) for s in scopes]

    def push(self, names):
        self.scopes.append(frozenset(names))

    def pop(self):
        self.scopes.pop()

    def bound(self, name: str) -> bool:
        return any(name in s for s in self.scopes)


def ref_free_uses(body, ctx, conditional=False):
    uses: list = []

    def type_refs(t, cond):
        if isinstance(t, N.TNamed):
            uses.append(UseSite(t.name, Namespace.TYPE, t.loc, cond))
        elif isinstance(t, (N.TSeq, N.TSeq1, N.TSet, N.TOptional)):
            type_refs(t.elem, cond)
        elif isinstance(t, N.TMap):
            type_refs(t.key, cond)
            type_refs(t.val, cond)
        elif isinstance(t, N.TUnion):
            for m in t.members:
                type_refs(m, cond)

    def walk_binds(binds, cond):
        """Sequential binds: each domain sees the names bound before it."""
        introduced: list = []
        for b in binds:
            if b.domain is not None:
                walk(b.domain, cond)
            if b.decl_type is not None:
                type_refs(b.decl_type, cond)
            names = ref_pattern_names(b.pattern)
            ctx.push(names)
            introduced.append(names)
        return introduced

    def pop_binds(introduced):
        for _ in introduced:
            ctx.pop()

    def walk(e, cond):
        if isinstance(e, N.Lit):
            return
        if isinstance(e, N.Name):
            if not ctx.bound(e.name):
                uses.append(UseSite(e.name, Namespace.FUNCTION, e.loc, cond))
            return
        if isinstance(e, N.Apply):
            if not ctx.bound(e.callee):
                uses.append(UseSite(e.callee, Namespace.FUNCTION, e.loc, cond))
            for a in e.args:
                walk(a, cond)
            return
        if isinstance(e, N.Unary):
            walk(e.operand, cond)
            return
        if isinstance(e, N.Binary):
            walk(e.left, cond)
            walk(e.right, cond)
            return
        if isinstance(e, N.If):
            walk(e.cond, cond)
            walk(e.then, True)
            for c, branch in e.elifs:
                walk(c, cond)
                walk(branch, True)
            walk(e.els, True)
            return
        if isinstance(e, N.Let):
            pushed = 0
            for b in e.binds:
                if b.decl_type is not None:
                    type_refs(b.decl_type, cond)
                walk(b.init, cond)
                ctx.push(ref_pattern_names(b.pattern))
                pushed += 1
            walk(e.body, cond)
            for _ in range(pushed):
                ctx.pop()
            return
        if isinstance(e, N.Quant):
            introduced = walk_binds(e.binds, cond)
            walk(e.body, True)
            pop_binds(introduced)
            return
        if isinstance(e, (N.SetEnum, N.SeqEnum)):
            for item in e.items:
                walk(item, cond)
            return
        if isinstance(e, N.MapEnum):
            for k, v in e.maplets:
                walk(k, cond)
                walk(v, cond)
            return
        if isinstance(e, (N.SetComp, N.SeqComp)):
            introduced = walk_binds(e.binds, cond)
            walk(e.elem, cond)
            if e.pred is not None:
                walk(e.pred, cond)
            pop_binds(introduced)
            return
        if isinstance(e, N.MapComp):
            introduced = walk_binds(e.binds, cond)
            walk(e.key, cond)
            walk(e.val, cond)
            if e.pred is not None:
                walk(e.pred, cond)
            pop_binds(introduced)
            return
        if isinstance(e, N.Is):
            walk(e.expr, cond)
            type_refs(e.type, cond)
            return
        if isinstance(e, N.FieldSel):
            walk(e.expr, cond)
            return
        if isinstance(e, N.MkCtor):
            uses.append(UseSite(e.type_name, Namespace.TYPE, e.loc, cond))
            for a in e.args:
                walk(a, cond)
            return
        if isinstance(e, N.BuiltinApp):
            for a in e.args:
                walk(a, cond)
            return
        raise TypeError(f"unexpected expression node {type(e).__name__}")

    walk(body, conditional)
    return uses


def ref_iter_exprs(e):
    yield e
    if isinstance(e, (N.Apply, N.MkCtor, N.BuiltinApp)):
        for a in e.args:
            yield from ref_iter_exprs(a)
    elif isinstance(e, N.Unary):
        yield from ref_iter_exprs(e.operand)
    elif isinstance(e, N.Binary):
        yield from ref_iter_exprs(e.left)
        yield from ref_iter_exprs(e.right)
    elif isinstance(e, N.If):
        yield from ref_iter_exprs(e.cond)
        yield from ref_iter_exprs(e.then)
        for c, b in e.elifs:
            yield from ref_iter_exprs(c)
            yield from ref_iter_exprs(b)
        yield from ref_iter_exprs(e.els)
    elif isinstance(e, N.Let):
        for b in e.binds:
            yield from ref_iter_exprs(b.init)
        yield from ref_iter_exprs(e.body)
    elif isinstance(e, N.Quant):
        for b in e.binds:
            if b.domain is not None:
                yield from ref_iter_exprs(b.domain)
        yield from ref_iter_exprs(e.body)
    elif isinstance(e, (N.SetEnum, N.SeqEnum)):
        for item in e.items:
            yield from ref_iter_exprs(item)
    elif isinstance(e, N.MapEnum):
        for k, v in e.maplets:
            yield from ref_iter_exprs(k)
            yield from ref_iter_exprs(v)
    elif isinstance(e, (N.SetComp, N.SeqComp)):
        for b in e.binds:
            if b.domain is not None:
                yield from ref_iter_exprs(b.domain)
        yield from ref_iter_exprs(e.elem)
        if e.pred is not None:
            yield from ref_iter_exprs(e.pred)
    elif isinstance(e, N.MapComp):
        for b in e.binds:
            if b.domain is not None:
                yield from ref_iter_exprs(b.domain)
        yield from ref_iter_exprs(e.key)
        yield from ref_iter_exprs(e.val)
        if e.pred is not None:
            yield from ref_iter_exprs(e.pred)
    elif isinstance(e, N.Is):
        yield from ref_iter_exprs(e.expr)
    elif isinstance(e, N.FieldSel):
        yield from ref_iter_exprs(e.expr)


def ref_definition_exprs(d):
    if isinstance(d, N.RecordTypeDef):
        if d.inv is not None:
            yield d.inv.expr
    elif isinstance(d, N.NamedTypeDef):
        for clause in (d.inv, d.eq, d.ord):
            if clause is not None:
                yield clause.expr
    elif isinstance(d, N.ValueDef):
        yield d.init
    elif isinstance(d, N.FuncDef):
        for e in (d.body, d.pre, d.post, d.measure):
            if e is not None:
                yield e


def ref_duplicate_binds(m):
    """A quantifier or comprehension must not bind the same name twice.

    VDM treats repeated binds as an implicit union of ranges, which silently
    changes meaning; the second bind is reported as an error.
    """
    diags: list = []
    for d in m.definitions:
        for root in ref_definition_exprs(d):
            for e in ref_iter_exprs(root):
                if not isinstance(e, (N.Quant, N.SetComp, N.SeqComp, N.MapComp)):
                    continue
                what = "quantifier" if isinstance(e, N.Quant) else "comprehension"
                seen: set = set()
                for b in e.binds:
                    for name in ref_pattern_names(b.pattern):
                        if name in seen:
                            diags.append(Diagnostic(
                                "error", "dup-bind",
                                f"{what} binds {name!r} more than once",
                                b.loc,
                            ))
                        else:
                            seen.add(name)
    return diags


def ref_precondition_calls(m, fm):
    """Warn on calls to a function with a precondition when the calling
    body never consults that precondition itself."""
    diags: list = []
    for node in fm.nodes:
        if node.body is None:
            continue
        applies = [e for e in ref_iter_exprs(node.body) if isinstance(e, N.Apply)]
        if not applies:
            continue
        referenced = {e.callee for e in applies}
        referenced.update(e.name for e in ref_iter_exprs(node.body) if isinstance(e, N.Name))
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
                diags.append(Diagnostic(
                    "warning", "pre-call",
                    f"call to {call.callee} is not guarded by {pre.name}",
                    call.loc,
                ))
    return diags


def dump(x):
    """A value's full structure, the fields equality ignores included."""
    if isinstance(x, Record):
        return (type(x).__name__,) + tuple(dump(getattr(x, name)) for name in x.__slots__)
    if dataclasses.is_dataclass(x):  # a module
        return (type(x).__name__,) + tuple(dump(getattr(x, f.name)) for f in dataclasses.fields(x))
    if isinstance(x, (tuple, list)):
        return tuple(dump(v) for v in x)
    if isinstance(x, Location):  # a Loc or a token: its place as it is now
        return ("Loc", x.line, x.col, x.file)
    return x


# ── generated text for the lexer ──────────────────────────────────────────

CORPUS = [p.read_text() for p in sorted((pathlib.Path(__file__).parent / "corpus").glob("*.vdmsl"))]
# whole tokens, their fragments and characters that begin no token; ASCII
# digits only, as the reference reads any Unicode digit as part of a number
LEX_PIECES = sorted(set(_PUNCT) | {
    "'", "<", "-", "\r", "\t", "é", "_", "\n", " ", "  ", "a", "Zq9", "x_1", "mk_R", "not",
    "in", "set", "1", "42", "4.5", "7.", ".8", "'c'", "''", "'''", "<Q>", "<Q", "<a_b>", "<1>",
    "--", "-- note", "--@doc d", "-->", "<-", "!", "#", "$", "@", "~", "?", "`", '"', "€",
})
LEX_CHARS = sorted({c for piece in LEX_PIECES for c in piece})


def kept(text):
    """False where the reference is wrong on purpose: it reads a character
    literal holding a line break as three columns of one line."""
    return "'\n'" not in text


@st.composite
def corpus_edits(draw):
    chars = list(draw(st.sampled_from(CORPUS)))
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(chars)))
        edit = draw(st.integers(0, 2))
        if edit == 0 and i < len(chars):
            del chars[i]
        elif edit == 1 and i < len(chars):
            chars[i] = draw(st.sampled_from(LEX_CHARS))
        else:
            chars.insert(i, draw(st.sampled_from(LEX_CHARS)))
    return "".join(chars)


def lex_both(text):
    """(tokens and comments, or error text) from the lexer and from the reference."""
    try:
        toks, comments = lex(text, "L.vdmsl")
        new = tuple([(t.kind, t.text, stored_loc(t), t.off, t.end) for t in ts] for ts in (toks, comments))
    except ParseError as exc:
        new = str(exc)
    try:
        ref = ref_lex(text, "L.vdmsl")
    except ParseError as exc:
        ref = str(exc)
    return new, ref


@settings(max_examples=400, deadline=None)
@given(st.one_of(
    st.lists(st.sampled_from(LEX_PIECES), max_size=40).map("".join),
    corpus_edits(),
).filter(kept))
def test_lexer_matches_the_character_loop_reference(text):
    new, ref = lex_both(text)
    assert new == ref


# ── generated input for the parser ────────────────────────────────────────

ATOMS = ["a", "b", "x", "y", "v", "w", "s", "pre_g", "1", "2.5", "true", "nil", "<Q>", "'c'",
         "f ( )", "mk_R ( )"]
BINARY = [
    "<=>", "=>", "or", "and", "=", "<>", "<=", ">=", "<", ">", "subset", "psubset",
    "in set", "not in set", "+", "-", "\\", "^", "union", "*", "/", "div", "mod", "inter",
]
PREFIX = ["not", "-", "hd", "card", "len", "dom"]
PATTERNS = ["x", "y", "a", "-", "[ x , y ]", "{ y }", "mk_R ( x , - )"]
TYPES = ["nat", "R", "seq of R", "map R to nat", "[ R ]", "R | nat", "set of ( R | bool )"]
# pieces of the multi-word operators and tokens that look like operators,
# drawn as often as all other tokens together
TRICKY = ["not", "in", "set", "not in", "in set", "not in set", "<in>", "<set>", "<and>", "'+'"]
VOCAB = sorted(set(BINARY + PREFIX + ATOMS) | {
    "(", ")", "{", "}", "[", "]", ",", "|", "&", ":", "|->", ".", "if", "then", "elseif",
    "else", "let", "forall", "exists", "mk_R", "is_R", "is_", "f", "g", "fld",
})


@st.composite
def binds(draw, depth, expr):
    parts = []
    for _ in range(draw(st.integers(1, 3))):
        pattern = draw(st.sampled_from(PATTERNS))
        if draw(st.booleans()):
            parts.append(f"{pattern} in set {draw(expr(depth))}")
        else:
            parts.append(f"{pattern} : {draw(st.sampled_from(TYPES))}")
    return " , ".join(parts)


@st.composite
def exprs(draw, depth=3):
    if depth == 0 or draw(st.integers(0, 4)) == 0:
        return draw(st.sampled_from(ATOMS))
    d = depth - 1

    def sub():
        return draw(exprs(d))

    def tail():
        return f" & {sub()}" if draw(st.booleans()) else ""

    form = draw(st.integers(0, 17))
    if form <= 3:  # a chain over one or two operators, so they repeat
        ops = draw(st.lists(st.sampled_from(BINARY), min_size=1, max_size=2))
        out = sub()
        for _ in range(draw(st.integers(1, 3))):
            out += f" {draw(st.sampled_from(ops))} {sub()}"
        return out
    if form == 4:
        return f"{draw(st.sampled_from(PREFIX))} {sub()}"
    if form == 5:
        return f"( {sub()} )"
    if form == 6:
        elifs = "".join(f" elseif {sub()} then {sub()}" for _ in range(draw(st.integers(0, 2))))
        return f"if {sub()} then {sub()}{elifs} else {sub()}"
    if form == 7:
        lets = []
        for _ in range(draw(st.integers(1, 2))):
            typed = f" : {draw(st.sampled_from(TYPES))}" if draw(st.booleans()) else ""
            lets.append(f"{draw(st.sampled_from(PATTERNS))}{typed} = {sub()}")
        return f"let {' , '.join(lets)} in {sub()}"
    if form == 8:
        return f"{draw(st.sampled_from(['forall', 'exists']))} {draw(binds(d, exprs))} & {sub()}"
    if form == 9:
        items = [sub() for _ in range(draw(st.integers(0, 3)))]
        return draw(st.sampled_from(["{ %s }", "[ %s ]"])) % " , ".join(items)
    if form == 10:
        maplets = [f"{sub()} |-> {sub()}" for _ in range(draw(st.integers(1, 2)))]
        return "{ " + " , ".join(maplets) + " }" if draw(st.booleans()) else "{ |-> }"
    if form == 11:
        return f"{{ {sub()} | {draw(binds(d, exprs))}{tail()} }}"
    if form == 12:
        return f"[ {sub()} | {draw(binds(d, exprs))}{tail()} ]"
    if form == 13:
        return f"{{ {sub()} |-> {sub()} | {draw(binds(d, exprs))}{tail()} }}"
    if form == 14:
        callee = draw(st.sampled_from(["f", "g", "mk_R", "is_R", "pre_g"]))
        args = " , ".join(sub() for _ in range(draw(st.integers(0, 2))))
        return f"{callee} ( {args} )" if args else f"{callee} ( )"
    if form == 15:
        return f"is_ ( {sub()} , {draw(st.sampled_from(TYPES))} )"
    if form == 16:  # a prefix run before a parenthesised group
        prefixes = draw(st.lists(st.sampled_from(PREFIX), min_size=1, max_size=3))
        return f"{' '.join(prefixes)} ( {sub()} )"
    return draw(st.sampled_from(["%s . fld", "( %s ) . fld", "f ( %s ) . fld"])) % sub()


@st.composite
def mutated(draw):
    tokens = draw(exprs()).split(" ")
    token = st.one_of(st.sampled_from(TRICKY), st.sampled_from(VOCAB))
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(tokens)))
        edit = draw(st.integers(0, 2))
        if edit == 0 and i < len(tokens):
            del tokens[i]
        elif edit == 1 and i < len(tokens):
            tokens[i] = draw(token)
        else:
            tokens.insert(i, draw(token))
    return " ".join(tokens)


def module_text(body, pre):
    return f"""module M
definitions
types
  R :: fld : nat;
values
  -- a plain comment
  --@doc first value
  v = {body};

  w = 1;
functions
  g : nat -> nat
  g(x) == x
  pre x > 0;
  --@doc the function
  f : nat * R -> nat
  f(a, b) == {body}
  pre {pre}
end M
"""


def parse_both(text):
    """(tree or error text) from the parser and from the reference."""
    results = []
    for parse in (parse_source, lambda t, f: RefParser(t, f).parse_file()):
        try:
            results.append(dump(parse(text, "M.vdmsl")))
        except ParseError as exc:
            results.append(str(exc))
    return results


@settings(max_examples=400, deadline=None)
@given(st.one_of(exprs(), mutated()), st.one_of(exprs(), mutated()))
def test_parser_matches_the_precedence_level_reference(body, pre):
    new, ref = parse_both(module_text(body, pre))
    assert new == ref


@pytest.mark.parametrize("body", [
    "is_Q ( is_ ( x , S ) )",
    "mk_Q ( let y : S = 1 in y )",
    "is_ ( mk_Q ( ) , S )",
    "f ( forall z : S & is_Q ( z ) )",
    "mk_token ( is_nat ( 1 ) ) + is_Q ( 2 )",
])
def test_parser_matches_the_reference_on_unknown_type_names(body):
    new, ref = parse_both(module_text(body, "true"))
    assert new == ref and "unknown type name" in new


@settings(max_examples=300, deadline=None)
@given(exprs(), exprs(), st.booleans())
def test_walkers_match_the_recursive_references(body, pre, conditional):
    try:
        [m] = parse_source(module_text(body, pre), "M.vdmsl")
        fm = collect(m)
    except (ParseError, DuplicateNameError):
        return
    for node in fm.nodes:
        if node.body is None:
            continue
        uses = free_uses(node.body, node.bound, conditional)
        assert uses == ref_free_uses(node.body, BoundContext([node.bound]), conditional)
        assert [id(e) for e in subexpressions(node.body)] == [id(e) for e in ref_iter_exprs(node.body)]
    assert check_duplicate_binds(m) == ref_duplicate_binds(m)
    assert check_precondition_calls(m, fm) == ref_precondition_calls(m, fm)


def test_walkers_match_the_recursive_references_on_the_corpus():
    kinds = set()
    for text in CORPUS:
        for m in parse_source(text, "M.vdmsl"):
            fm = collect(m)
            for node in fm.nodes:
                if node.body is not None:
                    assert free_uses(node.body, node.bound) == ref_free_uses(node.body, BoundContext([node.bound]))
            assert check_duplicate_binds(m) == ref_duplicate_binds(m)
            assert check_precondition_calls(m, fm) == ref_precondition_calls(m, fm)
            kinds.update(type(e) for d in m.definitions for root in ref_definition_exprs(d)
                         for e in ref_iter_exprs(root))
    # every kind of expression, so every branch of the walk, is compared
    assert kinds == set(N._CHILDREN)


def comment_layouts(text):
    """The text as is, without its final line break, with a comment after
    each `;`, with two comment lines before each `end`, and with a comment
    line every third line; each with LF and with CRLF line ends."""
    lines = text.split("\n")
    for variant in (
        text,
        text.rstrip("\n"),
        text.replace(";", "; -- after"),
        re.sub(r"(?m)^end\b", "-- one\n  -- two\nend", text),
        "\n".join(line + "\n  -- inserted" * (k % 3 == 2) for k, line in enumerate(lines)),
    ):
        yield variant
        yield variant.replace("\n", "\r\n")


def test_definition_text_matches_the_comment_token_reference():
    for text in CORPUS:
        for variant in comment_layouts(text):
            new, ref = parse_both(variant)
            assert new == ref, variant


@st.composite
def operator_runs(draw, depth=1):
    """Operands with runs of prefix operators before them and binary
    operators between them, so `not`, prefix and `=>` runs meet every
    precedence level, also at the start of a parenthesised group or a call
    argument.  An operand is an atom, a group or a call, perhaps selected
    from."""
    parts = []
    for k in range(draw(st.integers(1, 6 if depth else 3))):
        if k:
            parts.append(draw(st.sampled_from(BINARY)))
        parts.extend(draw(st.lists(st.sampled_from(PREFIX), max_size=3)))
        shape = draw(st.integers(0, 15 if depth else 9))  # odd and over 8: selected from
        if shape < 10:
            parts.append(draw(st.sampled_from(ATOMS)))
        elif shape < 12:
            parts.append(f"( {draw(INNER_RUNS)} )")
        else:
            parts.append(f"f ( {' , '.join(draw(INNER_RUNS) for _ in range(shape // 2 - 5))} )")
        if shape % 2 and shape > 8:
            parts.append(". fld")
    return " ".join(parts)


INNER_RUNS = operator_runs(0)


class RecursivePrefixParser(RefParser):
    """The reference, with prefix operators parsed by one call each."""

    def parse_prefix(self):
        t = self.cur()
        if t.kind == "punct" and t.text == "-":
            self._take()
            return N.Unary("-", self.parse_prefix(), stored_loc(t))
        if t.kind == "kw" and t.text in BUILTIN_OPS:
            self._take()
            return N.BuiltinApp(t.text, (self.parse_prefix(),), stored_loc(t))
        return self.parse_postfix()

    def parse_postfix(self):
        e = self.parse_primary()
        while self.at("punct", "."):
            loc = stored_loc(self._take())
            e = N.FieldSel(e, self._take_name("field name").text, loc)
        return e


@settings(max_examples=300, deadline=None)
@given(operator_runs(), operator_runs())
def test_operator_runs_match_the_recursive_reference(body, pre):
    text = module_text(body, pre)
    results = []
    for parse in (parse_source, lambda t, f: RecursivePrefixParser(t, f).parse_file()):
        try:
            results.append(dump(parse(text, "M.vdmsl")))
        except ParseError as exc:
            results.append(str(exc))
    assert results[0] == results[1]
