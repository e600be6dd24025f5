"""Lexer, parser and printer for the VDM-SL module subset.

The parser is a recursive descent over a pre-lexed token list, except
that an expression is read by one operator-precedence loop.  Every
definition records the exact source span it came from (leading comments
included), so later stages can move definitions around without touching
their text.
"""

from __future__ import annotations

import re
from bisect import bisect_left

from . import nodes as N
from .diag import Loc, Location, ParseError, Span

KEYWORDS = frozenset(
    """
    module exports imports from all definitions end types values functions
    inv eq ord pre post measure if then elseif else let in forall exists
    set seq seq1 map of to nat nat1 int real bool char token true false nil
    not and or div mod hd tl len elems card dom rng inds union inter
    subset psubset
    """.split()
)

BASIC_TYPES = frozenset({"nat", "nat1", "int", "real", "bool", "char", "token"})
BUILTIN_OPS = frozenset({"hd", "tl", "len", "elems", "card", "dom", "rng", "inds"})
SECTION_KEYWORDS = ("types", "values", "functions")

# Binary operators by level, loosest first.  All associate to the left
# except "=>".  Prefix "not" binds between "and" and the relations.
BINARY_LEVELS = {
    "<=>": 1,
    "=>": 2,
    "or": 3,
    "and": 4,
    **dict.fromkeys(("=", "<>", "<=", ">=", "<", ">", "subset", "psubset",
                     "in set", "not in set"), 6),
    **dict.fromkeys(("+", "-", "\\", "^", "union"), 7),
    **dict.fromkeys(("*", "/", "div", "mod", "inter"), 8),
}
NOT_LEVEL = 5
PREFIX_LEVEL = 9  # `-` and the built-ins bind tighter than any binary operator

# longest first so the lexer never splits a two-char operator
_PUNCT = (
    "|->", "<=>", "::", "==", "=>", "<>", "<=", ">=", "->",
    "(", ")", "{", "}", "[", "]", ",", ";", ":", "=", "<", ">",
    "+", "-", "*", "/", "|", "&", ".", "\\", "^",
)


class Token(Location):
    """One token, and its own location: line and column are worked out when
    read, from the line-break index its lex shares, as most are never read."""

    __slots__ = ("kind", "text", "off", "src")

    def __init__(self, kind: str, text: str, off: int, src: tuple):
        self.kind = kind  # kw punct name nat real char quote comment eof
        self.text = text
        self.off = off
        self.src = src  # (file, offsets of every line break, text length), shared per lex

    @property
    def line(self) -> int:
        return bisect_left(self.src[1], self.off) + 1  # one past the breaks before it

    @property
    def col(self) -> int:
        breaks = self.src[1]
        i = bisect_left(breaks, self.off)
        return self.off - breaks[i - 1] if i else self.off + 1

    @property
    def file(self) -> str:
        return self.src[0]

    @property
    def end(self) -> int:
        """Offset just past the token's source text."""
        if self.kind == "comment":  # its text drops a trailing carriage return
            _, breaks, length = self.src
            i = bisect_left(breaks, self.off)
            return breaks[i] if i < len(breaks) else length
        quoted = self.kind == "char" or self.kind == "quote"
        return self.off + len(self.text) + (2 if quoted else 0)

    def describe(self) -> str:
        if self.kind == "eof":
            return "end of input"
        if self.kind in ("kw", "punct"):
            return f"'{self.text}'"
        return f"{self.kind} '{self.text}'"


# One match per token: leading white space and line breaks, then one group
# per token class, tried in order, so `lastindex` names the class: word,
# comment, quote, punctuation (one-character marks in one class), real,
# nat, character literal, any other character, end of input.  The last two
# make the pattern match everywhere, so no match backtracks through space.
_TOKEN = re.compile(
    r"[ \t\r\n]*(?:([A-Za-z][A-Za-z0-9_]*)|(--[^\n]*)|(<[A-Za-z][A-Za-z0-9_]*>)|("
    + "|".join(re.escape(p) for p in _PUNCT if len(p) > 1)
    + "|[" + "".join(re.escape(p) for p in _PUNCT if len(p) == 1)
    + r"])|([0-9]+\.[0-9]+)|([0-9]+)|('[^'\n]')|(.)|(\Z))"
)
_BREAK = re.compile(r"\n")
# one text string per keyword and punctuation spelling, shared by its tokens
_SPELLING = {w: w for w in (*KEYWORDS, *_PUNCT)}


def lex(text: str, file: str = "<string>"):
    """Split text into (significant tokens, comment tokens)."""
    src = (file, [m.start() for m in _BREAK.finditer(text)], len(text))
    toks: list[Token] = []
    comments: list[Token] = []
    for m in _TOKEN.finditer(text):
        g = m.lastindex
        word = m[g]
        off = m.start(g)
        # a Token call in each branch lexes about 4% faster than one shared append
        if g == 1:
            if word in KEYWORDS:
                toks.append(Token("kw", _SPELLING[word], off, src))
            else:
                toks.append(Token("name", word, off, src))
        elif g == 4:
            toks.append(Token("punct", _SPELLING[word], off, src))
        elif g == 6:
            toks.append(Token("nat", word, off, src))
        elif g == 2:
            comments.append(Token("comment", word.rstrip("\r"), off, src))
        elif g == 5:
            toks.append(Token("real", word, off, src))
        elif g == 3 or g == 7:
            toks.append(Token("quote" if g == 3 else "char", word[1:-1], off, src))
        elif g == 9:
            toks.append(Token("eof", word, off, src))
            break
        else:
            message = "malformed character literal" if word == "'" else f"unexpected character {word!r}"
            raise ParseError(message, Token("bad", word, off, src))
    return toks, comments


def pattern_names_distinct(patterns, where: str):
    """ParseError if the same identifier is bound twice across `patterns`."""
    seen: dict[str, Location] = {}
    for p in patterns:
        for name, loc in N.pattern_name_sites(p):
            if name in seen:
                raise ParseError(f"name {name!r} bound twice in {where}", loc)
            seen[name] = loc


# ── parser ────────────────────────────────────────────────────────────────


class _Parser:
    def __init__(self, text: str, file: str):
        self.text = text
        self.file = file
        self.toks, self.comments = lex(text, file)
        self.comment_offs = [c.off for c in self.comments]
        self.i = 0

    # token plumbing

    def cur(self) -> Token:
        return self.toks[self.i]

    def peek(self, k: int = 1) -> Token:
        j = min(self.i + k, len(self.toks) - 1)
        return self.toks[j]

    def last(self) -> Token:
        return self.toks[self.i - 1]

    def at(self, kind: str, text: str | None = None) -> bool:
        t = self.toks[self.i]
        return t.kind == kind and (text is None or t.text == text)

    def at_kw(self, *words: str) -> bool:
        t = self.toks[self.i]
        return t.kind == "kw" and t.text in words

    def advance(self) -> Token:
        self.i += 1
        return self.toks[self.i - 1]

    def accept(self, kind: str, text: str | None = None):
        t = self.toks[self.i]
        if t.kind == kind and (text is None or t.text == text):
            self.i += 1
            return t
        return None

    def expect(self, kind: str, text: str | None = None) -> Token:
        t = self.toks[self.i]
        if t.kind == kind and (text is None or t.text == text):
            self.i += 1
            return t
        want = f"'{text}'" if text else kind
        raise ParseError(f"expected {want}, found {t.describe()}", t)

    def expect_name(self, what: str = "identifier") -> Token:
        if self.at("name"):
            return self.advance()
        raise ParseError(f"expected {what}, found {self.cur().describe()}", self.cur())

    # file / module level

    def parse_file(self):
        mods = []
        while not self.at("eof"):
            mods.append(self.parse_module())
        return mods

    def parse_module(self) -> N.SourceModule:
        self.expect("kw", "module")
        name_tok = self.expect_name("module name")
        exports_all = False
        if self.accept("kw", "exports"):
            self.expect("kw", "all")
            exports_all = True
        imports = []
        while self.at_kw("imports"):
            self.advance()
            self.expect("kw", "from")
            imp = self.expect_name("module name")
            self.expect("kw", "all")
            imports.append(N.ImportRef(imp.text, imp))
        self.expect("kw", "definitions")
        defs: list = []
        while self.at_kw(*SECTION_KEYWORDS):
            sec_tok = self.advance()
            sec_end = boundary = sec_tok.end
            while not (self.at_kw(*SECTION_KEYWORDS) or self.at_kw("end") or self.at("eof")):
                d = self.parse_definition(sec_tok.text, boundary)
                defs.append(d)
                boundary = d.span.end_off
            if boundary > sec_end:  # the section has a definition
                defs[-1] = self._with_trailing_comments(defs[-1])
        self.expect("kw", "end")
        end_tok = self.expect_name("module name")
        if end_tok.text != name_tok.text:
            raise ParseError(
                f"module ends with 'end {end_tok.text}' but is named {name_tok.text!r}",
                end_tok,
            )
        _check_toplevel_names(defs, name_tok.text)
        return N.SourceModule(
            name=name_tok.text,
            exports_all=exports_all,
            imports=tuple(imports),
            definitions=tuple(defs),
            file=self.file,
            name_loc=name_tok,
        )

    def _make_span(self, start: Token, end_off: int) -> Span:
        """From `start`, or from the start of its line when only white space
        precedes it, to `end_off`, which ends the last token consumed."""
        line_start = start.off - (start.col - 1)
        if self.text[line_start : start.off].strip() == "":
            return Span(Loc(start.line, 1, start.file), self.last(), line_start, end_off)
        return Span(start, self.last(), start.off, end_off)

    # definitions

    def _with_trailing_comments(self, d):
        """Extend a section's last definition over the comments between it
        and the next section keyword or `end`, so they move with it."""
        lo = bisect_left(self.comment_offs, d.span.end_off)
        trailing = self.comments[lo : bisect_left(self.comment_offs, self.cur().off, lo)]
        if not trailing:
            return d
        last = trailing[-1]
        end_off = last.end
        d.span = Span(d.span.start, last, d.span.start_off, end_off)
        d.verbatim = self.text[d.span.start_off : end_off]
        return d

    def parse_definition(self, section: str, boundary: int):
        first = self.cur()
        lo = bisect_left(self.comment_offs, boundary)
        leading = self.comments[lo : bisect_left(self.comment_offs, first.off, lo)]
        if section == "types":
            core = self.parse_typedef()
        elif section == "values":
            core = self.parse_valuedef()
        else:
            core = self.parse_fundef()
        self.accept("punct", ";")
        start = leading[0] if leading else first
        span = self._make_span(start, self.last().end)
        core.doc_comments = tuple(
            c.text[len("--@doc"):].strip() for c in leading if c.text.startswith("--@doc")
        )
        core.span = span
        core.verbatim = self.text[span.start_off : span.end_off]
        return core

    def parse_typedef(self):
        name = self.expect_name("type name")
        if self.accept("punct", "::"):
            fields = []
            while self.at("name") and self.peek().kind == "punct" and self.peek().text == ":":
                fname = self.advance()
                self.expect("punct", ":")
                fields.append(N.RecordField(fname.text, self.parse_type(), fname))
            if not fields:
                raise ParseError("record type needs at least one field", self.cur())
            inv = self._parse_inv_clause()
            return N.RecordTypeDef(name.text, tuple(fields), inv, (), name, None, "")
        self.expect("punct", "=")
        rhs = self.parse_type()
        inv = self._parse_inv_clause()
        eq = None
        if self.at_kw("eq"):
            loc = self.advance()
            left = self.parse_pattern()
            self.expect("punct", "=")
            right = self.parse_pattern()
            pattern_names_distinct([left, right], "eq clause")
            self.expect("punct", "==")
            eq = N.EqClause(left, right, self.parse_expr(), loc)
        order = None
        if self.at_kw("ord"):
            loc = self.advance()
            left = self.parse_pattern()
            self.expect("punct", "<")
            right = self.parse_pattern()
            pattern_names_distinct([left, right], "ord clause")
            self.expect("punct", "==")
            order = N.OrdClause(left, right, self.parse_expr(), loc)
        return N.NamedTypeDef(name.text, rhs, inv, eq, order, (), name, None, "")

    def _parse_inv_clause(self):
        if not self.at_kw("inv"):
            return None
        loc = self.advance()
        pat = self.parse_pattern()
        pattern_names_distinct([pat], "inv clause")
        self.expect("punct", "==")
        return N.InvClause(pat, self.parse_expr(), loc)

    def parse_valuedef(self):
        pat = self.parse_pattern()
        pattern_names_distinct([pat], "value pattern")
        decl_type = None
        if self.accept("punct", ":"):
            decl_type = self.parse_type()
        self.expect("punct", "=")
        init = self.parse_expr()
        return N.ValueDef(pat, decl_type, init, (), pat.loc, None, "")

    def parse_fundef(self):
        name = self.expect_name("function name")
        self.expect("punct", ":")
        param_types: list = []
        if self.at("punct", "(") and self.peek().kind == "punct" and self.peek().text == ")":
            self.advance()
            self.advance()
        else:
            param_types.append(self.parse_type())
            while self.accept("punct", "*"):
                param_types.append(self.parse_type())
        self.expect("punct", "->")
        ret = self.parse_type()
        body_name = self.expect_name("function name")
        if body_name.text != name.text:
            raise ParseError(
                f"body is named {body_name.text!r} but the signature says {name.text!r}",
                body_name,
            )
        self.expect("punct", "(")
        params = []
        if not self.at("punct", ")"):
            params.append(self.parse_pattern())
            while self.accept("punct", ","):
                params.append(self.parse_pattern())
        self.expect("punct", ")")
        if len(params) != len(param_types):
            raise ParseError(
                f"{name.text} takes {len(param_types)} parameters "
                f"but {len(params)} patterns are given",
                body_name,
            )
        pattern_names_distinct(params, "parameter list")
        self.expect("punct", "==")
        body = self.parse_expr()
        pre = self.parse_expr() if self.accept("kw", "pre") else None
        post = self.parse_expr() if self.accept("kw", "post") else None
        measure = self.parse_expr() if self.accept("kw", "measure") else None
        return N.FuncDef(
            name.text, tuple(param_types), ret, tuple(params),
            body, pre, post, measure, (), name, None, "",
        )

    # patterns

    def parse_pattern(self):
        t = self.cur()
        if t.kind == "punct" and t.text == "-":
            self.advance()
            return N.PatIgnore(t)
        if t.kind == "name":
            if t.text.startswith("mk_") and self.peek().kind == "punct" and self.peek().text == "(":
                self.advance()
                ctor = t.text[3:]
                if not ctor:
                    raise ParseError("constructor pattern needs a type name", t)
                self.expect("punct", "(")
                items = [self.parse_pattern()]
                while self.accept("punct", ","):
                    items.append(self.parse_pattern())
                self.expect("punct", ")")
                return N.PatCtor(ctor, tuple(items), t)
            self.advance()
            return N.PatName(t.text, t)
        if t.kind == "punct" and t.text in ("[", "{"):
            self.advance()
            close = "]" if t.text == "[" else "}"
            items = []
            if not self.at("punct", close):
                items.append(self.parse_pattern())
                while self.accept("punct", ","):
                    items.append(self.parse_pattern())
            self.expect("punct", close)
            return (N.PatSeq if close == "]" else N.PatSet)(tuple(items), t)
        raise ParseError(f"expected a pattern, found {t.describe()}", t)

    # types

    def parse_type(self):
        first = self.parse_type_atom()
        if not self.at("punct", "|"):
            return first
        members = [first]
        while self.accept("punct", "|"):
            members.append(self.parse_type_atom())
        flat: list = []
        for m in members:
            flat.extend(m.members if isinstance(m, N.TUnion) else [m])
        return N.TUnion(tuple(flat), first.loc)

    def parse_type_atom(self):
        t = self.cur()
        if t.kind == "kw" and t.text in BASIC_TYPES:
            self.advance()
            return N.TBasic(t.text, t)
        if t.kind == "kw" and t.text in ("seq", "seq1", "set"):
            self.advance()
            self.expect("kw", "of")
            elem = self.parse_type_atom()
            ctor = {"seq": N.TSeq, "seq1": N.TSeq1, "set": N.TSet}[t.text]
            return ctor(elem, t)
        if t.kind == "kw" and t.text == "map":
            self.advance()
            key = self.parse_type_atom()
            self.expect("kw", "to")
            return N.TMap(key, self.parse_type_atom(), t)
        if t.kind == "punct" and t.text == "[":
            self.advance()
            inner = self.parse_type()
            self.expect("punct", "]")
            return N.TOptional(inner, t)
        if t.kind == "punct" and t.text == "(":
            self.advance()
            inner = self.parse_type()
            self.expect("punct", ")")
            return inner
        if t.kind == "quote":
            self.advance()
            return N.TQuote(t.text, t)
        if t.kind == "name":
            self.advance()
            return N.TNamed(t.text, t)
        raise ParseError(f"expected a type, found {t.describe()}", t)

    # expressions: one loop over BINARY_LEVELS

    def parse_expr(self):
        """One expression, read by one loop over a stack of pending operators.

        Each entry waits for its right operand, tightest last: a binary
        operator at its level, a prefix `not` at NOT_LEVEL, a prefix `-` or
        built-in at PREFIX_LEVEL, or an open parenthesis or call at level 0.
        So operator runs, parentheses and plain calls do not nest the
        parser; any other operand is read by `parse_primary`, which recurses.
        """
        toks = self.toks
        i = self.i
        ops = [(-1, None, None, None)]  # (level, token, left operand or a group's items, operator)
        nots = True  # this operand may start with a run of `not`s
        while True:
            t = toks[i]
            while (nots and t.kind == "kw" and t.text == "not"
                   and not (toks[i + 1].kind == "kw" and toks[i + 1].text == "in")):
                ops.append((NOT_LEVEL, t, None, "not"))
                i += 1
                t = toks[i]
            while (t.kind == "punct" and t.text == "-") or (t.kind == "kw" and t.text in BUILTIN_OPS):
                ops.append((PREFIX_LEVEL, t, None, t.text))
                i += 1
                t = toks[i]
            if t.kind == "name" and not (toks[i + 1].kind == "punct" and toks[i + 1].text == "("):
                e = N.Name(t.text, t)
                i += 1
            elif t.kind == "nat":
                e = N.Lit("nat", int(t.text), t)
                i += 1
            elif (t.kind == "punct" and t.text == "(") or (
                    t.kind == "name" and not t.text.startswith(("mk_", "is_"))):
                i += 1 if t.kind == "punct" else 2
                if t.kind == "name" and toks[i].kind == "punct" and toks[i].text == ")":
                    e = N.Apply(t.text, (), t)
                    i += 1
                else:  # parentheses, or a call with its arguments
                    ops.append((0, t, [], None))
                    nots = True
                    continue
            else:
                self.i = i
                e = self.parse_primary()
                i = self.i
            while True:  # e is an operand: its field selections, then what follows it
                t = toks[i]
                while t.kind == "punct" and t.text == ".":
                    self.i = i + 1
                    e = N.FieldSel(e, self.expect_name("field name").text, t)
                    i = self.i
                    t = toks[i]
                op = t.text if t.kind == "punct" or t.kind == "kw" else None
                width = 1
                if op == "in" and toks[i + 1].text == "set":
                    op, width = "in set", 2
                elif op == "not" and toks[i + 1].text == "in" and toks[i + 2].text == "set":
                    op, width = "not in set", 3
                level = BINARY_LEVELS.get(op, 0)
                # pop what binds at least as tightly; "=>" associates to the right
                bound = (3 if op == "=>" else level) if level else 1
                while ops[-1][0] >= bound:
                    lv, ot, left, oop = ops.pop()
                    if left is not None:
                        e = N.Binary(oop, left, e, ot)
                    elif lv == PREFIX_LEVEL and oop != "-":
                        e = N.BuiltinApp(oop, (e,), ot)
                    else:
                        e = N.Unary(oop, e, ot)
                if level:
                    ops.append((level, t, e, op))
                    i += width
                    nots = level < NOT_LEVEL
                    break
                _, start, items, _ = ops[-1]
                if start is None:
                    self.i = i
                    return e
                items.append(e)
                if start.kind == "name" and t.kind == "punct" and t.text == ",":
                    i += 1
                    nots = True
                    break
                if not (t.kind == "punct" and t.text == ")"):
                    self.i = i
                    self.expect("punct", ")")
                i += 1
                ops.pop()
                if start.kind == "name":
                    e = N.Apply(start.text, tuple(items), start)

    def _parse_args(self):
        self.expect("punct", "(")
        args = []
        if not self.at("punct", ")"):
            args.append(self.parse_expr())
            while self.accept("punct", ","):
                args.append(self.parse_expr())
        self.expect("punct", ")")
        return tuple(args)

    def parse_primary(self):
        """An operand that parse_expr does not read itself."""
        t = self.toks[self.i]
        if t.kind == "real":
            self.advance()
            return N.Lit("real", float(t.text), t)
        if t.kind == "char":
            self.advance()
            return N.Lit("char", t.text, t)
        if t.kind == "quote":
            self.advance()
            return N.Lit("quote", t.text, t)
        if t.kind == "kw":
            if t.text in ("true", "false"):
                self.advance()
                return N.Lit("bool", t.text == "true", t)
            if t.text == "nil":
                self.advance()
                return N.Lit("nil", None, t)
            if t.text == "if":
                return self.parse_if()
            if t.text == "let":
                return self.parse_let()
            if t.text in ("forall", "exists"):
                return self.parse_quantifier()
        if t.kind == "name":
            return self.parse_mk_or_is()
        if t.kind == "punct" and t.text == "{":
            return self.parse_braced()
        if t.kind == "punct" and t.text == "[":
            return self.parse_bracketed()
        raise ParseError(f"expected an expression, found {t.describe()}", t)

    def parse_mk_or_is(self):
        """`mk_T(…)`, `is_T(e)` or `is_(e, type)`: a name starting with `mk_`
        or `is_`, with its argument list next."""
        t = self.advance()
        if t.text.startswith("mk_"):
            if t.text == "mk_":
                raise ParseError("record constructor needs a type name", t)
            return N.MkCtor(t.text[3:], self._parse_args(), t)
        self.expect("punct", "(")
        e = self.parse_expr()
        if t.text == "is_":
            self.expect("punct", ",")
            ty = self.parse_type()
        else:
            name = t.text[3:]
            ty = N.TBasic(name, t) if name in BASIC_TYPES else N.TNamed(name, t)
        self.expect("punct", ")")
        return N.Is(e, ty, t)

    def parse_if(self):
        loc = self.expect("kw", "if")
        cond = self.parse_expr()
        self.expect("kw", "then")
        then = self.parse_expr()
        elifs = []
        while self.accept("kw", "elseif"):
            c = self.parse_expr()
            self.expect("kw", "then")
            elifs.append((c, self.parse_expr()))
        self.expect("kw", "else")
        return N.If(cond, then, tuple(elifs), self.parse_expr(), loc)

    def parse_let(self):
        loc = self.expect("kw", "let")
        binds = []
        while True:
            pat = self.parse_pattern()
            pattern_names_distinct([pat], "let binding")
            decl_type = self.parse_type() if self.accept("punct", ":") else None
            self.expect("punct", "=")
            binds.append(N.LetBind(pat, decl_type, self.parse_expr(), pat.loc))
            if not self.accept("punct", ","):
                break
        self.expect("kw", "in")
        return N.Let(tuple(binds), self.parse_expr(), loc)

    def parse_quantifier(self):
        t = self.advance()
        binds = self.parse_binds()
        self.expect("punct", "&")
        return N.Quant(t.text, binds, self.parse_expr(), t)

    def parse_binds(self):
        binds = []
        while True:
            pat = self.parse_pattern()
            pattern_names_distinct([pat], "binding pattern")
            if self.at_kw("in") and self.peek().text == "set":
                self.advance()
                self.advance()
                binds.append(N.Bind(pat, self.parse_expr(), None, pat.loc))
            elif self.accept("punct", ":"):
                binds.append(N.Bind(pat, None, self.parse_type(), pat.loc))
            else:
                raise ParseError(
                    f"expected 'in set' or ':' in binding, found {self.cur().describe()}",
                    self.cur(),
                )
            if not self.accept("punct", ","):
                return tuple(binds)

    def _parse_comp_tail(self):
        binds = self.parse_binds()
        pred = self.parse_expr() if self.accept("punct", "&") else None
        return binds, pred

    def parse_braced(self):
        loc = self.expect("punct", "{")
        if self.accept("punct", "}"):
            return N.SetEnum((), loc)
        if self.at("punct", "|->"):
            self.advance()
            self.expect("punct", "}")
            return N.MapEnum((), loc)
        first = self.parse_expr()
        if self.accept("punct", "|->"):
            val = self.parse_expr()
            if self.accept("punct", "|"):
                binds, pred = self._parse_comp_tail()
                self.expect("punct", "}")
                return N.MapComp(first, val, binds, pred, loc)
            maplets = [(first, val)]
            while self.accept("punct", ","):
                k = self.parse_expr()
                self.expect("punct", "|->")
                maplets.append((k, self.parse_expr()))
            self.expect("punct", "}")
            return N.MapEnum(tuple(maplets), loc)
        if self.accept("punct", "|"):
            binds, pred = self._parse_comp_tail()
            self.expect("punct", "}")
            return N.SetComp(first, binds, pred, loc)
        items = [first]
        while self.accept("punct", ","):
            items.append(self.parse_expr())
        self.expect("punct", "}")
        return N.SetEnum(tuple(items), loc)

    def parse_bracketed(self):
        loc = self.expect("punct", "[")
        if self.accept("punct", "]"):
            return N.SeqEnum((), loc)
        first = self.parse_expr()
        if self.accept("punct", "|"):
            binds, pred = self._parse_comp_tail()
            self.expect("punct", "]")
            return N.SeqComp(first, binds, pred, loc)
        items = [first]
        while self.accept("punct", ","):
            items.append(self.parse_expr())
        self.expect("punct", "]")
        return N.SeqEnum(tuple(items), loc)


def _check_toplevel_names(defs, module_name: str):
    """Duplicate names inside one namespace are rejected at parse time."""
    type_names: dict[str, Location] = {}
    fn_names: dict[str, Location] = {}
    for d in defs:
        if isinstance(d, (N.RecordTypeDef, N.NamedTypeDef)):
            if d.name in type_names:
                raise ParseError(
                    f"duplicate type name {d.name!r} in module {module_name}", d.name_loc
                )
            type_names[d.name] = d.name_loc
        elif isinstance(d, N.FuncDef):
            if d.name in fn_names:
                raise ParseError(
                    f"duplicate function or value name {d.name!r} in module {module_name}",
                    d.name_loc,
                )
            fn_names[d.name] = d.name_loc
        else:
            for name in N.pattern_names(d.pattern):
                if name in fn_names:
                    raise ParseError(
                        f"duplicate function or value name {name!r} in module {module_name}",
                        d.name_loc,
                    )
                fn_names[name] = d.name_loc


def parse_source(text: str, file: str = "<string>"):
    """Parse a file's worth of text into a list of modules.

    Parentheses, plain calls and operator runs are read by a loop, but other
    constructs (`if`, `let`, quantifiers, braces, brackets, `mk_`, `is_`,
    patterns and types) recurse once per nesting level, so such input nested
    deeper than the interpreter's stack allows is a located ParseError.
    """
    parser = _Parser(text, file)
    try:
        return parser.parse_file()
    except RecursionError:
        raise ParseError("nesting too deep", parser.cur()) from None


def print_module(m: N.SourceModule) -> str:
    """Render a module back to text.

    Definitions are emitted verbatim, in list order, grouped under repeated
    section keywords whenever consecutive definitions share a section.
    """
    out = [f"module {m.name}"]
    if m.exports_all:
        out.append("exports all")
    for imp in m.imports:
        out.append(f"imports from {imp.module} all")
    out.append("definitions")
    section = None
    for d in m.definitions:
        if d.section != section:
            out.append(d.section)
            section = d.section
        out.append(d.verbatim)
        out.append("")
    while out and out[-1] == "":
        out.pop()
    out.append(f"end {m.name}")
    return "\n".join(out) + "\n"
