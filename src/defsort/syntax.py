"""Lexer, parser and printer for the VDM-SL module subset.

The lexer scans a whole file in a few passes into parallel lists of token
texts, tags and offsets, and the parser reads those lists by index,
building a `Token` only for a location the tree keeps.  A header read
(`parse_headers`) tokenizes only each module's header and `end` line, and
steps over the definitions between by string searches, tokenizing only
the lines where a search finds a place that might end the step; it builds
no line-break index, and counts the line breaks before a token only when
its location is read (`_Lines`).  The
parser is a recursive descent, except that an expression is read by one
operator-precedence loop.  Every definition keeps the exact source text it
came from (`verbatim`, leading comments included), so later stages can
move definitions around without touching their text.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from heapq import merge
from itertools import accumulate, repeat

from . import nodes as N
from .diag import DuplicateNameError, Location, ParseError, UnknownNameError

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


class _Lines:
    """A header read's stand-in for the line-break index: it locates an
    offset by counting the line breaks between it and the last offset it
    located (`str.count`), so locating offsets in text order counts each
    line break at most once, and no index is built."""

    __slots__ = ("text", "off", "line", "start")

    def __init__(self, text: str):
        self.text = text
        self.off = 0  # the last offset located,
        self.line = 1  # its line,
        self.start = 0  # and the offset that line starts at

    def locate(self, off: int) -> tuple:
        """(line, column) of offset `off`."""
        text = self.text
        if off >= self.off:
            breaks = text.count("\n", self.off, off)
            if breaks:
                self.line += breaks
                self.start = text.rfind("\n", self.off, off) + 1
        else:
            self.line -= text.count("\n", off, self.off)
            self.start = text.rfind("\n", 0, off) + 1
        self.off = off
        return self.line, off - self.start + 1


class Token(Location):
    """One token, and its own location: line and column are worked out when
    read, as most are never read, from the line-break index its lex shares;
    a header read builds none, and its tokens count them out (`_Lines`)."""

    __slots__ = ("kind", "text", "off", "src")

    def __init__(self, kind: str, text: str, off: int, src: tuple):
        self.kind = kind  # kw punct name nat real char quote comment eof
        self.text = text
        self.off = off
        self.src = src  # (file, offsets of every line break or a _Lines, text length), shared per lex

    @property
    def line(self) -> int:
        breaks = self.src[1]
        if type(breaks) is _Lines:
            return breaks.locate(self.off)[0]
        return bisect_left(breaks, self.off) + 1  # one past the breaks before it

    @property
    def col(self) -> int:
        breaks = self.src[1]
        if type(breaks) is _Lines:
            return breaks.locate(self.off)[1]
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


# A scan tags every token: a keyword or punctuation mark with its spelling,
# any other token with the label of its kind, which no spelling equals, so
# one compare of a tag tells both kind and spelling.
NAME, NAT, REAL, CHAR, QUOTE, EOF, BAD = "#name", "#nat", "#real", "#char", "#quote", "#eof", "#bad"
_TAG = {w: w for w in (*KEYWORDS, *_PUNCT)}  # a spelling's tag is the one string of it
_TAG["'"] = BAD  # a quote mark that opens no character literal
# the tag of any other token, by its first character
_LETTERS = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz")
_FIRST = {**dict.fromkeys(_LETTERS, NAME),
          **dict.fromkeys("0123456789", NAT), "'": CHAR, "<": QUOTE}
_KIND = {**dict.fromkeys(KEYWORDS, "kw"), **dict.fromkeys(_PUNCT, "punct"),
         **{label: label[1:] for label in (NAME, NAT, REAL, CHAR, QUOTE, EOF, BAD)}}


class _Tags(dict):
    """One scan's tags by spelling, seeded from `_TAG`: a token costs one
    lookup, and Python runs once per distinct spelling, to tag it by its
    first character, or as a real when a number holds a dot."""

    __slots__ = ()

    def __missing__(self, word: str) -> str:
        tag = _FIRST.get(word[0], BAD)
        if tag == NAT and "." in word:
            tag = REAL
        self[word] = tag
        return tag


# Comments first: `--` starts one wherever it stands outside a comment, as
# no other token holds two dashes in a row, and a `-` just before a `-`
# starts a comment itself.  Then one match per token, with the white space
# before it: word, quote, punctuation (one-character marks in one class),
# number, character literal, any other character.  The last makes the
# pattern match after any white space, so no match backtracks through it.
_COMMENT = re.compile(r"(--[^\n]*)")
_SPACE = " \t\r\n"
_WORD = (  # every token but the other character, in the order `_TOKEN` tries them
    r"[A-Za-z]\w*|<[A-Za-z]\w*>|"
    + "|".join(re.escape(p) for p in _PUNCT if len(p) > 1)
    + "|[" + "".join(re.escape(p) for p in _PUNCT if len(p) == 1)
    + r"]|[0-9]+(?:\.[0-9]+)?|'[^'\n]'"
)
_TOKEN = re.compile(r"[ \t\r\n]*(?:" + _WORD + r"|[^ \t\r\n])", re.ASCII)  # so `\w` is [A-Za-z0-9_]
_BREAK = re.compile(r"\n")

# Where a header read's skip may stop (`_stops`), each found by string
# search: `end`, `definitions`, `_`, and a quote mark, which opens a
# character literal only before one character and a quote mark, or any
# other character outside the tokens' alphabet that the text holds.
_WORD_CHARS = _LETTERS | frozenset("0123456789_")
_ALPHABET = (_SPACE + "".join(sorted(_WORD_CHARS | set("".join(_PUNCT))))).encode()
_STOP_TAGS = ("end", "definitions", BAD)


def _places(text, word, stop: int, before=(), after=()):
    """Each place in text[:stop] where `word` may begin a token: not glued
    to a character of `before` before it, nor of `after` after it."""
    at = text.find(word, 0, stop)
    while at >= 0:
        if text[at - 1:at] not in before and text[at + len(word):at + len(word) + 1] not in after:
            yield at
        at = text.find(word, at + 1, stop)


def _stops(text: str, stop: int):
    """The start of each `definitions`, `end` and character that begins no
    token in text[:stop], as `_TOKEN` splits it, in order, then `stop`.

    Only the lines that hold a place where one may start are tokenized,
    each once and from its start, which is a token boundary, as no token
    holds a line break; each search runs once over the text.  A letter
    before `end`, `definitions` or `_` ends a name that holds it."""
    data = text.encode("ascii", "replace")  # a `?` for each character past ASCII, so offsets hold
    odd = [_places(data, bytes((c,)), stop) for c in set(data.translate(None, _ALPHABET))]
    tags = _Tags(_TAG)
    done = 0  # the text before is tokenized, or holds no stop
    for at in merge(_places(text, "end", stop, _LETTERS, _WORD_CHARS), _places(text, "_", stop, _LETTERS),
                    _places(text, "definitions", stop, _LETTERS, _WORD_CHARS), *odd):
        if at < done:
            continue  # on a line already tokenized
        start = max(done, text.rfind("\n", done, at) + 1)
        done = text.find("\n", at, stop)
        if done < 0:
            done = stop
        for word in _TOKEN.findall(text, start, done):
            start += len(word)
            word = word.lstrip(_SPACE)
            if tags[word] in _STOP_TAGS:
                yield start - len(word)
    yield stop


def _header_spans(text: str, stop: int):
    """The (start, stop) spans of `text` that a header read tokenizes:
    each header through `definitions`, and each `end` on to the next
    header's `definitions`.  Each definitions block between is stepped over
    up to its first `end` (`_stops`); where a skip stops at anything but
    the `definitions` or `end` due there, the last span runs on to `stop`."""
    stops = _stops(text, stop)
    start = 0  # the first character not yet in a span
    while text.startswith("definitions", at := next(stops)):
        at += len("definitions")
        yield start, at
        start, at = at, next(stops)
        if not text.startswith("end", at):
            break
        start = at
    yield start, stop


def _scan(text: str, file: str, bodies: bool = True):
    """Lex `text` in whole-text passes: no Python code runs per token, only
    once per distinct spelling, to tag it (`_Tags`).

    Returns (texts, tags, ends, src): the source text, tag and end offset
    of every significant token, end of input last, and the (file, line
    breaks, text length) the tokens share.  Raises the ParseError of the
    first character that begins no token.  Without `bodies`, the tokens of
    each module's definitions are left out, up to its first `end`
    (`_header_spans`), and only the lines a string search picks are
    tokenized there (`_stops`), but a character that begins no token still
    raises its ParseError; and no line-break index is built: the line
    breaks are a `_Lines`, which counts them as tokens are located.
    """
    lines = list(map(re.Match.start, _BREAK.finditer(text))) if bodies else _Lines(text)
    src = (file, lines, len(text))
    parts = _COMMENT.split(text)  # code, comment, code, ..., code
    if len(parts) > 1:
        # each comment blanked to as many spaces, so the tokens keep their offsets
        parts[1::2] = map(" ".__mul__, map(len, parts[1::2]))
        text = "".join(parts)
    del parts  # a small file's memory peaks in its scan, so each pass frees what the next does not read
    # one match per token and the white space before it, up to the last
    # token, so no match is tried on white space alone, which would
    # backtrack through it
    stop = len(text.rstrip(_SPACE))
    if bodies:
        matched = _TOKEN.findall(text, 0, stop)
        ends = list(accumulate(map(len, matched)))
    else:
        matched, ends = [], []
        for start, end in _header_spans(text, stop):
            span = _TOKEN.findall(text, start, end)
            matched += span
            ends += map(start.__add__, accumulate(map(len, span)))
    texts = list(map(str.lstrip, matched, repeat(_SPACE)))
    del matched
    tags = list(map(_Tags(_TAG).__getitem__, texts))
    if BAD in tags:
        i = tags.index(BAD)
        word = texts[i]
        message = "malformed character literal" if word == "'" else f"unexpected character {word!r}"
        raise ParseError(message, Token("bad", word, ends[i] - len(word), src))
    texts.append("")
    tags.append(EOF)
    ends.append(len(text))
    return texts, tags, ends, src


def lex(text: str, file: str = "<string>"):
    """Split text into (significant tokens, comment tokens).  Only this
    builds comment tokens: the parser finds a definition's comments in the
    text."""
    p = _Parser(text, file)
    comments = [Token("comment", m[0].rstrip("\r"), m.start(), p.src) for m in _COMMENT.finditer(text)]
    return list(map(p.tok, range(len(p.tags)))), comments


def pattern_names_distinct(patterns, where: str):
    """ParseError if the same identifier is bound twice across `patterns`."""
    if len(patterns) == 1 and type(patterns[0]) in (N.PatName, N.PatIgnore):
        return  # binds one name at most
    seen: dict[str, Location] = {}
    for p in patterns:
        for name, loc in N.pattern_name_sites(p):
            if name in seen:
                raise ParseError(f"name {name!r} bound twice in {where}", loc)
            seen[name] = loc


# ── parser ────────────────────────────────────────────────────────────────


_SECTION_ENDS = (*SECTION_KEYWORDS, "end", EOF)
_IMPORT = ["from", NAME, "all"]  # the tags of an import, after `imports` or a comma
# the tags a definition of each section can start with
_DEFINITION_STARTS = {"types": (NAME,), "values": (NAME, "-", "[", "{"), "functions": (NAME,)}
_COLLECTION_TYPES = {"seq": N.TSeq, "seq1": N.TSeq1, "set": N.TSet}
# a type's clauses, in order: keyword, the mark between two patterns, node
_CLAUSES = (("inv", None, N.InvClause), ("eq", "=", N.EqClause), ("ord", "<", N.OrdClause))


class _Parser:
    """Reads the scan by index, one tag compare per test, and builds a
    `Token` only for a location that a node or an error keeps."""

    def __init__(self, text: str, file: str, bodies: bool = True):
        self.text = text
        self.file = file
        self.texts, self.tags, self.ends, self.src = _scan(text, file, bodies)
        self.i = 0

    # token plumbing

    def tok(self, i: int) -> Token:
        """The token at index `i`, built now, as the scan keeps none: for
        errors, literals and `lex()`, as the parser builds the tokens of
        names, keywords and marks where it knows their kind."""
        tag = self.tags[i]
        text = self.texts[i]
        off = self.ends[i] - len(text)
        kind = _KIND[tag]
        if kind == "kw" or kind == "punct":
            text = tag  # the one string of its spelling
        elif kind == "char" or kind == "quote":
            text = text[1:-1]
        return Token(kind, text, off, self.src)

    def _take(self) -> Token:
        """Step over the current token; the token."""
        self.i += 1
        return self.tok(self.i - 1)

    def _expected(self, what: str) -> ParseError:
        """The error of finding the current token where `what` should be."""
        t = self.tok(self.i)
        return ParseError(f"expected {what}, found {t.describe()}", t)

    def _skip(self, tag: str) -> bool:
        """Step over the current token if it is the keyword or mark `tag`."""
        if self.tags[self.i] == tag:
            self.i += 1
            return True
        return False

    def _need(self, tag: str) -> None:
        """Step over the current token, which must be the keyword or mark `tag`."""
        if self.tags[self.i] != tag:
            raise self._expected(f"'{tag}'")
        self.i += 1

    def _take_tag(self, tag: str) -> Token:
        """Step over the current token, which must be the keyword or mark
        `tag`; the token."""
        i = self.i
        if self.tags[i] != tag:
            raise self._expected(f"'{tag}'")
        self.i = i + 1
        return Token(_KIND[tag], tag, self.ends[i] - len(tag), self.src)

    def _take_name(self, what: str) -> Token:
        """Step over the current token, which must be a name; the token."""
        i = self.i
        if self.tags[i] != NAME:
            raise self._expected(what)
        self.i = i + 1
        word = self.texts[i]
        return Token("name", word, self.ends[i] - len(word), self.src)

    # file / module level

    def parse_file(self, bodies: bool = True):
        mods = []
        while self.tags[self.i] != EOF:
            mods.append(self.parse_module(bodies))
        return mods

    def parse_module(self, bodies: bool = True) -> N.SourceModule:
        self._need("module")
        name_tok = self._take_name("module name")
        # ISO VDM-SL puts `imports` with a comma-separated list of `from`
        # clauses before `exports`; `exports` first, and one `imports` per
        # import, are read as well
        exports_all = self._skip("exports")
        if exports_all:
            self._need("all")
        imports = []
        tags = self.tags
        i = self.i
        # each `from M all` after `imports` or, in a list, after a comma
        while tags[i] == "imports" or tags[i] == "," and imports:
            if tags[i + 1:i + 4] != _IMPORT:
                self.i = i + 1
                self._need("from")
                self._take_name("module name")
                self._need("all")  # one of the three raises
            word = self.texts[i + 2]
            imports.append(N.ImportRef(word, Token("name", word, self.ends[i + 2] - len(word), self.src)))
            i += 4
        self.i = i
        if not exports_all and self._skip("exports"):
            self._need("all")
            exports_all = True
        self._need("definitions")
        defs: list = []
        self.type_uses = []  # (name, token index) of each type name read, in source order
        if not bodies:  # on to the first `end`; a ValueError if none follows
            self.i = tags.index("end", self.i)
        while tags[self.i] in SECTION_KEYWORDS:
            section = tags[self.i]
            boundary = self.ends[self.i]  # the end of the text before the next definition
            self.i += 1
            while tags[self.i] not in _SECTION_ENDS:
                defs.append(self.parse_definition(section, boundary))
                boundary = self.ends[self.i - 1]
        self._need("end")
        end = self._take_name("module name")
        if end.text != name_tok.text:
            raise ParseError(f"module ends with 'end {end.text}' but is named {name_tok.text!r}", end)
        types = _check_toplevel_names(defs, name_tok.text)
        if not imports:  # else the module may name types it does not declare
            for name, i in self.type_uses:
                if name not in types and name not in BASIC_TYPES:  # `mk_token`, `is_nat`
                    raise UnknownNameError(name, self.tok(i))
        return N.SourceModule(
            name=name_tok.text,
            exports_all=exports_all,
            imports=tuple(imports),
            definitions=tuple(defs),
            file=self.file,
            name_loc=name_tok,
        )

    # definitions

    def parse_definition(self, section: str, boundary: int):
        """A definition and its `verbatim` text, found in the source text:
        only white space and comments lie between two tokens, so a `--`
        there starts a comment.  The text starts at the first comment after
        `boundary`, the end of the token before, or else at the first token,
        and at the start of that line when a line break lies between.  It
        ends at the last token, or, when the next token ends the section, at
        the line break that ends the last comment before that token."""
        first = self.ends[self.i] - len(self.texts[self.i])
        if section == "types":
            core = self.parse_typedef()
        elif section == "values":
            core = self.parse_valuedef()
        else:
            core = self.parse_fundef()
        tag = self.tags[self.i]
        if not self._skip(";") and tag not in _SECTION_ENDS and tag not in _DEFINITION_STARTS[section]:
            raise self._expected("';' or a new definition")
        text = self.text
        start = text.find("--", boundary, first)
        if start < 0:
            start = first
        line = text.rfind("\n", boundary, start)
        if line >= 0:
            start = line + 1
        end = self.ends[self.i - 1]
        if self.tags[self.i] in _SECTION_ENDS:
            last = text.rfind("--", end, self.ends[self.i] - len(self.texts[self.i]))
            if last >= 0:
                end = text.find("\n", last)
                if end < 0:
                    end = len(text)
        core.verbatim = text[start:end]
        return core

    def parse_typedef(self):
        name = self._take_name("type name")
        fields = []
        if self._skip("::"):
            tags = self.tags
            while tags[self.i] == NAME and tags[self.i + 1] == ":":
                fname = self._take_name("field name")
                if any(f.name == fname.text for f in fields):
                    raise DuplicateNameError(fname.text, "field", fname, f" in record {name.text}")
                self.i += 1
                fields.append(N.RecordField(fname.text, self.parse_type(), fname))
            if not fields:
                raise ParseError("record type needs at least one field", self.tok(self.i))
        else:
            self._need("=")
            rhs = self.parse_type()
        # the optional clauses, in order; a record type takes `inv` only
        clauses = []
        for kw, relation, node in _CLAUSES[:1] if fields else _CLAUSES:
            if self.tags[self.i] != kw:
                clauses.append(None)
                continue
            loc = self._take_tag(kw)
            pats = [self.parse_pattern()]
            if relation:
                self._need(relation)
                pats.append(self.parse_pattern())
            pattern_names_distinct(pats, f"{kw} clause")
            self._need("==")
            clauses.append(node(*pats, self.parse_expr(), loc))
        if fields:
            return N.RecordTypeDef(name.text, tuple(fields), *clauses, name, "")
        return N.NamedTypeDef(name.text, rhs, *clauses, name, "")

    def parse_valuedef(self):
        pat = self.parse_pattern()
        pattern_names_distinct([pat], "value pattern")
        decl_type = None
        if self._skip(":"):
            decl_type = self.parse_type()
        self._need("=")
        init = self.parse_expr()
        return N.ValueDef(pat, decl_type, init, pat.loc, "")

    def parse_fundef(self):
        name = self._take_name("function name")
        self._need(":")
        param_types: list = []
        if self.tags[self.i] == "(" and self.tags[self.i + 1] == ")":
            self.i += 2
        else:
            param_types.append(self.parse_type())
            while self._skip("*"):
                param_types.append(self.parse_type())
        self._need("->")
        ret = self.parse_type()
        body_name = self._take_name("function name")
        if body_name.text != name.text:
            raise ParseError(
                f"body is named {body_name.text!r} but the signature says {name.text!r}",
                body_name,
            )
        self._need("(")
        params = []
        if self.tags[self.i] != ")":
            params.append(self.parse_pattern())
            while self._skip(","):
                params.append(self.parse_pattern())
        self._need(")")
        if len(params) != len(param_types):
            raise ParseError(
                f"{name.text} takes {len(param_types)} parameters "
                f"but {len(params)} patterns are given",
                body_name,
            )
        pattern_names_distinct(params, "parameter list")
        self._need("==")
        body = self.parse_expr()
        clauses = [self.parse_expr() if self._skip(kw) else None for kw in N.FuncDef.clauses]
        return N.FuncDef(name.text, tuple(param_types), ret, tuple(params), body, *clauses, name, "")

    # patterns

    def parse_pattern(self):
        i = self.i
        tag = self.tags[i]
        if tag == NAME:
            word = self.texts[i]
            t = Token("name", word, self.ends[i] - len(word), self.src)
            self.i = i + 1
            if not (word.startswith("mk_") and self.tags[i + 1] == "("):
                return N.PatName(word, t)
            if word == "mk_":
                raise ParseError("constructor pattern needs a type name", t)
            self.i = i + 2
            close = ")"
        elif tag == "-":
            return N.PatIgnore(self._take_tag("-"))
        elif tag == "[" or tag == "{":
            t = self._take_tag(tag)
            close = "]" if tag == "[" else "}"
        else:
            raise self._expected("a pattern")
        # the items of a constructor (one or more), sequence or set pattern:
        # a helper here would be one more frame per nesting level
        items = []
        if close == ")" or self.tags[self.i] != close:
            items.append(self.parse_pattern())
            while self._skip(","):
                items.append(self.parse_pattern())
        self._need(close)
        if close == ")":
            return N.PatCtor(word[3:], tuple(items), t)
        return (N.PatSeq if close == "]" else N.PatSet)(tuple(items), t)

    # types

    def parse_type(self):
        first = self.parse_type_atom()
        if self.tags[self.i] != "|":
            return first
        members = [first]
        while self._skip("|"):
            members.append(self.parse_type_atom())
        flat: list = []
        for m in members:
            flat.extend(m.members if isinstance(m, N.TUnion) else [m])
        return N.TUnion(tuple(flat), first.loc)

    def parse_type_atom(self):
        i = self.i
        tag = self.tags[i]
        if tag == NAME:
            word = self.texts[i]
            self.i = i + 1
            self.type_uses.append((word, i))
            return N.TNamed(word, Token("name", word, self.ends[i] - len(word), self.src))
        if tag in BASIC_TYPES:
            self.i = i + 1
            return N.TBasic(tag, Token("kw", tag, self.ends[i] - len(tag), self.src))
        if tag in _COLLECTION_TYPES:
            t = self._take_tag(tag)
            self._need("of")
            return _COLLECTION_TYPES[tag](self.parse_type_atom(), t)
        if tag == "map":
            t = self._take_tag("map")
            key = self.parse_type_atom()
            self._need("to")
            return N.TMap(key, self.parse_type_atom(), t)
        if tag == "[":
            t = self._take_tag("[")
            inner = self.parse_type()
            self._need("]")
            return N.TOptional(inner, t)
        if tag == "(":
            self.i += 1
            inner = self.parse_type()
            self._need(")")
            return inner
        if tag == QUOTE:
            t = self._take()
            return N.TQuote(t.text, t)
        raise self._expected("a type")

    # expressions: one loop over BINARY_LEVELS

    def parse_expr(self):
        """One expression, read by one loop over a stack of pending operators.

        Each entry waits for its right operand, tightest last: a binary
        operator at its level, a prefix `not` at NOT_LEVEL, a prefix `-` or
        built-in at PREFIX_LEVEL, or an open parenthesis or application at
        level 0.  An application is a name with its items in parentheses:
        a call, `mk_T(…)`, `is_T(e)` or `is_(e, type)`, built by
        `_application`.  So operator runs, parentheses and applications do
        not nest the parser, except for the type of `is_`; any other operand
        is read by `parse_primary`, which recurses.
        """
        tags = self.tags
        texts = self.texts
        ends = self.ends
        src = self.src
        i = self.i
        # the tokens of names, nats and operators are built here, their kinds known
        ops = [(-1, None, None, None)]  # (level, token index, left operand or a group's items, operator or name)
        nots = True  # this operand may start with a run of `not`s
        while True:
            tag = tags[i]
            while nots and tag == "not" and tags[i + 1] != "in":
                ops.append((NOT_LEVEL, i, None, "not"))
                i += 1
                tag = tags[i]
            while tag == "-" or tag in BUILTIN_OPS:
                ops.append((PREFIX_LEVEL, i, None, tag))
                i += 1
                tag = tags[i]
            if tag == NAME and tags[i + 1] != "(":
                word = texts[i]
                e = N.Name(word, Token("name", word, ends[i] - len(word), src))
                i += 1
            elif tag == NAT:
                word = texts[i]
                e = N.Lit("nat", int(word), Token("nat", word, ends[i] - len(word), src))
                i += 1
            elif tag == "(" or tag == NAME:  # parentheses, or a name applied
                word = texts[i] if tag == NAME else None
                if word == "mk_":
                    raise ParseError("record constructor needs a type name", self.tok(i))
                if word and word[:3] in ("mk_", "is_") and word != "is_":  # reads the type after `_`
                    self.type_uses.append((word[3:], i))
                if word and tags[i + 2] == ")" and not word.startswith("is_"):
                    e = _application(word, (), Token("name", word, ends[i] - len(word), src))
                    i += 3
                else:  # a group, closed below
                    ops.append((0, i, [], word))
                    i += 2 if word else 1
                    nots = True
                    continue
            else:
                self.i = i
                e = self.parse_primary()
                i = self.i
            while True:  # e is an operand: its field selections, then what follows it
                tag = tags[i]
                while tag == ".":
                    self.i = i + 1
                    field = self._take_name("field name").text
                    e = N.FieldSel(e, field, Token("punct", ".", ends[i] - 1, src))
                    i = self.i
                    tag = tags[i]
                op = tag
                width = 1
                if op == "in" and tags[i + 1] == "set":
                    op, width = "in set", 2
                elif op == "not" and tags[i + 1] == "in" and tags[i + 2] == "set":
                    op, width = "not in set", 3
                level = BINARY_LEVELS.get(op, 0)
                # pop what binds at least as tightly; "=>" associates to the right
                bound = (3 if op == "=>" else level) if level else 1
                while ops[-1][0] >= bound:
                    lv, at, left, oop = ops.pop()
                    word = tags[at]  # a keyword's or mark's tag is its text
                    loc = Token(_KIND[word], word, ends[at] - len(word), src)
                    if left is not None:
                        e = N.Binary(oop, left, e, loc)
                    elif lv == PREFIX_LEVEL and oop != "-":
                        e = N.BuiltinApp(oop, (e,), loc)
                    else:
                        e = N.Unary(oop, e, loc)
                if level:
                    ops.append((level, i, e, op))
                    i += width
                    nots = level < NOT_LEVEL
                    break
                _, start, items, word = ops[-1]
                if start is None:
                    self.i = i
                    return e
                items.append(e)
                if tag == "," and word and not word.startswith("is_"):
                    i += 1
                    nots = True
                    break
                if word == "is_":  # its one operand, then a type
                    self.i = i
                    self._need(",")
                    items.append(self.parse_type())
                    i = self.i
                if tags[i] != ")":
                    self.i = i
                    self._need(")")
                i += 1
                ops.pop()
                if word:
                    e = _application(word, items, Token("name", word, ends[start] - len(word), src))

    def parse_primary(self):
        """An operand that parse_expr does not read itself."""
        tag = self.tags[self.i]
        if tag == REAL:
            t = self._take()
            return N.Lit("real", float(t.text), t)
        if tag == CHAR or tag == QUOTE:
            t = self._take()
            return N.Lit(t.kind, t.text, t)
        if tag == "true" or tag == "false":
            return N.Lit("bool", tag == "true", self._take())
        if tag == "nil":
            return N.Lit("nil", None, self._take())
        if tag == "if":
            return self.parse_if()
        if tag == "let":
            return self.parse_let()
        if tag == "forall" or tag == "exists":
            return self.parse_quantifier()
        if tag == "{" or tag == "[":
            return self.parse_collection()
        raise self._expected("an expression")

    def parse_if(self):
        loc = self._take_tag("if")
        cond = self.parse_expr()
        self._need("then")
        then = self.parse_expr()
        elifs = []
        while self._skip("elseif"):
            c = self.parse_expr()
            self._need("then")
            elifs.append((c, self.parse_expr()))
        self._need("else")
        return N.If(cond, then, tuple(elifs), self.parse_expr(), loc)

    def parse_let(self):
        loc = self._take_tag("let")
        binds = []
        while True:
            pat = self.parse_pattern()
            pattern_names_distinct([pat], "let binding")
            decl_type = self.parse_type() if self._skip(":") else None
            self._need("=")
            binds.append(N.LetBind(pat, decl_type, self.parse_expr(), pat.loc))
            if not self._skip(","):
                break
        self._need("in")
        return N.Let(tuple(binds), self.parse_expr(), loc)

    def parse_quantifier(self):
        t = self._take_tag(self.tags[self.i])
        binds = self.parse_binds()
        self._need("&")
        return N.Quant(t.text, binds, self.parse_expr(), t)

    def parse_binds(self):
        binds = []
        while True:
            pat = self.parse_pattern()
            pattern_names_distinct([pat], "binding pattern")
            if self.tags[self.i] == "in" and self.tags[self.i + 1] == "set":
                self.i += 2
                binds.append(N.Bind(pat, self.parse_expr(), None, pat.loc))
            elif self._skip(":"):
                binds.append(N.Bind(pat, None, self.parse_type(), pat.loc))
            else:
                raise self._expected("'in set' or ':' in binding")
            if not self._skip(","):
                return tuple(binds)

    def parse_collection(self):
        """A set, sequence or map enumeration or comprehension: `{…}` or `[…]`."""
        tag = self.tags[self.i]
        loc = self._take_tag(tag)
        braced = tag == "{"
        close = "}" if braced else "]"
        if self._skip(close):
            return (N.SetEnum if braced else N.SeqEnum)((), loc)
        if braced and self._skip("|->"):
            self._need("}")
            return N.MapEnum((), loc)
        first = self.parse_expr()
        val = self.parse_expr() if braced and self._skip("|->") else None
        if self._skip("|"):
            binds = self.parse_binds()
            pred = self.parse_expr() if self._skip("&") else None
            self._need(close)
            if val is not None:
                return N.MapComp(first, val, binds, pred, loc)
            return (N.SetComp if braced else N.SeqComp)(first, binds, pred, loc)
        # the items or maplets: a helper here would be one more frame per
        # nesting level
        items = [first if val is None else (first, val)]
        while self._skip(","):
            item = self.parse_expr()
            if val is not None:
                self._need("|->")
                item = (item, self.parse_expr())
            items.append(item)
        self._need(close)
        if val is not None:
            return N.MapEnum(tuple(items), loc)
        return (N.SetEnum if braced else N.SeqEnum)(tuple(items), loc)


def _application(word: str, items, t: Token):
    """The node of `word(items…)`: a record constructor `mk_T(…)`, a type
    test `is_T(e)` or `is_(e, type)`, whose items are `e` and the type, or
    else a call."""
    if word.startswith("mk_"):
        return N.MkCtor(word[3:], tuple(items), t)
    if word.startswith("is_"):
        name = word[3:]
        ty = items[1] if word == "is_" else N.TBasic(name, t) if name in BASIC_TYPES else N.TNamed(name, t)
        return N.Is(items[0], ty, t)
    return N.Apply(word, tuple(items), t)


def _check_toplevel_names(defs, module_name: str) -> set:
    """The module's type names; a DuplicateNameError at the second site of
    the first name `nodes.declared_names` gives twice in one namespace, or,
    for an implicit invariant, at the other name."""
    types = set()
    functions: dict = {}  # a value's, function's or clause's name -> (its site, whether a clause's)
    for di, attr, name, site in N.declared_names(defs):
        if attr is None and defs[di].section == "types":
            if name in types:
                raise DuplicateNameError(name, "type", site, f" in module {module_name}")
            types.add(name)
        elif name in functions:
            if site is None:
                raise DuplicateNameError(name, "function", functions[name][0],
                                         f", the implicit invariant of type {defs[di].name}")
            if attr or functions[name][1]:
                raise DuplicateNameError(name, "function", site)
            raise DuplicateNameError(name, "function or value", site, f" in module {module_name}")
        elif site is not None:
            functions[name] = (site, attr is not None)
    return types


def parse_source(text: str, file: str = "<string>"):
    """Parse a file's worth of text into a list of modules, definitions included.

    Parentheses, applications (calls, `mk_` and `is_`) and operator runs are
    read by a loop, but other constructs (`if`, `let`, quantifiers, braces,
    brackets, patterns and types) recurse once per nesting level, so such
    input nested deeper than the interpreter's stack allows is a located
    ParseError.
    """
    parser = _Parser(text, file)
    try:
        return parser.parse_file()
    except RecursionError:
        raise ParseError("nesting too deep", parser.tok(parser.i)) from None


def parse_headers(text: str, file: str = "<string>"):
    """`parse_source`'s modules without definitions: its code tokenizes and
    reads each header and `end` line, and steps over the definitions by
    string search, to the module's first `end` (`_scan` without `bodies`), so
    only a fault outside them, or a character that begins no token anywhere,
    raises: `parse_source`'s error.  No line-break index is built: a token
    it keeps counts out its line and column when they are read (`_Lines`),
    which equal `parse_source`'s.  A duplicate name, a clause's or an
    implicit invariant's included, and an unknown type name are faults
    inside them.  Sound as no definition holds `end`; once one can
    (`cases … end`), the skip must check each `end` it stops at for the
    module's own name, then `module` or the end, and step on past any other."""
    try:
        return _Parser(text, file, bodies=False).parse_file(bodies=False)
    except (ParseError, ValueError):  # ValueError: no `end` follows a header
        parse_source(text, file)  # raises too, at the file's first fault
        raise


def print_module(m: N.SourceModule) -> str:
    """Render a module back to text.

    The header lists the imports, one `imports` each, before `exports all`,
    as ISO VDM-SL orders them.  Definitions are emitted verbatim, in list
    order, grouped under repeated section keywords whenever consecutive
    definitions share a section.
    """
    out = [f"module {m.name}"]
    for imp in m.imports:
        out.append(f"imports from {imp.module} all")
    if m.exports_all:
        out.append("exports all")
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
