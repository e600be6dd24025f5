"""Source locations, diagnostics and the `Record` base of every value class."""

from __future__ import annotations

from functools import total_ordering

# where a value sits in its source: never part of equality, hash or repr
POSITION_FIELDS = frozenset({"loc", "name_loc", "verbatim"})


class Record:
    """A plain slotted value class.

    A subclass lists its fields once, in `__slots__`, and gets a constructor
    that takes them in that order, positionally or by keyword.  Equality,
    hash and repr read every field but the position fields above.  A slot
    whose name starts with `_` is private state, not a field: the class's
    `_derived` maps it to an expression of the fields, which the constructor
    evaluates after setting them.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        fields = [s for s in cls.__slots__ if not s.startswith("_")]
        cls._compared = tuple(f for f in fields if f not in POSITION_FIELDS)
        # generated code, so a constructor costs what a hand-written one does
        src = "def _key(self):\n    return (" + "".join(f"self.{f}, " for f in cls._compared) + ")\n"
        src += f"def __init__(self, {', '.join(fields)}):\n"
        src += "".join(f"    self.{f} = {f}\n" for f in fields)
        src += "".join(f"    self.{s} = {e}\n" for s, e in cls.__dict__.get("_derived", {}).items())
        code: dict = {}
        exec(compile(src, f"<record {cls.__qualname__}>", "exec"), {}, code)
        for name, fn in code.items():
            setattr(cls, name, fn)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self) -> str:
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._compared)
        return f"{type(self).__qualname__}({body})"


@total_ordering
class Location:
    """A 1-based position in a source file, ordered by line, column, then file.

    Subclasses provide `line`, `col` and `file`: `Loc` stores them, and a
    lexer token (`syntax.Token`) works them out when read.  Every ordering
    of locations reads one int, `place`, which orders like (line, column)
    as columns stay below 2**32: `line << 32 | col`, which a token works
    out in one step.  Two locations of one place compare, hash, order and
    print alike, whatever their class.
    """

    __slots__ = ()

    @property
    def place(self) -> int:
        return self.line << 32 | self.col

    def _key(self):
        return (self.place, self.file)

    def __eq__(self, other):
        return self._key() == other._key() if isinstance(other, Location) else NotImplemented

    def __lt__(self, other):
        return self._key() < other._key() if isinstance(other, Location) else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.col}"

    def __repr__(self) -> str:
        return f"Loc(line={self.line!r}, col={self.col!r}, file={self.file!r})"


class Loc(Location):
    """A location that stores its line, column and file."""

    __slots__ = ("line", "col", "file")

    def __init__(self, line: int, col: int, file: str = "<string>"):
        self.line = line
        self.col = col
        self.file = file


class Diagnostic(Record):
    __slots__ = ("severity", "code", "message", "at")  # severity: "error" | "warning"

    def __str__(self) -> str:
        return f"{self.at}: {self.severity}: {self.message} [{self.code}]"


class ParseError(Exception):
    """A located fault in an input: the one family of faults a command reports."""

    def __init__(self, message: str, at: Location):
        super().__init__(f"{at}: {message}")
        self.message = message
        self.at = at


class DuplicateNameError(ParseError):
    """A name bound twice in one namespace of a module, found by the parser:
    `what` names the namespace, and `also` ends the message."""

    def __init__(self, name: str, what: str, at: Location, also: str = ""):
        super().__init__(f"duplicate {what} name {name!r}{also}", at)
        self.name = name


class UnknownNameError(ParseError):
    """A type reference that resolves nowhere and cannot come from an import."""

    def __init__(self, name: str, at: Location):
        super().__init__(f"unknown type name {name!r}", at)
        self.name = name


class CycleError(Exception):
    """Raised when a sort runs on a graph that still contains a cycle."""
