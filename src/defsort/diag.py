"""Source locations, spans and diagnostics shared by every stage."""

from __future__ import annotations

from dataclasses import dataclass
from functools import total_ordering


@total_ordering
class Location:
    """A 1-based position in a source file, ordered by line, column, then file.

    Subclasses provide `line`, `col` and `file`: `Loc` stores them, and a
    lexer token (`syntax.Token`) works them out when read.  Two locations of
    one place compare, hash, order and print alike, whatever their class.
    """

    __slots__ = ()

    def _key(self):
        return (self.line, self.col, self.file)

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


@dataclass(frozen=True)
class Span:
    """Half-open byte range [start_off, end_off) plus its endpoint locations."""

    start: Location
    end: Location
    start_off: int
    end_off: int


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" | "warning"
    code: str
    message: str
    at: Location

    def __str__(self) -> str:
        return f"{self.at}: {self.severity}: {self.message} [{self.code}]"


class ParseError(Exception):
    def __init__(self, message: str, at: Location):
        super().__init__(f"{at}: {message}")
        self.message = message
        self.at = at


class DuplicateNameError(Exception):
    """Two definitions claim the same name inside one namespace of a module."""

    def __init__(self, name: str, namespace: str, at: Location):
        super().__init__(f"{at}: duplicate {namespace} name {name!r}")
        self.name = name
        self.namespace = namespace
        self.at = at


class UnknownNameError(Exception):
    """A type reference that resolves nowhere and cannot come from an import."""

    def __init__(self, name: str, at: Location):
        super().__init__(f"{at}: unknown type name {name!r}")
        self.name = name
        self.at = at


class CycleError(Exception):
    """Raised when a sort runs on a graph that still contains a cycle."""
