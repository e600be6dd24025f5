"""Source locations, spans and diagnostics shared by every stage."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(order=True, slots=True, unsafe_hash=True)
class Loc:
    """A 1-based position in a source file, ordered by line, column, then file."""

    line: int
    col: int
    file: str = "<string>"

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.col}"


@dataclass(frozen=True)
class Span:
    """Half-open byte range [start_off, end_off) plus its endpoint locations."""

    start: Loc
    end: Loc
    start_off: int
    end_off: int


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" | "warning"
    code: str
    message: str
    at: Loc

    def __str__(self) -> str:
        return f"{self.at}: {self.severity}: {self.message} [{self.code}]"


class ParseError(Exception):
    def __init__(self, message: str, at: Loc):
        super().__init__(f"{at}: {message}")
        self.message = message
        self.at = at


class DuplicateNameError(Exception):
    """Two definitions claim the same name inside one namespace of a module."""

    def __init__(self, name: str, namespace: str, at: Loc):
        super().__init__(f"{at}: duplicate {namespace} name {name!r}")
        self.name = name
        self.namespace = namespace
        self.at = at


class UnknownNameError(Exception):
    """A type reference that resolves nowhere and cannot come from an import."""

    def __init__(self, name: str, at: Loc):
        super().__init__(f"{at}: unknown type name {name!r}")
        self.name = name
        self.at = at


class CycleError(Exception):
    """Raised when a sort runs on a graph that still contains a cycle."""
