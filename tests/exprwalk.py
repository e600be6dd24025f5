"""The pre-order walk over an expression tree that the tests compare against."""

from defsort.nodes import children


def subexpressions(e):
    """`e` and every expression nested in it, in pre-order."""
    stack = [e]
    while stack:
        e = stack.pop()
        yield e
        stack.extend(reversed(children(e)))
