"""Exception hierarchy shared across the package.

Construction errors (bad combinatorial data) and precondition errors (an
operation asked of an object that cannot support it) are kept apart from
document parse errors so the command line tool can map them to distinct
exit codes.
"""

from __future__ import annotations


class CanmeasError(Exception):
    """Base class for all errors raised by this package."""


class InvalidGraph(CanmeasError):
    """A graph, layering, or measure violates a structural invariant."""


class UnknownEdge(InvalidGraph):
    """An edge id was referenced that the graph does not contain."""


class UnknownVertex(InvalidGraph):
    """A vertex id was referenced that the graph does not contain."""


class DisconnectedGraph(CanmeasError):
    """An operation that needs a connected graph got a disconnected one."""


class LayeringError(CanmeasError):
    """An ordered partition is malformed or incompatible with its graph."""


class BasisError(CanmeasError):
    """A purported cycle basis is dependent, a Gram matrix is singular,
    or a matrix given to :mod:`canmeas.linalg` is not square."""


class FamilyError(CanmeasError):
    """A parametric length family is malformed or fails to converge."""


class NotPositiveDefinite(CanmeasError):
    """A matrix that must be positive definite is not."""


class InvalidTestFunction(CanmeasError):
    """A test function has unordered breakpoints or lacks a vertex value."""


class MissingSection(CanmeasError):
    """A document lacks a section the requested operation needs."""


class DocumentError(CanmeasError):
    """A JSON document could not be parsed into package objects."""


def excerpt(text: str, quote: bool = False) -> str:
    """An input text as a message shows it: whole, in repr's quotes when
    ``quote``, up to 100 characters; a longer one as its first 40, then
    ``...`` and its length, all in ASCII, so no input makes a message long."""
    if len(text) <= 100:
        return repr(text) if quote else text
    head = ascii(text[:40]) if quote else text[:40].encode("ascii", "backslashreplace").decode()
    return f"{head}... ({len(text)} characters)"


def quoted(value: object) -> str:
    """``repr(value)`` as a message shows it: a text through
    :func:`excerpt` in quotes, any other value's repr through it as is."""
    return excerpt(value, quote=True) if isinstance(value, str) else excerpt(repr(value))
