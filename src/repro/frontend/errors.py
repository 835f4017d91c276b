"""Diagnostics shared by every frontend stage.

Every token and AST node carries a :class:`SourceLocation`.  All frontend
errors derive from :class:`FrontendError` so callers can catch one type
regardless of which stage (preprocessing, lexing, parsing, type checking)
rejected the input.
"""

from __future__ import annotations

from typing import NamedTuple


class SourceLocation(NamedTuple):
    """A position in preprocessed source text (an immutable, hashable
    record; a tuple because one is built per token).

    ``filename`` is the logical file name (tracks ``#include``), ``line``
    and ``column`` are 1-based.
    """

    filename: str = "<input>"
    line: int = 1
    column: int = 1

    def __str__(self) -> str:
        return f"{self.filename}:{self.line}:{self.column}"


#: Location used for synthesized constructs with no source counterpart.
UNKNOWN_LOCATION = SourceLocation("<builtin>", 0, 0)


class FrontendError(Exception):
    """Base class for all errors raised while processing C source."""

    def __init__(self, message: str, location: SourceLocation | None = None):
        self.message = message
        self.location = location or UNKNOWN_LOCATION
        super().__init__(f"{self.location}: {message}")

    def diagnostic(self) -> str:
        """The one-line ``file:line:col: message`` form of this error.

        This is what CLI commands print (to stderr, with a nonzero
        exit) instead of a traceback when user-supplied source is
        rejected.
        """
        return f"{self.location}: {self.message}"

    def diagnostic_dict(self) -> dict:
        """The structured form of :meth:`diagnostic`.

        This is the analysis daemon's 400 error surface: rejected
        source becomes ``{error, file, line, col}`` JSON — never a
        traceback — so API clients can jump to the offending token
        exactly like CLI users do from the one-line form.
        """
        return {
            "error": self.message,
            "file": self.location.filename,
            "line": self.location.line,
            "col": self.location.column,
        }


class PreprocessorError(FrontendError):
    """Raised for malformed directives, unbalanced conditionals, etc."""


class LexError(FrontendError):
    """Raised for characters or literals the lexer cannot tokenize."""


class ParseError(FrontendError):
    """Raised when the token stream does not match the C grammar."""


class TypeError_(FrontendError):
    """Raised for semantic type violations detected by the frontend.

    Named with a trailing underscore to avoid shadowing the builtin.
    """
