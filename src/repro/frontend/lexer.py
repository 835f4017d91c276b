"""Regular-expression lexer for the C subset.

The lexer consumes preprocessed text (comments may still be present; they
are skipped here) and produces a list of :class:`Token` in one pass of
one compiled master pattern.  Its named groups match whitespace,
comments and stray ``#`` lines (all skipped), identifiers and keywords,
numbers, whole character and string literals, the punctuators (longest
spelling first), and — for diagnostics — an unclosed comment or literal
and any other character.  Line and column come from newline offsets, so
every downstream diagnostic can point at real source.

Supported literal forms:

* decimal, octal (``0777``), and hex (``0x1F``) integers with optional
  ``u``/``l`` suffixes (suffixes are recorded in the spelling only);
* floating literals with optional exponent and ``f`` suffix;
* character literals with the usual escapes;
* string literals with escapes; adjacent string literals are concatenated
  by the parser, not here.
"""

from __future__ import annotations

import re
from typing import NoReturn

from repro.frontend.errors import LexError, SourceLocation
from repro.frontend.tokens import KEYWORDS, PUNCTUATORS, Token, TokenKind

_SIMPLE_ESCAPES = {
    "n": "\n",
    "t": "\t",
    "r": "\r",
    "\\": "\\",
    "'": "'",
    '"': '"',
    "a": "\a",
    "b": "\b",
    "f": "\f",
    "v": "\v",
    "?": "?",
}

_PUNCTUATOR_KINDS = dict(PUNCTUATORS)

# Alternatives are tried in order.  ``[ \t]*`` skips the usual single
# space before a token without a loop iteration of its own; it cannot
# backtrack into a wrong token because only ``skip`` starts with a blank.
# ``unclosed`` catches what opens a comment or literal that no earlier
# alternative could close; ``unexpected`` catches everything else.
_TOKEN_RE = re.compile(
    r"""[ \t]*(?:
      (?P<skip>[ \t\r\n\f\v]+|//[^\n]*|\#[^\n]*|/\*[\s\S]*?\*/)
    | (?P<identifier>[^\W\d]\w*)
    | (?P<number>0[xX][0-9a-fA-F]*[uUlL]*
        | (?=\.?\d)\d*(?:\.(?!\.)\d*)?(?:[eE][+-]?\d+)?[uUlLfF]*)
    | (?P<string>"(?:[^"\\\n]|\\[\s\S])*")
    | (?P<char>'(?:[^'\\\n]|\\(?:x[0-9a-fA-F]*|[0-7]{1,3}|[\s\S]))')
    | (?P<unclosed>/\*|["'])
    | (?P<punctuator>"""
    + "|".join(re.escape(spelling) for spelling, _ in PUNCTUATORS)
    + r""")
    | (?P<unexpected>[\s\S])
    )""",
    re.VERBOSE,
)

# One escape sequence; an empty group is a backslash that ends the input.
_ESCAPE_RE = re.compile(r"\\(x[0-9a-fA-F]*|[0-7]{1,3}|[\s\S]|\Z)")
# A string literal's body: everything up to the closing quote, a newline,
# or a backslash with nothing after it.
_STRING_BODY_RE = re.compile(r'(?:[^"\\\n]|\\[\s\S])*')

# Builds a Token or SourceLocation from a tuple of all its fields,
# without the Python-level call their NamedTuple constructors add.
_record = tuple.__new__


def tokenize(text: str, filename: str = "<input>") -> list[Token]:
    """Return all tokens in ``text``, ending with an EOF token."""
    tokens: list[Token] = []
    append = tokens.append
    identifier = TokenKind.IDENTIFIER
    line = 1
    line_start = 0  # offset of the first character of ``line``
    for match in _TOKEN_RE.finditer(text):
        group = match.lastgroup
        start, end = match.span(group)
        if group == "skip":
            newlines = text.count("\n", start, end)
            if newlines:
                line += newlines
                line_start = text.rindex("\n", start, end) + 1
            continue
        location = _record(
            SourceLocation, (filename, line, start - line_start + 1)
        )
        spelling = text[start:end]
        if group == "identifier":
            kind = KEYWORDS.get(spelling, identifier)
            append(_record(Token, (kind, spelling, location, None)))
        elif group == "punctuator":
            kind = _PUNCTUATOR_KINDS[spelling]
            append(_record(Token, (kind, spelling, location, None)))
        elif group == "number":
            append(_number(spelling, location))
        elif group == "string":
            value = _decode(spelling[1:-1], location)
            append(Token(TokenKind.STRING_LITERAL, spelling, location, value))
        elif group == "char":
            value = ord(_decode(spelling[1:-1], location))
            append(Token(TokenKind.CHAR_LITERAL, spelling, location, value))
        elif group == "unclosed":
            _diagnose_unclosed(text, start, location)
        else:
            raise LexError(f"unexpected character {spelling!r}", location)
    location = SourceLocation(filename, line, len(text) - line_start + 1)
    append(Token(TokenKind.EOF, "", location))
    return tokens


def _number(spelling: str, location: SourceLocation) -> Token:
    """The token for one numeric spelling matched by the master pattern."""
    if spelling[1:2] in ("x", "X"):
        body = spelling.rstrip("uUlL")
        if len(body) == 2:
            raise LexError("malformed hex literal", location)
        return Token(TokenKind.INT_LITERAL, spelling, location, int(body, 16))
    body = spelling.rstrip("uUlLfF")
    if "f" in spelling or "F" in spelling or not body.isdigit():
        return Token(TokenKind.FLOAT_LITERAL, spelling, location, float(body))
    if len(body) > 1 and body[0] == "0":
        try:
            value = int(body, 8)  # C octal: 0777
        except ValueError:
            raise LexError(f"invalid octal literal {body}", location) from None
    else:
        value = int(body, 10)
    return Token(TokenKind.INT_LITERAL, spelling, location, value)


def _diagnose_unclosed(
    text: str, start: int, location: SourceLocation
) -> NoReturn:
    """Raise the error for the comment or literal opened at ``start``
    that the master pattern could not match whole: the first escape
    that fails to decode, else what left it unterminated."""
    opener = text[start]
    pos = start + 1
    if opener == "/":
        raise LexError("unterminated block comment", location)
    if opener == '"':
        pos = _STRING_BODY_RE.match(text, pos).end()
        _decode(text[start + 1 : pos], location)
        if text.startswith("\\", pos):
            raise LexError("unterminated escape sequence", location)
        raise LexError("unterminated string literal", location)
    if text.startswith("\\", pos):
        _escape(_ESCAPE_RE.match(text, pos), location)
    elif text[pos : pos + 1] in ("", "\n", "'"):
        raise LexError("empty or unterminated character literal", location)
    raise LexError("unterminated character literal", location)


def _decode(body: str, location: SourceLocation) -> str:
    """Resolve the escape sequences in a literal's body."""
    if "\\" not in body:
        return body
    return _ESCAPE_RE.sub(lambda escape: _escape(escape, location), body)


def _escape(match: re.Match[str], location: SourceLocation) -> str:
    """The character one escape sequence stands for."""
    escape = match.group(1)
    if not escape:
        raise LexError("unterminated escape sequence", location)
    if escape[0] == "x":
        if len(escape) == 1:
            raise LexError("\\x with no hex digits", location)
        code = int(escape[1:], 16)
        if code > 0x10FFFF:
            raise LexError(f"hex escape \\{escape} out of range", location)
        return chr(code)
    if escape[0] in "01234567":
        return chr(int(escape, 8))
    if escape in _SIMPLE_ESCAPES:
        return _SIMPLE_ESCAPES[escape]
    raise LexError(f"unknown escape sequence \\{escape}", location)
