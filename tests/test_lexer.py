"""Unit tests for the lexer."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.frontend.errors import LexError
from repro.frontend.lexer import tokenize
from repro.frontend.tokens import TokenKind


def kinds(text):
    return [token.kind for token in tokenize(text)[:-1]]


def texts(text):
    return [token.text for token in tokenize(text)[:-1]]


class TestBasicTokens:
    def test_empty_input_yields_only_eof(self):
        tokens = tokenize("")
        assert len(tokens) == 1
        assert tokens[0].kind is TokenKind.EOF

    def test_whitespace_only(self):
        assert kinds("  \t\n\r  ") == []

    def test_identifier(self):
        (token,) = tokenize("hello")[:-1]
        assert token.kind is TokenKind.IDENTIFIER
        assert token.text == "hello"

    def test_identifier_with_underscore_and_digits(self):
        assert texts("_foo_2 bar_3_baz") == ["_foo_2", "bar_3_baz"]

    def test_keyword_not_identifier(self):
        (token,) = tokenize("while")[:-1]
        assert token.kind is TokenKind.KW_WHILE

    def test_keyword_prefix_is_identifier(self):
        (token,) = tokenize("whilex")[:-1]
        assert token.kind is TokenKind.IDENTIFIER

    def test_all_keywords_tokenize(self):
        for keyword in ("if", "else", "for", "do", "switch", "case",
                        "default", "break", "continue", "return", "goto",
                        "struct", "union", "enum", "typedef", "static",
                        "extern", "sizeof", "void", "char", "short",
                        "int", "long", "float", "double", "signed",
                        "unsigned", "const", "volatile", "auto",
                        "register"):
            (token,) = tokenize(keyword)[:-1]
            assert token.is_keyword(), keyword


class TestIntegerLiterals:
    def test_decimal(self):
        (token,) = tokenize("12345")[:-1]
        assert token.kind is TokenKind.INT_LITERAL
        assert token.value == 12345

    def test_zero(self):
        assert tokenize("0")[0].value == 0

    def test_hex(self):
        assert tokenize("0x1F")[0].value == 31
        assert tokenize("0XfF")[0].value == 255

    def test_octal(self):
        assert tokenize("0777")[0].value == 0o777

    def test_suffixes_ignored_in_value(self):
        assert tokenize("42u")[0].value == 42
        assert tokenize("42UL")[0].value == 42
        assert tokenize("42l")[0].value == 42

    def test_malformed_hex_raises(self):
        with pytest.raises(LexError):
            tokenize("0x")


class TestFloatLiterals:
    def test_simple(self):
        (token,) = tokenize("3.25")[:-1]
        assert token.kind is TokenKind.FLOAT_LITERAL
        assert token.value == 3.25

    def test_leading_dot(self):
        assert tokenize(".5")[0].value == 0.5

    def test_trailing_dot(self):
        assert tokenize("5.")[0].value == 5.0

    def test_exponent(self):
        assert tokenize("1e3")[0].value == 1000.0
        assert tokenize("2.5e-2")[0].value == 0.025
        assert tokenize("1E+2")[0].value == 100.0

    def test_f_suffix(self):
        (token,) = tokenize("1.5f")[:-1]
        assert token.kind is TokenKind.FLOAT_LITERAL

    def test_integer_with_e_but_no_digits_is_int_then_identifier(self):
        tokens = tokenize("1e")
        assert tokens[0].kind is TokenKind.INT_LITERAL
        assert tokens[1].kind is TokenKind.IDENTIFIER


class TestCharLiterals:
    def test_plain(self):
        assert tokenize("'a'")[0].value == ord("a")

    def test_escapes(self):
        assert tokenize(r"'\n'")[0].value == 10
        assert tokenize(r"'\t'")[0].value == 9
        assert tokenize(r"'\0'")[0].value == 0
        assert tokenize(r"'\\'")[0].value == ord("\\")
        assert tokenize(r"'\''")[0].value == ord("'")

    def test_hex_escape(self):
        assert tokenize(r"'\x41'")[0].value == 0x41

    def test_octal_escape(self):
        assert tokenize(r"'\101'")[0].value == 0o101

    def test_unterminated_raises(self):
        with pytest.raises(LexError):
            tokenize("'a")

    def test_empty_raises(self):
        with pytest.raises(LexError):
            tokenize("''")


class TestStringLiterals:
    def test_plain(self):
        (token,) = tokenize('"hello"')[:-1]
        assert token.kind is TokenKind.STRING_LITERAL
        assert token.value == "hello"

    def test_escapes_decoded(self):
        assert tokenize(r'"a\nb\tc"')[0].value == "a\nb\tc"

    def test_embedded_quote(self):
        assert tokenize(r'"say \"hi\""')[0].value == 'say "hi"'

    def test_unterminated_raises(self):
        with pytest.raises(LexError):
            tokenize('"abc')

    def test_newline_terminates_with_error(self):
        with pytest.raises(LexError):
            tokenize('"abc\ndef"')


class TestPunctuators:
    def test_longest_match(self):
        assert kinds("<<=") == [TokenKind.SHL_ASSIGN]
        assert kinds("<<") == [TokenKind.SHL]
        assert kinds("< <") == [TokenKind.LT, TokenKind.LT]

    def test_arrow_vs_minus(self):
        assert kinds("->") == [TokenKind.ARROW]
        assert kinds("- >") == [TokenKind.MINUS, TokenKind.GT]

    def test_increment_vs_plus(self):
        assert kinds("++ +") == [TokenKind.INCREMENT, TokenKind.PLUS]
        assert kinds("+++") == [TokenKind.INCREMENT, TokenKind.PLUS]

    def test_ellipsis(self):
        assert kinds("...") == [TokenKind.ELLIPSIS]

    def test_logical_operators(self):
        assert kinds("&& || & |") == [
            TokenKind.LOGICAL_AND,
            TokenKind.LOGICAL_OR,
            TokenKind.AMP,
            TokenKind.PIPE,
        ]

    def test_unknown_character_raises(self):
        with pytest.raises(LexError):
            tokenize("@")

    def test_dot_vs_float(self):
        assert kinds("a.b") == [
            TokenKind.IDENTIFIER,
            TokenKind.DOT,
            TokenKind.IDENTIFIER,
        ]


class TestComments:
    def test_line_comment_skipped(self):
        assert texts("a // comment\nb") == ["a", "b"]

    def test_block_comment_skipped(self):
        assert texts("a /* x */ b") == ["a", "b"]

    def test_multiline_block_comment(self):
        assert texts("a /* x\ny\nz */ b") == ["a", "b"]

    def test_unterminated_block_comment_raises(self):
        with pytest.raises(LexError):
            tokenize("a /* never closed")

    def test_comment_markers_inside_string(self):
        assert tokenize('"/* not a comment */"')[0].value == (
            "/* not a comment */"
        )


class TestErrorLocations:
    """Every LexError names its exact ``file:line:col``: the offending
    character, or the start of the offending literal or comment."""

    @pytest.mark.parametrize(
        "bad, message",
        [
            ("@", "unexpected character '@'"),
            ("0x;", "malformed hex literal"),
            ("0779", "invalid octal literal 0779"),
            ("''", "empty or unterminated character literal"),
            ("'ab'", "unterminated character literal"),
            ('"abc', "unterminated string literal"),
            ('"abc\ndef"', "unterminated string literal"),
            ('"abc\\', "unterminated escape sequence"),
            ("'\\", "unterminated escape sequence"),
            ('"\\xg"', "\\x with no hex digits"),
            ('"\\x110000"', "hex escape \\x110000 out of range"),
            ("'\\q'", "unknown escape sequence \\q"),
            ('"ok\\9"', "unknown escape sequence \\9"),
            ("/* never closed", "unterminated block comment"),
        ],
    )
    def test_message_and_position(self, bad, message):
        with pytest.raises(LexError) as info:
            tokenize("int a;\n  x = " + bad, "f.c")
        assert info.value.diagnostic() == f"f.c:2:7: {message}"


class TestLocations:
    def test_line_and_column_tracking(self):
        tokens = tokenize("a\n  b")
        assert tokens[0].location.line == 1
        assert tokens[0].location.column == 1
        assert tokens[1].location.line == 2
        assert tokens[1].location.column == 3

    def test_filename_recorded(self):
        token = tokenize("x", filename="file.c")[0]
        assert token.location.filename == "file.c"


class TestRealisticInput:
    def test_function_definition(self):
        tokens = tokenize("int f(int x) { return x + 1; }")
        expected = [
            TokenKind.KW_INT,
            TokenKind.IDENTIFIER,
            TokenKind.LPAREN,
            TokenKind.KW_INT,
            TokenKind.IDENTIFIER,
            TokenKind.RPAREN,
            TokenKind.LBRACE,
            TokenKind.KW_RETURN,
            TokenKind.IDENTIFIER,
            TokenKind.PLUS,
            TokenKind.INT_LITERAL,
            TokenKind.SEMICOLON,
            TokenKind.RBRACE,
            TokenKind.EOF,
        ]
        assert [t.kind for t in tokens] == expected


@given(st.integers(min_value=0, max_value=2**63 - 1))
def test_roundtrip_decimal_integers(value):
    assert tokenize(str(value))[0].value == value


@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_roundtrip_hex_integers(value):
    assert tokenize(hex(value))[0].value == value


@given(st.floats(min_value=0.001, max_value=1e15, allow_nan=False))
def test_roundtrip_floats(value):
    assert tokenize(repr(value))[0].value == pytest.approx(value)


@given(
    st.text(
        alphabet=st.characters(
            whitelist_categories=("Ll", "Lu"), max_codepoint=127
        ),
        min_size=1,
        max_size=12,
    )
)
def test_roundtrip_identifiers_or_keywords(name):
    token = tokenize(name)[0]
    assert token.text == name


@given(
    st.text(
        alphabet=st.sampled_from("abc xyz019_+-*/%<>=!&|^~?:;,.(){}[]\n\t"),
        max_size=60,
    )
)
def test_lexer_total_on_benign_charset(text):
    # Any mix of these characters either tokenizes or raises a clean
    # LexError (e.g. an unterminated '/*' comment) — never another
    # exception type, never a hang.
    try:
        tokens = tokenize(text)
    except LexError:
        return
    assert tokens[-1].kind is TokenKind.EOF
