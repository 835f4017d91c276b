"""Unit tests for the preprocessor."""

import pytest

from repro.frontend.errors import PreprocessorError
from repro.frontend.preprocessor import Preprocessor, preprocess


def clean(text, **kwargs):
    """Preprocess and strip blank lines for easy comparison."""
    result = preprocess(text, **kwargs)
    return [line for line in result.splitlines() if line.strip()]


class TestObjectMacros:
    def test_simple_define(self):
        assert clean("#define N 10\nint a[N];") == ["int a[10];"]

    def test_define_used_twice(self):
        assert clean("#define X 1\nX + X") == ["1 + 1"]

    def test_redefinition_takes_effect(self):
        assert clean("#define X 1\n#define X 2\nX") == ["2"]

    def test_undef(self):
        assert clean("#define X 1\n#undef X\nX") == ["X"]

    def test_macro_in_macro(self):
        text = "#define A 1\n#define B (A + 1)\nB"
        assert clean(text) == ["(1 + 1)"]

    def test_self_referential_macro_stops(self):
        assert clean("#define X X\nX") == ["X"]

    def test_mutually_recursive_macros_stop(self):
        assert clean("#define A B\n#define B A\nA") == ["A"]

    def test_no_expansion_inside_strings(self):
        assert clean('#define X 1\n"X"') == ['"X"']

    def test_no_expansion_inside_char_literals(self):
        assert clean("#define X 1\n'X'") == ["'X'"]

    def test_no_expansion_of_partial_identifiers(self):
        assert clean("#define X 1\nXY X") == ["XY 1"]

    def test_empty_body(self):
        assert clean("#define EMPTY\nEMPTY int x;") == [" int x;"]

    def test_programmatic_define(self):
        pp = Preprocessor()
        pp.define("DEBUG", "1")
        assert "1" in pp.preprocess("DEBUG")


class TestFunctionMacros:
    def test_simple(self):
        assert clean("#define SQR(x) ((x)*(x))\nSQR(3)") == ["((3)*(3))"]

    def test_two_parameters(self):
        text = "#define MAX(a, b) ((a) > (b) ? (a) : (b))\nMAX(1, 2)"
        assert clean(text) == ["((1) > (2) ? (1) : (2))"]

    def test_nested_call_arguments(self):
        text = "#define ID(x) x\nID(f(1, 2))"
        assert clean(text) == ["f(1, 2)"]

    def test_nested_macro_calls(self):
        text = "#define SQR(x) ((x)*(x))\nSQR(SQR(2))"
        assert clean(text) == ["((((2)*(2)))*(((2)*(2))))"]

    def test_name_without_parens_not_expanded(self):
        text = "#define F(x) x\nint F;"
        assert clean(text) == ["int F;"]

    def test_wrong_arity_raises(self):
        with pytest.raises(PreprocessorError):
            preprocess("#define F(a, b) a b\nF(1)")

    def test_zero_parameter_macro(self):
        assert clean("#define F() 42\nF()") == ["42"]

    def test_argument_with_string_containing_comma(self):
        text = '#define F(a) a\nF("x,y")'
        assert clean(text) == ['"x,y"']

    def test_parameter_not_substituted_inside_string(self):
        text = '#define F(a) "a" a\nF(1)'
        assert clean(text) == ['"a" 1']

    def test_variadic_macro(self):
        text = "#define LOG(fmt, ...) printf(fmt, __VA_ARGS__)\nLOG(\"%d\", 1)"
        assert clean(text) == ['printf("%d", 1)']


class TestConditionals:
    def test_ifdef_taken(self):
        assert clean("#define A\n#ifdef A\nyes\n#endif") == ["yes"]

    def test_ifdef_not_taken(self):
        assert clean("#ifdef A\nyes\n#endif") == []

    def test_ifndef(self):
        assert clean("#ifndef A\nyes\n#endif") == ["yes"]

    def test_else(self):
        assert clean("#ifdef A\nyes\n#else\nno\n#endif") == ["no"]

    def test_elif_chain(self):
        text = (
            "#define B 1\n#if defined(A)\na\n#elif defined(B)\nb\n"
            "#else\nc\n#endif"
        )
        assert clean(text) == ["b"]

    def test_if_arithmetic(self):
        assert clean("#if 2 + 2 == 4\nyes\n#endif") == ["yes"]
        assert clean("#if 2 + 2 == 5\nyes\n#endif") == []

    def test_if_with_macro_value(self):
        assert clean("#define N 3\n#if N > 2\nbig\n#endif") == ["big"]

    def test_if_unknown_identifier_is_zero(self):
        assert clean("#if UNDEFINED\nx\n#endif") == []

    def test_nested_conditionals(self):
        text = (
            "#define A\n#ifdef A\n#ifdef B\nboth\n#else\nonly_a\n"
            "#endif\n#endif"
        )
        assert clean(text) == ["only_a"]

    def test_inactive_branch_ignores_defines(self):
        text = "#ifdef NO\n#define X 1\n#endif\nX"
        assert clean(text) == ["X"]

    def test_unterminated_conditional_raises(self):
        with pytest.raises(PreprocessorError):
            preprocess("#ifdef A\nx")

    def test_else_without_if_raises(self):
        with pytest.raises(PreprocessorError):
            preprocess("#else")

    def test_endif_without_if_raises(self):
        with pytest.raises(PreprocessorError):
            preprocess("#endif")

    def test_if_ternary(self):
        assert clean("#if 1 ? 2 : 0\nx\n#endif") == ["x"]

    def test_if_division_by_zero_raises(self):
        with pytest.raises(PreprocessorError):
            preprocess("#if 1 / 0\n#endif")


class TestIncludes:
    def test_virtual_header(self):
        result = preprocess(
            '#include "defs.h"\nVALUE',
            virtual_headers={"defs.h": "#define VALUE 7\n"},
        )
        assert "7" in result

    def test_missing_include_raises(self):
        with pytest.raises(PreprocessorError):
            preprocess('#include "nope.h"')

    def test_recursive_include_raises(self):
        with pytest.raises(PreprocessorError):
            preprocess(
                '#include "a.h"',
                virtual_headers={"a.h": '#include "a.h"'},
            )

    def test_angle_bracket_include(self):
        result = preprocess(
            "#include <lib.h>\nX",
            virtual_headers={"lib.h": "#define X ok\n"},
        )
        assert "ok" in result

    def test_include_from_directory(self, tmp_path):
        header = tmp_path / "real.h"
        header.write_text("#define FROM_DISK 99\n")
        result = preprocess(
            '#include "real.h"\nFROM_DISK',
            include_dirs=[str(tmp_path)],
        )
        assert "99" in result


class TestLineHandling:
    def test_continuation_lines_joined(self):
        text = "#define LONG 1 + \\\n2\nLONG"
        assert "1 + 2" in preprocess(text)

    def test_error_directive(self):
        with pytest.raises(PreprocessorError, match="boom"):
            preprocess("#error boom")

    def test_error_in_inactive_branch_ignored(self):
        assert clean("#ifdef NO\n#error boom\n#endif\nok") == ["ok"]

    def test_pragma_ignored(self):
        assert clean("#pragma once\nx") == ["x"]

    def test_unknown_directive_raises(self):
        with pytest.raises(PreprocessorError):
            preprocess("#frobnicate")

    def test_comments_removed_before_expansion(self):
        (line,) = clean("#define X 1\nX /* X */ // X")
        assert line.strip() == "1"

    def test_predefined_macros(self):
        result = preprocess("GUESS", predefined={"GUESS": "42"})
        assert "42" in result

    def test_unterminated_block_comment_raises_at_its_opening(self):
        with pytest.raises(PreprocessorError) as info:
            preprocess("int main(void){ return 0; } /* x", "f.c")
        assert info.value.diagnostic() == (
            "f.c:1:29: unterminated block comment"
        )

    def test_unterminated_block_comment_on_a_later_line(self):
        with pytest.raises(PreprocessorError) as info:
            preprocess(
                "int a; /* ok */\n\n  /* never closed\nint b;\n", "g.c"
            )
        assert info.value.diagnostic() == (
            "g.c:3:3: unterminated block comment"
        )

    def test_unterminated_block_comment_rejected_by_the_frontend(self):
        from repro.frontend import compile_source

        with pytest.raises(PreprocessorError, match="unterminated"):
            compile_source("int main(void){ return 0; } /* x")


from hypothesis import given
from hypothesis import strategies as st


@given(
    st.text(
        alphabet=st.sampled_from(
            "abcdefgXYZ_ 0123456789;(){}+-*/=<>&|!,\n"
        ),
        max_size=80,
    )
)
def test_preprocess_idempotent_on_directive_free_text(text):
    """Directive-free, macro-free text passes through and is a fixed
    point of preprocessing; the one rejection it can meet is an
    unterminated block comment."""
    try:
        once = preprocess(text)
    except PreprocessorError as error:
        assert error.message == "unterminated block comment"
        assert "/*" in text
        return
    twice = preprocess(once)
    assert preprocess(twice) == twice
