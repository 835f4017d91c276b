"""Nesting depth is a diagnosed limit, never a crash.

Deeply nested source must never exhaust Python's recursion (which the
daemon would answer with a 500).  Every nested construct counts against
:data:`repro.frontend.parser.MAX_NESTING`: one level deeper is a
``ParseError("nesting too deep")`` at the offending token (a 400 from
the daemon), and a program nested right up to the limit still runs
through every later stage under Python's default recursion limit.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.analysis.session import AnalysisSession
from repro.compile.backend import run_program_backend
from repro.frontend import FrontendError, ParseError, compile_source
from repro.frontend.parser import MAX_NESTING
from repro.obs import counter_value
from repro.program import Program
from repro.serve import ServeClient, ServeConfig, build_report, start_in_thread

#: Each hostile input, with the diagnostic it must get.
HOSTILE = {
    "300 parentheses": (
        "int main(void) { return " + "(" * 300 + "0" + ")" * 300 + "; }",
        (1, 125),
    ),
    "3000 parentheses": (
        "int main(void) { return " + "(" * 3000 + "0" + ")" * 3000 + "; }",
        (1, 125),
    ),
    "2000 blocks": ("int main(void) " + "{" * 2000 + "}" * 2000, (1, 117)),
    "600-deep if chain": (
        "int main(void) {\n  int x = 1;\n  "
        + "if (x) " * 600
        + "x = 2;\n  return x;\n}\n",
        (3, 703),
    ),
    "5000 unary minus": (
        "int main(void) { return " + "- " * 5000 + "1; }",
        (1, 225),
    ),
}

#: Programs nested ``n`` deep, one way each.
SHAPES = {
    "parentheses": lambda n: (
        "int main(void) { int x = 3; return " + "(" * n + "x" + ")" * n + "; }"
    ),
    "blocks": lambda n: (
        "int main(void) { int x = 0; " + "{" * n + "x = 3;" + "}" * n
        + " return x; }"
    ),
    "if chain": lambda n: (
        "int main(void) { int x = 1; " + "if (x) " * n + "x = 3; return x; }"
    ),
    "unary minus": lambda n: (
        "int main(void) { int x = 3; return " + "- " * n + "x; }"
    ),
    "calls": lambda n: (
        "int f(int a) { return a + 1; }\n"
        "int main(void) { return " + "f(" * n + "0" + ")" * n + "; }"
    ),
    "conditional chain": lambda n: (
        "int main(void) { int x = 0; return " + "x ? 1 : " * n + "3; }"
    ),
}


def _deepest(shape) -> int:
    """The largest ``n`` for which ``shape(n)`` still parses."""
    n = 1
    while True:
        try:
            compile_source(shape(n + 1))
        except ParseError as error:
            assert error.message == "nesting too deep"
            return n
        n += 1


@pytest.mark.parametrize("name", sorted(HOSTILE))
def test_hostile_nesting_is_a_diagnosed_parse_error(name):
    source, (line, col) = HOSTILE[name]
    with pytest.raises(FrontendError) as info:
        compile_source(source, "deep.c")
    assert isinstance(info.value, ParseError)
    assert info.value.diagnostic() == f"deep.c:{line}:{col}: nesting too deep"


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_program_nested_to_the_limit_runs_everywhere(name):
    """The deepest program that parses goes through CFG, heuristics,
    the estimators, the report and both executors — on a fresh thread
    under Python's default recursion limit, as in the daemon."""
    shape = SHAPES[name]
    depth = _deepest(shape)
    assert MAX_NESTING - 5 <= depth < MAX_NESTING
    outcome: dict[str, object] = {}

    def run() -> None:
        try:
            program = Program.from_source(shape(depth), "deep.c")
            report = build_report(AnalysisSession(program), name="deep.c")
            outcome["functions"] = sorted(report["functions"])
            outcome["status"] = [
                run_program_backend(program, backend=backend).status
                for backend in ("compiled", "interp")
            ]
        except BaseException as error:  # reported by the assertion below
            outcome["error"] = error

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        thread = threading.Thread(target=run)
        thread.start()
        thread.join(timeout=120)
    finally:
        sys.setrecursionlimit(limit)
    assert not thread.is_alive()
    assert "error" not in outcome, outcome.get("error")
    assert "main" in outcome["functions"]
    assert outcome["status"][0] == outcome["status"][1]


def test_serve_answers_hostile_nesting_with_400():
    running = start_in_thread(ServeConfig(port=0, workers=2))
    try:
        client = ServeClient(running.host, running.port)
        server_errors = counter_value("serve.errors{class=5xx}")
        for name, (source, (line, col)) in sorted(HOSTILE.items()):
            response = client.analyze(source, name="deep.c")
            assert response.status == 400, name
            assert response.payload == {
                "error": "nesting too deep",
                "file": "deep.c",
                "line": line,
                "col": col,
                "trace_id": response.trace_id,
            }
            assert response.trace_id
        assert counter_value("serve.errors{class=5xx}") == server_errors
    finally:
        running.shutdown()
