"""One source text to encoded report bytes, plain or layer by layer.

:func:`analyze` is the path a user of the library takes.
:func:`analyze_layered` makes the same calls one public function at a
time, in dependency order, so each timed call covers only its own
layer: frontend (preprocess, lex, parse), CFG, call graph, branch
prediction, the intra and inter estimators, report build, and JSON
encoding.  Both return the same bytes.
"""

from __future__ import annotations

import json

from common import Layers

#: The estimator pair the analyze report uses by default.
ESTIMATOR = "smart"
BACKEND = "markov"


def encode(report: dict) -> bytes:
    """The report as the daemon encodes it (sorted keys, UTF-8)."""
    return json.dumps(report, sort_keys=True).encode("utf-8")


def analyze(text: str, name: str) -> bytes:
    """``Program.from_source`` → fresh session → ``build_report`` →
    encoded bytes."""
    from repro.analysis.session import AnalysisSession
    from repro.program import Program
    from repro.serve.report import build_report

    session = AnalysisSession(Program.from_source(text, name))
    return encode(build_report(session, name=name))


def analyze_layered(text: str, name: str, layers: Layers) -> bytes:
    """:func:`analyze`, with every layer's public call timed into
    ``layers`` and its work counted."""
    from repro.analysis.session import AnalysisSession
    from repro.callgraph import build_call_graph
    from repro.cfg import build_all_cfgs
    from repro.frontend import parse, preprocess, tokenize
    from repro.program import Program
    from repro.serve.report import build_report

    layers.add("frontend.lines", text.count("\n"))
    expanded = layers.time("frontend.preprocess_s", lambda: preprocess(text, name))
    tokens = layers.time("frontend.lex_s", lambda: tokenize(expanded, name))
    layers.add("frontend.tokens", len(tokens))
    unit = layers.time("frontend.parse_s", lambda: parse(expanded, name))
    cfgs = layers.time("cfg.build_s", lambda: build_all_cfgs(unit))
    layers.add("cfg.blocks", sum(len(cfg) for cfg in cfgs.values()))
    graph = layers.time("callgraph.build_s", lambda: build_call_graph(unit, cfgs))
    program = Program(unit=unit, cfgs=cfgs, call_graph=graph, name=name, source=text)
    layers.add("callgraph.sites", len(program.call_sites()))
    session = AnalysisSession(program)

    def transitions() -> None:
        for function in program.function_names:
            session.transitions(function)

    layers.time("prediction.transitions_s", transitions)
    layers.add(
        "prediction.branches",
        sum(len(cfg.conditional_branches()) for cfg in cfgs.values()),
    )
    layers.time("estimators.intra_s", lambda: session.intra_estimates(ESTIMATOR))
    layers.time("estimators.inter_s", lambda: session.invocations(BACKEND, ESTIMATOR))
    layers.time(
        "estimators.callsites_s",
        lambda: session.call_site_frequencies(BACKEND, ESTIMATOR),
    )
    report = layers.time("serve.report.build_s", lambda: build_report(session, name=name))
    body = layers.time("serve.report.encode_s", lambda: encode(report))
    layers.add("serve.report.bytes", len(body))
    return body
