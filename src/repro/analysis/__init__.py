"""The shared static-analysis engine.

Every consumer of static estimates — the experiment harness, the CLI,
the benchmarks — talks to a per-program :class:`AnalysisSession`
(:mod:`repro.analysis.session`), which computes each analysis artifact
(branch predictions, per-block transition probabilities, intra
estimates, call-graph invocation estimates, call-site frequencies)
exactly once per (program, estimator) pair and hands the cached result
to every caller.  The computed estimates also persist in the
``analysis`` namespace of :mod:`repro.store`, keyed by a content hash
of the source, so separate processes (parallel experiment workers,
repeated CLI runs) share the analysis work too.
"""

from repro.analysis.session import (
    ANALYSIS_VERSION,
    AnalysisSession,
    MemoizedPredictor,
    SessionStats,
    analysis_key,
    clear_sessions,
    record_stage,
    session_for_source,
    session_for_suite,
    stage_snapshot,
    stage_totals_since,
)

__all__ = [
    "ANALYSIS_VERSION",
    "AnalysisSession",
    "MemoizedPredictor",
    "SessionStats",
    "analysis_key",
    "clear_sessions",
    "record_stage",
    "session_for_source",
    "session_for_suite",
    "stage_snapshot",
    "stage_totals_since",
]
