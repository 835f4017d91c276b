"""Estimator explainability: per-branch error attribution.

The estimator pipeline reports aggregate accuracy (miss rates, weight
matching); this package answers *why* those numbers are what they are:

* :mod:`repro.attribution.records` collects one record per conditional
  branch — every prediction idiom that fired, the probability the
  Markov chain actually used, and the interpreter ground truth from
  profiles;
* :mod:`repro.attribution.sensitivity` propagates each branch's
  probability error through the intra-procedural Markov flow system
  (a sparse linear solve per branch against the same ``I - P^T``
  matrix the estimator solved), attributing block-frequency error to
  the branch decisions that caused it;
* :mod:`repro.attribution.accuracy` aggregates the records into
  per-heuristic accuracy (miss rates, dynamic coverage, attributed
  error) and publishes them as metrics and ledger score rows;
* :mod:`repro.attribution.heatmap` renders CFG heatmap overlays
  (blocks shaded by frequency error, edges labelled predicted vs.
  actual probability);
* :mod:`repro.attribution.explain` orchestrates all of it behind the
  ``repro explain`` CLI and persists computed explanations in the
  ``attribution`` namespace of :mod:`repro.store`.

Attribution is backend-agnostic (the interpreter and the compiled
backend produce byte-identical profiles) and tier-agnostic (base and
XL suite programs go through the same path).
"""

from __future__ import annotations

from repro.attribution.accuracy import (
    HeuristicAccuracy,
    accuracy_by_heuristic,
    accuracy_score_rows,
    publish_accuracy_metrics,
)
from repro.attribution.explain import (
    ProgramExplanation,
    explain_program,
    explain_programs,
    explanations_to_dict,
    export_features,
    render_explanations,
    write_heatmaps,
)
from repro.attribution.heatmap import heatmap_dot
from repro.attribution.records import BranchRecord, collect_branch_records
from repro.attribution.sensitivity import attribute_function_errors

__all__ = [
    "BranchRecord",
    "HeuristicAccuracy",
    "ProgramExplanation",
    "accuracy_by_heuristic",
    "accuracy_score_rows",
    "attribute_function_errors",
    "collect_branch_records",
    "explain_program",
    "explain_programs",
    "explanations_to_dict",
    "export_features",
    "heatmap_dot",
    "publish_accuracy_metrics",
    "render_explanations",
    "write_heatmaps",
]
