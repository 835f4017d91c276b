"""Golden-output regression tests for the suite and the experiments.

Two layers of pinning, both in ``golden_outputs.json``:

* ``programs`` — every (program, input) pair's exact stdout, exit
  status, and block count.  Any change to the interpreter's semantics,
  the CFG builder, or a suite program shows up here first — and because
  block counts are pinned too, so does any change to how execution is
  counted (which would silently shift every profile-derived result in
  the paper's experiments).
* ``experiments`` — the exact rendered text of every experiment.  Any
  change to an estimator, the analysis sessions, the sparse solver, or
  an experiment port must reproduce these bytes, and the parallel
  ``run_all`` must concatenate exactly these sections.

Regenerate after an *intentional* change with::

    python tests/test_golden_outputs.py --regenerate
"""

import json
import os
import sys

import pytest

GOLDEN_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "golden_outputs.json"
)


def _load_goldens():
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


# .get so that --regenerate can run against a stale/absent file; the
# cover-every-* tests below fail loudly if a section is missing.
def _program_cases():
    return sorted(_load_goldens().get("programs", {}))


def _experiment_cases():
    return sorted(_load_goldens().get("experiments", {}))


@pytest.fixture(scope="module")
def goldens():
    return _load_goldens()


@pytest.mark.parametrize("case", _program_cases())
def test_golden_program_output(case, goldens):
    from repro.suite import program_inputs, run_on_input

    name, index = case.rsplit(".", 1)
    stdin = program_inputs(name)[int(index) - 1]
    result = run_on_input(name, stdin, f"input{index}")
    expected = goldens["programs"][case]
    assert result.status == expected["status"], case
    assert result.stdout == expected["stdout"], case
    assert result.blocks_executed == expected["blocks"], case


@pytest.mark.parametrize("name", _experiment_cases())
def test_golden_experiment_render(name, goldens):
    from repro.experiments import run_experiment

    assert run_experiment(name) == goldens["experiments"][name], name


def test_parallel_run_all_matches_goldens(goldens):
    """``run_all`` with workers must emit exactly the pinned sections,
    concatenated in registry order — byte-identical to a serial run."""
    from repro.experiments import EXPERIMENTS, run_all

    expected = "\n\n\n".join(
        f"=== {name} ===\n\n{goldens['experiments'][name]}"
        for name in EXPERIMENTS
    )
    assert run_all(jobs=2) == expected


def test_goldens_cover_every_program_and_input():
    from repro.suite import program_inputs, program_names

    goldens = _load_goldens()
    expected_cases = {
        f"{name}.{index}"
        for name in program_names()
        for index in range(1, len(program_inputs(name)) + 1)
    }
    assert set(goldens["programs"]) == expected_cases


def test_goldens_cover_every_experiment():
    from repro.experiments import EXPERIMENTS

    goldens = _load_goldens()
    assert set(goldens["experiments"]) == set(EXPERIMENTS)


@pytest.mark.parametrize("name", _experiment_cases())
def test_results_txt_carries_every_golden_render(name, goldens):
    """The committed ``RESULTS.txt`` shows each experiment exactly as
    the code renders it."""
    results = os.path.join(
        os.path.dirname(os.path.dirname(GOLDEN_PATH)), "RESULTS.txt"
    )
    with open(results, encoding="utf-8") as handle:
        text = handle.read()
    assert goldens["experiments"][name] in text, name


def _regenerate():
    from repro.experiments import EXPERIMENTS, run_experiment
    from repro.suite import program_inputs, program_names, run_on_input

    programs = {}
    for name in program_names():
        for index, stdin in enumerate(program_inputs(name), start=1):
            result = run_on_input(name, stdin, f"input{index}")
            programs[f"{name}.{index}"] = {
                "status": result.status,
                "stdout": result.stdout,
                "blocks": result.blocks_executed,
            }
    experiments = {name: run_experiment(name) for name in EXPERIMENTS}
    goldens = {"programs": programs, "experiments": experiments}
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(goldens, handle, indent=1, sort_keys=True)
    print(
        f"regenerated {len(programs)} program and "
        f"{len(experiments)} experiment goldens"
    )


if __name__ == "__main__":
    if "--regenerate" in sys.argv:
        sys.path.insert(
            0,
            os.path.join(
                os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                "src",
            ),
        )
        _regenerate()
    else:
        print(__doc__)
