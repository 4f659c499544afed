"""The package names ``bench/probes.py`` patches exist, and its Recorder
restores every one of them; a rename in ``src/`` that would break every
benchmark repetition fails here.  No benchmark is run."""

import importlib.util
import os

import pytest

import adaagm.diagnostics
import adaagm.runner
import adaagm.solver

_SPEC = importlib.util.spec_from_file_location(
    "probes", os.path.join(os.path.dirname(__file__), "..", "bench", "probes.py"))
probes = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(probes)

MODULES = (adaagm.runner, adaagm.solver, adaagm.diagnostics)
#: (module, attribute) the untraced Recorder replaces
BOUNDARY = {("adaagm.runner", name) for name in (
    "run_adaagm", "run_nesterov", "run_gd", "certify", "write_trace_csv",
    "build_problem", "start_point")}
#: and the ones the traced Recorder replaces as well
TRACED = {("adaagm.solver", name) for name in (
    "local_smoothness", "advance_step", "next_t", "run_adaagm")} | {("adaagm.diagnostics", "energy")}


def _attributes():
    return {(m.__name__, name): value for m in MODULES for name, value in vars(m).items()}


@pytest.mark.parametrize("traced", [False, True])
def test_recorder_patches_and_restores_every_name(traced):
    before = _attributes()
    with probes.Recorder(traced).installed():
        inside = _attributes()
    after = _attributes()
    assert {key for key, value in inside.items() if value is not before[key]} == \
        (BOUNDARY | TRACED if traced else BOUNDARY)
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
