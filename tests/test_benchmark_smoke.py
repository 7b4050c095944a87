"""The benchmark's workloads, run in-process at toy sizes.

Each workload sets up, runs one untraced and one traced step and its final
work, and must pass every correctness check it makes: for ``s_pipeline``
the traced replay of ``fit`` and the checkpoint round trip, for ``m_eval``
the round trip of the checkpoint its set-up wrote.  A change to the package
that breaks a workload shows here rather than as a failed benchmark run.
"""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave no cache in perfbench/
    monkeypatch.syspath_prepend(str(PERFBENCH))
    module = importlib.import_module("workloads")
    monkeypatch.setitem(module.SIZES, "S", module.Size(30, 40, 3, 8, 4))
    monkeypatch.setitem(module.SIZES, "M", module.Size(40, 60, 3, 8, 4))
    monkeypatch.setattr(module, "M_BATCHES", 2)
    return module


@pytest.mark.parametrize("name", ["s_pipeline", "m_train", "m_eval"])
def test_workload_passes_its_checks(workloads, tmp_path, name):
    from spans import Recorder

    setup = workloads.set_up(name, 7, str(tmp_path), True, 0)
    assert setup["seconds"] > 0 and setup["spans"]
    wl = workloads.WORKLOADS[name](7, tmp_path)
    recorders = [Recorder(False, prefix="step."), Recorder(True, prefix="traced."),
                 Recorder(True, prefix="final.")]
    for rec in recorders[:2]:
        with rec.step():
            wl.step(rec)
    with recorders[2].step():
        wl.final(recorders[2])
    failed = {check: detail for check, (ok, detail) in wl.checks.results.items() if not ok}
    assert wl.checks.ok and wl.checks.results, failed
    assert [rec.errors for rec in recorders] == [[], [], []]
