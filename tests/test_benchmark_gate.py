"""The benchmark's correctness gate, run as a test.

``perfbench/run.py`` reports ``"correct": false`` when its independent
checks stop rejecting corrupted answers, or when an operation that is not
a known fault fails its check.  These tests run the same self-test and one
pass of the two library workloads in process, every operation against its
own check, so a wrong answer shows here before a benchmark run.
"""

import random
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import equilib.equilibrium
import equilib.graph_walk

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_checks_reject_corrupted_answers():
    proc = subprocess.run([sys.executable, str(PERFBENCH / "selftest.py")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "reject corrupted ones" in proc.stdout


@pytest.mark.parametrize("workload", ["exact-chains", "float-chains"])
def test_every_operation_passes_its_check(monkeypatch, tmp_path, workload):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    lib = SimpleNamespace(equilibrium=equilib.equilibrium,
                          graph_walk=equilib.graph_walk)
    ops = workloads.WORKLOADS[workload](random.Random(1), tmp_path)
    assert ops
    # the operations marked as known faults pass too, and must keep passing
    for op in ops:
        op.check(op.call(lib))
