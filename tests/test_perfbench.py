"""The benchmark's contract with the library, on shrunk leagues.

``perfbench/`` imports library functions, patches names on
``courtcast.cli`` to trace them, and checks every output it gets.  These
tests run its self-test, then one untraced and one traced pass of the
``d1`` and ``query`` workloads on 16 teams and 2 seasons, so a change to
any name or return type the benchmark relies on fails here first.
``grid`` is left out: it takes about 10 s even when shrunk.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TEAMS, SEASONS = 16, 2


def test_selftest_passes():
    proc = subprocess.run([sys.executable, str(PERFBENCH / "selftest.py")],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    monkeypatch.setattr(workloads, "D1_TEAMS", TEAMS)
    monkeypatch.setattr(workloads, "D1_SEASONS", SEASONS)
    return workloads


@pytest.mark.parametrize("name", ["d1", "query"])
def test_untraced_and_traced_pass(workloads, name, tmp_path):
    from spans import NullTracer, Tracer

    wl = workloads.WORKLOADS[name](3, tmp_path / name)
    if name == "query":
        wl.n_teams, wl.n_seasons = TEAMS, SEASONS
    wl.setup(NullTracer())
    wl.reset()
    ref = wl.run()
    assert ref.failed == 0
    assert wl.check(ref) == []
    wl.keep_reference()
    t = Tracer()
    traced = wl.run_traced(t)
    assert traced.failed == 0
    assert wl.same(ref, traced) == []
    assert wl.check_traced(traced) == []
    wl.probe(t, traced)     # times game_stats and encode_pairing on their own
