"""Corpus differential fuzz suite: sampled corpus cells across every
registered machine point.

Reuses the conformance pattern of ``tests/test_recovery_conformance.py``
— run the timing simulator under maximum mis-speculation pressure and
assert the committed architectural state equals the functional
interpreter's — but over generated corpus programs instead of the
hand-written kernels, and over every registered point (the legacy five
plus ``hybrid`` and ``txwave``).
:func:`repro.harness.parallel.execute_cell` *is* the differential check
(it raises ``GoldenMismatchError`` on divergence), so each cell here
exercises the exact path sweeps and E9 run in production.

Every failure names the cell's full canonical parameters, so any
counterexample reproduces exactly from the printed seed/params.  Set
``REPRO_CORPUS_SAMPLE=<n>`` to fuzz a larger sample (the CI corpus-smoke
job additionally pushes ≥200 programs through the same ``execute_cell``
differential path via ``cli corpus fill``).
"""

import os

import pytest

from repro.errors import GoldenMismatchError
from repro.harness.experiments import E9_POINTS, E10_POINTS
from repro.harness.parallel import execute_cell
from repro.harness.runner import STANDARD_POINTS
from repro.workloads.corpus import CorpusParams, build_corpus, sample_corpus
from repro.harness.sweep import SweepPlan

#: Programs in the seeded fuzz sample (x7 points each).  The default is
#: small enough for tier-1; REPRO_CORPUS_SAMPLE scales it up.
SAMPLE = sample_corpus(int(os.environ.get("REPRO_CORPUS_SAMPLE", "6")),
                       seed=0xF0)


def _run_cell(params: CorpusParams, point: str) -> dict:
    plan = SweepPlan()
    index = plan.add(build_corpus(params), point)
    cell = list(plan)[index]
    try:
        return execute_cell(cell)
    except GoldenMismatchError as exc:
        pytest.fail(
            f"differential mismatch @ {point}: {exc}\n"
            f"reproduce with CorpusParams given "
            f"{params.canonical()!r}")


class TestCorpusDifferential:
    def test_all_points_registered(self):
        # E10 covers the full registered set; E9 stays pinned to the
        # legacy six (its golden table predates txwave) and must remain
        # a strict subset so its cells share the corpus cache.
        assert set(E10_POINTS) == set(STANDARD_POINTS)
        assert len(E10_POINTS) == 7
        assert set(E9_POINTS) < set(E10_POINTS)
        assert len(E9_POINTS) == 6

    @pytest.mark.parametrize("point", sorted(STANDARD_POINTS))
    @pytest.mark.parametrize(
        "params", SAMPLE, ids=[p.label() for p in SAMPLE])
    def test_committed_state_matches_golden(self, params, point):
        record = _run_cell(params, point)
        assert record["halted"], params.canonical()

    def test_points_agree_on_architectural_state(self):
        # All registered points of one program must commit the same state
        # — the timing configuration may never change architectural
        # results.
        params = SAMPLE[0]
        digests = {point: _run_cell(params, point)["arch_digest"]
                   for point in STANDARD_POINTS}
        assert len(set(digests.values())) == 1, digests
