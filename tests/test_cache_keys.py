"""Pinned cache keys: every way a sweep derives a key must reproduce them.

``tests/data/cache_keys.json`` holds, for each cell below, the program's
identity digest (:meth:`KernelInstance.identity_digest`, a SHA-256 over
the binary encoding and the initial registers) and the cell's
:func:`~repro.harness.cache.cache_key`.  A key that moves orphans every
record a cache root holds, so an encoder, config-serialisation or
key-derivation change that is meant to be exact must leave this file
alone.  The test derives the digests and keys twice: cell by cell through
the public functions, and through the path a sweep takes
(:func:`~repro.harness.pool.identity_digests` and
:func:`~repro.harness.parallel.plan_keys` over one plan).

Coverage: the 14 kernels at test scale and a 20-program corpus sample at
every standard machine point, plus cells with a window, hop-latency,
hybrid, txwave or functional-unit override and one on a non-default
base.  To re-record after an *intentional* key change::

    GOLDEN_UPDATE=1 PYTHONPATH=src python -m pytest tests/test_cache_keys.py
"""

import json
import os
from pathlib import Path

import pytest

from repro.harness.cache import cache_key
from repro.harness.parallel import plan_keys
from repro.harness.pool import identity_digests
from repro.harness.runner import STANDARD_POINTS
from repro.harness.sweep import SweepPlan
from repro.isa.opcodes import OpClass
from repro.uarch.config import default_config
from repro.workloads import KERNELS
from repro.workloads.corpus import build_corpus, sample_corpus

FIXTURE = Path(__file__).parent / "data" / "cache_keys.json"

POINTS = sorted(STANDARD_POINTS)

#: Seed of the pinned corpus sample (any fixed value; not E9's default).
CORPUS_SEED = 0x5EED


def _fu_latencies():
    latencies = dict(default_config().fu_latencies)
    latencies[OpClass.INT_MUL] = 5
    return latencies


def _plan():
    """``(plan, case ids)``: one case id per plan cell, in plan order."""
    plan = SweepPlan()
    ids = []
    for name in sorted(KERNELS):
        instance = KERNELS[name].build_test()
        for point in POINTS:
            plan.add(instance, point)
            ids.append(f"{name}@{point}")
    for params in sample_corpus(20, seed=CORPUS_SEED):
        instance = build_corpus(params)
        for point in POINTS:
            plan.add(instance, point)
            ids.append(f"corpus({params.shape},s{params.seed})@{point}")
    vecsum = KERNELS["vecsum"].build_test()
    queue = KERNELS["queue"].build_test()
    extra = (
        ("vecsum/max_frames=4@dsre", vecsum, "dsre", None,
         {"max_frames": 4}),
        ("queue/hop_latency=2@storeset", queue, "storeset", None,
         {"hop_latency": 2}),
        ("queue/hybrid_redelivery_limit=2@hybrid", queue, "hybrid", None,
         {"hybrid_redelivery_limit": 2}),
        ("queue/txwave_epoch_blocks=8@txwave", queue, "txwave", None,
         {"txwave_epoch_blocks": 8}),
        ("vecsum/fu_latencies(INT_MUL=5)@aggressive", vecsum, "aggressive",
         None, {"fu_latencies": _fu_latencies()}),
        ("queue/base(l1_size=64K,grid=8x4)@dsre", queue, "dsre",
         default_config(l1_size=64 * 1024, grid_width=8), {}),
    )
    for case, instance, point, base, overrides in extra:
        plan.add(instance, point, base, **overrides)
        ids.append(case)
    assert len(set(ids)) == len(ids)
    return plan, ids


def _observe_by_cell(plan, ids):
    """Digest and key of each cell, derived on its own."""
    out = {}
    for case, cell in zip(ids, plan):
        digest = cell.instance.identity_digest()
        out[case] = {"digest": digest,
                     "key": cache_key(digest, cell.config())}
    return out


def _write_fixture(recorded):
    lines = [f"{json.dumps(case)}: "
             f"{json.dumps(recorded[case], sort_keys=True)}"
             for case in sorted(recorded)]
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text("{\n" + ",\n".join(lines) + "\n}\n")


@pytest.fixture(scope="module")
def pinned():
    plan, ids = _plan()
    if os.environ.get("GOLDEN_UPDATE") == "1":
        _write_fixture(_observe_by_cell(plan, ids))
    assert FIXTURE.exists(), \
        f"{FIXTURE.name} missing; record with GOLDEN_UPDATE=1"
    return plan, ids, json.loads(FIXTURE.read_text())


def test_fixture_covers_every_cell(pinned):
    plan, ids, recorded = pinned
    assert sorted(recorded) == sorted(ids)
    assert len(ids) == 14 * 7 + 20 * 7 + 6


def test_keys_cell_by_cell(pinned):
    plan, ids, recorded = pinned
    observed = _observe_by_cell(plan, ids)
    moved = [case for case in ids if observed[case] != recorded[case]]
    assert not moved, f"{len(moved)} cells moved, first {moved[:3]}"


def test_keys_through_the_sweep_path(pinned):
    plan, ids, recorded = pinned
    cells = list(plan)
    digests = identity_digests(cells)
    keys = plan_keys(cells, digests)
    observed = {case: {"digest": digest, "key": key}
                for case, digest, key in zip(ids, digests, keys)}
    moved = [case for case in ids if observed[case] != recorded[case]]
    assert not moved, f"{len(moved)} cells moved, first {moved[:3]}"
