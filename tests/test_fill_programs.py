"""Pinned programs of the benchmark's cold corpus fill.

``tests/data/fill_programs.json`` holds the identity digest
(:meth:`KernelInstance.identity_digest`: a SHA-256 over the binary
encoding and the initial registers) of each of the 200 programs a cold
corpus fill builds, for fill seeds 233 and 7.  The plans are derived as
``perfbench/workloads.py::fill_corpus_plan`` derives them: the default
fast sample's shapes, sizes, working sets and predication, with
generator seeds ``seed * 200`` to ``seed * 200 + 199``.

The benchmark compares a fill's 1,400 records against recorded digests,
so a builder, validator or generator change that drops, adds or
reorders one random draw moves a program there.  This pin catches it
locally, program by program.  To re-record after an *intentional*
program change::

    GOLDEN_UPDATE=1 PYTHONPATH=src python -m pytest tests/test_fill_programs.py
"""

import dataclasses
import json
import os
from pathlib import Path

import pytest

from repro.workloads.corpus import build_corpus, sample_corpus

FIXTURE = Path(__file__).parent / "data" / "fill_programs.json"

#: Programs per fill, as the benchmark's ``CORPUS_PROGRAMS``.
PROGRAMS = 200

#: The benchmark's default seed and its held-out seed.
SEEDS = (233, 7)


def _digests(seed):
    """The identity digests of seed ``seed``'s fill, in plan order."""
    out = []
    for params in sample_corpus(PROGRAMS, fast=True):
        params = dataclasses.replace(params,
                                     seed=seed * PROGRAMS + params.seed)
        out.append(build_corpus(params).identity_digest())
    return out


@pytest.fixture(scope="module")
def pinned():
    if os.environ.get("GOLDEN_UPDATE") == "1":
        recorded = {str(seed): _digests(seed) for seed in SEEDS}
        FIXTURE.parent.mkdir(exist_ok=True)
        FIXTURE.write_text(json.dumps(recorded, indent=0) + "\n")
    assert FIXTURE.exists(), \
        f"{FIXTURE.name} missing; record with GOLDEN_UPDATE=1"
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_both_fills(pinned):
    assert sorted(pinned) == sorted(str(seed) for seed in SEEDS)
    for digests in pinned.values():
        assert len(digests) == PROGRAMS
        assert len(set(digests)) == PROGRAMS


@pytest.mark.parametrize("seed", SEEDS)
def test_fill_programs_are_pinned(pinned, seed):
    observed = _digests(seed)
    moved = [i for i, (got, want) in enumerate(zip(observed,
                                                   pinned[str(seed)]))
             if got != want]
    assert not moved, (f"seed {seed}: {len(moved)} programs moved, "
                       f"first at plan positions {moved[:5]}")
