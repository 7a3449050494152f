"""What a cached sweep leaves under its result-cache root.

A root holds the cell records (one two-hex-digit directory per key
prefix), the plan journals under ``plans/`` and one
``session.<pid>.json`` metrics shard per process: nothing else.  Block
plans and golden runs are derived per process and never written there.
"""

import os

from repro.harness import parallel
from repro.harness.cache import ResultCache, _is_shard_dir
from repro.harness.experiments import corpus_plan
from repro.harness.metrics import session_shard_files
from repro.harness.parallel import ParallelRunner


def test_pooled_fill_leaves_records_journals_and_shards(tmp_path,
                                                        monkeypatch):
    monkeypatch.setattr(parallel, "_available_cores", lambda: 2)
    root = str(tmp_path / "cache")
    plan, _ = corpus_plan(fast=True, sample=3, seed=11)
    cells = list(plan)
    with ParallelRunner(jobs=2, cache=ResultCache(root),
                        journal=True) as runner:
        summary = runner.fill_plan(cells)
        assert runner.last_metrics.pooled
    assert summary["executed"] + summary["elided"] == len(cells)

    names = set(os.listdir(root))
    shards = {os.path.basename(path) for path in session_shard_files(root)}
    assert shards == {f"session.{os.getpid()}.json"}
    assert "plans" in names
    records = {name for name in names if _is_shard_dir(name)}
    assert records
    assert names == records | shards | {"plans"}
