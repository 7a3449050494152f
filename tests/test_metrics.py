"""Tests for the sweep-counter registry (repro.harness.metrics): every
registered counter reaches every surface generated from it, and the
session-shard reader survives any shard another process leaves."""

import json
import math
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.harness import (ParallelRunner, ResultCache, ServerConfig,
                           SweepPlan, SweepServer, WorkerPool)
from repro.harness.cli import main as cli_main
from repro.harness.metrics import (COUNTERS, NAMES, merge_session_metrics,
                                   session_shard_path)
from repro.workloads import KERNELS


def _cache_stats(root, capsys) -> str:
    capsys.readouterr()
    assert cli_main(["cache", "stats", "--cache-dir", root]) == 0
    return capsys.readouterr().out


def _group_line(out: str, group: str) -> str:
    (line,) = [line for line in out.splitlines()
               if line.startswith("  " + group.replace("_", " ") + " ")]
    return line


class TestRegistry:
    def test_every_counter_reaches_every_surface(self, tmp_path, capsys):
        root = str(tmp_path / "cache")
        plan = SweepPlan()
        for inst in (KERNELS["queue"].build(12), KERNELS["vecsum"].build(16)):
            plan.add(inst, "dsre")
            plan.add(inst, "aggressive")
        with WorkerPool(jobs=2) as pool:
            runner = ParallelRunner(jobs=2, cache=ResultCache(root),
                                    pool=pool)
            runner.run_plan(plan)
        metrics = runner.last_metrics.as_dict()
        assert metrics["pooled"]
        with open(session_shard_path(root)) as fh:
            shard = json.load(fh)
        merged = merge_session_metrics(root)
        server = SweepServer(ServerConfig(cache_dir=root))
        try:
            sections = server.metrics_payload()["server"]
        finally:
            server.pool.close()
        out = _cache_stats(root, capsys)
        for counter in COUNTERS:
            name = counter.name
            assert name in metrics, name
            assert shard[name] == merged[name] == metrics[name], name
            assert counter.label in sections[counter.group], name
            words = counter.label.replace("_", " ")
            assert f"{merged[name]} {words}" in _group_line(
                out, counter.group), name
        assert (f"({merged['golden_runs_per_kernel']:.2f} per kernel)"
                in _group_line(out, "golden"))
        # The one plan's buckets partition it.
        assert (metrics["cells_executed"] + metrics["cells_elided"]
                + metrics["cells_from_cache"]
                + metrics["dedup_inflight_hits"] == metrics["cells"] == 4)

    def test_a_shard_in_the_previous_layout_still_merges(self, tmp_path):
        # Written before the registry: no dedup counter, and the last
        # plan's metrics under their old names.
        root = str(tmp_path)
        old = dict.fromkeys(NAMES, 1)
        del old["dedup_inflight_hits"]
        old.update(wall_seconds=0.5, golden_runs_per_kernel=1.0,
                   last_plan={"cells": 2, "executed": 2, "from_cache": 0})
        with open(session_shard_path(root, pid=7), "w") as fh:
            json.dump(old, fh)
        merged = merge_session_metrics(root)
        assert merged["dedup_inflight_hits"] == 0
        assert all(merged[name] == 1 for name in old if name in NAMES)
        assert merged["wall_seconds"] == 0.5
        assert merged["last_plan"] == old["last_plan"]


# ----------------------------------------------------------------------
# The shard reader, fuzzed
# ----------------------------------------------------------------------

#: JSON texts of values no counter may take, with ``json.load``'s own
#: non-finite extensions among them.
_BAD_VALUES = st.sampled_from([
    "NaN", "Infinity", "-Infinity", "1e400", "-1e400", "true", "null",
    '"7"', "[1, 2]", '{"n": 3}'])

#: ``last_plan`` texts: ``(text, value)``, value None unless strict
#: JSON can carry it (``/metrics`` shows the merged one).
_LAST_PLANS = st.sampled_from([
    ('{"cells": 2, "wall_seconds": 0.5}', {"cells": 2, "wall_seconds": 0.5}),
    ('{"cells": 4, "pooled": true}', {"cells": 4, "pooled": True}),
    ('{"wall_seconds": NaN}', None), ('{"cells": 1e400}', None),
    ('{"runs": [-Infinity]}', None), ("[1, 2]", None), ('"plan"', None)])


def _object_text(fields, last_plan):
    """A shard object: ``(text, {counter: well-formed value}, plan)``."""
    items = [f'"{k}": {text}' for k, (text, _) in fields.items()]
    if last_plan is not None:
        items.append(f'"last_plan": {last_plan[0]}')
    return ("{" + ", ".join(items) + "}",
            {k: v for k, (_, v) in fields.items() if v is not None},
            last_plan[1] if last_plan else None)


_OBJECT_SHARD = st.builds(
    _object_text,
    st.dictionaries(
        st.sampled_from(NAMES + ("wall_seconds",)),
        st.one_of(st.integers(0, 10 ** 12).map(lambda n: (str(n), n)),
                  st.floats(0, 1e9).map(lambda x: (repr(x), x)),
                  _BAD_VALUES.map(lambda text: (text, None)))),
    st.one_of(st.none(), _LAST_PLANS))

#: Any shard: ``(text, counters, last plan)``, counters None unless the
#: text is a whole JSON object.
_SHARD = st.one_of(
    _OBJECT_SHARD,
    # Truncated: no proper prefix of an object's text parses.
    st.tuples(_OBJECT_SHARD, st.floats(0, 1)).map(
        lambda t: (t[0][0][:int(len(t[0][0]) * t[1])]
                   if t[1] < 1 else t[0][0][:-1], None, None)),
    st.sampled_from(["[1, 2, 3]", "42", '"session"', "null", "NaN",
                     "\udcff"]).map(lambda text: (text, None, None)))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(shards=st.lists(_SHARD, max_size=5))
def test_merge_sums_exactly_the_well_formed_counters(shards, capsys):
    with tempfile.TemporaryDirectory() as root:
        want = dict.fromkeys(NAMES, 0)
        wall = 0.0
        objects = 0
        plans = []
        for pid, (text, good, plan) in enumerate(shards, start=1):
            with open(session_shard_path(root, pid), "w",
                      encoding="utf-8", errors="surrogateescape") as fh:
                fh.write(text)
            if good is None:
                continue
            objects += 1
            if plan is not None:
                plans.append(plan)
            for name, value in good.items():
                if name == "wall_seconds":
                    wall += value
                else:
                    want[name] += int(value)
        merged = merge_session_metrics(root)
        if not objects:
            assert merged is None
        else:
            assert merged["shards"] == objects
            assert {name: merged[name] for name in NAMES} == want
            assert math.isclose(merged["wall_seconds"], round(wall, 6),
                                abs_tol=1e-6)
            # The last plan is a well-formed one, and /metrics can
            # carry the merged view as strict JSON.
            assert (merged["last_plan"] in plans if plans
                    else merged["last_plan"] is None)
            json.dumps(merged, allow_nan=False)
        out = _cache_stats(root, capsys)
        headers = [line for line in out.splitlines()
                   if line.startswith(("last session", "sessions"))]
        assert len(headers) == (1 if objects else 0)
