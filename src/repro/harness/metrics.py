"""The sweep-counter registry: every counter a sweep reports, declared once.

Each :class:`Counter` gives a counter's one name, where it is counted,
and its display group.  The name is the key everywhere the counter
travels: a chunk payload's ``counts``, :class:`SweepMetrics`, a runner's
or the sweep server's session totals, and the ``session.<pid>.json``
shards that ``cli cache stats`` and ``/metrics`` merge back.  The group
is the counter's ``/metrics`` section (where it sits under its label)
and its ``cli cache stats`` line.  Everything that carries counters is
generated from :data:`COUNTERS`, so adding a counter is one line here.

Where a counter is counted:

* ``CELL`` — by the chunk body (:func:`repro.harness.parallel.run_chunk`),
  summing the SimStats field of the same name over executed cells
  (a forwarded record replays its representative's counters, and a
  cached record describes whichever run produced it);
* ``CHUNK`` — by the chunk body itself: cells, golden runs and elision;
* ``PLAN`` — by the runner, once per plan;
* ``POOL`` — by the :class:`~repro.harness.pool.WorkerPool`, read from
  the attribute named by the counter's label.

A runner adds each chunk's counts to its plan tally and each plan's
tally to its session totals.  The sweep server adds each executed
chunk's counts once, however many plans share its cells; it counts a
plan's cached cells as the plan starts executing, each in-flight join
as it happens, and each finished plan in ``plans_run``, so a plan that
fails or is still running shows too.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from typing import Dict, List, NamedTuple, Optional

CELL, CHUNK, PLAN, POOL = "cell", "chunk", "plan", "pool"


class Counter(NamedTuple):
    name: str       # the key in every payload, tally, total and shard
    where: str      # CELL, CHUNK, PLAN or POOL
    group: str      # /metrics section and cache-stats line
    label: str      # key inside the section, words on the line


COUNTERS = (
    Counter("plans_run", PLAN, "plans", "run"),
    Counter("cells_executed", CHUNK, "cells", "executed"),
    Counter("cells_elided", CHUNK, "cells", "elided"),
    Counter("cells_from_cache", PLAN, "cells", "from_cache"),
    Counter("dedup_inflight_hits", PLAN, "cells", "dedup_inflight_hits"),
    Counter("kernels_executed", CHUNK, "golden", "kernels"),
    Counter("golden_fresh_runs", CHUNK, "golden", "fresh"),
    Counter("golden_memo_hits", CHUNK, "golden", "memo_hits"),
    Counter("pool_spinups", POOL, "pool", "spinups"),
    Counter("pool_reuses", POOL, "pool", "reuses"),
    Counter("specialize_hits", CELL, "specialize", "hits"),
    Counter("specialize_misses", CELL, "specialize", "misses"),
    Counter("representative_runs", CHUNK, "elision", "representative_runs"),
    Counter("elision_fallbacks", CHUNK, "elision", "fallbacks"),
    Counter("fu_work_issued", CELL, "work", "fu_work_issued"),
    Counter("fu_work_committed", CELL, "work", "fu_work_committed"),
    Counter("squashed_executions", CELL, "work", "squashed_executions"),
    Counter("wave_operand_sends", CELL, "work", "wave_operand_sends"),
    Counter("epoch_rollbacks", CELL, "epoch", "rollbacks"),
    Counter("epoch_rollback_depth", CELL, "epoch", "rollback_depth"),
)

NAMES = tuple(c.name for c in COUNTERS)
#: The chunk payload's ``counts``.
CHUNK_NAMES = tuple(c.name for c in COUNTERS if c.where in (CELL, CHUNK))
_CELL_STATS = tuple(c.name for c in COUNTERS if c.where == CELL)
_GROUPS: Dict[str, List[Counter]] = {}
for _counter in COUNTERS:
    _GROUPS.setdefault(_counter.group, []).append(_counter)


def new_counts(names=NAMES) -> Dict[str, int]:
    """A zeroed tally of ``names`` (every registered counter)."""
    return dict.fromkeys(names, 0)


def add_counts(totals: Dict[str, int], counts: Dict[str, int]) -> None:
    """Add every counter of ``counts`` into ``totals``."""
    for name, value in counts.items():
        totals[name] += value


def count_cell(counts: Dict[str, int], record: dict) -> None:
    """Count one record a chunk produced: a forwarded record as elided,
    an executed one as executed with its ``CELL`` counters."""
    if record.get("forwarded_from"):
        counts["cells_elided"] += 1
        return
    counts["cells_executed"] += 1
    stats = record["result"]["stats"]
    for name in _CELL_STATS:
        counts[name] += stats[name]


def with_pool_counts(counts: Dict[str, int], pool) -> Dict[str, int]:
    """``counts`` with its ``POOL`` counters read from ``pool`` (zero
    without one)."""
    return {**counts, **{c.name: getattr(pool, c.label) if pool else 0
                         for c in COUNTERS if c.where == POOL}}


def _per_kernel(counts) -> float:
    kernels = counts["kernels_executed"]
    return counts["golden_fresh_runs"] / kernels if kernels else 0.0


class _PlanMetrics:
    """What :class:`SweepMetrics` adds to its generated fields."""

    @property
    def cells_per_sec(self) -> float:
        # Honest throughput: only *simulated* cells count; elided and
        # cached cells have their own counters.
        return (self.cells_executed / self.wall_seconds
                if self.wall_seconds > 0 else 0.0)

    @property
    def golden_runs_per_kernel(self) -> float:
        """Fresh golden runs per distinct kernel executed (<= 1.0)."""
        return _per_kernel(vars(self))

    def as_dict(self) -> Dict[str, object]:
        out = dataclasses.asdict(self)
        out["wall_seconds"] = round(self.wall_seconds, 6)
        out["cells_per_sec"] = round(self.cells_per_sec, 2)
        out["golden_runs_per_kernel"] = round(self.golden_runs_per_kernel, 4)
        return out


#: One plan's accounting: its size, wall clock, whether a process pool
#: ran it, and every registered counter (a ``POOL`` counter is the
#: pool's session count when the plan ended).  The buckets partition
#: the plan: executed + elided + from cache + in-flight dedup == cells.
SweepMetrics = dataclasses.make_dataclass(
    "SweepMetrics",
    [("cells", int), ("wall_seconds", float), ("pooled", bool)]
    + [(name, int, dataclasses.field(default=0)) for name in NAMES],
    bases=(_PlanMetrics,), namespace={"__module__": __name__})


# ----------------------------------------------------------------------
# Session shards
# ----------------------------------------------------------------------

def session_shard_path(root: str, pid: Optional[int] = None) -> str:
    """This process's (or ``pid``'s) session-metrics shard file."""
    return os.path.join(root, f"session.{pid or os.getpid()}.json")


def session_shard_files(root: str) -> List[str]:
    """Every ``session.<pid>.json`` shard under ``root``.

    Each runner process writes its own shard, so runners sharing a cache
    root never clobber each other's counters.  In-flight ``*.tmp.*``
    writer files, and any other ``session.*`` name, are skipped."""
    out = []
    if not os.path.isdir(root):
        return out
    for name in sorted(os.listdir(root)):
        parts = name.split(".")
        if (len(parts) == 3 and parts[0] == "session"
                and parts[1].isdigit() and parts[2] == "json"):
            out.append(os.path.join(root, name))
    return out


def write_session_shard(root: str, counts: Dict[str, int],
                        wall_seconds: float,
                        last_plan: Optional[dict]) -> None:
    """Atomically write this process's session shard: every registered
    counter's session total, the plans' wall clock, and the last plan's
    :meth:`SweepMetrics.as_dict`.

    Best-effort: metrics must never fail a sweep.
    """
    payload = {name: counts[name] for name in NAMES}
    payload.update(wall_seconds=round(wall_seconds, 6),
                   golden_runs_per_kernel=round(_per_kernel(counts), 4),
                   last_plan=last_plan)
    try:
        os.makedirs(root, exist_ok=True)
        path = session_shard_path(root)
        tmp = path + f".tmp.{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True, indent=2)
        os.replace(tmp, path)
    except OSError:
        pass


def _finite(value) -> bool:
    """A well-formed counter value: a JSON number that is not NaN or
    infinite (``json.load`` accepts both)."""
    return type(value) is int or (type(value) is float
                                  and math.isfinite(value))


def _strict_object(value) -> bool:
    """A well-formed ``last_plan``: an object that strict JSON can
    carry (``/metrics`` shows it), so no NaN or infinity anywhere."""
    try:
        json.dumps(value, allow_nan=False)
    except (ValueError, RecursionError):
        return False
    return isinstance(value, dict)


def merge_session_metrics(root: str) -> Optional[dict]:
    """Merge every per-process session shard under ``root``.

    Counters sum across shards; ``last_plan`` comes from the most
    recently written shard that holds a well-formed one.  Shards are
    written by any process sharing the root, so a file that does not
    parse, is not an object, or holds a value that is not a finite
    number contributes only what is well formed.  Returns None when no
    shard parses — the consumer
    (``cli cache stats``, the server's ``/metrics``) then just omits
    the section.
    """
    merged: Dict[str, object] = new_counts()
    wall = 0.0
    last_plan, last_mtime = None, -1.0
    shards = 0
    for path in session_shard_files(root):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
            mtime = os.path.getmtime(path)
        except (OSError, ValueError, RecursionError):
            continue
        if not isinstance(payload, dict):
            continue
        shards += 1
        for name in NAMES:
            value = payload.get(name, 0)
            if _finite(value):
                merged[name] += int(value)
        seconds = payload.get("wall_seconds", 0.0)
        if _finite(seconds):
            wall += seconds
        if mtime > last_mtime and _strict_object(payload.get("last_plan")):
            last_mtime, last_plan = mtime, payload["last_plan"]
    if not shards:
        return None
    merged.update(wall_seconds=round(wall, 6),
                  golden_runs_per_kernel=round(_per_kernel(merged), 4),
                  shards=shards, last_plan=last_plan)
    return merged


# ----------------------------------------------------------------------
# Display
# ----------------------------------------------------------------------

def counter_sections(counts: Dict[str, int]) -> Dict[str, Dict[str, int]]:
    """``/metrics`` counter sections: ``{group: {label: value}}``."""
    return {group: {c.label: counts[c.name] for c in members}
            for group, members in _GROUPS.items()}


def session_lines(merged: dict) -> List[str]:
    """The ``cli cache stats`` session block for a merged shard view:
    a header, then one line per display group, the golden line with
    its runs per kernel and the epoch line with its frames per
    rollback."""
    shards = merged["shards"]
    title = "sessions" if shards > 1 else "last session"
    lines = [f"{title} ({shards} shard{'s' if shards > 1 else ''}, "
             f"{merged['wall_seconds']:.2f}s in plans)"]
    rollbacks = merged["epoch_rollbacks"]
    for group, members in _GROUPS.items():
        items = ", ".join(f"{merged[c.name]} {c.label.replace('_', ' ')}"
                          for c in members)
        if group == "golden":
            items += f" ({merged['golden_runs_per_kernel']:.2f} per kernel)"
        elif group == "epoch" and rollbacks:
            items += (f" ({merged['epoch_rollback_depth'] / rollbacks:.2f}"
                      f" frames per rollback)")
        lines.append(f"  {group.replace('_', ' '):16s}{items}")
    return lines
