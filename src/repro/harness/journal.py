"""Plan manifests and per-cell completion journals (resumable sweeps).

A sweep plan's identity is the ordered list of its cells' cache keys —
each key already content-addresses one (program, machine configuration)
pair, so :func:`plan_digest` is stable across processes, hosts, job
counts, and reruns.  Two artifacts live under ``<cache root>/plans/``:

* ``<digest>.manifest.json`` — written once (atomically, first writer
  wins): the plan's cell list (index, key, label).  It is the durable
  record of *what the sweep is*, so an operator can audit a crashed or
  sharded sweep without re-deriving the plan.
* ``<digest>.journal.jsonl`` — append-only, one JSON line per completed
  cell with its ``source``: ``"executed"`` (simulated fresh this run),
  ``"cache"`` (served by the result cache).  Lines are appended with a
  single ``write`` in ``O_APPEND`` mode, so concurrent shard processes
  filling one cache root interleave whole lines, never torn ones.  A
  journal object opens its file once, on the first line, and keeps that
  one descriptor until :meth:`PlanJournal.close`; every line is still
  its own ``write``, so a killed process loses no line it wrote.

The journal is the sweep's **re-execution proof**: because executed
cells are admitted to the content-addressed cache before being
journaled, a crashed sweep rerun under the same plan digest serves every
previously-completed cell from the cache — the journal then shows each
key with at most one ``executed`` line across all runs (zero re-executed
cells), while the rendered table stays byte-identical.  The regression
tests in ``tests/test_resume_shard.py`` assert exactly this.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, Iterator, List, Optional, Sequence

#: Subdirectory of the cache root holding manifests and journals.
PLANS_DIR = "plans"

#: Bump when the manifest/journal line layout changes.
JOURNAL_SCHEMA = 1

#: Cell-completion sources a journal line may carry: ``executed``
#: (simulated fresh this run), ``cache`` (served by the result cache),
#: ``forwarded`` (cross-point elision: a clean representative's record
#: admitted under this cell's key — see repro.harness.elide).
SOURCES = ("executed", "cache", "forwarded")


def plan_digest(keys: Sequence[str]) -> str:
    """SHA-256 over the ordered cell cache keys (the plan's identity)."""
    h = hashlib.sha256()
    h.update(f"repro-sweep-plan/v{JOURNAL_SCHEMA}\n".encode())
    for key in keys:
        h.update(key.encode())
        h.update(b"\n")
    return h.hexdigest()


class PlanJournal:
    """Manifest + append-only completion journal for one plan digest."""

    def __init__(self, root: str, digest: str):
        self.root = root
        self.digest = digest
        self.dir = os.path.join(root, PLANS_DIR)
        self.manifest_path = os.path.join(
            self.dir, f"{digest}.manifest.json")
        self.journal_path = os.path.join(
            self.dir, f"{digest}.journal.jsonl")
        #: The journal's ``O_APPEND`` descriptor while open (``record``
        #: opens it; ``close`` releases it).
        self._fd: Optional[int] = None

    # -- manifest -------------------------------------------------------

    def write_manifest(self, cells: Sequence[Dict[str, object]]) -> None:
        """Write the manifest if absent (first writer wins, atomic).

        ``cells`` carries one ``{"index", "key", "label"}`` dict per
        plan cell, in plan order.
        """
        if os.path.exists(self.manifest_path):
            return
        os.makedirs(self.dir, exist_ok=True)
        payload = {
            "schema": JOURNAL_SCHEMA,
            "plan": self.digest,
            "cells": list(cells),
        }
        tmp = self.manifest_path + f".tmp.{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True, indent=1)
        os.replace(tmp, self.manifest_path)

    def manifest(self) -> Optional[dict]:
        """The parsed manifest, or None when missing/corrupt."""
        try:
            with open(self.manifest_path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except (OSError, ValueError, RecursionError):
            return None
        if (not isinstance(payload, dict)
                or payload.get("schema") != JOURNAL_SCHEMA
                or payload.get("plan") != self.digest
                or not isinstance(payload.get("cells"), list)):
            return None
        return payload

    # -- journal --------------------------------------------------------

    def record(self, index: int, key: str, source: str) -> None:
        """Append one completion line (crash-safe: one atomic append)."""
        if source not in SOURCES:
            raise ValueError(f"unknown journal source {source!r}")
        line = json.dumps(
            {"index": index, "key": key, "source": source,
             "pid": os.getpid()},
            sort_keys=True) + "\n"
        if self._fd is None:
            os.makedirs(self.dir, exist_ok=True)
            self._fd = os.open(self.journal_path,
                               os.O_WRONLY | os.O_CREAT | os.O_APPEND,
                               0o644)
        os.write(self._fd, line.encode())

    def close(self) -> None:
        """Release the journal's descriptor (a later line reopens it)."""
        if self._fd is not None:
            fd, self._fd = self._fd, None
            os.close(fd)

    def entries(self) -> Iterator[dict]:
        """Every well-formed journal line, in append order: an object
        whose ``key`` and ``source`` are strings.  A torn trailing line
        from a crash, or any line that is not such an object (bytes
        that are not UTF-8, an integer past the parser's digit limit,
        nesting past the recursion limit), is skipped."""
        try:
            fh = open(self.journal_path, "rb")
        except OSError:
            return
        with fh:
            for raw in fh:
                try:
                    entry = json.loads(raw.decode("utf-8"))
                except (ValueError, RecursionError):
                    continue
                if (isinstance(entry, dict)
                        and isinstance(entry.get("key"), str)
                        and isinstance(entry.get("source"), str)):
                    yield entry

    def executed_counts(self) -> Dict[str, int]:
        """How many times each key was journaled as ``executed`` —
        resumability means every value here is 1."""
        counts: Dict[str, int] = {}
        for entry in self.entries():
            if entry["source"] == "executed":
                key = entry["key"]
                counts[key] = counts.get(key, 0) + 1
        return counts

    def completed_keys(self) -> Dict[str, str]:
        """Latest journaled source per key."""
        out: Dict[str, str] = {}
        for entry in self.entries():
            out[entry["key"]] = entry["source"]
        return out

    def summary(self) -> Dict[str, object]:
        """Journal-level accounting (used by the CLI and tests)."""
        executed = 0
        cached = 0
        forwarded = 0
        keys = set()
        reexecuted = 0
        seen_executed: Dict[str, int] = {}
        for entry in self.entries():
            key, source = entry["key"], entry["source"]
            keys.add(key)
            if source == "executed":
                executed += 1
                seen_executed[key] = seen_executed.get(key, 0) + 1
                if seen_executed[key] > 1:
                    reexecuted += 1
            elif source == "cache":
                cached += 1
            elif source == "forwarded":
                forwarded += 1
        manifest = self.manifest()
        total = len(manifest["cells"]) if manifest else None
        return {
            "plan": self.digest,
            "cells": total,
            "completed": len(keys),
            "executed_lines": executed,
            "cache_lines": cached,
            "forwarded_lines": forwarded,
            "reexecuted_cells": reexecuted,
        }


def journals_under(root: str) -> List[str]:
    """Every plan digest with a manifest or journal under ``root``."""
    plans = os.path.join(root, PLANS_DIR)
    digests = set()
    if not os.path.isdir(plans):
        return []
    for name in os.listdir(plans):
        if ".tmp." in name:
            continue
        if name.endswith(".manifest.json"):
            digests.add(name[:-len(".manifest.json")])
        elif name.endswith(".journal.jsonl"):
            digests.add(name[:-len(".journal.jsonl")])
    return sorted(digests)
