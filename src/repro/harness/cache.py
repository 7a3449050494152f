"""Content-addressed on-disk cache for timing-simulation results.

Each cache entry is one JSON record describing one sweep cell.  The key is
the SHA-256 of

* the program's canonical binary encoding plus initial registers
  (:meth:`KernelInstance.identity_digest`),
* the fully-derived :class:`MachineConfig` in canonical JSON form (which
  includes the dependence-policy/recovery pair), and
* the record schema version,

so any change to the program, the machine, or the record format misses
cleanly.  Records live under ``.repro-cache/<key[:2]>/<key>.json`` and are
written atomically (temp file + rename).  A record that fails validation —
truncated JSON, wrong schema, key mismatch, missing sections — is deleted
and reported as *corrupt*; the caller simply re-simulates.

The cache root may be **shared by several processes** (parallel CLI runs,
the sweep server, ``corpus fill --shard`` processes).  The invariants that
make that safe — atomic replace-only writes, mtime-guarded corrupt-entry
deletion, ``*.tmp.*`` files invisible to every scan and reaped only when
aged — are documented in ``docs/HARNESS.md`` ("Shared cache root").

The cache stores only architectural digests and counters, never the full
final state: admission is gated by the differential check in
:mod:`repro.harness.parallel`, so a cached record is by construction a
result whose timing simulation matched the golden model.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..errors import ConfigError
from ..uarch.config import MachineConfig

#: Bump when the record layout changes; old records then miss (and are
#: reaped by ``clear``), never misparsed.
SCHEMA_VERSION = 1

#: A ``<name>.tmp.<pid>`` file younger than this may still belong to a
#: live writer racing towards ``os.replace``; older ones are orphans left
#: by a crashed writer and are reaped by :meth:`ResultCache.clear`.
TMP_REAP_AGE = 60.0

#: Sections a record must carry to be admitted on load.
_REQUIRED_KEYS = ("schema", "key", "kernel", "point", "config", "result",
                  "arch_digest")
_REQUIRED_RESULT_KEYS = ("stats", "network", "lsq", "l1", "predictor")


def _is_shard_dir(name: str) -> bool:
    """True for the two-hex-digit record directories (``key[:2]``).

    The cache root also hosts non-record directories (``plans/`` with
    sweep manifests and completion journals); those must not be counted
    as records nor deleted by :meth:`ResultCache.clear`.
    """
    if len(name) != 2:
        return False
    try:
        int(name, 16)
    except ValueError:
        return False
    return True


def _listdir(path: str) -> List[str]:
    """``os.listdir``, or nothing for a directory that is gone: another
    process's :meth:`ResultCache.clear` may prune an emptied shard
    directory between a caller's ``isdir`` check and the listing."""
    try:
        return os.listdir(path)
    except FileNotFoundError:
        return []


@dataclass
class CacheSession:
    """Hit/miss accounting for one runner session."""

    hits: int = 0
    misses: int = 0
    corrupt: int = 0
    stored: int = 0


#: The hash state after the key's fixed prefix; each key copies it.
_KEY_PREFIX = hashlib.sha256(
    f"repro-result-cache/v{SCHEMA_VERSION}\n".encode())


def cache_key(identity_digest: str, config: MachineConfig,
              text: Optional[str] = None) -> str:
    """The content address of one (program, machine) cell.

    ``text`` is ``config.canonical_json()`` when the caller already holds
    it (a runner derives it once per distinct config of a plan).
    """
    if text is None:
        text = config.canonical_json()
    h = _KEY_PREFIX.copy()
    h.update(f"{identity_digest}\n{text}".encode())
    return h.hexdigest()


class ResultCache:
    """A directory of content-addressed result records.

    ``shard`` is an optional ``(index, count)`` pair: when set, this
    process *owns* (i.e. is expected to execute) only the keys whose
    leading digest byte falls in its slice — see :meth:`owns_key`.  All
    shards read and write the whole root; ownership only partitions who
    pays for a miss, which is what lets several ``corpus fill --shard``
    processes share one cache root without duplicating work.
    """

    def __init__(self, root: str = ".repro-cache",
                 shard: Optional[Tuple[int, int]] = None):
        self.root = root
        if shard is not None:
            index, count = shard
            if count < 1 or not 0 <= index < count:
                raise ConfigError(
                    f"bad cache shard {shard!r}: need 0 <= index < count")
        self.shard = shard
        self.session = CacheSession()
        #: Shard directories this object has made: ``store`` calls
        #: ``makedirs`` only for a new one, or to retry after a
        #: concurrent ``clear`` pruned one.
        self._made_dirs: Set[str] = set()

    # ------------------------------------------------------------------

    def _path(self, key: str) -> str:
        return os.path.join(self.root, key[:2], key + ".json")

    def owns_key(self, key: str) -> bool:
        """True when this process is responsible for executing ``key``.

        Sharding is by digest prefix — the same two hex characters the
        on-disk layout shards directories by — so one shard's writes
        cluster in its own subdirectories.
        """
        if self.shard is None:
            return True
        index, count = self.shard
        return int(key[:2], 16) % count == index

    def load(self, key: str) -> Optional[dict]:
        """The validated record for ``key``, or None (miss / corrupt)."""
        path = self._path(key)
        try:
            before = os.stat(path)
        except OSError:
            self.session.misses += 1
            return None
        try:
            with open(path, "r", encoding="utf-8") as fh:
                record = json.load(fh)
            self._validate(key, record)
        except FileNotFoundError:
            self.session.misses += 1
            return None
        except (ValueError, TypeError, KeyError, RecursionError,
                ConfigError):
            # A corrupt entry must never poison a run: drop it and rerun.
            # (Torn or non-UTF-8 text, an integer past the parser's digit
            # limit and nesting past the recursion limit all land here;
            # the first three are ValueErrors.)
            # The unlink is mtime-guarded: another process may have
            # atomically replaced the file with a *valid* record between
            # our read and now, and deleting that would lose its work.
            self.session.corrupt += 1
            self.session.misses += 1
            self._unlink_if_unchanged(path, before)
            return None
        self.session.hits += 1
        return record

    @staticmethod
    def _unlink_if_unchanged(path: str, before: os.stat_result) -> None:
        try:
            after = os.stat(path)
            if ((after.st_ino, after.st_mtime_ns, after.st_size)
                    != (before.st_ino, before.st_mtime_ns,
                        before.st_size)):
                return          # replaced by a concurrent writer
            os.unlink(path)
        except OSError:
            pass

    def store(self, key: str, record: dict) -> None:
        """Atomically write ``record`` under ``key``."""
        record = dict(record, schema=SCHEMA_VERSION, key=key)
        shard_dir = os.path.join(self.root, key[:2])
        path = os.path.join(shard_dir, key + ".json")
        tmp = path + f".tmp.{os.getpid()}"
        # dumps, not dump: the same bytes, from the C encoder, in one
        # write.
        text = json.dumps(record, sort_keys=True)
        for attempt in range(3):
            if attempt or shard_dir not in self._made_dirs:
                os.makedirs(shard_dir, exist_ok=True)
                self._made_dirs.add(shard_dir)
            try:
                with open(tmp, "w", encoding="utf-8") as fh:
                    fh.write(text)
                break
            except FileNotFoundError:
                # A concurrent clear pruned the still-empty shard
                # directory after it was made: make it again.
                if attempt == 2:
                    raise
        os.replace(tmp, path)
        self.session.stored += 1

    @staticmethod
    def _validate(key: str, record: object) -> None:
        if not isinstance(record, dict):
            raise ValueError("record is not an object")
        for name in _REQUIRED_KEYS:
            if name not in record:
                raise ValueError(f"record missing {name!r}")
        if record["schema"] != SCHEMA_VERSION:
            raise ValueError(f"schema {record['schema']} != {SCHEMA_VERSION}")
        if record["key"] != key:
            raise ValueError("record key does not match its address")
        result = record["result"]
        if not isinstance(result, dict):
            raise ValueError("result section is not an object")
        if not isinstance(record["config"], dict):
            raise ValueError("config section is not an object")
        for name in _REQUIRED_RESULT_KEYS:
            if not isinstance(result.get(name), dict):
                raise ValueError(f"result section missing {name!r}")
        # Config must still parse and validate under the current code.
        MachineConfig.from_dict(record["config"])

    # ------------------------------------------------------------------

    def entries(self) -> List[str]:
        """All record paths currently on disk.

        In-flight (or orphaned) ``*.tmp.*`` writer files are never
        records, whatever their extension, so they are skipped here —
        and therefore invisible to :meth:`stats` and :meth:`clear`'s
        record accounting.  Only the two-hex-digit shard directories
        hold records; sibling directories under the root (such as
        ``plans/`` with sweep manifests and journals) are not records
        and are left untouched by :meth:`clear`.
        """
        found = []
        if not os.path.isdir(self.root):
            return found
        for shard in sorted(os.listdir(self.root)):
            shard_dir = os.path.join(self.root, shard)
            if not os.path.isdir(shard_dir) or not _is_shard_dir(shard):
                continue
            for name in sorted(_listdir(shard_dir)):
                if name.endswith(".json") and ".tmp." not in name:
                    found.append(os.path.join(shard_dir, name))
        return found

    def orphan_tmp_files(self) -> List[str]:
        """Every ``*.tmp.*`` file under the root (crashed-writer debris
        plus any write that is in flight right now)."""
        found = []
        if not os.path.isdir(self.root):
            return found
        for entry in sorted(os.listdir(self.root)):
            path = os.path.join(self.root, entry)
            if os.path.isdir(path):
                for name in sorted(_listdir(path)):
                    if ".tmp." in name:
                        found.append(os.path.join(path, name))
            elif ".tmp." in entry:
                found.append(path)
        return found

    def stats(self) -> Dict[str, object]:
        """On-disk totals (for ``cli cache stats``)."""
        paths = self.entries()
        per_kernel: Dict[str, int] = {}
        stale = 0
        total_bytes = 0
        for path in paths:
            try:
                total_bytes += os.path.getsize(path)
                with open(path, "r", encoding="utf-8") as fh:
                    record = json.load(fh)
            except (OSError, ValueError, RecursionError):
                stale += 1          # unreadable, torn, or not JSON
                continue
            kernel = (record.get("kernel", "?")
                      if isinstance(record, dict) else None)
            if (not isinstance(kernel, str)
                    or record.get("schema") != SCHEMA_VERSION):
                stale += 1
                continue
            per_kernel[kernel] = per_kernel.get(kernel, 0) + 1
        return {
            "root": self.root,
            "entries": len(paths),
            "bytes": total_bytes,
            "schema": SCHEMA_VERSION,
            "stale_or_corrupt": stale,
            "orphan_tmp": len(self.orphan_tmp_files()),
            "per_kernel": dict(sorted(per_kernel.items())),
        }

    def clear(self, tmp_age: float = TMP_REAP_AGE) -> int:
        """Delete every record; returns how many were removed.

        Also reaps orphaned ``*.tmp.*`` writer files older than
        ``tmp_age`` seconds (younger ones are left alone: they may
        belong to a concurrent writer that is about to ``os.replace``
        them into place).
        """
        removed = 0
        self._made_dirs.clear()
        for path in self.entries():
            try:
                os.unlink(path)
                removed += 1
            except OSError:
                pass
        now = time.time()
        for path in self.orphan_tmp_files():
            try:
                if now - os.path.getmtime(path) >= tmp_age:
                    os.unlink(path)
            except OSError:
                pass
        # Prune now-empty shard directories (best effort).
        if os.path.isdir(self.root):
            for shard in os.listdir(self.root):
                shard_dir = os.path.join(self.root, shard)
                if os.path.isdir(shard_dir) and not _listdir(shard_dir):
                    try:
                        os.rmdir(shard_dir)
                    except OSError:
                        pass
        return removed
