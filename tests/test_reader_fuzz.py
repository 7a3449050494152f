"""The cache and journal readers survive any file they may find.

A result record or a journal line can be torn by a crash, overwritten by
hand, or written by another tool, and both readers claim to tolerate it:
``ResultCache.load`` drops a corrupt record and the sweep re-simulates
the cell, ``ResultCache.stats`` counts it as stale, and the plan
journal's readers skip a line they cannot use.  Hypothesis sends them
truncated valid files, random bytes, JSON that is not an object,
records and lines with wrong-typed fields, integers past the parser's
digit limit and nesting past the recursion limit, directly and through
``cli cache stats`` and ``cli corpus status``, which must exit 0.
"""

import contextlib
import hashlib
import io
import json
import os
import tempfile

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.harness import ResultCache, cache_key
from repro.harness.cli import main as cli_main
from repro.harness.journal import PlanJournal
from repro.uarch.config import MachineConfig

_CONFIG = MachineConfig()
KEY = cache_key(hashlib.sha256(b"fuzzed").hexdigest(), _CONFIG)

#: Texts past the JSON parser's limits: an integer longer than the
#: int-to-str digit limit (Python >= 3.10.7) and nesting deeper than the
#: interpreter's recursion limit.
HUGE_INT = "9" * 5000
DEEP = "[" * 100_000 + "]" * 100_000

FUZZ = settings(max_examples=60, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


def _record(key: str = KEY) -> dict:
    """A record that passes ``ResultCache._validate``."""
    return {
        "schema": 1, "key": key, "kernel": "fuzz", "point": "dsre",
        "label": "fuzz @ dsre", "config": _CONFIG.to_dict(),
        "result": {"stats": {}, "network": {}, "lsq": {}, "l1": {},
                   "predictor": {}},
        "arch_digest": "0" * 64,
    }


_RECORD_TEXT = json.dumps(_record(), sort_keys=True).encode()

#: Any JSON value, a few levels deep.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8)
    | st.floats(allow_nan=False),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8)


@st.composite
def wrong_typed_records(draw):
    """A valid record with one field, or one field of a section,
    replaced by an arbitrary JSON value."""
    record = _record()
    section = draw(st.sampled_from(["", "config", "result"]))
    target = record if not section else record[section]
    name = draw(st.sampled_from(sorted(target)))
    target[name] = draw(json_values)
    return json.dumps(record).encode()


record_files = st.one_of(
    st.integers(0, len(_RECORD_TEXT) - 1).map(lambda n: _RECORD_TEXT[:n]),
    st.binary(max_size=64),
    json_values.filter(lambda v: not isinstance(v, dict))
    .map(lambda v: json.dumps(v).encode()),
    wrong_typed_records(),
)


def _plant(root: str, key: str, content: bytes) -> ResultCache:
    cache = ResultCache(root)
    path = cache._path(key)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(content)
    return cache


class TestRecordReaders:
    @FUZZ
    @given(record_files)
    @example(DEEP.encode())
    @example(HUGE_INT.encode())
    @example(b"[]")
    @example(json.dumps(dict(_record(), config=[])).encode())
    def test_load_returns_a_valid_record_or_a_miss(self, content):
        with tempfile.TemporaryDirectory() as root:
            cache = _plant(root, KEY, content)
            record = cache.load(KEY)
            if record is None:
                assert cache.session.misses == 1
            else:
                ResultCache._validate(KEY, record)
                assert cache.session.hits == 1

    @FUZZ
    @given(record_files)
    @example(b"[1, 2]")
    @example(HUGE_INT.encode())
    @example(DEEP.encode())
    @example(json.dumps(dict(_record(), kernel=["k"])).encode())
    def test_stats_counts_every_file(self, content):
        with tempfile.TemporaryDirectory() as root:
            _plant(root, cache_key("a" * 64, _CONFIG), _RECORD_TEXT)
            cache = _plant(root, KEY, content)
            stats = cache.stats()
            assert stats["entries"] == 2
            assert (stats["stale_or_corrupt"]
                    + sum(stats["per_kernel"].values())) == 2
            assert stats["per_kernel"].get("fuzz", 0) >= 1

    @FUZZ
    @given(record_files)
    @example(b"[]")
    @example(HUGE_INT.encode())
    @example(DEEP.encode())
    def test_cli_cache_stats_exits_zero(self, content):
        with tempfile.TemporaryDirectory() as root:
            _plant(root, KEY, content)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli_main(["cache", "stats", "--cache-dir", root])
            assert code == 0
            assert "entries         1" in out.getvalue()


DIGEST = "d" * 64

#: Lines the journal writes; the fuzzed line goes between them.
GOOD = [{"index": 0, "key": "k0", "source": "executed", "pid": 1},
        {"index": 1, "key": "k1", "source": "cache", "pid": 1}]

journal_lines = st.one_of(
    st.binary(max_size=48).filter(lambda b: b"\n" not in b),
    json_values.map(lambda v: json.dumps(v).encode()),
    st.fixed_dictionaries({"index": json_values, "key": json_values,
                           "source": json_values})
    .map(lambda v: json.dumps(v).encode()),
    st.integers(1, 40).map(
        lambda n: json.dumps(GOOD[0]).encode()[:n]),
)


def _journal(root: str, bad: bytes) -> PlanJournal:
    journal = PlanJournal(root, DIGEST)
    os.makedirs(journal.dir, exist_ok=True)
    lines = [json.dumps(GOOD[0]).encode(), bad,
             json.dumps(GOOD[1]).encode()]
    with open(journal.journal_path, "wb") as fh:
        fh.write(b"\n".join(lines) + b"\n")
    return journal


def _well_formed(line: bytes) -> bool:
    """Whether the reader may count ``line``: an object whose key and
    source are strings."""
    try:
        entry = json.loads(line.decode("utf-8"))
    except (ValueError, RecursionError):
        return False
    return (isinstance(entry, dict) and isinstance(entry.get("key"), str)
            and isinstance(entry.get("source"), str))


class TestJournalReaders:
    @FUZZ
    @given(journal_lines)
    @example(b"\xff")
    @example(HUGE_INT.encode())
    @example(DEEP.encode())
    @example(b'{"key": "k9", "source": ["executed"]}')
    def test_readers_skip_what_they_cannot_use(self, bad):
        with tempfile.TemporaryDirectory() as root:
            journal = _journal(root, bad)
            entries = list(journal.entries())
            extra = _well_formed(bad)
            assert len(entries) == 2 + extra
            assert entries[0] == GOOD[0] and entries[-1] == GOOD[1]
            summary = journal.summary()
            assert summary["cells"] is None     # no manifest
            assert summary["cache_lines"] >= 1
            assert summary["executed_lines"] >= 1
            assert journal.executed_counts()["k0"] >= 1
            assert journal.completed_keys()["k1"] == "cache"

    @FUZZ
    @given(journal_lines, record_files)
    @example(b"\xff", DEEP.encode())
    @example(HUGE_INT.encode(), HUGE_INT.encode())
    @example(DEEP.encode(), b'{"schema": 1, "plan": "' + DIGEST.encode()
             + b'", "cells": 3}')
    def test_cli_corpus_status_exits_zero(self, bad, manifest):
        with tempfile.TemporaryDirectory() as root:
            journal = _journal(root, bad)
            with open(journal.manifest_path, "wb") as fh:
                fh.write(manifest)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli_main(["corpus", "status", "--cache-dir", root])
            assert code == 0
            assert f"plan {DIGEST[:12]}" in out.getvalue()
