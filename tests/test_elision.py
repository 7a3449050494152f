"""Cross-point elision soundness gate.

The elision layer (repro.harness.elide) may forward one clean
representative's record to sibling machine points **only** when that is
provably invisible: a clean
:class:`~repro.stats.counters.InvarianceCertificate` means no dynamic
decision ever consulted the dependence policy or the recovery protocol,
so every member of the representative's protocol family would have
produced the byte-identical record.  This suite is the proof obligation:

* hand-written kernels and hypothesis-drawn corpus programs run at every
  registered machine point; whenever ``pair_invariant`` would forward a
  run to a sibling point (clean certificate — whole class; windows-only
  certificate — the non-deferring and commit-wave pairs), the sibling's
  independently-simulated record must be **fully identical** (every
  counter, not just the architectural digest) after stripping the
  per-cell identity fields — and a plan run with elision on must equal
  the same plan with ``REPRO_ELIDE=0`` cell for cell;
* a forced-dirty certificate (``counters.FORCE_DIRTY``) must elide
  nothing, ever;
* the accounting split (``cells_executed`` / ``cells_elided`` /
  ``cells_from_cache``, and ``cells_per_sec`` over simulated cells only)
  must stay exact.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.harness.cache import ResultCache
from repro.harness.elide import (AXIS_FIELDS, elision_enabled, elision_key,
                                 pair_invariant, point_class)
from repro.harness.metrics import merge_session_metrics
from repro.harness.parallel import ParallelRunner, execute_cell
from repro.harness.runner import STANDARD_POINTS
from repro.harness.sweep import SweepPlan
from repro.stats import counters
from repro.workloads import KERNELS
from repro.workloads.corpus import (MAX_OPS_PER_BLOCK, SHAPES, CorpusParams,
                                    build_corpus, sample_corpus)

POINTS = tuple(STANDARD_POINTS)

#: Kernels whose test-scale runs are conflict-free end to end (verified
#: by ``test_pinned_kernels_are_clean``): every point's certificate is
#: clean, so the whole 7-point grid collapses to one run per class.
CLEAN_KERNELS = ("crc", "dotprod")

#: Record keys that name *which* cell a record belongs to rather than
#: what the simulation produced; forwarding rewrites exactly these.
IDENTITY_KEYS = frozenset(("point", "label", "config", "key",
                           "forwarded_from"))

#: Small corpus draws: each hypothesis example runs 7 full simulations.
PARAMS_STRATEGY = st.builds(
    CorpusParams,
    seed=st.integers(min_value=0, max_value=5_000),
    shape=st.sampled_from(SHAPES),
    n_blocks=st.integers(min_value=2, max_value=6),
    ops_per_block=st.integers(min_value=1,
                              max_value=min(6, MAX_OPS_PER_BLOCK)),
    conflict_rate=st.sampled_from([0.0, 0.2, 0.75]),
    working_set=st.sampled_from([4, 64]),
    predication=st.sampled_from([0.0, 0.3]),
)

PROP_SETTINGS = dict(max_examples=10, deadline=None, derandomize=True,
                     database=None,
                     suppress_health_check=[HealthCheck.too_slow])


def _all_point_records(instance):
    """One ``execute_cell`` record per registered point, keyed by point."""
    records = {}
    for point in POINTS:
        plan = SweepPlan()
        index = plan.add(instance, point)
        cell = list(plan)[index]
        records[point] = (cell.config(), execute_cell(cell))
    return records


def _payload(record):
    """The simulation payload: everything except cell identity."""
    return {key: value for key, value in record.items()
            if key not in IDENTITY_KEYS}


def _assert_invariants_sound(instance, label):
    """The soundness obligation for one program: whenever
    :func:`pair_invariant` would let a run at one point stand in for a
    sibling point, the two independently-simulated records must be fully
    identical (every counter, not just the architectural digest)."""
    records = _all_point_records(instance)
    digests = {rec["arch_digest"] for _, rec in records.values()}
    assert len(digests) == 1, \
        f"{label}: architectural state differs across points"
    classes = {}
    for point, (config, record) in records.items():
        classes.setdefault(point_class(config), []).append(
            (point, config, record))
    for cls, members in classes.items():
        for rep_point, rep_config, rep in members:
            cert = rep["certificate"]
            if cert["clean"]:
                # A clean certificate must itself be point-invariant.
                for point, _, record in members:
                    assert record["certificate"]["clean"], (
                        f"{label}: {rep_point} is clean but same-class "
                        f"{point} is not — the certificate is not "
                        f"point-invariant within {cls}")
            for point, config, record in members:
                if point == rep_point:
                    continue
                if pair_invariant(cert, rep_config, config):
                    assert _payload(record) == _payload(rep), (
                        f"{label}: pair_invariant claims {rep_point} -> "
                        f"{point} in class {cls}, but the records "
                        f"differ — forwarding would be unsound")


def _plan_for_points(instance, points=POINTS):
    plan = SweepPlan()
    for point in points:
        plan.add(instance, point)
    return plan


def _result_key(result):
    """Everything observable about one CellResult except how the sweep
    layer produced it (elided or simulated)."""
    return (result.kernel, result.point, result.label, result.arch_digest,
            result.stats, result.network_stats, result.lsq_stats,
            result.l1_stats, result.predictor_stats, result.certificate)


class TestPointClasses:
    def test_seven_points_fall_into_three_classes(self):
        instance = KERNELS["crc"].build_test()
        classes = {}
        for point in POINTS:
            plan = SweepPlan()
            index = plan.add(instance, point)
            config = list(plan)[index].config()
            classes.setdefault(point_class(config), []).append(point)
        assert classes == {
            ("flush",): ["conservative", "aggressive", "storeset",
                         "oracle"],
            ("wave",): ["dsre", "hybrid"],
            ("epoch", 4): ["txwave"],
        }

    def test_epoch_size_splits_the_epoch_class(self):
        # txwave's epoch structure shifts commit timing even on clean
        # runs, so every epoch size is its own class — never shared.
        instance = KERNELS["crc"].build_test()
        plan = SweepPlan()
        a = plan.add(instance, "txwave")
        b = plan.add(instance, "txwave", txwave_epoch_blocks=8)
        cells = list(plan)
        assert point_class(cells[a].config()) == ("epoch", 4)
        assert point_class(cells[b].config()) == ("epoch", 8)
        assert (elision_key("d", cells[a].config())
                != elision_key("d", cells[b].config()))

    def test_elision_key_strips_only_the_speculation_axis(self):
        instance = KERNELS["crc"].build_test()
        plan = SweepPlan()
        a = plan.add(instance, "conservative")
        b = plan.add(instance, "storeset", storeset_ssit_size=256)
        c = plan.add(instance, "aggressive", max_frames=2)
        cells = list(plan)
        key_a = elision_key("d", cells[a].config())
        key_b = elision_key("d", cells[b].config())
        key_c = elision_key("d", cells[c].config())
        # Same class, same non-axis config: a and b share a key even
        # though the storeset geometry differs (it only matters once a
        # policy window exists, which dirties the certificate).
        assert key_a == key_b
        # A non-axis field (frame count) is real machine state: no share.
        assert key_a != key_c
        base = json.loads(key_a[1])
        assert not (set(base) & AXIS_FIELDS)

    def test_pair_invariant_gates(self):
        instance = KERNELS["crc"].build_test()
        plan = SweepPlan()
        for point in POINTS:
            plan.add(instance, point)
        cfg = {cell.point: cell.config() for cell in plan}
        clean = dict(policy_windows=0, deferrals=0, wrong_values=0,
                     offpath_predictions=0, forced=0, clean=True)
        windows = dict(clean, policy_windows=3, clean=False)
        # Clean: invariant across the whole class, any direction.
        assert pair_invariant(clean, cfg["conservative"], cfg["oracle"])
        assert pair_invariant(clean, cfg["dsre"], cfg["hybrid"])
        # Windows-only: only the non-deferring and commit-wave pairs.
        assert pair_invariant(windows, cfg["aggressive"], cfg["storeset"])
        assert pair_invariant(windows, cfg["storeset"], cfg["aggressive"])
        assert pair_invariant(windows, cfg["dsre"], cfg["hybrid"])
        assert not pair_invariant(windows, cfg["conservative"],
                                  cfg["aggressive"])
        assert not pair_invariant(windows, cfg["aggressive"],
                                  cfg["oracle"])
        # Any speculation consequence (or a forced cert) blocks it.
        for poison in (dict(windows, deferrals=1),
                       dict(windows, wrong_values=1),
                       dict(windows, offpath_predictions=1),
                       dict(clean, forced=1)):
            assert not pair_invariant(poison, cfg["aggressive"],
                                      cfg["storeset"])

    def test_elide_env_knob(self, monkeypatch):
        monkeypatch.delenv("REPRO_ELIDE", raising=False)
        assert elision_enabled()
        monkeypatch.setenv("REPRO_ELIDE", "0")
        assert not elision_enabled()
        monkeypatch.setenv("REPRO_ELIDE", "1")
        assert elision_enabled()


class TestSoundness:
    def test_pinned_kernels_are_clean(self):
        # The fixtures the accounting tests below rely on: every point
        # of these kernels must stay conflict-free at test scale.
        for name in CLEAN_KERNELS:
            records = _all_point_records(KERNELS[name].build_test())
            for point, (_, record) in records.items():
                assert record["certificate"]["clean"], (name, point)

    @pytest.mark.parametrize("kernel",
                             ("crc", "dotprod", "vecsum", "queue"))
    def test_kernels_invariants_sound(self, kernel):
        _assert_invariants_sound(KERNELS[kernel].build_test(), kernel)

    @pytest.mark.parametrize(
        "params", sample_corpus(4, seed=0xE11),
        ids=[p.label() for p in sample_corpus(4, seed=0xE11)])
    def test_corpus_invariants_sound(self, params):
        _assert_invariants_sound(build_corpus(params),
                                 params.canonical())

    @settings(**PROP_SETTINGS)
    @given(params=PARAMS_STRATEGY)
    def test_fuzzed_corpus_invariants_sound(self, params):
        _assert_invariants_sound(build_corpus(params),
                                 params.canonical())

    def test_dirty_certificate_names_a_cause(self):
        # A dirty certificate must carry at least one concrete trigger —
        # "not clean" is never a free-floating state.
        records = _all_point_records(KERNELS["vecsum"].build_test())
        for point, (_, record) in records.items():
            cert = record["certificate"]
            assert not cert["clean"], point
            assert (cert["policy_windows"] or cert["deferrals"]
                    or cert["wrong_values"] or cert["offpath_predictions"]
                    or cert["forced"]), (point, cert)


class TestBothWaysIdentical:
    @pytest.mark.parametrize("kernel", ("crc", "vecsum"))
    def test_run_plan_matches_elide_off(self, kernel, monkeypatch):
        instance = KERNELS[kernel].build_test()
        monkeypatch.delenv("REPRO_ELIDE", raising=False)
        with ParallelRunner(jobs=1) as runner:
            on = runner.run_plan(_plan_for_points(instance))
        monkeypatch.setenv("REPRO_ELIDE", "0")
        with ParallelRunner(jobs=1) as runner:
            off = runner.run_plan(_plan_for_points(instance))
            assert runner.last_metrics.cells_elided == 0
            assert runner.last_metrics.cells_executed == len(POINTS)
        assert [_result_key(r) for r in on] == \
            [_result_key(r) for r in off]
        # Off-mode cells are all genuinely simulated, never forwarded.
        assert all(r.forwarded_from is None for r in off)

    def test_corpus_both_ways(self, monkeypatch):
        params = sample_corpus(1, seed=0xE12)[0]
        instance = build_corpus(params)
        monkeypatch.delenv("REPRO_ELIDE", raising=False)
        with ParallelRunner(jobs=1) as runner:
            on = runner.run_plan(_plan_for_points(instance))
        monkeypatch.setenv("REPRO_ELIDE", "0")
        with ParallelRunner(jobs=1) as runner:
            off = runner.run_plan(_plan_for_points(instance))
        assert [_result_key(r) for r in on] == \
            [_result_key(r) for r in off]


class TestForcedDirty:
    def test_force_dirty_never_elides(self, monkeypatch):
        monkeypatch.setattr(counters, "FORCE_DIRTY", True)
        with ParallelRunner(jobs=1) as runner:
            results = runner.run_plan(
                _plan_for_points(KERNELS["crc"].build_test()))
        metrics = runner.last_metrics
        assert metrics.cells_elided == 0
        assert runner.totals["cells_elided"] == 0
        assert metrics.cells_executed == len(POINTS)
        # Every multi-member class fell back to per-point simulation.
        assert metrics.elision_fallbacks == 2
        for result in results:
            assert result.certificate["forced"] == 1
            assert not result.certificate["clean"]
            assert result.forwarded_from is None


class TestAccounting:
    def test_cells_split_and_throughput_count_simulated_only(self):
        # crc is clean at every point: 7 cells collapse to one run per
        # class — 3 simulated (4-member flush, 2-member wave, singleton
        # epoch), 4 forwarded, and only the flush/wave groups had
        # siblings to forward to (2 representatives).
        with ParallelRunner(jobs=1) as runner:
            results = runner.run_plan(
                _plan_for_points(KERNELS["crc"].build_test()))
        metrics = runner.last_metrics
        assert metrics.cells == len(POINTS)
        assert metrics.cells_executed == 3
        assert metrics.cells_elided == 4
        assert metrics.representative_runs == 2
        assert metrics.elision_fallbacks == 0
        assert metrics.cells_from_cache == 0
        assert (metrics.cells_executed + metrics.cells_elided
                + metrics.cells_from_cache == metrics.cells)
        assert metrics.cells_per_sec == pytest.approx(
            metrics.cells_executed / metrics.wall_seconds)
        assert runner.totals["cells_executed"] == 3
        assert runner.totals["cells_elided"] == 4
        assert sum(1 for r in results if r.forwarded_from) == 4

    def test_dirty_kernel_pays_full_price(self):
        # stencil has real wrong values at test scale: nothing is
        # invariant, every point simulates.
        with ParallelRunner(jobs=1) as runner:
            runner.run_plan(_plan_for_points(KERNELS["stencil"].build_test()))
        metrics = runner.last_metrics
        assert metrics.cells_executed == len(POINTS)
        assert metrics.cells_elided == 0
        assert metrics.representative_runs == 0
        assert metrics.elision_fallbacks == 2

    def test_windows_only_kernel_elides_the_nondeferring_pairs(self):
        # vecsum sees policy windows but zero wrong values/deferrals/
        # off-path work: storeset forwards from aggressive (the SSIT
        # never trains) and hybrid from dsre (no redeliveries), while
        # conservative and oracle — whose schedules genuinely depend on
        # the windows — still simulate.
        with ParallelRunner(jobs=1) as runner:
            results = runner.run_plan(
                _plan_for_points(KERNELS["vecsum"].build_test()))
        metrics = runner.last_metrics
        assert metrics.cells_executed == 5
        assert metrics.cells_elided == 2
        assert metrics.representative_runs == 2
        assert metrics.elision_fallbacks == 1
        forwarded = {r.point for r in results if r.forwarded_from}
        assert forwarded == {"storeset", "hybrid"}

    def test_pooled_path_elides_identically(self, tmp_path):
        # Force the pooled path (jobs > 1, several kernels) and compare
        # against the in-process accounting and results.
        plan = SweepPlan()
        for name in ("crc", "dotprod"):
            instance = KERNELS[name].build_test()
            for point in POINTS:
                plan.add(instance, point)
        with ParallelRunner(jobs=2) as runner:
            pooled = runner.run_plan(plan)
            assert runner.last_metrics.cells_elided == 8
            assert runner.last_metrics.cells_executed == 6
        plan2 = SweepPlan()
        for name in ("crc", "dotprod"):
            instance = KERNELS[name].build_test()
            for point in POINTS:
                plan2.add(instance, point)
        with ParallelRunner(jobs=1) as runner:
            inproc = runner.run_plan(plan2)
        assert [_result_key(r) for r in pooled] == \
            [_result_key(r) for r in inproc]


class TestForwardedRecordsAreFirstClass:
    def test_cache_journal_and_session_shards(self, tmp_path):
        root = str(tmp_path / "cache")
        instance = KERNELS["crc"].build_test()
        with ParallelRunner(jobs=1, cache=ResultCache(root),
                            journal=True) as runner:
            results = runner.run_plan(_plan_for_points(instance))
            journal = runner.last_journal
        assert journal is not None
        summary = journal.summary()
        assert summary["executed_lines"] == 3
        assert summary["forwarded_lines"] == 4
        assert summary["cache_lines"] == 0

        # Every forwarded record is a first-class entry under the
        # sibling's own content address, provenance preserved.
        cache = ResultCache(root)
        digest = instance.identity_digest()
        forwarded = 0
        for result, cell in zip(results, _plan_for_points(instance)):
            from repro.harness.cache import cache_key
            record = cache.load(cache_key(digest, cell.config()))
            assert record is not None, result.label
            assert record["point"] == cell.point
            assert record["certificate"]["clean"]
            if record.get("forwarded_from"):
                forwarded += 1
                rep = cache.load(record["forwarded_from"])
                assert rep is not None
                assert rep.get("forwarded_from") is None
        assert forwarded == 4

        # Session shards carry the elision counters (shards are per-pid,
        # so merge before the warm rerun below rewrites this process's).
        merged = merge_session_metrics(root)
        assert merged is not None
        assert merged["cells_elided"] == 4
        assert merged["representative_runs"] == 2
        assert merged["elision_fallbacks"] == 0
        assert merged["cells_executed"] == 3

        # A fresh runner renders entirely from cache — the warm-rerun
        # CI gate ("0 simulated") holds with elision on.
        with ParallelRunner(jobs=1, cache=ResultCache(root)) as warm:
            warm.run_plan(_plan_for_points(instance))
            assert warm.totals["cells_executed"] == 0
            assert warm.totals["cells_elided"] == 0
            assert warm.totals["cells_from_cache"] == len(POINTS)
