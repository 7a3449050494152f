"""Work that depends only on a program or a machine point is done once.

A sweep plan derives one config per distinct (base, point, overrides)
input and the runner one key per distinct (program, config) pair, and
parses a cached hit's config once, in the cache's check; a worker chunk
digests one final state per kernel; processors of one geometry share
their lookup tables; a plan's journal keeps one descriptor and releases
it on every way out of the runner.  None of it
may move a record, a key or a journal line: the last test fills one
corpus plan serially and pooled and compares the roots byte for byte.
"""

import json
import os

import pytest

import repro.harness.parallel as parallel_mod
import repro.harness.pool as pool_mod
from repro.errors import GoldenMismatchError
from repro.harness import ParallelRunner, ResultCache, SweepPlan
from repro.harness.elide import config_texts
from repro.harness.experiments import E10_POINTS, corpus_plan
from repro.harness.parallel import execute_cell, plan_keys
from repro.harness.pool import (PoolExhaustedError, golden_for,
                                identity_digests, reset_golden_memo,
                                run_cell_chunk)
from repro.harness.sweep import SweepCell, inputs_key
from repro.isa.opcodes import OpClass
from repro.uarch.config import MachineConfig, default_config
from repro.uarch.processor import Processor
from repro.workloads import KERNELS


def small():
    return KERNELS["vecsum"].build(8)


class TestOneConfigPerInput:
    def test_cells_with_equal_inputs_share_one_config(self):
        plan = SweepPlan()
        a, b = small(), KERNELS["queue"].build(8)
        first = plan.add_points(a, E10_POINTS)
        second = plan.add_points(b, E10_POINTS)
        for point in E10_POINTS:
            config = plan.cells[first[point]].config()
            assert plan.cells[second[point]].config() is config
            assert config.to_dict() == \
                SweepCell(a, point).config().to_dict()
        assert len({id(cell.config()) for cell in plan}) == 7

    def test_overrides_and_types_key_apart(self):
        plan = SweepPlan()
        inst = small()
        cells = [plan.add(inst, "dsre"),
                 plan.add(inst, "dsre", max_frames=4),
                 plan.add(inst, "dsre", max_frames=4),
                 plan.add(inst, "dsre", lsq_response_hops=True),
                 plan.add(inst, "dsre", lsq_response_hops=1)]
        configs = [plan.cells[i].config() for i in cells]
        assert configs[1] is configs[2]
        assert configs[0] is not configs[1]
        # True and 1 compare equal but serialise apart: no sharing.
        assert configs[3] is not configs[4]
        assert configs[3].canonical_json() != configs[4].canonical_json()

    def test_unkeyable_override_derives_per_cell(self):
        latencies = dict(default_config().fu_latencies)
        latencies[OpClass.INT_MUL] = 5
        plan = SweepPlan()
        inst = small()
        i = plan.add(inst, "dsre", fu_latencies=latencies)
        j = plan.add(inst, "dsre", fu_latencies=latencies)
        assert plan.cells[i].config() is not plan.cells[j].config()
        assert plan.cells[i].config().fu_latencies[OpClass.INT_MUL] == 5

    def test_a_base_mutated_between_adds_is_a_new_input(self):
        base = default_config()
        plan = SweepPlan()
        i = plan.add(small(), "dsre", base)
        base.l1_hit_latency = 7
        j = plan.add(small(), "dsre", base)
        assert plan.cells[i].config().l1_hit_latency == 2
        assert plan.cells[j].config().l1_hit_latency == 7

    def test_a_cell_outside_a_plan_derives_a_fresh_config(self):
        cell = SweepCell(small(), "dsre")
        assert cell.config() is not cell.config()

    def test_a_worker_derives_one_config_per_input(self, monkeypatch):
        """Pooled chunks travel without configs (``_pruned``); the chunk
        body derives each machine point's config once per process."""
        monkeypatch.setattr(pool_mod, "_CONFIG_MEMO", {})
        plan = SweepPlan()
        for inst in (small(), KERNELS["queue"].build(8)):
            plan.add_points(inst, ("aggressive", "dsre"))
        shared = {}
        pruned = [ParallelRunner._pruned(cell, shared) for cell in plan]
        assert all(cell.derived is None for cell in pruned)
        seen = []
        real = parallel_mod.execute_cell

        def spy(cell, *args, **kwargs):
            seen.append(kwargs["config"])
            return real(cell, *args, **kwargs)

        monkeypatch.setattr(parallel_mod, "execute_cell", spy)
        monkeypatch.setenv("REPRO_ELIDE", "0")
        for chunk in (pruned[:2], pruned[2:]):
            records = run_cell_chunk(list(enumerate(chunk)))["records"]
            for cell, (_, record) in zip(plan.cells, records):
                assert record["config"] == cell.config().to_dict()
        assert len(seen) == 4 and seen[0] is seen[2] and seen[1] is seen[3]
        assert seen[0] is not seen[1]
        assert all(cell.derived is None for cell in pruned)


    def test_a_workers_config_texts_match_fresh_ones(self, monkeypatch):
        """The worker's memo holds, per input, the config with its
        record section and elision group text: each equals a fresh
        ``to_dict``/``config_texts`` of that cell's own config, and an
        override with another value is another input."""
        monkeypatch.setattr(pool_mod, "_CONFIG_MEMO", {})
        plan = SweepPlan()
        inst = small()
        plan.add_points(inst, ("aggressive", "dsre"))
        plan.add(inst, "dsre", max_frames=4)
        plan.add(inst, "dsre", max_frames=6)
        pruned = [ParallelRunner._pruned(cell, {}) for cell in plan]
        for cells in (pruned, pruned):        # the second chunk hits
            records = run_cell_chunk(list(enumerate(cells)))["records"]
            assert [record["config"] for _, record in records] == \
                [cell.config().to_dict() for cell in plan]
        memo = pool_mod._CONFIG_MEMO
        assert len(memo) == 4
        for cell in pruned:
            entry = memo[inputs_key(cell.base, cell.point, cell.overrides)]
            fresh = cell.config()             # a new derivation
            assert fresh is not entry[0]
            assert entry[1:] == config_texts(fresh)
        frames = sorted(entry[1]["max_frames"] for entry in memo.values())
        assert frames == [4, 6, 8, 8]


class TestOneKeyPerPair:
    def test_each_distinct_config_is_serialised_once(self, monkeypatch):
        plan = SweepPlan()
        for name in ("vecsum", "queue", "histogram"):
            plan.add_points(KERNELS[name].build_test(), E10_POINTS)
        cells = list(plan)
        digests = identity_digests(cells)
        calls = []
        config_cls = type(cells[0].config())
        real = config_cls.canonical_json

        def counted(self):
            calls.append(id(self))
            return real(self)

        monkeypatch.setattr(config_cls, "canonical_json", counted)
        keys = plan_keys(cells, digests)
        assert len(calls) == 7
        monkeypatch.setattr(config_cls, "canonical_json", real)
        assert keys == [parallel_mod.cache_key(d, c.config())
                        for d, c in zip(digests, cells)]


class TestOneParsePerHit:
    def test_a_cached_hit_parses_its_config_once(self, tmp_path,
                                                 monkeypatch):
        # The cache's load validates a hit's config section; the result
        # takes the plan's own config instead of parsing it again.
        plan = SweepPlan()
        plan.add_points(small(), E10_POINTS)
        cache = ResultCache(str(tmp_path))
        fresh = ParallelRunner(jobs=1, cache=cache).run_plan(plan)
        calls = []
        real = MachineConfig.from_dict.__func__

        def counted(cls, data):
            calls.append(data)
            return real(cls, data)

        monkeypatch.setattr(MachineConfig, "from_dict",
                            classmethod(counted))
        cached = ParallelRunner(jobs=1, cache=cache).run_plan(plan)
        assert len(calls) == len(plan) == 7
        monkeypatch.undo()
        keys = plan_keys(plan.cells, identity_digests(plan.cells))
        for cell, key, before, after in zip(plan, keys, fresh, cached):
            assert after.from_cache and not before.from_cache
            assert before.config is after.config is cell.config()
            assert after.config == MachineConfig.from_dict(
                cache.load(key)["config"])


class TestGeometryTables:
    @staticmethod
    def fresh(config):
        """The four tables, computed the way the processor defines them
        (as tuples: no processor may write a shared table)."""
        inst_tile = tuple(config.tile_of_instruction(i) for i in range(128))
        route = config.route_latency
        return (inst_tile, tuple(config.tile_coord(t) for t in inst_tile),
                tuple(route(config.lsq_coord, config.tile_coord(i))
                      for i in range(config.n_tiles)),
                max(1, route(config.control_coord, config.control_coord)))

    @staticmethod
    def tables(processor):
        return (processor._inst_tile, processor._inst_coord,
                processor._resp_route, processor._fwd_delta)

    def test_three_geometries_built_in_turn(self):
        program = small().program
        configs = [default_config(),
                   default_config(hop_latency=2, base_latency=1),
                   default_config(grid_width=8, grid_height=2,
                                  local_latency=0)]
        built = [Processor(program, config) for config in configs * 2]
        for processor, config in zip(built, configs * 2):
            assert self.tables(processor) == self.fresh(config)
        for first, again in zip(built[:3], built[3:]):
            assert first._inst_coord is again._inst_coord
        assert len({id(p._resp_route) for p in built}) == 3


@pytest.fixture
def digest_calls(monkeypatch):
    """Every ``arch_state_digest`` call the chunk body makes."""
    calls = []
    real = parallel_mod.arch_state_digest

    def counted(state):
        calls.append(state)
        return real(state)

    monkeypatch.setattr(parallel_mod, "arch_state_digest", counted)
    return calls


class TestOneDigestPerKernel:
    def test_a_seven_point_chunk_digests_one_final_state(
            self, digest_calls, monkeypatch):
        monkeypatch.setenv("REPRO_ELIDE", "0")       # all seven simulate
        plan = SweepPlan()
        inst = small()
        plan.add_points(inst, E10_POINTS)
        payload = run_cell_chunk(list(enumerate(plan.cells)))
        records = [record for _, record in payload["records"]]
        assert len(records) == 7
        assert payload["counts"]["cells_executed"] == 7
        assert len(digest_calls) == 1
        golden_state = golden_for(inst)[0][1]
        want = parallel_mod.arch_state_digest(golden_state)
        assert {record["arch_digest"] for record in records} == {want}
        # Each record equals the one its cell produces on its own.
        for cell, record in zip(plan.cells, records):
            assert record == execute_cell(cell)

    def test_a_failing_check_raises_before_any_digest(
            self, digest_calls, monkeypatch):
        real = parallel_mod._simulate

        def corrupted(instance, config, golden, arena=None):
            result = real(instance, config, golden, arena)
            result.arch.set_reg(2, result.arch.get_reg(2) ^ 0xDEAD)
            return result

        monkeypatch.setattr(parallel_mod, "_simulate", corrupted)
        plan = SweepPlan()
        plan.add_points(small(), E10_POINTS)
        with pytest.raises(GoldenMismatchError,
                           match="differential check failed for vecsum "
                                 "@ conservative.*R2 = "):
            run_cell_chunk(list(enumerate(plan.cells)))
        assert digest_calls == []

    def test_a_later_failing_cell_still_raises(self, monkeypatch):
        """The kernel's digest from a passing cell never stands in for a
        cell whose own check fails."""
        monkeypatch.setenv("REPRO_ELIDE", "0")
        real = parallel_mod._simulate
        seen = []

        def corrupt_second(instance, config, golden, arena=None):
            result = real(instance, config, golden, arena)
            seen.append(config)
            if len(seen) == 2:
                result.arch.memory.write_word(0x9_0000, 0x1234)
            return result

        monkeypatch.setattr(parallel_mod, "_simulate", corrupt_second)
        plan = SweepPlan()
        plan.add_points(small(), E10_POINTS)
        with pytest.raises(GoldenMismatchError, match="mem\\[0x90000\\]"):
            run_cell_chunk(list(enumerate(plan.cells)))


def _open_fds_to(path):
    """Descriptors of this process open on ``path``."""
    found = []
    for fd in os.listdir("/proc/self/fd"):
        try:
            if os.readlink(f"/proc/self/fd/{fd}") == path:
                found.append(fd)
        except OSError:
            pass
    return found


needs_proc = pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                                reason="needs /proc/self/fd")


@needs_proc
class TestJournalDescriptor:
    def plan(self):
        plan = SweepPlan()
        plan.add_points(small(), ("aggressive", "dsre"))
        plan.add_points(KERNELS["queue"].build(8), ("aggressive", "dsre"))
        return plan

    @pytest.mark.parametrize("method", ["run_plan", "fill_plan"])
    def test_closed_after_a_plan(self, tmp_path, method):
        runner = ParallelRunner(jobs=1, cache=ResultCache(str(tmp_path)),
                                journal=True)
        getattr(runner, method)(self.plan())
        journal = runner.last_journal
        assert journal.summary()["completed"] == 4
        assert journal._fd is None
        assert _open_fds_to(os.path.realpath(journal.journal_path)) == []

    @pytest.mark.parametrize("method", ["run_plan", "fill_plan"])
    def test_closed_after_a_cell_raises(self, tmp_path, monkeypatch,
                                        method):
        real = parallel_mod._simulate
        runs = []

        def fail_third(instance, config, golden, arena=None):
            runs.append(config)
            result = real(instance, config, golden, arena)
            if len(runs) == 3:
                result.arch.set_reg(1, 0xBAD)
            return result

        monkeypatch.setenv("REPRO_ELIDE", "0")
        monkeypatch.setattr(parallel_mod, "_simulate", fail_third)
        runner = ParallelRunner(jobs=1, cache=ResultCache(str(tmp_path)),
                                journal=True)
        with pytest.raises(GoldenMismatchError):
            getattr(runner, method)(self.plan())
        journal = runner.last_journal
        # The two cells before the failure were journaled, then the
        # descriptor was released.
        assert journal.summary()["executed_lines"] == 2
        assert journal._fd is None
        assert _open_fds_to(os.path.realpath(journal.journal_path)) == []

    @pytest.mark.parametrize("error", [
        PoolExhaustedError("pool broke", ["d"]), GeneratorExit(),
        KeyboardInterrupt()])
    def test_closed_when_the_records_stop(self, tmp_path, error):
        """A pool that gives up, and a stream closed under the runner,
        leave no descriptor behind either."""

        class Runner(ParallelRunner):
            def _execute(self, cells, digests, keys, pending, counts):
                def records():
                    index = pending[0]
                    yield index, execute_cell(cells[index])
                    raise error
                return True, records()

        runner = Runner(jobs=1, cache=ResultCache(str(tmp_path)),
                        journal=True)
        with pytest.raises(type(error)):
            runner.run_plan(self.plan())
        journal = runner.last_journal
        assert journal.summary()["executed_lines"] == 1
        assert journal._fd is None
        assert _open_fds_to(os.path.realpath(journal.journal_path)) == []


def _root_files(root):
    """``{relative path: bytes}`` of every record and manifest, and the
    journal lines without their ``pid``."""
    files, lines = {}, []
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, root)
            if name.startswith("session."):
                continue            # per-process timing shard
            if name.endswith(".journal.jsonl"):
                with open(path) as fh:
                    for line in fh:
                        entry = json.loads(line)
                        del entry["pid"]
                        lines.append((rel, entry))
                continue
            with open(path, "rb") as fh:
                files[rel] = fh.read()
    return files, lines


def test_a_pooled_fill_writes_the_serial_fills_bytes(tmp_path,
                                                     monkeypatch):
    monkeypatch.setattr(parallel_mod, "_available_cores", lambda: 2)
    roots = {}
    for jobs in (1, 2):
        reset_golden_memo()
        root = str(tmp_path / f"jobs{jobs}")
        plan, _ = corpus_plan(fast=True, sample=4, points=E10_POINTS)
        with ParallelRunner(jobs=jobs, cache=ResultCache(root),
                            journal=True) as runner:
            outcome = runner.fill_plan(plan)
            assert runner.last_metrics.pooled == (jobs == 2)
        assert outcome["executed"] + outcome["elided"] == 28
        assert outcome["elided"] >= 1
        roots[jobs] = _root_files(root)
    (serial, serial_lines), (pooled, pooled_lines) = roots[1], roots[2]
    records = [rel for rel in serial if rel.endswith(".json")
               and not rel.startswith("plans")]
    assert len(records) == 28
    assert sorted(serial) == sorted(pooled)
    for rel in serial:
        assert serial[rel] == pooled[rel], rel
    assert len(serial_lines) == 28
    assert serial_lines == pooled_lines
