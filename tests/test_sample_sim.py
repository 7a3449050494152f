"""The stack sampler's aggregation: inclusive call-path and module
shares below ``Processor.run``, from fixed stacks."""

import importlib.util
from pathlib import Path

_PATH = (Path(__file__).resolve().parent.parent / "benchmarks"
         / "sample_sim.py")
_SPEC = importlib.util.spec_from_file_location("sample_sim", _PATH)
sample_sim = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(sample_sim)

RUN = ("repro.uarch.processor", "Processor.run")
MAIN = ("__main__", "main")
STORE = ("repro.uarch.lsq", "LoadStoreQueue.store_update")
LOAD = ("repro.uarch.lsq", "LoadStoreQueue.load_request")
WAKE = ("repro.uarch.lsq", "LoadStoreQueue._after_store_event")
READ = ("repro.arch.memory", "SparseMemory.read_int")
FETCH = ("repro.uarch.processor", "Processor._tick_fetch")


def _label(frame):
    return sample_sim.label(frame)


def test_paths_are_inclusive_prefixes_below_the_root():
    stacks = [
        (MAIN, RUN, STORE, WAKE, LOAD, READ),
        (MAIN, RUN, STORE),
        (MAIN, RUN, LOAD, READ),
        (MAIN, RUN),                      # in Processor.run itself
        (MAIN, FETCH),                    # outside Processor.run
    ]
    samples, paths, modules = sample_sim.aggregate(stacks, depth=2)
    assert samples == 4
    store, wake, load, read = (_label(f) for f in (STORE, WAKE, LOAD, READ))
    assert paths == {
        (store,): 2,
        (store, wake): 1,
        (load,): 1,
        (load, read): 1,
    }
    # A module counts once per sample, however many of its frames.
    assert modules == {"repro.uarch.lsq": 3, "repro.arch.memory": 2}


def test_innermost_root_starts_the_path():
    # A nested run (a test driving a processor from inside another
    # run's callback) attributes the sample below the inner frame.
    stacks = [(MAIN, RUN, STORE, RUN, LOAD)]
    samples, paths, modules = sample_sim.aggregate(stacks)
    assert samples == 1
    assert paths == {(_label(LOAD),): 1}
    assert modules == {"repro.uarch.lsq": 1}


def test_depth_truncates_deep_paths():
    stacks = [(RUN, STORE, WAKE, LOAD, READ)]
    _, paths, modules = sample_sim.aggregate(stacks, depth=3)
    assert max(len(path) for path in paths) == 3
    assert len(paths) == 3
    # Module shares see the whole stack, not only the reported depth.
    assert modules["repro.arch.memory"] == 1


def test_report_orders_children_by_share_and_drops_small_paths():
    stacks = ([(RUN, STORE, WAKE)] * 6 + [(RUN, LOAD)] * 3
              + [(RUN, STORE)] + [(RUN, FETCH)] * 1)
    samples, paths, modules = sample_sim.aggregate(stacks)
    lines = sample_sim.report(samples, paths, modules, min_share=0.1)
    assert lines[0].startswith("11 samples inside Processor.run")
    body = [line for line in lines if line[:7].endswith("%")]
    assert [line.split()[-1] for line in body] == [
        _label(STORE), _label(WAKE), _label(LOAD),
        "repro.uarch.lsq", "repro.uarch.processor"]
    assert body[0].split()[0] == "63.6%"
    # The child is indented one step below its parent.
    assert body[1].index("repro") == body[0].index("repro") + 2


def test_no_samples():
    assert sample_sim.aggregate([(MAIN, FETCH)]) == (0, {}, {})
    assert sample_sim.report(0, {}, {}) == [
        "no samples inside Processor.run"]


CHUNK = ("repro.harness.pool", "run_cell_chunk")
MAP = ("repro.uarch.processor", "Processor._map_frame")
FRAME = ("repro.uarch.frame", "Frame.__init__")
INIT = ("repro.uarch.processor", "Processor.__init__")


def test_function_units_count_each_function_once_per_sample():
    # The chunk body's view: a frame built under a map inside the run,
    # and processor construction beside the run.
    stacks = [
        (MAIN, CHUNK, INIT),
        (MAIN, CHUNK, RUN, FETCH, MAP, FRAME),
        (MAIN, CHUNK, RUN, MAP, FRAME, MAP),   # recursion counts once
        (MAIN, CHUNK),
        (MAIN, RUN, MAP),                      # outside the chunk body
    ]
    root = sample_sim.CHUNK_ROOT
    samples, _, functions = sample_sim.aggregate(
        stacks, root, unit=sample_sim.label)
    assert samples == 4
    assert functions == {
        _label(INIT): 1, _label(RUN): 2, _label(FETCH): 1,
        _label(MAP): 2, _label(FRAME): 2}
    _, _, modules = sample_sim.aggregate(stacks, root)
    assert modules == {"repro.uarch.processor": 3, "repro.uarch.frame": 2}


def test_report_names_its_root_and_lists_functions():
    stacks = [(CHUNK, RUN, MAP, FRAME)] * 3 + [(CHUNK, INIT)]
    root = sample_sim.CHUNK_ROOT
    samples, paths, modules = sample_sim.aggregate(stacks, root)
    _, _, functions = sample_sim.aggregate(stacks, root,
                                           unit=sample_sim.label)
    lines = sample_sim.report(samples, paths, modules, min_share=0.3,
                              root=root, functions=functions)
    assert lines[0].startswith("4 samples inside run_cell_chunk")
    start = lines.index("inclusive share of functions below "
                        "run_cell_chunk (>= 30.0%):")
    assert [line.split() for line in lines[start + 1:]] == [
        ["75.0%", _label(FRAME)], ["75.0%", _label(MAP)],
        ["75.0%", _label(RUN)]]
    assert sample_sim.report(0, {}, {}, root=root) == [
        "no samples inside run_cell_chunk"]
