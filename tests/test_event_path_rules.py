"""The simulator's per-event code pays plain-Python prices.

Reading an ``Enum`` member through its class (``SlotStatus.EMPTY``)
costs ~130-160 ns on Python 3.10 and 3.11 against ~5-15 ns for a
module global.  The per-event modules therefore compare with ``is``
against module constants bound once beside each enum
(``STATUS_EMPTY``), and import nothing inside a function.  On 3.12 the
gap shrinks to ~20 ns, so a throughput gate run there would barely
notice the rule being broken; this test holds it instead (see
docs/PERFORMANCE.md §12).

A token buffer keeps its slot state in its own fields, and the
per-event code reads those: no function there reads a slot snapshot
(``.effective``) or builds one (``Effective``), and
``MemEntry.order_key`` is stored once rather than rebuilt per read
(docs/PERFORMANCE.md §13).

The compiled golden model (``repro.arch.interp``) runs once per
dynamic instruction of every golden run and holds the same rule; its
reference, ``repro.arch.interp_ref``, is kept as first written and is
not scanned (docs/PERFORMANCE.md §14).

The memory side holds it too: the dependence policies, which the LSQ
consults on every load poll, and ``SparseMemory``, which serves every
cache read and committed store.  No per-event function builds a frozen
dataclass (~900 ns per construction on 3.11: one ``object.__setattr__``
per field); ``MemEntry`` is a plain ``__slots__`` class whose
``order_key`` is one integer (docs/PERFORMANCE.md §15).
"""

import ast
import dataclasses
import importlib
import inspect
import types

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.buffers import SoleBuffer, TokenBuffer
from repro.core.node import NodeState, OutcomeKind
from repro.core.tokens import SlotStatus
from repro.isa.instruction import Slot, TargetKind
from repro.spec.policy import LoadQuery, StoreView
from repro.uarch.lsq import LSID_BITS, MemEntry, MemKind

#: Modules whose functions run per simulated event (token deposit,
#: issue, completion, LSQ action, commit-gate poll) or per golden-model
#: instruction.
EVENT_MODULES = (
    "repro.arch.interp",
    "repro.arch.memory",
    "repro.core.node",
    "repro.core.buffers",
    "repro.uarch.processor",
    "repro.uarch.lsq",
    "repro.uarch.frame",
    "repro.uarch.recovery.flush",
    "repro.uarch.recovery.txwave",
    "repro.spec.policy",
    "repro.spec.storeset",
    "repro.spec.oracle",
)

#: Each guarded enum -> (module binding its members, constant prefix).
ENUM_CONSTANTS = {
    SlotStatus: ("repro.core.tokens", "STATUS_"),
    NodeState: ("repro.core.node", "NODE_"),
    OutcomeKind: ("repro.core.node", "OUT_"),
    MemKind: ("repro.uarch.lsq", "MEM_"),
    Slot: ("repro.isa.instruction", "SLOT_"),
    TargetKind: ("repro.isa.instruction", "TARGET_"),
}

_MEMBERS = {cls.__name__: frozenset(cls.__members__)
            for cls in ENUM_CONSTANTS}
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _owner_name(node: ast.expr):
    """``SlotStatus`` for ``SlotStatus`` and for ``tokens.SlotStatus``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def event_path_violations(source: str):
    """Sorted ``(line, what)`` for every guarded enum member read through
    its class, and every import, inside a function body of ``source``.
    Module-level and class-level code (constant bindings, dataclass
    defaults) runs once and is not checked."""
    found = set()
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, _FUNCTIONS):
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.Attribute):
                owner = _owner_name(node.value)
                if node.attr in _MEMBERS.get(owner, ()):
                    found.add((node.lineno, node.col_offset,
                               f"{owner}.{node.attr}"))
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                found.add((node.lineno, node.col_offset, "import"))
    return [(line, what) for line, _, what in sorted(found)]


#: Attribute reads that fetch a slot snapshot, and the names that build
#: or share one.
_SNAPSHOT_ATTRS = frozenset({"effective", "_effective"})
_SNAPSHOT_NAMES = frozenset({"Effective", "EMPTY_EFFECTIVE"})


def snapshot_violations(source: str, exempt=frozenset()):
    """Sorted ``(line, what)`` for every ``.effective``/``._effective``
    read and every use of ``Effective``/``EMPTY_EFFECTIVE`` in a
    function body of ``source``, outside the functions named in
    ``exempt``.  Signatures (annotations) are not bodies and are not
    checked."""
    found = set()
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, _FUNCTIONS) or getattr(
                func, "name", None) in exempt:
            continue
        body = func.body if isinstance(func.body, list) else [func.body]
        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Attribute):
                    if node.attr in _SNAPSHOT_ATTRS:
                        found.add((node.lineno, node.col_offset,
                                   f".{node.attr}"))
                    elif node.attr in _SNAPSHOT_NAMES:
                        found.add((node.lineno, node.col_offset, node.attr))
                elif isinstance(node, ast.Name) and node.id in _SNAPSHOT_NAMES:
                    found.add((node.lineno, node.col_offset, node.id))
    return [(line, what) for line, _, what in sorted(found)]


def frozen_dataclasses_of(module) -> frozenset:
    """Names bound in ``module`` to frozen dataclasses."""
    return frozenset(
        name for name, obj in vars(module).items()
        if isinstance(obj, type) and dataclasses.is_dataclass(obj)
        and obj.__dataclass_params__.frozen)


def frozen_build_violations(source: str, frozen: frozenset):
    """Sorted ``(line, what)`` for every call, inside a function body of
    ``source``, of a name in ``frozen`` (bare or module-qualified)."""
    found = set()
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, _FUNCTIONS):
            continue
        body = func.body if isinstance(func.body, list) else [func.body]
        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call):
                    name = _owner_name(node.func)
                    if name in frozen:
                        found.add((node.lineno, node.col_offset, name))
    return [(line, what) for line, _, what in sorted(found)]


@pytest.mark.parametrize("module", EVENT_MODULES)
def test_no_frozen_dataclass_builds_on_the_event_path(module):
    mod = importlib.import_module(module)
    violations = frozen_build_violations(inspect.getsource(mod),
                                         frozen_dataclasses_of(mod))
    assert not violations, (
        f"{module}: per-event code must not build frozen dataclasses "
        f"(use a plain __slots__ class or the object at hand); found "
        + ", ".join(f"line {line}: {what}" for line, what in violations))


@pytest.mark.parametrize("module", EVENT_MODULES)
def test_no_slot_snapshots_on_the_event_path(module):
    source = inspect.getsource(importlib.import_module(module))
    violations = snapshot_violations(source)
    assert not violations, (
        f"{module}: per-event code must read a buffer's own fields "
        f"(status, value, producer, wave, final), not a snapshot; found "
        + ", ".join(f"line {line}: {what}" for line, what in violations))


def test_order_key_is_a_stored_slot():
    # A property would rebuild the key on every read.
    assert not isinstance(inspect.getattr_static(MemEntry, "order_key"),
                          property)
    assert "order_key" in MemEntry.__slots__
    entry = MemEntry(4, 9, 2, MemKind.STORE, ("b", 2), 8)
    assert entry.order_key == (9 << 32) | 2
    assert entry.order_key is entry.order_key


_LSIDS = st.integers(min_value=0, max_value=(1 << LSID_BITS) - 1)
_SEQS = st.integers(min_value=0, max_value=1 << 40)


@given(a=st.tuples(_SEQS, _LSIDS), b=st.tuples(_SEQS, _LSIDS))
def test_integer_keys_order_like_tuples(a, b):
    ka = MemEntry(0, a[0], a[1], MemKind.LOAD, ("b", 0), 8).order_key
    kb = MemEntry(0, b[0], b[1], MemKind.STORE, ("b", 0), 8).order_key
    assert (ka < kb) == (a < b)
    assert (ka == kb) == (a == b)


@pytest.mark.parametrize("cls", [MemEntry, LoadQuery, StoreView],
                         ids=lambda cls: cls.__name__)
def test_memory_side_values_are_plain_slots_classes(cls):
    assert not dataclasses.is_dataclass(cls)
    assert "__dict__" not in dir(cls) and cls.__slots__


@pytest.mark.parametrize("module", EVENT_MODULES)
def test_no_class_qualified_member_reads_or_imports(module):
    source = inspect.getsource(importlib.import_module(module))
    violations = event_path_violations(source)
    assert not violations, (
        f"{module}: per-event code must read enum members as module "
        f"constants and import at module level; found "
        + ", ".join(f"line {line}: {what}" for line, what in violations))


@pytest.mark.parametrize("cls", list(ENUM_CONSTANTS),
                         ids=lambda cls: cls.__name__)
def test_constants_are_the_members(cls):
    module_name, prefix = ENUM_CONSTANTS[cls]
    module = importlib.import_module(module_name)
    for name, member in cls.__members__.items():
        assert getattr(module, prefix + name) is member


class TestChecker:
    def test_flags_member_reads_in_functions(self):
        source = ("def f(s):\n"
                  "    return s is SlotStatus.EMPTY\n"
                  "g = lambda k: k is tokens.NodeState.IDLE\n")
        assert event_path_violations(source) == [
            (2, "SlotStatus.EMPTY"), (3, "NodeState.IDLE")]

    def test_flags_nested_functions_once(self):
        source = ("class C:\n"
                  "    def f(self):\n"
                  "        def g():\n"
                  "            return MemKind.LOAD\n"
                  "        return g\n")
        assert event_path_violations(source) == [(4, "MemKind.LOAD")]

    def test_flags_imports_in_functions(self):
        source = ("import enum\n"
                  "def f():\n"
                  "    from .node import OutcomeKind\n"
                  "    return OutcomeKind\n")
        assert event_path_violations(source) == [(3, "import")]

    def test_ignores_module_level_and_non_members(self):
        source = ("EMPTY = SlotStatus.EMPTY\n"
                  "class K:\n"
                  "    slot: Slot = Slot.OP0\n"
                  "def f(s):\n"
                  "    return SlotStatus.__members__, s.EMPTY, Other.IDLE\n")
        assert event_path_violations(source) == []

    def test_flags_the_reference_interpreter(self):
        # The reference golden model reads members through their
        # classes; the scan must see every one of them.
        source = inspect.getsource(
            importlib.import_module("repro.arch.interp_ref"))
        found = {what for _, what in event_path_violations(source)}
        assert found == {"Slot.OP0", "Slot.OP1", "Slot.PRED",
                         "TargetKind.WRITE"}

    def test_flags_frozen_dataclass_builds(self):
        # The LSQ before its memory side was made cheap: a query per poll
        # and a view per registered store and per resolution flip.
        source = ("VIEW = StoreView(('b', 0), 0, 0, False)\n"
                  "class Q:\n"
                  "    def _load_query(self, load):\n"
                  "        return LoadQuery(load.static_id, load.seq,\n"
                  "                         load.lsid, load.addr, 8)\n"
                  "    def register_frame(self, e):\n"
                  "        self.views.append(policy.StoreView(e, False))\n"
                  "    def _reindex_store(self, e) -> StoreView:\n"
                  "        return Other(e), StoreView\n")
        frozen = frozenset({"LoadQuery", "StoreView"})
        assert frozen_build_violations(source, frozen) == [
            (4, "LoadQuery"), (7, "StoreView")]

    def test_finds_frozen_dataclasses_by_binding(self):
        @dataclasses.dataclass(frozen=True)
        class Frozen:
            x: int

        @dataclasses.dataclass(slots=True)
        class Mutable:
            x: int

        module = types.ModuleType("m")
        module.Frozen, module.Alias, module.Mutable = Frozen, Frozen, Mutable
        module.instance = Frozen(1)
        assert frozen_dataclasses_of(module) == {"Frozen", "Alias"}

    def test_flags_snapshot_reads_and_builds(self):
        source = ("def f(b, n):\n"
                  "    x = b.effective.status\n"
                  "    y = n._buffer_list[0]._effective\n"
                  "    return Effective(x), buffers.EMPTY_EFFECTIVE\n"
                  "g = lambda b: b.effective\n")
        assert snapshot_violations(source) == [
            (2, ".effective"), (3, "._effective"), (4, "Effective"),
            (4, "EMPTY_EFFECTIVE"), (5, ".effective")]

    def test_snapshot_scan_skips_exempt_bodies_and_signatures(self):
        source = ("SHARED = Effective(None)\n"
                  "class B:\n"
                  "    @property\n"
                  "    def effective(self):\n"
                  "        return Effective(self.status)\n"
                  "    def read(self, other) -> Effective:\n"
                  "        return self.status, other.effective_address\n")
        assert snapshot_violations(source, frozenset({"effective"})) == []
        assert snapshot_violations(source) == [(5, "Effective")]


def test_buffers_are_plain_slots_classes():
    # A frozen dataclass's __init__ pays one object.__setattr__ per field;
    # buffers are plain __slots__ classes whose fields are the slot state.
    for buffer in (SoleBuffer(("inst", 2)),
                   TokenBuffer({("inst", 2): 0, ("inst", 3): 1})):
        assert not dataclasses.is_dataclass(buffer)
        assert not hasattr(buffer, "__dict__")
        assert (buffer.status, buffer.value, buffer.producer, buffer.wave,
                buffer.final) == (SlotStatus.EMPTY, None, None, -1, False)
