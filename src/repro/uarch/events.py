"""Structured pipeline events: hooks, a trace exporter, and snapshots.

The processor owns a single optional hook sink (``Processor.hooks``,
``None`` by default).  Each pipeline stage emits one structured event
through it — the taxonomy is :data:`EVENT_KINDS`:

``fetch``
    Block fetch initiated (target name and the cycle it will be ready).
``map``
    A fetched block mapped onto a frame.
``issue``
    A node issued to a functional unit on its tile.
``deliver``
    One operand-network message accepted at its destination port.
``violate``
    A dependence violation escalated to a squash by the recovery
    protocol.
``redeliver``
    The LSQ re-delivered a corrected (or confirmation-final) value to a
    load.
``commit``
    The oldest frame committed its architectural outputs.

Emission sites pay one ``if hooks is not None`` test when no sink is
attached — the zero-overhead-when-off contract; hot loops hoist the
attribute into a local first.  Consumers in the tree: ``_debug_dump``
(via :func:`machine_snapshot` / :func:`format_snapshot`, which are
pull-based rather than hook-based so a deadlocked machine can still be
dumped), ``SimStats`` cross-checks in tests, and the :class:`EventTrace`
JSONL exporter.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, List

EVENT_KINDS = ("fetch", "map", "issue", "deliver", "violate",
               "redeliver", "commit")


class EventHooks:
    """No-op hook sink; subclass and override the kinds you care about.

    Every method is a no-op here so a subclass only pays for the events
    it observes.  Arguments are plain ints/strings — emission sites never
    hand out live simulator objects, so a sink can safely retain
    everything it is given.
    """

    def on_fetch(self, cycle: int, target: str, ready_cycle: int) -> None:
        """Block fetch for ``target`` initiated; arrives at ``ready_cycle``."""

    def on_map(self, cycle: int, frame_uid: int, seq: int,
               block_name: str) -> None:
        """Block ``block_name`` mapped as frame ``frame_uid`` (seq ``seq``)."""

    def on_issue(self, cycle: int, frame_uid: int, node_index: int,
                 opcode: str, exec_count: int) -> None:
        """Node issued; ``exec_count`` counts this issue (1 = first)."""

    def on_deliver(self, cycle: int, kind: str) -> None:
        """One network message of ``kind`` accepted at its destination."""

    def on_violate(self, cycle: int, load_frame_uid: int, load_lsid: int,
                   store_frame_uid: int, store_lsid: int) -> None:
        """A dependence violation is squashing ``load_frame_uid``."""

    def on_redeliver(self, cycle: int, frame_uid: int, node_index: int,
                     value: int, final: bool) -> None:
        """The LSQ re-delivered a corrected value to a load node."""

    def on_commit(self, cycle: int, frame_uid: int, seq: int,
                  block_name: str, stores: int) -> None:
        """The oldest frame committed, draining ``stores`` stores."""


@dataclass(slots=True)
class ProcEvent:
    """One recorded pipeline event (kind + cycle + kind-specific data)."""

    kind: str
    cycle: int
    data: Dict[str, Any]


class EventTrace(EventHooks):
    """Hook sink recording every event, with a JSONL exporter."""

    def __init__(self) -> None:
        self.events: List[ProcEvent] = []

    def on_fetch(self, cycle, target, ready_cycle):
        self.events.append(ProcEvent("fetch", cycle, {
            "target": target, "ready_cycle": ready_cycle}))

    def on_map(self, cycle, frame_uid, seq, block_name):
        self.events.append(ProcEvent("map", cycle, {
            "frame_uid": frame_uid, "seq": seq, "block": block_name}))

    def on_issue(self, cycle, frame_uid, node_index, opcode, exec_count):
        self.events.append(ProcEvent("issue", cycle, {
            "frame_uid": frame_uid, "node": node_index, "opcode": opcode,
            "exec_count": exec_count}))

    def on_deliver(self, cycle, kind):
        self.events.append(ProcEvent("deliver", cycle, {"msg_kind": kind}))

    def on_violate(self, cycle, load_frame_uid, load_lsid,
                   store_frame_uid, store_lsid):
        self.events.append(ProcEvent("violate", cycle, {
            "load_frame_uid": load_frame_uid, "load_lsid": load_lsid,
            "store_frame_uid": store_frame_uid, "store_lsid": store_lsid}))

    def on_redeliver(self, cycle, frame_uid, node_index, value, final):
        self.events.append(ProcEvent("redeliver", cycle, {
            "frame_uid": frame_uid, "node": node_index, "value": value,
            "final": final}))

    def on_commit(self, cycle, frame_uid, seq, block_name, stores):
        self.events.append(ProcEvent("commit", cycle, {
            "frame_uid": frame_uid, "seq": seq, "block": block_name,
            "stores": stores}))

    def counts(self) -> Dict[str, int]:
        """Event count per kind (every kind present, zero included)."""
        counts = dict.fromkeys(EVENT_KINDS, 0)
        for event in self.events:
            counts[event.kind] += 1
        return counts

    def to_jsonl(self) -> str:
        """One compact JSON object per event, in emission order."""
        return "\n".join(
            json.dumps({"kind": e.kind, "cycle": e.cycle, **e.data},
                       separators=(",", ":"), sort_keys=False)
            for e in self.events)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            text = self.to_jsonl()
            fh.write(text + "\n" if text else "")


# ----------------------------------------------------------------------
# Machine snapshots (pull-based: usable on a wedged machine)
# ----------------------------------------------------------------------

def machine_snapshot(processor) -> Dict[str, Any]:
    """Structured view of the in-flight machine state.

    Pulled on demand (deadlock dumps, debuggers) rather than accumulated
    through hooks, so it works on a machine that stopped emitting events.
    Values are plain data; :func:`format_snapshot` renders the classic
    debug-dump text from it.
    """
    frames = []
    for frame in processor.frames[:4]:
        nodes = []
        for node in frame.nodes:
            if node.final_emitted:
                continue
            nodes.append({
                "index": node.index,
                "opcode": node.inst.opcode.value,
                "exec_count": node.exec_count,
                "state": node.state.value,
                "slots": {slot.name: buffer.status.value
                          for slot, buffer in zip(node._sig_slots,
                                                  node._buffer_list)},
            })
        frames.append({
            "repr": repr(frame),
            "branch_label": frame.branch_label,
            "branch_final": frame.branch_buffer.final,
            "mem_final": processor.lsq.frame_mem_final(frame.uid),
            "nodes": nodes,
        })
    return {
        "cycle": processor.cycle,
        "n_frames": len(processor.frames),
        "fetch_target": processor.fetch_target,
        "fetch_inflight": processor.fetch_inflight,
        "frames": frames,
    }


def format_snapshot(snap: Dict[str, Any]) -> str:
    """Render a :func:`machine_snapshot` as the debug-dump text."""
    lines = [f"cycle={snap['cycle']} frames={snap['n_frames']} "
             f"fetch_target={snap['fetch_target']!r} "
             f"inflight={snap['fetch_inflight']}"]
    for frame in snap["frames"]:
        lines.append(f"  {frame['repr']} branch={frame['branch_label']!r} "
                     f"branch_final={frame['branch_final']} "
                     f"mem_final={frame['mem_final']}")
        for node in frame["nodes"]:
            lines.append(
                f"    I{node['index']} {node['opcode']} "
                f"exec={node['exec_count']} state={node['state']} "
                f"slots={node['slots']}")
    return "\n".join(lines)


__all__ = ["EVENT_KINDS", "EventHooks", "EventTrace", "ProcEvent",
           "format_snapshot", "machine_snapshot"]
