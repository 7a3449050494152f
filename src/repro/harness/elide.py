"""Cross-point cell elision: forward one invariant run to sibling points.

The paper's own idea — re-execute only what a violation actually touched
— applied to the simulator: a run whose
:class:`~repro.stats.counters.InvarianceCertificate` stays clean provably
never consulted the dependence policy or recovery protocol, so its result
is valid for every sibling machine point *in the same protocol family*.
The sweep layer groups pending cells by :func:`elision_key` — the kernel
identity digest, the config with the speculation-axis fields stripped,
and the :func:`point_class` — runs members until each remaining one can
be *forwarded* from an already-executed member's record
(:func:`pair_invariant`), and admits forwarded results as first-class
cache records tagged ``forwarded_from`` (distinct cache keys, provenance
preserved).  When no invariance holds, every member simulates — the
fallback costs nothing beyond the runs a sweep already paid.

Why per *class* and not "all seven points": commit-wave protocols
(``dsre``/``hybrid``) run load confirmation, which is real network and
LSQ traffic the tables render even on conflict-free kernels, and the
epoch-granular ``txwave`` bulk-commits on epoch boundaries, which shifts
commit timing (cycles) without any mis-speculation.  Within a class
those mechanisms are identical, so a clean certificate makes the whole
dynamic execution identical by induction: every load decision, value,
and message is reproduced because no decision ever depended on the
policy (all registered policies answer "issue now" when no older
unresolved store exists — the certificate's ``policy_windows`` condition)
or on the protocol's wrong-value response (``wrong_values == 0``).

A second, *pairwise* invariance widens coverage to runs that saw policy
windows but no speculation consequence (``wrong_values == 0``,
``deferrals == 0``, ``offpath_predictions == 0``):

* ``aggressive`` ↔ ``storeset`` — the store-set predictor trains only on
  violations.  A violation-free aggressive run trains nothing, so the
  SSIT stays empty and store-set scheduling *is* aggressive scheduling;
  by induction the two executions are identical cycle for cycle.  The
  argument does not extend to ``conservative`` (it defers on every
  window — its certificate shows ``deferrals``, never windows-only) nor
  to ``oracle`` (it consults *actual* conflicts, which can exist even
  when aggressive speculation happened to read correct values).
* ``dsre`` ↔ ``hybrid`` — hybrid diverges from DSRE only when a
  redelivery occurs, and a windows-only run has zero redeliveries.

The soundness suite (tests/test_elision.py) re-runs forwarded cells at
their own points and asserts byte-identical records, for pinned kernels,
sampled corpus programs, and hypothesis-drawn programs.

``REPRO_ELIDE=0`` disables forwarding (every cell simulates); the knob
deliberately does not enter cache keys — forwarded records are admitted
under the same content addresses a per-point simulation would use, and
the digest-equality CI gate holds the two modes byte-identical.
"""

from __future__ import annotations

import json
import os
from collections import OrderedDict
from typing import Dict, Iterable, Optional, Tuple

from ..uarch.recovery import get_protocol
from .cache import cache_key

#: Environment knob: set to ``0`` to disable cross-point elision.
ELIDE_ENV = "REPRO_ELIDE"

#: MachineConfig fields that *are* the speculation axis: two configs that
#: differ only here are candidates for sharing one clean run.  The
#: storeset table geometry and the hybrid escalation limit only matter
#: once a policy window / wrong value exists — which dirties the
#: certificate — and ``txwave_epoch_blocks`` is folded into the point
#: class instead (epoch structure changes timing even on clean runs).
AXIS_FIELDS = frozenset({
    "dependence_policy", "recovery",
    "storeset_ssit_size", "storeset_lfst_size",
    "hybrid_redelivery_limit", "txwave_epoch_blocks",
})

#: Dependence policies that issue a load immediately when its own inputs
#: are ready and no *trained/known* conflict exists.  On a run with zero
#: wrong values nothing ever trains or materializes, so these policies
#: are pairwise schedule-identical (see module docstring).
_NONDEFERRING_POLICIES = frozenset({"aggressive", "storeset"})


def elision_enabled() -> bool:
    """True unless ``REPRO_ELIDE=0`` (default: on)."""
    return os.environ.get(ELIDE_ENV, "1") != "0"


def point_class(config) -> Tuple:
    """The protocol family a config's machine point belongs to.

    Clean runs are identical *within* a class, not across classes:
    ``("flush",)`` — completion-gated commit, no confirmation traffic;
    ``("wave",)`` — commit-wave protocols (confirmation runs);
    ``("epoch", n)`` — epoch-granular bulk commit with epoch size ``n``.
    Checked in that priority order because an epoch-granular protocol may
    be completion-gated (txwave is), which would otherwise alias it into
    the flush family.
    """
    cls = get_protocol(config.recovery)
    if cls.epoch_granular:
        return ("epoch", config.txwave_epoch_blocks)
    if cls.requires_commit_wave:
        return ("wave",)
    return ("flush",)


def config_texts(config) -> Tuple[dict, Tuple[str, Tuple]]:
    """``(config.to_dict(), group)``, from one ``to_dict``: a record's
    config section, and the config half of :func:`elision_key` (the
    config's JSON without the speculation axis, and its
    :func:`point_class`)."""
    as_dict = config.to_dict()
    base = {name: value for name, value in as_dict.items()
            if name not in AXIS_FIELDS}
    return as_dict, (json.dumps(base, sort_keys=True), point_class(config))


def elision_key(digest: str, config) -> Tuple[str, str, Tuple]:
    """Group key: cells sharing it may share one invariant run."""
    return (digest,) + config_texts(config)[1]


def pair_invariant(certificate: dict, rep_config, config) -> bool:
    """True when ``certificate`` (from a run at ``rep_config``) proves the
    run at ``config`` — same elision group — would be byte-identical.

    Clean certificates are invariant across the whole class.  Windows-only
    certificates (policy windows observed, but zero deferrals, wrong
    values, and off-path predictions) are invariant across the
    non-deferring policy pair and across the commit-wave pair — the
    policies/protocols that only act on consequences that never occurred.
    """
    if not certificate or certificate.get("forced"):
        return False
    if certificate.get("clean"):
        return True
    if (certificate.get("wrong_values") or certificate.get("deferrals")
            or certificate.get("offpath_predictions")):
        return False
    # Windows-only.  Same recovery protocol family is already guaranteed
    # by the group key; within the wave pair the policy is aggressive on
    # both sides, within the flush family only the non-deferring pair
    # qualifies.
    if point_class(config) == ("wave",):
        return True
    return (rep_config.dependence_policy in _NONDEFERRING_POLICIES
            and config.dependence_policy in _NONDEFERRING_POLICIES)


def forwarded_record(rep_record: dict, cell, config_dict: dict,
                     rep_key: str) -> dict:
    """A sibling cell's cache record derived from the representative's.

    Same result payload and certificate; the identity fields (point,
    label, config) are rewritten to the sibling's (``config_dict`` is
    its config's ``to_dict()``) and ``forwarded_from`` carries the
    representative's cache key as provenance.  The cache rewrites
    ``schema``/``key`` on admission, so the record is a first-class
    entry under the sibling's own content address.
    """
    record = dict(rep_record)
    record.pop("key", None)
    record["point"] = cell.point
    record["label"] = cell.label
    record["config"] = config_dict
    record["forwarded_from"] = rep_key
    return record


def elide_pairs(items: Iterable[Tuple[int, object, str]], execute,
                counts: Dict[str, int],
                texts: Optional[Dict[int, Tuple]] = None):
    """Run ``items`` with cross-point elision; yields ``(index, record)``.

    ``items`` is ``(plan_index, cell, identity_digest)`` triples in plan
    order; ``execute(cell, config, digest, config_dict)`` runs one real
    simulation and returns its record.  Within each elision group,
    members run in order; before a member simulates, every
    already-executed member's record is checked with
    :func:`pair_invariant` and the member is forwarded from the first
    match.  An executed member that forwards at least one sibling counts
    as a ``counts["representative_runs"]``; a multi-member group where
    some sibling still had to simulate counts one
    ``counts["elision_fallbacks"]``.  With elision disabled every item
    executes — same yields, no grouping.

    Each distinct config's :func:`config_texts` are derived once per
    call (a plan shares one config object among cells of equal inputs),
    and a representative's cache key once, when it first forwards.
    ``texts`` maps ``id(config)`` to ``(config, *config_texts(config))``;
    each entry holds its config, so the id cannot pass to another object
    meanwhile.  A pool worker passes it seeded with the texts it derived
    for earlier chunks.
    """
    if texts is None:
        texts = {}

    def texts_of(config) -> Tuple:
        entry = texts.get(id(config))
        if entry is None:
            entry = texts[id(config)] = (config,) + config_texts(config)
        return entry

    if not elision_enabled():
        for index, cell, digest in items:
            config = cell.config()
            yield index, execute(cell, config, digest, texts_of(config)[1])
        return
    groups: "OrderedDict[Tuple, list]" = OrderedDict()
    for index, cell, digest in items:
        config, config_dict, group = texts_of(cell.config())
        groups.setdefault((digest,) + group, []).append(
            (index, cell, config, config_dict))
    for key, members in groups.items():
        # [config, record, forwarded count, cache key once it forwards]
        # per executed member.
        executed = []
        simulated_siblings = 0
        for position, (index, cell, config, config_dict) in enumerate(
                members):
            donor = None
            for entry in executed:
                if pair_invariant(entry[1].get("certificate"),
                                  entry[0], config):
                    donor = entry
                    break
            if donor is not None:
                if donor[2] == 0:
                    counts["representative_runs"] += 1
                    donor[3] = cache_key(key[0], donor[0])
                donor[2] += 1
                yield index, forwarded_record(donor[1], cell, config_dict,
                                              donor[3])
                continue
            record = execute(cell, config, key[0], config_dict)
            executed.append([config, record, 0, None])
            if position > 0:
                simulated_siblings += 1
            yield index, record
        if simulated_siblings:
            counts["elision_fallbacks"] += 1
