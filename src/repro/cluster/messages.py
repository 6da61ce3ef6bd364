"""The cluster message log: the only channel across the epoch barrier.

Hosts and the control tier communicate exclusively through *messages* —
flat JSON-able dicts with four reserved routing fields:

``epoch``
    The epoch whose barrier carried the message.
``time``
    Simulated nanoseconds of the underlying event (barrier time for
    reports, exact times for tenant exits).
``src``
    The emitting host key, or ``"~ctl"`` for the control tier.
``seq``
    Per-source emission counter over the whole run (a host incarnation's
    and the control tier's counters are never reset).

``(epoch, time, src, seq)`` is a total order with no ties (``seq`` is
unique per source and times never decrease within a source's epoch), so
merging per-shard outboxes is a deterministic k-way sorted merge —
**independent of shard count and worker scheduling**.  The merge
*verifies* rather than trusts: a shard handing back an unsorted outbox
is a determinism bug, and :func:`merge_outboxes` raises
:class:`ClusterError` instead of silently resorting it (the seeded-skew
test in ``tests/test_cluster_determinism.py`` pins this).
"""

from __future__ import annotations

import hashlib
import heapq
import json
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.errors import ClusterError

#: message routing fields, in canonical order
ROUTING_FIELDS = ("epoch", "time", "src", "seq")

Message = Dict[str, object]


def message(epoch: int, time: int, src: str, seq: int, kind: str,
            **fields: object) -> Message:
    """Build one message dict; ``fields`` are the kind-specific payload.

    The routing fields and ``kind`` are named parameters, so a payload
    field that would shadow one is rejected by the call itself
    (``TypeError: got multiple values``) and costs nothing per message.
    """
    return {"epoch": epoch, "time": time, "src": src, "seq": seq,
            "kind": kind, **fields}


def sort_key(msg: Message) -> Tuple[int, int, str, int]:
    """The total merge order: ``(epoch, time, src, seq)``."""
    return (msg["epoch"], msg["time"], msg["src"], msg["seq"])  # type: ignore[return-value]


def check_sorted(msgs: Sequence[Message], label: str) -> None:
    """Raise :class:`ClusterError` unless ``msgs`` is strictly sort-ordered.

    Strictness matters: a duplicate key would make the merged order
    depend on which shard's message the merge happened to take first.
    """
    previous = None
    for msg in msgs:
        key = sort_key(msg)
        if previous is not None and key <= previous:
            raise ClusterError(
                "out-of-order message in %s: %r after %r — shard outboxes "
                "must be emitted in (epoch, time, src, seq) order"
                % (label, key, previous))
        previous = key


def merge_outboxes(outboxes: Sequence[Sequence[Message]]) -> List[Message]:
    """Sort-key merge of per-shard outboxes into one epoch log.

    Each outbox must already be internally sorted (shards emit hosts in
    name order and messages in emission order); the merge validates both
    the inputs and its own output so any ordering drift fails loudly.
    """
    for index, outbox in enumerate(outboxes):
        check_sorted(outbox, "shard %d outbox" % index)
    merged = list(heapq.merge(*outboxes, key=sort_key))
    check_sorted(merged, "merged epoch log")
    return merged


#: the canonical encoder, built once (``json.dumps`` with these
#: arguments builds a new encoder on every call)
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def render_line(msg: Message) -> str:
    """One message's canonical JSONL line (newline included)."""
    return _encode(msg) + "\n"


def render_lines(msgs: Iterable[Message]) -> str:
    """Canonical byte-stable JSONL rendering of a message stream."""
    return "".join(render_line(msg) for msg in msgs)


def log_digest(msgs: Iterable[Message]) -> str:
    """sha256 over the canonical rendering (what the CI gate compares)."""
    return hashlib.sha256(render_lines(msgs).encode("utf-8")).hexdigest()
