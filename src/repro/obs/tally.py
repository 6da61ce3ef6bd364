"""Native schedstat counters: the per-node records the hot paths bump.

While a :class:`~repro.obs.schedstat.SchedStat` is attached to the bus,
the machines and the hierarchy's chain walks count what the per-event
walks would have reported, directly, instead of building one
:class:`~repro.obs.events.Event` per level.  The bus owns one *tally*
(:attr:`EventBus.tally`) for as long as any collector is attached and
folds it into every attached collector whenever the collector set
changes (:meth:`EventBus.flush`), so each collector sees exactly the
events of its own subscription window.

Layout (mirrored by the compiled engine, ``repro/core/_sfqc.c``).  A
tally is a list::

    [events, interrupts, interrupt_ns, touched, root_record]

``touched`` lists, in first-touch order, every node whose record was
created since the last flush; ``root_record`` counts lifecycle events of
threads with no leaf (flat schedulers report them at ``/``).  A record
is a 12-element list stored on the node itself (``node.counts``, ``None``
while untouched)::

    [dispatches, preemptions, blocks, wakes, charges, service_work,
     overhead_ns, tag_updates, s_min, f_max, v_last, v_den]

The first seven are the node's own lifecycle counts (ancestors roll up at
read time, not per event).  ``tag_updates`` counts the node's tag
restamps in its parent's queue; ``s_min`` is the start tag the first of
them reported (start tags never decrease, so the first is the smallest)
and ``f_max`` the largest finish tag reported (finish tags can decrease
when an SMP machine charges a subtree it withdrew twice), both as the
floats the events carry.  ``v_last`` / ``v_den`` snapshot the node's own
queue (virtual-time numerator and tag denominator) at its last pick or
charge, so ``v_last / v_den`` is the value ``float(queue.virtual_time)``
had then.
"""

from __future__ import annotations

from typing import Any, List, NamedTuple, Optional, Tuple

# Indices into a tally.
T_EVENTS = 0
T_INTERRUPTS = 1
T_INTERRUPT_NS = 2
T_TOUCHED = 3
T_ROOT = 4

# Indices into a node record.
R_DISPATCHES = 0
R_PREEMPTIONS = 1
R_BLOCKS = 2
R_WAKES = 3
R_CHARGES = 4
R_SERVICE = 5
R_OVERHEAD = 6
R_TAG_UPDATES = 7
R_S_MIN = 8
R_F_MAX = 9
R_V_LAST = 10
R_V_DEN = 11

#: how many leading record fields are lifecycle counts
LIFECYCLE = 7


def new_record() -> List[Any]:
    """A zeroed node record."""
    return [0, 0, 0, 0, 0, 0, 0, 0, None, None, None, None]


def new_tally() -> List[Any]:
    """A zeroed tally."""
    return [0, 0, 0, [], new_record()]


def thread_record(tally: List[Any], thread: Any) -> List[Any]:
    """Count one lifecycle event of ``thread``; return the record it bumps.

    The record is the thread's leaf's, or the tally's root record for a
    thread with no leaf -- the node the event's ``node`` field names.
    """
    tally[T_EVENTS] += 1
    leaf = thread.leaf
    if leaf is None:
        return tally[T_ROOT]
    record = leaf.counts
    if record is None:
        record = leaf.counts = new_record()
        tally[T_TOUCHED].append(leaf)
    return record


class Row(NamedTuple):
    """What one node's record says, ready to fold into a collector."""

    path: str
    #: the seven lifecycle counts, or ``None`` if the node had none
    lifecycle: Optional[Tuple[int, ...]]
    #: (tag_updates, s_min, f_max), or ``None`` if it had no tag update
    tags: Optional[Tuple[int, float, float]]
    #: the last reported virtual time, or ``None``
    vtime: Optional[float]


class Drained(NamedTuple):
    """Everything a tally counted since its last flush."""

    events: int
    interrupts: int
    interrupt_ns: int
    rows: List[Row]


def _row(path: str, record: List[Any]) -> Row:
    lifecycle = tuple(record[:LIFECYCLE])
    tags = None
    if record[R_TAG_UPDATES]:
        tags = (record[R_TAG_UPDATES], record[R_S_MIN], record[R_F_MAX])
    vtime = None
    if record[R_V_LAST] is not None:
        vtime = record[R_V_LAST] / record[R_V_DEN]
    return Row(path, lifecycle if any(lifecycle) else None, tags, vtime)


def drain(tally: List[Any]) -> Drained:
    """Take everything out of ``tally`` and reset it (and its records)."""
    rows = []
    root = tally[T_ROOT]
    if any(root[:LIFECYCLE]):
        rows.append(_row("/", root))
    for node in tally[T_TOUCHED]:
        record = node.counts
        node.counts = None
        rows.append(_row(node.path, record))
    drained = Drained(tally[T_EVENTS], tally[T_INTERRUPTS],
                      tally[T_INTERRUPT_NS], rows)
    tally[T_EVENTS] = tally[T_INTERRUPTS] = tally[T_INTERRUPT_NS] = 0
    del tally[T_TOUCHED][:]
    tally[T_ROOT] = new_record()
    return drained
