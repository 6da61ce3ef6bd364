"""The Start-time Fair Queuing queue.

An :class:`SfqQueue` schedules *entities* — anything with a positive
``weight`` attribute (scheduling-structure nodes, threads).  It implements
the three rules of the paper's Section 3:

1. when an entity requests service (becomes runnable), stamp it with a start
   tag ``S = max(v, F)`` where ``F`` is its finish tag (initially 0);
2. when a service quantum of length ``l`` completes, advance the finish tag
   ``F = S + l / w`` (and restamp ``S = F`` if the entity stays runnable —
   at completion ``v`` equals the entity's own start tag, so
   ``max(v, F) = F``);
3. dispatch in increasing start-tag order, breaking ties by arrival
   sequence (deterministic; the paper allows arbitrary tie-breaks).

Virtual time ``v`` follows the paper exactly: while the queue is busy it is
the start tag of the entity in service; when the queue goes idle it jumps to
the maximum finish tag ever assigned.

The queue never needs quantum lengths in advance — lengths are supplied at
:meth:`charge` time, which is the property that makes SFQ usable for CPU
scheduling (threads may block before exhausting their quantum).

Tag representation
------------------
A queue is either *float* (``TagMath(exact=False)``: tags are machine
floats) or *integer* (the exact default).  An integer queue stores every
tag — the arena's start/finish columns, ``v``, the maximum finish tag and
the heap keys — as a plain ``int`` numerator over one per-queue
denominator ``D`` kept in ``_state[_DEN]`` (see :mod:`repro.core.tags`).
A charge computes ``F = S + l * (D // w)``; a weight that does not divide
``D`` first grows ``D`` to ``lcm(D, w)`` and rescales the queue in place
(:func:`_grow_denominator`).  The public accessors (:meth:`start_tag`,
:meth:`finish_tag`, :attr:`virtual_time`) return ``Fraction(n, D)``, so
callers see exactly the values Fraction arithmetic would produce.

Storage layout (since the columnar-arena refactor)
--------------------------------------------------
Per-entity state lives in the flat parallel columns of a
:class:`~repro.core.arena.SfqArena`, indexed by a dense slot id; the queue
object is a façade that maps ``id(entity)`` to a slot at the API edge and
then works purely on lists.  The dispatch heap holds ``(start, seq,
version, slot)`` tuples; mutable queue scalars (virtual time, max finish
tag, in-service slot, runnable count) sit in the four-element ``_state``
list so the compiled engine (``repro.core.engine``) can read and write
them without attribute protocol.  Queues with a single registered entity
run in *solo* mode: ordering is trivial, so the heap stays empty and
stamping skips heap pushes entirely — observable behaviour (picks, tags,
virtual time) is identical, which the golden-trace suite pins.

Engine seam
-----------
The module-level hot functions (:func:`pick_leaf`, :func:`charge_chain`,
:func:`wake_chain`, :func:`sleep_chain`, and the ``queue_*`` per-queue
operations) are rebound to their C implementations at import time when
``REPRO_ENGINE=compiled`` — see ``repro/core/engine.py``.  The pure-python
definitions below are the always-available fallback and the behavioural
reference the compiled engine is gated against.

Native schedstat counters
-------------------------
:func:`pick_leaf`, :func:`charge_chain` and :func:`wake_chain` take an
optional ``tally`` (``BUS.tally`` while a schedstat collector is
attached, see :mod:`repro.obs.tally`).  With one, they also count the
per-level ``vtime-advance`` / ``tag-update`` events that
:class:`~repro.core.hierarchy.HierarchicalScheduler` emits from the
walked chain while an event subscriber is attached (:func:`tally_pick`,
:func:`tally_chain`); without one they pay a single flag test per call.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from heapq import heappop, heappush
from math import gcd
from typing import Any, Dict, List, Optional, Tuple

from repro.core.arena import SfqArena
from repro.core.tags import EXACT, Tag, TagMath
from repro.errors import SchedulingError
from repro.obs.tally import (
    R_F_MAX,
    R_S_MIN,
    R_TAG_UPDATES,
    R_V_DEN,
    R_V_LAST,
    T_EVENTS,
    T_TOUCHED,
    new_record,
)

_arrival_seq = itertools.count()

# Indices into SfqQueue._state (mirrored by the compiled engine).
_VT = 0    # virtual time v
_MF = 1    # maximum finish tag ever assigned
_SRV = 2   # slot currently in service, -1 when none
_RC = 3    # count of runnable entities
_DEN = 4   # tag denominator D of an integer queue (1 on float queues)

# Indices into SfqQueue._cview (mirrored by the compiled engine).
_CV_HEAP = 0
_CV_STATE = 1
_CV_ENT = 2
_CV_START = 3
_CV_FIN = 4
_CV_RUN = 5
_CV_VER = 6
_CV_SEQ = 7
_CV_SOLO = 8
_CV_FLOAT = 9
_CV_SLOTS = 10


class SfqQueue:
    """A single SFQ scheduling queue over weighted entities."""

    __slots__ = ("tags", "arena", "_slots", "_heap", "_state", "_solo",
                 "_float_fast", "_cview")

    def __init__(self, tag_math: Optional[TagMath] = None) -> None:
        self.tags = tag_math if tag_math is not None else EXACT
        self.arena = arena = SfqArena()
        #: id(entity) -> slot; the only object-keyed structure on the queue
        self._slots: Dict[int, int] = {}
        self._heap: List[Tuple[Tag, int, int, int]] = []
        zero = self.tags.zero()
        self._state: List[Any] = [zero, zero, -1, 0, 1]
        #: the single live slot while exactly one entity is registered
        #: (solo mode: empty heap, no pushes), else -1
        self._solo = -1
        # Hot-path specialization: float-mode tag math is inlined in
        # charge() (`start + length / weight` — the exact expression
        # TagMath.advance computes), skipping two calls per charge per tree
        # level.  Exact mode keeps integer numerators over _state[_DEN].
        self._float_fast = not self.tags.exact
        # Column view for the descent/compiled hot paths: stable references
        # to the heap, state vector and arena columns (none of which are
        # ever rebound), plus the solo slot mirrored at _CV_SOLO.  The
        # compiled engine reads *only* this list, so it is the complete
        # C-visible descriptor of the queue.
        self._cview: List[Any] = [self._heap, self._state, arena.ent,
                                  arena.start, arena.fin, arena.run,
                                  arena.ver, arena.seq, -1,
                                  1 if self._float_fast else 0,
                                  self._slots]

    # --- membership ---------------------------------------------------

    def add(self, entity: Any) -> None:
        """Register ``entity`` (initially not runnable, finish tag 0).

        New entities start with ``F = 0``; their first stamping takes
        ``max(v, 0) = v``, so a late joiner does not receive catch-up credit
        for the time before it arrived.
        """
        key = id(entity)
        slots = self._slots
        if key in slots:
            raise SchedulingError("entity %r already in SFQ queue" % (entity,))
        arena = self.arena
        slot = arena.alloc(entity, self.tags.zero(), next(_arrival_seq))
        slots[key] = slot
        count = len(slots)
        if count == 1:
            self._solo = slot
            self._cview[_CV_SOLO] = slot
        elif count == 2:
            # Leaving solo mode: restore the invariant that every runnable
            # entity has a valid heap entry.
            solo = self._solo
            self._solo = -1
            self._cview[_CV_SOLO] = -1
            if arena.run[solo]:
                version = arena.ver[solo] + 1
                arena.ver[solo] = version
                heappush(self._heap,
                         (arena.start[solo], arena.seq[solo], version, solo))

    def remove(self, entity: Any) -> None:
        """Deregister ``entity``; it must not be runnable."""
        slot = self._slot_of(entity)
        arena = self.arena
        if arena.run[slot]:
            raise SchedulingError(
                "cannot remove runnable entity %r from SFQ queue" % (entity,))
        del self._slots[id(entity)]
        if self._state[_SRV] == slot:
            self._state[_SRV] = -1
        arena.release(slot)  # bumps the version: stale heap entries die
        count = len(self._slots)
        if count == 1:
            # Entering solo mode: the heap is no longer consulted, so drop
            # it in place (the cview/chain references stay valid).
            remaining = next(iter(self._slots.values()))
            del self._heap[:]
            self._solo = remaining
            self._cview[_CV_SOLO] = remaining
        elif count == 0:
            del self._heap[:]
            self._solo = -1
            self._cview[_CV_SOLO] = -1

    def __contains__(self, entity: Any) -> bool:
        return id(entity) in self._slots

    def __len__(self) -> int:
        return len(self._slots)

    # --- introspection --------------------------------------------------

    @property
    def virtual_time(self) -> Tag:
        """Current virtual time ``v`` of this queue."""
        value = self._state[_VT]
        if self._float_fast:
            return value
        return Fraction(value, self._state[_DEN])

    @property
    def runnable_count(self) -> int:
        """Number of entities currently eligible for service."""
        return self._state[_RC]

    def has_runnable(self) -> bool:
        """True when at least one entity is eligible for service."""
        return self._state[_RC] > 0

    def start_tag(self, entity: Any) -> Tag:
        """Current start tag of ``entity`` (for tests and tracing)."""
        value = self.arena.start[self._slot_of(entity)]
        if self._float_fast:
            return value
        return Fraction(value, self._state[_DEN])

    def finish_tag(self, entity: Any) -> Tag:
        """Current finish tag of ``entity`` (for tests and tracing)."""
        value = self.arena.fin[self._slot_of(entity)]
        if self._float_fast:
            return value
        return Fraction(value, self._state[_DEN])

    def is_runnable(self, entity: Any) -> bool:
        """True if ``entity`` is currently marked runnable in this queue."""
        return bool(self.arena.run[self._slot_of(entity)])

    # --- the three SFQ rules ---------------------------------------------

    def set_runnable(self, entity: Any) -> None:
        """Rule 1: stamp a newly eligible entity with ``S = max(v, F)``."""
        slot = self._slots.get(id(entity))
        if slot is None:
            slot = self._slot_of(entity)
        arena = self.arena
        if arena.run[slot]:
            return
        arena.run[slot] = 1
        state = self._state
        state[_RC] += 1
        start = arena.fin[slot]
        if start < state[_VT]:
            start = state[_VT]
        arena.start[slot] = start
        version = arena.ver[slot] + 1
        arena.ver[slot] = version
        if self._solo < 0:
            heappush(self._heap, (start, arena.seq[slot], version, slot))

    def set_blocked(self, entity: Any) -> None:
        """Mark an entity ineligible; updates idle virtual time if needed."""
        slot = self._slots.get(id(entity))
        if slot is None:
            slot = self._slot_of(entity)
        arena = self.arena
        if not arena.run[slot]:
            return
        arena.run[slot] = 0
        arena.ver[slot] += 1  # lazy-remove from heap
        state = self._state
        state[_RC] -= 1
        if state[_SRV] == slot:
            state[_SRV] = -1
        if state[_RC] == 0:
            # Paper rule: when the server goes idle, v jumps to the maximum
            # finish tag assigned to any entity.
            if state[_MF] > state[_VT]:
                state[_VT] = state[_MF]

    def pick(self) -> Optional[Any]:
        """Rule 3: return the runnable entity with the smallest start tag.

        The entity stays queued; it is "in service" until the next
        :meth:`charge`.  Returns ``None`` when nothing is runnable.
        """
        arena = self.arena
        state = self._state
        solo = self._solo
        if solo >= 0:
            if not arena.run[solo]:
                return None
            state[_SRV] = solo
            start = arena.start[solo]
            if start > state[_VT]:
                state[_VT] = start
            return arena.ent[solo]
        heap = self._heap
        run = arena.run
        ver = arena.ver
        slot = -1
        while heap:
            head = heap[0]
            candidate = head[3]
            if run[candidate] and head[2] == ver[candidate]:
                slot = candidate
                break
            heappop(heap)
        if slot < 0:
            return None
        state[_SRV] = slot
        start = head[0]  # valid entries carry the entity's current start tag
        if start > state[_VT]:
            state[_VT] = start
        return arena.ent[slot]

    def charge(self, entity: Any, length: int, weight: Optional[int] = None) -> None:
        """Rule 2: account ``length`` units of completed service.

        ``weight`` defaults to ``entity.weight`` read *now*, so dynamic
        weight changes (Figure 11) take effect at the next charge.
        """
        if length < 0:
            raise SchedulingError("negative charge length %d" % length)
        slot = self._slots.get(id(entity))
        if slot is None:
            slot = self._slot_of(entity)
        if weight is None:
            weight = entity.weight
        arena = self.arena
        if self._float_fast:
            if weight <= 0:
                raise ValueError("weight must be positive, got %r" % (weight,))
            # float-mode TagMath.advance, inlined:
            finish = arena.start[slot] + length / weight  # schedlint: disable=SL004
        else:
            den = self._state[_DEN]
            if type(weight) is not int or weight <= 0 or den % weight:
                den = _grow_denominator(self._heap, self._state, arena.start,
                                        arena.fin, weight)
            finish = arena.start[slot] + length * (den // weight)
        arena.fin[slot] = finish
        state = self._state
        if finish > state[_MF]:
            state[_MF] = finish
        if state[_SRV] == slot:
            state[_SRV] = -1
        if arena.run[slot]:
            # Still hungry: the next quantum is requested immediately, and
            # at this instant v equals this entity's start tag, so the new
            # start tag is simply the finish tag.
            arena.start[slot] = finish
            version = arena.ver[slot] + 1
            arena.ver[slot] = version
            if self._solo < 0:
                heappush(self._heap, (finish, arena.seq[slot], version, slot))

    # --- internals -----------------------------------------------------

    def _slot_of(self, entity: Any) -> int:
        try:
            return self._slots[id(entity)]
        except KeyError:
            raise SchedulingError("entity %r not in SFQ queue" % (entity,)) from None

    def slot_of(self, entity: Any) -> int:
        """The live arena slot of ``entity`` (chain-cache support).

        The slot stays valid until the entity is removed from this queue;
        callers caching it must invalidate on removal (the hierarchy keys
        its caches to the structure's ``tree_version``).
        """
        return self._slot_of(entity)


def _grow_denominator(heap: List[Tuple[Tag, int, int, int]],
                      state: List[Any], start_col: List[Any],
                      fin_col: List[Any], weight: Any) -> int:
    """Make an integer queue's denominator divisible by ``weight``.

    Validates ``weight`` (a positive integer), then grows ``D`` to
    ``lcm(D, weight)`` and multiplies every stored numerator — both tag
    columns, ``v``, the maximum finish tag and the heap keys — by
    ``k = D' / D``, in place.  Scaling by a positive ``k`` preserves
    every comparison, so the heap stays ordered and the cached chain and
    cview references stay valid.  ``D`` never shrinks.  Returns ``D'``.
    """
    if weight <= 0:
        raise ValueError("weight must be positive, got %r" % (weight,))
    if not isinstance(weight, int):
        raise TypeError("weight must be an integer, got %r" % (weight,))
    den = state[_DEN]
    k = weight // gcd(den, weight)
    if k == 1:
        return den
    for slot in range(len(start_col)):
        start_col[slot] *= k
        fin_col[slot] *= k
    state[_VT] *= k
    state[_MF] *= k
    for index in range(len(heap)):
        start, seq, version, slot = heap[index]
        heap[index] = (start * k, seq, version, slot)
    den *= k
    state[_DEN] = den
    return den


# --- module-level per-queue operations (engine-swappable) --------------------
#
# The leaf SFQ scheduler goes through these module-level names instead of
# the bound methods, so selecting the compiled engine routes every hot
# per-queue operation through one seam.

queue_pick = SfqQueue.pick
queue_set_runnable = SfqQueue.set_runnable
queue_set_blocked = SfqQueue.set_blocked


def queue_charge(queue: SfqQueue, entity: Any, length: int) -> None:
    """``queue.charge(entity, length)`` with the weight read live."""
    SfqQueue.charge(queue, entity, length)


#: one ancestor level of a cached chain (see :func:`build_ancestor_chain`)
ChainEntry = Tuple[Any, ...]

# Indices into a chain entry (mirrored by the compiled engine).
_CH_FLOAT = 0
_CH_SOLO = 1
_CH_HEAP = 2
_CH_STATE = 3
_CH_START = 4
_CH_FIN = 5
_CH_RUN = 6
_CH_VER = 7
_CH_SEQ = 8
_CH_SLOT = 9
_CH_ENTITY = 10
_CH_PARENT = 11


def build_ancestor_chain(leaf: Any) -> List[ChainEntry]:
    """Precompute one flat entry per ancestor of ``leaf``.

    Each entry pre-resolves everything the chain walks touch — the
    ancestor queue's tag mode, solo slot, heap, state vector, the arena
    columns, the child's slot — so the per-level work is pure list
    indexing.  The chain mirrors the leaf-to-root walks the hierarchy
    performs on charge and eligibility changes, and stays valid until the
    tree shape changes (mknod/rmnod — the hierarchy keys its cache to
    ``tree_version``; solo membership also only changes with the shape, so
    baking it here is safe).
    """
    chain: List[ChainEntry] = []
    node = leaf
    while node.parent is not None:
        parent = node.parent
        queue = parent.queue
        arena = queue.arena
        chain.append((queue._float_fast, queue._solo, queue._heap,
                      queue._state, arena.start, arena.fin, arena.run,
                      arena.ver, arena.seq, queue.slot_of(node), node,
                      parent))
        node = parent
    return chain


def tally_chain(chain: List[ChainEntry], tally: List[Any],
                vtimes: bool) -> None:
    """Count the per-level events of a chain walk into native records.

    Per entry: the child's tag update (its tags as they stand after the
    walk) and, with ``vtimes``, the parent's virtual-time advance --
    what :class:`~repro.core.hierarchy.HierarchicalScheduler` emits
    from the same chain as ``tag-update`` / ``vtime-advance`` events
    (record layout: :mod:`repro.obs.tally`).  Pass only the entries the walk visited.
    Entry i's parent is entry i+1's entity, so each record is fetched
    once: a level's entity record also takes the level below's vtime.
    """
    touched = tally[T_TOUCHED]
    below = None  # the queue state whose vtime belongs to this entity
    for (__, ___, ____, state, start_col, fin_col, _____, ______,
         _______, slot, entity, parent) in chain:
        record = entity.counts
        if record is None:
            record = entity.counts = new_record()
            touched.append(entity)
        if below is not None:
            record[R_V_LAST] = below[_VT]
            record[R_V_DEN] = below[_DEN]
        # Tags are reported as float(Fraction(n, D)): n / D, correctly
        # rounded.
        finish = fin_col[slot] / state[_DEN]  # schedlint: disable=SL004
        updates = record[R_TAG_UPDATES]
        if not updates:
            # start tags never decrease: the first reported is the minimum
            record[R_S_MIN] = start_col[slot] / state[_DEN]  # schedlint: disable=SL004
            record[R_F_MAX] = finish
        elif finish > record[R_F_MAX]:
            record[R_F_MAX] = finish
        record[R_TAG_UPDATES] = updates + 1
        if vtimes:
            below = state
    if below is not None:
        record = parent.counts
        if record is None:
            record = parent.counts = new_record()
            touched.append(parent)
        record[R_V_LAST] = below[_VT]
        record[R_V_DEN] = below[_DEN]
    tally[T_EVENTS] += 2 * len(chain) if vtimes else len(chain)


def tally_pick(leaf: Any, depth: int, tally: List[Any]) -> None:
    """Count a descent's virtual-time advances: one per ancestor of ``leaf``.

    The descent that picked ``leaf`` at ``depth`` passed exactly its
    ancestors, and each reports its queue's virtual time as the pick
    left it.
    """
    touched = tally[T_TOUCHED]
    node = leaf.parent
    while node is not None:
        state = node.queue._state
        record = node.counts
        if record is None:
            record = node.counts = new_record()
            touched.append(node)
        record[R_V_LAST] = state[_VT]
        record[R_V_DEN] = state[_DEN]
        node = node.parent
    tally[T_EVENTS] += depth - 1


def charge_chain(chain: List[ChainEntry], length: int,
                 tally: Optional[List[Any]] = None) -> None:
    """Apply :meth:`SfqQueue.charge` along a precomputed ancestor chain.

    Semantically identical to calling ``queue.charge(entity, length)``
    level by level — weights are still read live at charge time, so
    dynamic weight changes keep Figure-11 behaviour — but with the per-call
    record lookups hoisted into the cached chain.  Preconditions (enforced
    by the machine and structure, not re-checked here): ``length >= 0``
    and every entity registered with a positive weight.  With a ``tally``
    (see :mod:`repro.obs.tally`) every level is also counted.
    """
    for (float_fast, solo, heap, state, start_col, fin_col, run_col,
         ver_col, seq_col, slot, entity, __) in chain:
        weight = entity.weight
        if float_fast:
            finish = start_col[slot] + length / weight  # schedlint: disable=SL004
        else:
            den = state[_DEN]
            if type(weight) is not int or weight <= 0 or den % weight:
                den = _grow_denominator(heap, state, start_col, fin_col,
                                        weight)
            finish = start_col[slot] + length * (den // weight)
        fin_col[slot] = finish
        if finish > state[_MF]:
            state[_MF] = finish
        if state[_SRV] == slot:
            state[_SRV] = -1
        if run_col[slot]:
            start_col[slot] = finish
            version = ver_col[slot] + 1
            ver_col[slot] = version
            if solo < 0:
                heappush(heap, (finish, seq_col[slot], version, slot))
    if tally is not None:
        tally_chain(chain, tally, True)


def wake_chain(chain: List[ChainEntry],
               tally: Optional[List[Any]] = None) -> None:
    """Propagate leaf eligibility up a cached chain (``hsfq_setrun``).

    Per level: :meth:`SfqQueue.set_runnable` for the child, stopping after
    the first parent that was already runnable (:func:`wake_levels`
    counts those levels).  With a ``tally`` every level walked is also
    counted.
    """
    if tally is not None:
        levels = wake_levels(chain)
    for (__, solo, heap, state, start_col, fin_col, run_col,
         ver_col, seq_col, slot, ___, parent) in chain:
        if not run_col[slot]:
            run_col[slot] = 1
            state[_RC] += 1
            start = fin_col[slot]
            if start < state[_VT]:
                start = state[_VT]
            start_col[slot] = start
            version = ver_col[slot] + 1
            ver_col[slot] = version
            if solo < 0:
                heappush(heap, (start, seq_col[slot], version, slot))
        if parent.runnable:
            break
        parent.runnable = True
    if tally is not None:
        tally_chain(chain[:levels], tally, False)


def wake_levels(chain: List[ChainEntry]) -> int:
    """How many entries of ``chain`` a :func:`wake_chain` walk will visit.

    The walk stops at the first parent that is already runnable, and it
    only ever sets the flags of parents before that one, so the count is
    known before the walk.
    """
    for index, entry in enumerate(chain):
        if entry[_CH_PARENT].runnable:
            return index + 1
    return len(chain)


def pick_leaf(root: Any, leaf_type: type,
              tally: Optional[List[Any]] = None
              ) -> Tuple[Optional[Any], int]:
    """Descend from ``root``, picking the min-start child at every level.

    Inlines :meth:`SfqQueue.pick` per level (the per-dispatch descent is
    the hierarchy's hottest read path).  Returns ``(leaf, depth)``; if some
    internal queue has no runnable child — corrupted eligibility state —
    returns ``(None, depth)`` and the caller re-walks with the method API
    to raise its usual diagnostic (pick is peek-like, so the partial
    descent's virtual-time updates match what the re-walk recomputes).
    ``leaf_type`` is passed in (the node classes live downstream of this
    module); nodes are exactly ``InternalNode`` or ``leaf_type``.  With a
    ``tally`` a successful descent is also counted (:func:`tally_pick`).
    """
    node = root
    depth = 1
    while type(node) is not leaf_type:
        cview = node.queue._cview
        state = cview[_CV_STATE]
        start_col = cview[_CV_START]
        run_col = cview[_CV_RUN]
        ent_col = cview[_CV_ENT]
        solo = cview[_CV_SOLO]
        if solo >= 0:
            if not run_col[solo]:
                return None, depth
            state[_SRV] = solo
            start = start_col[solo]
            if start > state[_VT]:
                state[_VT] = start
            node = ent_col[solo]
            depth += 1
            continue
        heap = cview[_CV_HEAP]
        ver_col = cview[_CV_VER]
        slot = -1
        while heap:
            head = heap[0]
            candidate = head[3]
            if run_col[candidate] and head[2] == ver_col[candidate]:
                slot = candidate
                break
            heappop(heap)
        if slot < 0:
            return None, depth
        state[_SRV] = slot
        start = head[0]
        if start > state[_VT]:
            state[_VT] = start
        node = ent_col[slot]
        depth += 1
    if tally is not None:
        tally_pick(node, depth, tally)
    return node, depth


def sleep_chain(chain: List[ChainEntry]) -> None:
    """Propagate leaf idleness up a cached chain (``hsfq_sleep``).

    Per level: :meth:`SfqQueue.set_blocked` for the child, stopping at the
    first ancestor queue that still has runnable children — exactly the
    walk in :meth:`HierarchicalScheduler.sleep`.
    """
    for (__, ___, ____, state, _____, ______, run_col,
         ver_col, _______, slot, ________, parent) in chain:
        if run_col[slot]:
            run_col[slot] = 0
            ver_col[slot] += 1  # lazy-remove from heap
            state[_RC] -= 1
            if state[_SRV] == slot:
                state[_SRV] = -1
            if state[_RC] == 0:
                if state[_MF] > state[_VT]:
                    state[_VT] = state[_MF]
        if state[_RC] > 0:
            return
        parent.runnable = False


# --- engine selection --------------------------------------------------------
#
# Keep references to the pure implementations (tests and the equivalence
# gate call them explicitly), then let the selected engine rebind the
# public hot-path names.  Downstream modules import these names *after*
# this module body runs, so the rebinding is visible everywhere.

pick_leaf_pure = pick_leaf
charge_chain_pure = charge_chain
wake_chain_pure = wake_chain
sleep_chain_pure = sleep_chain
queue_pick_pure = queue_pick
queue_charge_pure = queue_charge
queue_set_runnable_pure = queue_set_runnable
queue_set_blocked_pure = queue_set_blocked

from repro.core import engine as _engine  # noqa: E402  (needs SfqQueue defined)

if _engine.OPS is not None:
    pick_leaf = _engine.OPS.pick_leaf
    charge_chain = _engine.OPS.charge_chain
    wake_chain = _engine.OPS.wake_chain
    sleep_chain = _engine.OPS.sleep_chain
    queue_pick = _engine.OPS.queue_pick
    queue_charge = _engine.OPS.queue_charge
    queue_set_runnable = _engine.OPS.queue_set_runnable
    queue_set_blocked = _engine.OPS.queue_set_blocked
