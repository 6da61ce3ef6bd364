"""Native schedstat counters against an independent event-fold oracle.

A :class:`SchedStat` attached to the bus counts through native per-node
records instead of per-event walks.  Every case here runs one seeded
simulation three times -- SchedStat alone (the counting fast path),
a test-local oracle that folds the per-event stream, and SchedStat
together with an event subscriber (per-level events plus native counts) --
and requires the three ``render_schedstat`` texts to be identical.
"""

import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.sfq as sfq_module
import repro.schedulers.fairqueue as fairqueue_module
import repro.threads.thread as thread_module
from repro.core.hierarchy import HierarchicalScheduler
from repro.core.structure import SchedulingStructure
from repro.core.tags import EXACT, FLOAT
from repro.cpu.machine import Machine
from repro.hsfq import (
    HSFQ_ADMIN_SETWEIGHT,
    HSFQ_LEAF,
    hsfq_admin,
    hsfq_mknod,
    hsfq_move,
    hsfq_rmnod,
)
from repro.obs import events as ev
from repro.obs.schedstat import SchedStat, render_schedstat
from repro.schedulers.sfq_leaf import SfqScheduler
from repro.sim.engine import Simulator
from repro.sim.rng import make_rng
from repro.smp.machine import SmpMachine
from repro.threads.states import ThreadState
from repro.threads.thread import SimThread
from repro.units import MS
from repro.workloads.dhrystone import DhrystoneWorkload
from repro.workloads.interactive import InteractiveWorkload

HORIZON = 240 * MS

#: lifecycle kinds: counted at the thread's leaf and every ancestor
_ROLLED_UP = {ev.DISPATCH: "dispatches", ev.PREEMPT: "preemptions",
              ev.BLOCK: "blocks", ev.WAKE: "wakes", ev.CHARGE: "charges"}


class _Row:
    """One node's oracle counters (the attribute names the renderer reads)."""

    def __init__(self):
        self.dispatches = self.preemptions = self.blocks = self.wakes = 0
        self.charges = self.service_work = self.overhead_ns = 0
        self.violations = self.tag_updates = 0
        self.min_start = self.max_finish = self.vtime = None


class EventFold:
    """The oracle: folds the raw event stream, written from the catalogue.

    Shares no code with :mod:`repro.obs.schedstat`; it is a plain event
    subscriber, so attaching it sets ``BUS.active`` and the run emits every
    per-level event.
    """

    def __init__(self):
        self.nodes = {}
        self.interrupts = 0
        self.interrupt_ns = 0
        self.events_seen = 0

    def _row(self, path):
        if path not in self.nodes:
            self.nodes[path] = _Row()
        return self.nodes[path]

    @staticmethod
    def _owners(path):
        owners = [path]
        while path.startswith("/") and path != "/":
            path = path[:path.rindex("/")] or "/"
            owners.append(path)
        return owners

    def __call__(self, event):
        self.events_seen += 1
        data = event.data
        field = _ROLLED_UP.get(event.kind)
        if field is not None:
            for path in self._owners(data["node"]):
                row = self._row(path)
                setattr(row, field, getattr(row, field) + 1)
                if event.kind == ev.CHARGE:
                    row.service_work += data["work"]
                elif event.kind == ev.DISPATCH:
                    row.overhead_ns += data.get("overhead_ns", 0)
        elif event.kind == ev.TAG_UPDATE:
            row = self._row(data["node"])
            row.tag_updates += 1
            if row.min_start is None or data["start"] < row.min_start:
                row.min_start = data["start"]
            if row.max_finish is None or data["finish"] > row.max_finish:
                row.max_finish = data["finish"]
        elif event.kind == ev.VTIME_ADVANCE:
            self._row(data["node"]).vtime = data["v"]
        elif event.kind == ev.VIOLATION:
            self._row(data["node"]).violations += 1
        elif event.kind == ev.INTERRUPT:
            self.interrupts += 1
            self.interrupt_ns += data["service"]


def _reset_global_counters():
    thread_module._tid_counter = itertools.count(1)
    sfq_module._arrival_seq = itertools.count()
    fairqueue_module._seq = itertools.count()


def _build_tree(rng, structure, depth, tags):
    """2-5 leaves at random depths <= depth (one exactly at depth)."""
    leaves = []
    for index in range(rng.randint(2, 5)):
        level_of_leaf = depth if index == 0 else rng.randint(1, depth)
        parent = structure.root
        for __ in range(1, level_of_leaf):
            internals = [child for child in parent.children.values()
                         if not child.is_leaf]
            if internals and rng.random() < 0.6:
                parent = rng.choice(internals)
            else:
                parent = structure.mknod("n%d" % len(parent.children),
                                         rng.randint(1, 4), parent=parent)
        leaves.append(structure.mknod(
            "l%d" % len(parent.children), rng.randint(1, 4), parent=parent,
            scheduler=SfqScheduler(tags)))
    return leaves


def _scenario(seed, depth, exact, smp, ops):
    """Build one seeded run; returns (machine, structure, engine)."""
    _reset_global_counters()
    rng = random.Random(seed)
    tags = EXACT if exact else FLOAT
    structure = SchedulingStructure(tags)
    leaves = _build_tree(rng, structure, depth, tags)
    engine = Simulator()
    hierarchy = HierarchicalScheduler(structure)
    if smp:
        machine = SmpMachine(engine, hierarchy, num_cpus=2,
                             capacity_ips=100_000_000,
                             default_quantum=2 * MS)
    else:
        machine = Machine(engine, hierarchy, capacity_ips=100_000_000,
                          default_quantum=2 * MS)
    threads = []
    for index, leaf in enumerate(leaves):
        thread = SimThread("t%d" % index, InteractiveWorkload(
            burst_work=rng.randint(50_000, 300_000),
            think_time=rng.randint(1, 8) * MS,
            rng=make_rng(seed, "t/%d" % index)))
        leaf.attach_thread(thread)
        threads.append(thread)
        if rng.random() < 0.4:
            hog = SimThread("h%d" % index, DhrystoneWorkload(300, 2_000))
            leaf.attach_thread(hog)
            threads.append(hog)
    if "rmnod" in ops:
        temp = structure.mknod("tmp", 2, scheduler=SfqScheduler(tags))
        short = SimThread("short", InteractiveWorkload(
            burst_work=80_000, think_time=2 * MS, interactions=2,
            rng=make_rng(seed, "short")))
        temp.attach_thread(short)
        threads.append(short)
    for thread in threads:
        machine.spawn(thread)
    _schedule_ops(rng, ops, machine, structure, leaves, threads, tags)
    return machine, structure, engine


def _schedule_ops(rng, ops, machine, structure, leaves, threads, tags):
    engine = machine.engine

    def reweigh(node):
        hsfq_admin(structure, node.node_id, HSFQ_ADMIN_SETWEIGHT,
                   1 + (node.weight % 5))

    def move(thread):
        dest = leaves[(leaves.index(thread.leaf) + 1) % len(leaves)] \
            if thread.leaf in leaves else leaves[0]
        if thread.alive and thread.state is not ThreadState.RUNNING \
                and dest is not thread.leaf:
            hsfq_move(structure, thread, dest.node_id)

    def remove_and_recreate():
        temp = structure.parse("/tmp")
        if temp.threads or temp.runnable:
            return
        hsfq_rmnod(structure, temp.node_id)
        node_id = hsfq_mknod(structure, "tmp", structure.root.node_id, 3,
                             flag=HSFQ_LEAF)
        again = SimThread("again", DhrystoneWorkload(300, 1_000))
        structure.resolve(node_id).attach_thread(again)
        machine.spawn(again)

    # SmpMachine withdraws a dispatched thread, so a subtree can be charged
    # while dormant; a weight change then trips SCHEDSAN's
    # dormant-weight-warp rule, so weights change on Machine runs only.
    if "weight" in ops and not isinstance(machine, SmpMachine):
        nodes = [node for node in structure.iter_nodes()
                 if node.path not in ("/", "/tmp")]
        for node in rng.sample(nodes, min(2, len(nodes))):
            engine.at(rng.randint(20, 200) * MS, reweigh, node)
    if "move" in ops:
        engine.at(rng.randint(30, 200) * MS, move, rng.choice(threads[:2]))
    if "rmnod" in ops:
        engine.at(rng.randint(120, 220) * MS, remove_and_recreate)
    if "interrupt" in ops and not isinstance(machine, SmpMachine):
        for __ in range(4):
            engine.at(rng.randint(5, 230) * MS, machine.interrupt,
                      rng.randint(50, 900) * 1000)


def _run(params, attach):
    """Run the scenario, attaching ``attach()``'s observers in each window.

    ``attach`` returns the list of observers for a window (built once, so
    the same collector spans several windows); returns the render of the
    first observer.
    """
    seed, depth, exact, smp, ops, windows = params
    machine, structure, __ = _scenario(seed, depth, exact, smp, ops)
    observers = attach()
    for start, end in windows:
        machine.run_until(start)
        subscriptions = [ev.BUS.subscription(obs) for obs in observers]
        for sub in subscriptions:
            sub.__enter__()
        try:
            machine.run_until(end)
        finally:
            for sub in reversed(subscriptions):
                sub.__exit__(None, None, None)
    machine.run_until(HORIZON)
    assert ev.BUS.tally is None, "every collector was detached"
    return render_schedstat(structure, observers[0])


_WINDOWS = st.sampled_from([
    ((0, HORIZON),),
    ((60 * MS, 170 * MS),),
    ((0, 90 * MS), (130 * MS, HORIZON)),
    ((35 * MS, 110 * MS), (110 * MS, 200 * MS)),
])

_OPS = st.frozensets(st.sampled_from(["weight", "move", "rmnod",
                                      "interrupt"]))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), depth=st.integers(1, 8),
       exact=st.booleans(), smp=st.booleans(), ops=_OPS, windows=_WINDOWS)
def test_native_counts_match_the_event_fold(seed, depth, exact, smp, ops,
                                            windows):
    params = (seed, depth, exact, smp, ops, windows)
    native = _run(params, lambda: [SchedStat()])
    oracle = _run(params, lambda: [EventFold()])
    both = _run(params, lambda: [SchedStat(), [].append])
    assert native == oracle
    assert both == oracle


def _sibling_threads(seed, collector):
    """Two threads under one node, on two CPUs; returns the structure."""
    _reset_global_counters()
    structure = SchedulingStructure(FLOAT)
    node = structure.mknod("n", 1)
    threads = []
    for index, burst in enumerate((300_000, 40_000)):
        leaf = structure.mknod("l%d" % index, 1, parent=node,
                               scheduler=SfqScheduler(FLOAT))
        thread = SimThread("t%d" % index, InteractiveWorkload(
            burst_work=burst, think_time=(index + 1) * MS,
            rng=make_rng(seed, "sibling/%d" % index)))
        leaf.attach_thread(thread)
        threads.append(thread)
    machine = SmpMachine(Simulator(), HierarchicalScheduler(structure),
                         num_cpus=2, capacity_ips=100_000_000,
                         default_quantum=2 * MS)
    for thread in threads:
        machine.spawn(thread)
    with ev.BUS.subscription(collector):
        machine.run_until(200 * MS)
    return structure


def test_smp_finish_tags_can_drop():
    """A withdrawn node charged twice restamps F from one start tag.

    While both siblings run, ``/n`` is dormant in the root queue, so the
    second charge can leave a lower finish tag than the first reported:
    ``F_max`` must be the largest reported, not the final tag.
    """
    dropped = 0
    for seed in range(30, 40):
        oracle = EventFold()
        structure = _sibling_threads(seed, oracle)
        native = SchedStat()
        assert render_schedstat(_sibling_threads(seed, native), native) \
            == render_schedstat(structure, oracle)
        node = structure.parse("/n")
        final = float(structure.root.queue.finish_tag(node))
        dropped += oracle.nodes["/n"].max_finish > final
    assert dropped, "no seed exercised a dropping finish tag"


class TestBusProtocol:
    def test_collector_does_not_switch_to_traced_walks(self):
        bus = ev.EventBus()
        with bus.subscription(SchedStat()):
            assert not bus.active
            assert bus.observed
            assert bus.tally is not None
        assert bus.tally is None and not bus.observed

    def test_nested_collectors_each_see_their_own_window(self):
        params = (7, 4, False, False, frozenset(), ((0, HORIZON),))
        machine, __, __ = _scenario(*params[:5])
        outer, inner = SchedStat(), SchedStat()
        with ev.BUS.subscription(outer):
            machine.run_until(80 * MS)
            with ev.BUS.subscription(inner):
                machine.run_until(160 * MS)
            machine.run_until(HORIZON)
        alone = SchedStat()
        machine, __, __ = _scenario(*params[:5])
        machine.run_until(80 * MS)
        with ev.BUS.subscription(alone):
            machine.run_until(160 * MS)
        assert inner.to_dict() == alone.to_dict()
        assert outer.events_seen > inner.events_seen > 0

    def test_rare_kinds_reach_collectors_through_the_bus(self):
        machine, structure, __ = _scenario(3, 2, True, False, frozenset())
        stats = SchedStat()
        with ev.BUS.subscription(stats):
            leaf = next(structure.iter_leaves())
            hsfq_admin(structure, leaf.node_id, HSFQ_ADMIN_SETWEIGHT, 7)
        assert stats.events_seen == 1
        assert stats.nodes == {}
