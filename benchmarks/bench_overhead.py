"""Wall-clock microbenchmarks of this implementation's scheduling path.

The paper's Figure 7 measures kernel overhead on hardware; the cost-model
benches in bench_figure7.py reproduce its *shape*.  These benches ground
the cost model in reality: the measured wall-clock cost of a pick/charge
round trip through the SFQ queue and the full hierarchy, plus the price of
exact Fraction tags versus floats (EXP-AB4's implementation side).
"""

import pytest

from repro.core.hierarchy import HierarchicalScheduler
from repro.core.sfq import SfqQueue
from repro.core.structure import SchedulingStructure
from repro.core.tags import TagMath
from repro.schedulers.sfq_leaf import SfqScheduler
from repro.schedulers.svr4 import Svr4TimeSharing
from repro.threads.segments import SegmentListWorkload
from repro.threads.states import ThreadState
from repro.threads.thread import SimThread


class Entity:
    __slots__ = ("weight",)

    def __init__(self, weight):
        self.weight = weight


def make_queue(entities: int, exact: bool) -> SfqQueue:
    queue = SfqQueue(TagMath(exact=exact))
    for index in range(entities):
        entity = Entity(1 + index % 7)
        queue.add(entity)
        queue.set_runnable(entity)
    return queue


@pytest.mark.parametrize("exact", [True, False],
                         ids=["fraction-tags", "float-tags"])
def test_sfq_pick_charge_roundtrip(benchmark, exact):
    queue = make_queue(8, exact)

    def roundtrip():
        entity = queue.pick()
        queue.charge(entity, 10_000)

    benchmark(roundtrip)


@pytest.mark.parametrize("entities", [2, 8, 32, 128])
def test_sfq_scaling_with_queue_size(benchmark, entities):
    queue = make_queue(entities, True)

    def roundtrip():
        entity = queue.pick()
        queue.charge(entity, 10_000)

    benchmark(roundtrip)


def build_hierarchy(depth: int):
    structure = SchedulingStructure()
    parent = structure.root
    for level in range(depth):
        parent = structure.mknod("l%d" % level, 1, parent=parent)
    leaf = structure.mknod("leaf", 1, parent=parent,
                           scheduler=SfqScheduler())
    scheduler = HierarchicalScheduler(structure)
    threads = []
    for index in range(4):
        thread = SimThread("t%d" % index, SegmentListWorkload([]))
        leaf.attach_thread(thread)
        thread.transition(ThreadState.RUNNABLE)
        scheduler.thread_runnable(thread, 0)
        threads.append(thread)
    return scheduler


@pytest.mark.parametrize("depth", [0, 5, 15, 30])
def test_hierarchical_decision_by_depth(benchmark, depth):
    """The Figure 7(b) quantity, measured in real nanoseconds."""
    scheduler = build_hierarchy(depth)

    def decision():
        thread = scheduler.pick_next(0)
        scheduler.charge(thread, 10_000, 0)

    benchmark(decision)


def test_svr4_pick_charge(benchmark):
    scheduler = Svr4TimeSharing()
    threads = []
    for index in range(8):
        thread = SimThread("t%d" % index, SegmentListWorkload([]))
        thread.transition(ThreadState.RUNNABLE)
        scheduler.add_thread(thread)
        scheduler.on_runnable(thread, 0)
        threads.append(thread)

    def roundtrip():
        thread = scheduler.pick_next(0)
        scheduler.charge(thread, 10_000, 0)

    benchmark(roundtrip)


@pytest.mark.parametrize("num_cpus", [1, 2, 4])
def test_smp_simulation_throughput(benchmark, num_cpus):
    """Wall-clock cost of one simulated second on the SMP machine."""
    from repro.core.hierarchy import HierarchicalScheduler
    from repro.core.structure import SchedulingStructure
    from repro.sim.engine import Simulator
    from repro.smp.machine import SmpMachine
    from repro.units import MS, SECOND
    from repro.workloads.dhrystone import DhrystoneWorkload

    def run_one_simulated_second():
        structure = SchedulingStructure()
        leaf = structure.mknod("/apps", 1, scheduler=SfqScheduler())
        machine = SmpMachine(Simulator(), HierarchicalScheduler(structure),
                             num_cpus=num_cpus, capacity_ips=1_000_000,
                             default_quantum=10 * MS)
        for index in range(2 * num_cpus):
            thread = SimThread("t%d" % index,
                               DhrystoneWorkload(loop_cost=100, batch=10))
            leaf.attach_thread(thread)
            machine.spawn(thread)
        machine.run_until(SECOND)
        return machine.stats.dispatches

    dispatches = benchmark(run_one_simulated_second)
    assert dispatches > 0


def test_simulation_event_throughput(benchmark):
    """Events/second of the discrete-event core (engine + machine)."""
    from tests.conftest import Harness
    from repro.units import SECOND

    def run_one_simulated_second():
        harness = Harness()
        for index in range(4):
            harness.spawn_dhrystone("t%d" % index)
        harness.machine.run_until(SECOND)
        return harness.machine.stats.dispatches

    dispatches = benchmark(run_one_simulated_second)
    assert dispatches > 0
