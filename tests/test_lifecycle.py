"""The thread lifecycle both machines inherit (repro.cpu.lifecycle).

Every test runs on the uniprocessor and on one- and two-CPU SMP machines:
the workload-segment protocol, its errors, and exit-time mutex release
are one implementation, so they must behave the same on each.
"""

import pytest

from repro.core.hierarchy import HierarchicalScheduler
from repro.core.structure import SchedulingStructure
from repro.cpu.machine import Machine
from repro.errors import WorkloadError
from repro.schedulers.sfq_leaf import SfqScheduler
from repro.sim.engine import Simulator
from repro.smp.machine import SmpMachine
from repro.sync.mutex import Acquire, Release, SimMutex
from repro.threads.segments import Compute, SegmentListWorkload, SleepFor
from repro.threads.states import ThreadState
from repro.threads.thread import SimThread
from repro.trace.recorder import Recorder
from repro.units import MS, SECOND

CAPACITY = 1_000_000

MACHINES = {
    "uniprocessor": lambda engine, sched, tracer: Machine(
        engine, sched, capacity_ips=CAPACITY, default_quantum=10 * MS,
        tracer=tracer),
    "smp1": lambda engine, sched, tracer: SmpMachine(
        engine, sched, num_cpus=1, capacity_ips=CAPACITY,
        default_quantum=10 * MS, tracer=tracer),
    "smp2": lambda engine, sched, tracer: SmpMachine(
        engine, sched, num_cpus=2, capacity_ips=CAPACITY,
        default_quantum=10 * MS, tracer=tracer),
}


class Bogus:
    """A segment no machine understands."""

    def __repr__(self):
        return "Bogus()"


class Rig:
    def __init__(self, kind):
        structure = SchedulingStructure()
        self.leaf = structure.mknod("/apps", 1, scheduler=SfqScheduler())
        self.engine = Simulator()
        self.recorder = Recorder()
        self.machine = MACHINES[kind](
            self.engine, HierarchicalScheduler(structure), self.recorder)

    def spawn(self, name, segments):
        thread = SimThread(name, SegmentListWorkload(segments))
        self.leaf.attach_thread(thread)
        self.machine.spawn(thread)
        return thread


@pytest.fixture(params=sorted(MACHINES))
def rig(request):
    return Rig(request.param)


def test_unknown_segment_names_workload_and_segment(rig):
    thread = SimThread("t", SegmentListWorkload([Bogus()]))
    rig.leaf.attach_thread(thread)
    with pytest.raises(WorkloadError) as info:
        rig.machine.spawn(thread)
    message = str(info.value)
    assert repr(thread.workload) in message
    assert "Bogus()" in message


def test_unknown_segment_after_compute_raises_at_dispatch_end(rig):
    rig.spawn("t", [Compute(1000), Bogus()])
    with pytest.raises(WorkloadError, match=r"unknown segment Bogus\(\)"):
        rig.machine.run_until(SECOND)


def test_thousand_zero_length_segments_raise(rig):
    with pytest.raises(WorkloadError, match="1000 zero-length segments"):
        rig.spawn("t", [SleepFor(0)] * 1000 + [Compute(1000)])


def test_fewer_zero_length_segments_are_skipped(rig):
    thread = rig.spawn("t", [SleepFor(0)] * 999 + [Compute(1000)])
    rig.machine.run_until(SECOND)
    assert thread.state is ThreadState.EXITED
    assert thread.stats.work_done == 1000


def test_exit_while_holding_mutex_wakes_waiter_once(rig):
    mutex = SimMutex("m")
    holder = rig.spawn("holder", [Acquire(mutex), Compute(10_000)])
    waiter = rig.spawn("waiter", [Acquire(mutex), Compute(5_000),
                                  Release(mutex)])
    assert waiter.state is ThreadState.SLEEPING
    rig.machine.run_until(SECOND)

    assert holder.state is ThreadState.EXITED
    assert waiter.state is ThreadState.EXITED
    assert holder.held_mutexes == [] and waiter.held_mutexes == []
    assert not mutex.locked
    assert waiter.stats.wakeups == 1
    assert len(rig.recorder.trace_of(waiter).wakes) == 1
    assert waiter.stats.work_done == 5_000
    # the waiter ran only once the holder had exited
    assert rig.recorder.trace_of(waiter).dispatches[0] >= holder.stats.exited_at
