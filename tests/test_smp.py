"""The multiprocessor machine extension."""

import pytest

from repro.core.hierarchy import HierarchicalScheduler
from repro.core.structure import SchedulingStructure
from repro.cpu.flat import FlatScheduler
from repro.errors import SimulationError
from repro.schedulers.sfq_leaf import SfqScheduler
from repro.sim.engine import Simulator
from repro.smp.machine import SmpMachine
from repro.sync.mutex import Acquire, Release, SimMutex
from repro.threads.segments import Compute, SegmentListWorkload, SleepFor
from repro.threads.states import ThreadState
from repro.threads.thread import SimThread
from repro.trace.recorder import Recorder
from repro.units import MS, SECOND
from repro.workloads.dhrystone import DhrystoneWorkload

CAPACITY = 1_000_000  # per CPU
KILO = 1000


class SmpHarness:
    def __init__(self, num_cpus=2):
        self.structure = SchedulingStructure()
        self.leaf = self.structure.mknod("/apps", 1,
                                         scheduler=SfqScheduler())
        self.engine = Simulator()
        self.recorder = Recorder()
        self.machine = SmpMachine(self.engine,
                                  HierarchicalScheduler(self.structure),
                                  num_cpus=num_cpus, capacity_ips=CAPACITY,
                                  default_quantum=10 * MS,
                                  tracer=self.recorder)

    def spawn_dhrystone(self, name, weight=1):
        thread = SimThread(name, DhrystoneWorkload(loop_cost=100, batch=10),
                           weight=weight)
        self.leaf.attach_thread(thread)
        self.machine.spawn(thread)
        return thread

    def spawn_segments(self, name, segments, weight=1):
        thread = SimThread(name, SegmentListWorkload(segments),
                           weight=weight)
        self.leaf.attach_thread(thread)
        self.machine.spawn(thread)
        return thread


class TestBasics:
    def test_invalid_config(self):
        engine = Simulator()
        scheduler = FlatScheduler(SfqScheduler())
        with pytest.raises(SimulationError):
            SmpMachine(engine, scheduler, num_cpus=0)
        with pytest.raises(SimulationError):
            SmpMachine(engine, scheduler, capacity_ips=0)

    def test_single_thread_uses_one_cpu(self):
        harness = SmpHarness(num_cpus=2)
        thread = harness.spawn_dhrystone("solo")
        harness.machine.run_until(SECOND)
        # one sequential thread cannot exceed one CPU of work
        assert thread.stats.work_done == 1000 * KILO
        assert harness.machine.utilization() == pytest.approx(0.5,
                                                              abs=0.01)

    def test_idle_cpus_stop_at_first_empty_pick(self):
        """Spawning one thread on four idle CPUs picks twice: once for
        the thread, once to find nothing left -- the last two CPUs are
        not polled."""
        harness = SmpHarness(num_cpus=4)
        scheduler = harness.machine.scheduler
        picks = []
        real_pick = scheduler.pick_next

        def counting_pick(now):
            picks.append(now)
            return real_pick(now)

        scheduler.pick_next = counting_pick
        harness.spawn_dhrystone("solo")
        assert len(picks) == 2
        busy = [cpu for cpu in harness.machine.cpus if cpu.current is not None]
        assert len(busy) == 1

    def test_two_threads_run_in_parallel(self):
        harness = SmpHarness(num_cpus=2)
        a = harness.spawn_segments("a", [Compute(100 * KILO)])
        b = harness.spawn_segments("b", [Compute(100 * KILO)])
        harness.machine.run_until(SECOND)
        # both finish at 100 ms: true parallelism
        assert a.stats.exited_at == 100 * MS
        assert b.stats.exited_at == 100 * MS

    def test_slices_overlap_at_most_num_cpus(self):
        harness = SmpHarness(num_cpus=2)
        threads = [harness.spawn_dhrystone("t%d" % i) for i in range(5)]
        harness.machine.run_until(SECOND)
        events = []
        for thread in threads:
            for t0, t1, __ in harness.recorder.trace_of(thread).slices:
                events.append((t0, 1))
                events.append((t1, -1))
        events.sort()
        depth = 0
        for __, delta in events:
            depth += delta
            assert depth <= 2

    def test_total_throughput_is_num_cpus(self):
        harness = SmpHarness(num_cpus=3)
        threads = [harness.spawn_dhrystone("t%d" % i) for i in range(6)]
        harness.machine.run_until(SECOND)
        total = sum(t.stats.work_done for t in threads)
        assert total == pytest.approx(3000 * KILO, rel=0.001)

    def test_flush_at_horizon(self):
        harness = SmpHarness(num_cpus=2)
        a = harness.spawn_dhrystone("a")
        harness.machine.run_until(123456789)
        assert a.stats.work_done == pytest.approx(123456, abs=2)


class TestFairness:
    def test_feasible_weights_divide_capacity(self):
        harness = SmpHarness(num_cpus=2)
        a = harness.spawn_dhrystone("a", weight=1)
        b = harness.spawn_dhrystone("b", weight=2)
        c = harness.spawn_dhrystone("c", weight=1)
        harness.machine.run_until(4 * SECOND)
        total = sum(t.stats.work_done for t in (a, b, c))
        assert b.stats.work_done / total == pytest.approx(0.5, abs=0.02)
        assert a.stats.work_done / total == pytest.approx(0.25, abs=0.02)

    def test_infeasible_weight_saturates_one_cpu(self):
        harness = SmpHarness(num_cpus=2)
        heavy = harness.spawn_dhrystone("heavy", weight=100)
        light1 = harness.spawn_dhrystone("l1", weight=1)
        light2 = harness.spawn_dhrystone("l2", weight=1)
        harness.machine.run_until(4 * SECOND)
        # heavy cannot exceed one CPU; the lights split the other
        assert heavy.stats.work_done == pytest.approx(4000 * KILO,
                                                      rel=0.01)
        assert light1.stats.work_done == pytest.approx(2000 * KILO,
                                                       rel=0.05)

    def test_sleeping_thread_gets_no_credit(self):
        harness = SmpHarness(num_cpus=2)
        a = harness.spawn_dhrystone("a")
        b = harness.spawn_dhrystone("b")
        late = harness.spawn_segments(
            "late", [SleepFor(SECOND), Compute(5000 * KILO)])
        harness.machine.run_until(2 * SECOND)
        # after waking, late shares fairly; it gets no catch-up burst
        # (in [1 s, 2 s] three threads share 2 CPUs: 2/3 CPU each)
        assert late.stats.work_done == pytest.approx(667 * KILO, rel=0.05)


class TestSmpSync:
    def test_mutex_serializes_across_cpus(self):
        harness = SmpHarness(num_cpus=2)
        mutex = SimMutex("m")
        a = harness.spawn_segments("a", [Acquire(mutex), Compute(50 * KILO),
                                         Release(mutex)])
        b = harness.spawn_segments("b", [Acquire(mutex), Compute(50 * KILO),
                                         Release(mutex)])
        harness.machine.run_until(SECOND)
        # despite two CPUs, the critical sections serialize: 100 ms total
        assert max(a.stats.exited_at, b.stats.exited_at) == 100 * MS
        # and the slices never overlap
        slices = []
        for thread in (a, b):
            slices.extend((t0, t1) for t0, t1, __ in
                          harness.recorder.trace_of(thread).slices)
        slices.sort()
        for (a0, a1), (b0, b1) in zip(slices, slices[1:]):
            assert a1 <= b0

    def test_exit_states_clean(self):
        harness = SmpHarness(num_cpus=2)
        threads = [
            harness.spawn_segments("t%d" % i, [Compute(10 * KILO),
                                               SleepFor(5 * MS),
                                               Compute(10 * KILO)])
            for i in range(4)
        ]
        harness.machine.run_until(SECOND)
        assert all(t.state is ThreadState.EXITED for t in threads)
        assert all(t.stats.work_done == 20 * KILO for t in threads)
