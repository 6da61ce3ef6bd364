"""Property-based tests of the SMP machine (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hierarchy import HierarchicalScheduler
from repro.core.structure import SchedulingStructure
from repro.schedulers.sfq_leaf import SfqScheduler
from repro.sim.engine import Simulator
from repro.smp.machine import SmpMachine
from repro.threads.segments import Compute, SegmentListWorkload, SleepFor
from repro.threads.states import ThreadState
from repro.threads.thread import SimThread
from repro.trace.recorder import Recorder
from repro.units import MS, SECOND

CAPACITY = 1_000_000
KILO = 1000

scripts = st.lists(
    st.lists(st.tuples(st.integers(1, 30), st.integers(0, 25)),
             min_size=1, max_size=4),
    min_size=2, max_size=6)


def run_smp(num_cpus, thread_scripts):
    structure = SchedulingStructure()
    leaf = structure.mknod("/apps", 1, scheduler=SfqScheduler())
    engine = Simulator()
    recorder = Recorder()
    machine = SmpMachine(engine, HierarchicalScheduler(structure),
                         num_cpus=num_cpus, capacity_ips=CAPACITY,
                         default_quantum=10 * MS, tracer=recorder)
    threads = []
    expected = {}
    for index, script in enumerate(thread_scripts):
        segments = []
        total = 0
        for work_kilo, sleep_ms in script:
            segments.append(Compute(work_kilo * KILO))
            total += work_kilo * KILO
            if sleep_ms:
                segments.append(SleepFor(sleep_ms * MS))
        thread = SimThread("t%d" % index, SegmentListWorkload(segments),
                           weight=1 + index % 3)
        leaf.attach_thread(thread)
        machine.spawn(thread)
        threads.append(thread)
        expected[thread.tid] = total
    machine.run_until(60 * SECOND)
    return machine, recorder, threads, expected


class TestSmpProperties:
    @given(st.integers(1, 4), scripts)
    @settings(max_examples=50, deadline=None)
    def test_all_work_completes(self, num_cpus, thread_scripts):
        machine, recorder, threads, expected = run_smp(num_cpus,
                                                       thread_scripts)
        for thread in threads:
            assert thread.state is ThreadState.EXITED
            assert thread.stats.work_done == expected[thread.tid]

    @given(st.integers(1, 4), scripts)
    @settings(max_examples=50, deadline=None)
    def test_concurrency_never_exceeds_cpus(self, num_cpus, thread_scripts):
        machine, recorder, threads, expected = run_smp(num_cpus,
                                                       thread_scripts)
        events = []
        for thread in threads:
            for t0, t1, __ in recorder.trace_of(thread).slices:
                events.append((t0, 0, 1))
                events.append((t1, -1, -1))  # ends sort before same-time starts
        events.sort()
        depth = 0
        for __, ___, delta in events:
            depth += delta
            assert 0 <= depth <= num_cpus

    @given(st.integers(1, 4), scripts)
    @settings(max_examples=50, deadline=None)
    def test_busy_time_matches_work(self, num_cpus, thread_scripts):
        machine, recorder, threads, expected = run_smp(num_cpus,
                                                       thread_scripts)
        total_work = sum(expected.values())
        # 1 instruction per microsecond per CPU
        slack = machine.stats.dispatches * 1000 + 1000
        assert abs(machine.stats.busy_time - total_work * 1000) <= slack
