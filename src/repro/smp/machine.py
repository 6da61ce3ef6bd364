"""The multiprocessor machine.

``p`` identical CPUs drive one shared :class:`~repro.cpu.interface.TopScheduler`.
Relative to the uniprocessor :class:`~repro.cpu.machine.Machine` the model
is simplified where parallelism would not change the studied behaviour:

* a dispatched thread is withdrawn from the scheduler (``thread_blocked``)
  for the duration of its quantum and re-submitted (``thread_runnable``)
  after the charge — "in service" entities therefore never appear twice;
* no interrupt sources or scheduling-cost models (use the uniprocessor
  machine for those studies);
* quanta run to completion (no preemption), as in the paper.

Both machines inherit the thread lifecycle -- spawn, workload segments
(including synchronization), sleep/wakeup, exit -- and the dispatch
cycle -- the pick, dispatch accounting, slice booking, the
end-of-dispatch settle and charge, their tracer and bus sites, and
:class:`~repro.cpu.lifecycle.MachineStats` -- from
:class:`~repro.cpu.lifecycle.ThreadLifecycle`, so they match the
uniprocessor by construction.  This module keeps only burst timing, the
per-CPU state and the withdraw-and-resubmit requeue.  All metrics and
analysis code work unchanged — slices from different CPUs may overlap
in time, which is exactly what the SMP fairness analysis needs to see —
and ``stats.busy_time`` is summed over CPUs.
"""

from __future__ import annotations

from typing import Optional

from repro.cpu.interface import TopScheduler
from repro.cpu.lifecycle import _OUTCOME_RUN, ThreadLifecycle
from repro.errors import SimulationError
from repro.sim.engine import Simulator
from repro.threads.thread import SimThread
from repro.units import MS, SECOND, work_from_time


class _Cpu:
    """Per-CPU dispatch state."""

    __slots__ = ("index", "current", "quantum_left", "quantum_done",
                 "burst_planned", "burst_start", "burst_handle")

    def __init__(self, index: int) -> None:
        self.index = index
        self.current: Optional[SimThread] = None
        self.quantum_left = 0
        self.quantum_done = 0
        self.burst_planned = 0
        self.burst_start = 0
        self.burst_handle = None


class SmpMachine(ThreadLifecycle):
    """``num_cpus`` identical CPUs sharing one scheduler."""

    PRIORITY_COMPLETION = 10

    def __init__(self, engine: Simulator, scheduler: TopScheduler,
                 num_cpus: int = 2, capacity_ips: int = 100_000_000,
                 default_quantum: int = 20 * MS, tracer=None) -> None:
        if num_cpus <= 0:
            raise SimulationError("need at least one CPU")
        if capacity_ips <= 0 or default_quantum <= 0:
            raise SimulationError("capacity and quantum must be positive")
        super().__init__(engine, scheduler, tracer)
        self._turbo_wake = None
        self.capacity_ips = capacity_ips  # per CPU
        self.default_quantum = default_quantum
        #: default quantum pre-converted to instructions (per-dispatch path)
        self._default_quantum_work = work_from_time(default_quantum, capacity_ips)
        self.cpus = [_Cpu(index) for index in range(num_cpus)]

    # --- public API ------------------------------------------------------

    @property
    def num_cpus(self) -> int:
        """Number of CPUs in the machine."""
        return len(self.cpus)

    def run_until(self, time: int) -> None:
        """Advance to ``time``; in-flight bursts have their work settled."""
        self.engine.run_until(time)
        for cpu in self.cpus:
            self._flush_burst(cpu)

    def utilization(self) -> float:
        """Mean fraction of CPU-time spent executing threads."""
        if self.engine.now == 0:
            return 0.0  # derived metric, not state  # schedlint: disable=SL004
        return self.stats.busy_time / (self.engine.now * self.num_cpus)  # schedlint: disable=SL004

    # --- dispatching --------------------------------------------------------------

    def _kick(self, thread: SimThread, now: int) -> None:
        """``thread`` just became runnable: give it any idle CPU."""
        self._dispatch_idle_cpus()

    def _requeue(self, thread: SimThread, outcome: str, now: int) -> None:
        """Re-submit a thread that still has work; it was withdrawn at
        dispatch, so a sleep needs no ``thread_blocked``."""
        if outcome == _OUTCOME_RUN:
            # re-enter the queues with a fresh stamp S = max(v, F)
            self.scheduler.thread_runnable(thread, now)

    def _dispatch_idle_cpus(self) -> None:
        # Stop at the first pick that finds nothing runnable: dispatching
        # a CPU never makes a thread runnable, so every later pick in
        # this pass would come back empty too.
        for cpu in self.cpus:
            if cpu.current is None and not self._dispatch(cpu):
                return

    def _dispatch(self, cpu: _Cpu) -> bool:
        """Dispatch the next thread on idle ``cpu``; False if none is runnable."""
        now = self.engine.now
        thread = self._pick(now)
        if thread is None:
            return False
        # Withdraw the thread for the duration of service: no other CPU
        # may pick it; tags are untouched until the charge.
        self.scheduler.thread_blocked(thread, now)
        cpu.current = thread
        cpu.quantum_left = self._begin_dispatch(thread, now, cpu.index,
                                                True, 0)
        cpu.quantum_done = 0
        self._begin_burst(cpu)
        return True

    def _begin_burst(self, cpu: _Cpu) -> None:
        thread = cpu.current
        assert thread is not None
        planned = min(thread.remaining_work, cpu.quantum_left)
        if planned <= 0:
            raise SimulationError("empty burst on cpu%d" % cpu.index)
        cpu.burst_planned = planned
        cpu.burst_start = self.engine.now
        # time_from_work(planned, capacity) inlined: planned > 0 was just
        # checked and capacity was validated at construction.
        duration = -((-planned * SECOND) // self.capacity_ips)
        cpu.burst_handle = self.engine.at(
            self.engine.now + duration, self._on_burst_complete, cpu,
            priority=self.PRIORITY_COMPLETION)

    def _account_burst(self, cpu: _Cpu, executed: int) -> None:
        thread = cpu.current
        assert thread is not None
        if executed <= 0:
            return
        cpu.quantum_left -= executed
        cpu.quantum_done += executed
        self._book_slice(thread, cpu.index, cpu.burst_start,
                         self.engine.now, executed)

    def _on_burst_complete(self, cpu: _Cpu) -> None:
        cpu.burst_handle = None
        self._account_burst(cpu, cpu.burst_planned)
        self._finish_dispatch(cpu)

    def _flush_burst(self, cpu: _Cpu) -> None:
        if cpu.current is None or cpu.burst_handle is None:
            return
        elapsed = self.engine.now - cpu.burst_start
        executed = min(work_from_time(elapsed, self.capacity_ips),
                       cpu.burst_planned)
        self.engine.cancel(cpu.burst_handle)
        cpu.burst_handle = None
        self._account_burst(cpu, executed)
        if cpu.current.remaining_work == 0 or cpu.quantum_left == 0:
            self._finish_dispatch(cpu)
        else:
            self._begin_burst(cpu)

    def _finish_dispatch(self, cpu: _Cpu) -> None:
        thread = cpu.current
        assert thread is not None
        done = cpu.quantum_done
        cpu.current = None
        cpu.quantum_done = 0
        cpu.quantum_left = 0
        self._end_dispatch(thread, done, self.engine.now)
        self._dispatch_idle_cpus()
