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

Work/time units, workload segments (including synchronization), tracing
hooks, and statistics match the uniprocessor machine, so all metrics and
analysis code work unchanged — slices from different CPUs may overlap in
time, which is exactly what the SMP fairness analysis needs to see.
"""

from __future__ import annotations

from typing import List, Optional

from repro.cpu.interface import TopScheduler
from repro.devtools.schedsan import maybe_wrap as _schedsan_wrap
from repro.errors import SchedulingError, SimulationError, WorkloadError
from repro.obs import events as obs
from repro.obs.tally import (
    R_BLOCKS,
    R_CHARGES,
    R_DISPATCHES,
    R_SERVICE,
    R_WAKES,
    T_EVENTS,
    thread_record,
)
from repro.sim.engine import Simulator
from repro.sync.mutex import Acquire, Release
from repro.sync.semaphore import Down, Notify, Up, WaitOn
from repro.threads.segments import Compute, Exit, SleepFor, SleepUntil
from repro.threads.states import ThreadState
from repro.threads.thread import SimThread
from repro.units import MS, SECOND, work_from_time

#: module-level alias of the process-wide bus: emit-site guards are on
#: the per-dispatch hot path, and `_BUS.active` is one attribute lookup
#: cheaper than `obs.BUS.active`.
_BUS = obs.BUS

_MAX_SEGMENT_PULLS = 1000


def _leaf_path(thread: SimThread) -> str:
    """Pathname of the thread's leaf node, "/" for flat schedulers."""
    leaf = thread.leaf
    return leaf.path if leaf is not None else "/"


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


class SmpMachine:
    """``num_cpus`` identical CPUs sharing one scheduler."""

    PRIORITY_WAKEUP = 0
    PRIORITY_COMPLETION = 10

    def __init__(self, engine: Simulator, scheduler: TopScheduler,
                 num_cpus: int = 2, capacity_ips: int = 100_000_000,
                 default_quantum: int = 20 * MS, tracer=None) -> None:
        if num_cpus <= 0:
            raise SimulationError("need at least one CPU")
        if capacity_ips <= 0 or default_quantum <= 0:
            raise SimulationError("capacity and quantum must be positive")
        self.engine = engine
        # Opt-in sanitizer (REPRO_SCHEDSAN=1); pass-through when disabled.
        scheduler = _schedsan_wrap(scheduler)
        self.scheduler = scheduler
        self.capacity_ips = capacity_ips  # per CPU
        self.default_quantum = default_quantum
        #: default quantum pre-converted to instructions (per-dispatch path)
        self._default_quantum_work = work_from_time(default_quantum, capacity_ips)
        self.tracer = tracer
        self.cpus = [_Cpu(index) for index in range(num_cpus)]
        self.threads: List[SimThread] = []
        self.busy_time = 0  # summed over CPUs
        self.dispatches = 0
        if hasattr(scheduler, "clock"):
            scheduler.clock = lambda: self.engine.now

    # --- public API ------------------------------------------------------

    @property
    def num_cpus(self) -> int:
        """Number of CPUs in the machine."""
        return len(self.cpus)

    def spawn(self, thread: SimThread, at: Optional[int] = None) -> SimThread:
        """Create ``thread`` now or at absolute time ``at``."""
        self.threads.append(thread)
        if at is None or at <= self.engine.now:
            self._do_spawn(thread)
        else:
            self.engine.at(at, self._do_spawn, thread)
        return thread

    def run_until(self, time: int) -> None:
        """Advance to ``time``; in-flight bursts have their work settled."""
        self.engine.run_until(time)
        for cpu in self.cpus:
            self._flush_burst(cpu)

    def utilization(self) -> float:
        """Mean fraction of CPU-time spent executing threads."""
        if self.engine.now == 0:
            return 0.0  # derived metric, not state  # schedlint: disable=SL004
        return self.busy_time / (self.engine.now * self.num_cpus)  # schedlint: disable=SL004

    # --- spawning / workload ------------------------------------------------

    def _do_spawn(self, thread: SimThread) -> None:
        thread.stats.created_at = self.engine.now
        self.scheduler.admit(thread)
        if self.tracer is not None:
            self.tracer.on_spawn(thread, self.engine.now)
        if _BUS.tally is not None:
            _BUS.tally[T_EVENTS] += 1
        if _BUS.active:
            _BUS.emit(obs.SPAWN, self.engine.now, tid=thread.tid,
                         name=thread.name, node=_leaf_path(thread),
                         weight=thread.weight)
        self._settle(thread)

    def _settle(self, thread: SimThread) -> None:
        now = self.engine.now
        outcome, wake_time = self._advance_workload(thread)
        if outcome == "run":
            self._make_runnable(thread)
        elif outcome == "sleep":
            if thread.state is not ThreadState.SLEEPING:
                thread.transition(ThreadState.SLEEPING)
            self._schedule_wakeup(thread, wake_time)
        elif outcome == "wait":
            if thread.state is not ThreadState.SLEEPING:
                thread.transition(ThreadState.SLEEPING)
            if self.tracer is not None:
                self.tracer.on_block(thread, now, -1)
            if _BUS.tally is not None:
                thread_record(_BUS.tally, thread)[R_BLOCKS] += 1
            if _BUS.active:
                _BUS.emit(obs.BLOCK, now, tid=thread.tid,
                             node=_leaf_path(thread), wake=-1)
        else:
            thread.transition(ThreadState.EXITED)
            thread.stats.exited_at = now
            self._release_held_mutexes(thread)
            if _BUS.tally is not None:
                _BUS.tally[T_EVENTS] += 1
            if _BUS.active:
                _BUS.emit(obs.EXIT, now, tid=thread.tid,
                             node=_leaf_path(thread))
            self.scheduler.retire(thread, now)
            if self.tracer is not None:
                self.tracer.on_exit(thread, now)

    def _advance_workload(self, thread: SimThread):
        now = self.engine.now
        for __ in range(_MAX_SEGMENT_PULLS):
            segment = thread.workload.next_segment(now, thread)
            if segment is None or isinstance(segment, Exit):
                return "exit", None
            if isinstance(segment, Compute):
                thread.remaining_work = segment.work
                return "run", None
            if isinstance(segment, SleepFor):
                if segment.duration == 0:
                    continue
                return "sleep", now + segment.duration
            if isinstance(segment, SleepUntil):
                if segment.wakeup <= now:
                    continue
                return "sleep", segment.wakeup
            if isinstance(segment, Acquire):
                if segment.mutex.try_acquire(thread):
                    thread.held_mutexes.append(segment.mutex)
                    continue
                segment.mutex.enqueue_waiter(thread)
                return "wait", None
            if isinstance(segment, Release):
                self._release_mutex(thread, segment.mutex)
                continue
            if isinstance(segment, Down):
                if segment.semaphore.try_down(thread):
                    continue
                segment.semaphore.enqueue_waiter(thread)
                return "wait", None
            if isinstance(segment, Up):
                granted = segment.semaphore.up()
                if granted is not None:
                    self._defer_wake(granted)
                continue
            if isinstance(segment, WaitOn):
                segment.queue.enqueue_waiter(thread)
                return "wait", None
            if isinstance(segment, Notify):
                for woken in segment.queue.notify(segment.count):
                    self._defer_wake(woken)
                continue
            raise WorkloadError("unknown segment %r" % (segment,))
        raise WorkloadError("workload for %r never yields work" % (thread,))

    # --- wakeups --------------------------------------------------------------

    def _make_runnable(self, thread: SimThread) -> None:
        now = self.engine.now
        thread.transition(ThreadState.RUNNABLE)
        thread.last_runnable_at = now
        if self.tracer is not None:
            self.tracer.on_runnable(thread, now)
        if _BUS.tally is not None:
            _BUS.tally[T_EVENTS] += 1
        if _BUS.active:
            _BUS.emit(obs.RUNNABLE, now, tid=thread.tid,
                         node=_leaf_path(thread))
        self.scheduler.thread_runnable(thread, now)
        self._dispatch_idle_cpus()

    def _schedule_wakeup(self, thread: SimThread, wake_time: int) -> None:
        if self.tracer is not None:
            self.tracer.on_block(thread, self.engine.now, wake_time)
        if _BUS.tally is not None:
            thread_record(_BUS.tally, thread)[R_BLOCKS] += 1
        if _BUS.active:
            _BUS.emit(obs.BLOCK, self.engine.now, tid=thread.tid,
                         node=_leaf_path(thread), wake=wake_time)
        thread.wakeup_handle = self.engine.at(
            wake_time, self._on_wakeup, thread, priority=self.PRIORITY_WAKEUP)

    def _on_wakeup(self, thread: SimThread) -> None:
        thread.wakeup_handle = None
        thread.stats.wakeups += 1
        if self.tracer is not None:
            self.tracer.on_wake(thread, self.engine.now)
        if _BUS.tally is not None:
            thread_record(_BUS.tally, thread)[R_WAKES] += 1
        if _BUS.active:
            _BUS.emit(obs.WAKE, self.engine.now, tid=thread.tid,
                         node=_leaf_path(thread))
        if thread.remaining_work > 0:
            self._make_runnable(thread)
        else:
            self._settle(thread)

    def _defer_wake(self, thread: SimThread) -> None:
        self.engine.at(self.engine.now, self._on_wakeup, thread,
                       priority=self.PRIORITY_WAKEUP)

    # --- dispatching --------------------------------------------------------------

    def _dispatch_idle_cpus(self) -> None:
        for cpu in self.cpus:
            if cpu.current is None:
                self._dispatch(cpu)

    def _dispatch(self, cpu: _Cpu) -> None:
        now = self.engine.now
        # One scheduler call instead of has_runnable() + pick_next():
        # pick_next returns None when nothing is runnable (interface
        # contract), so has_runnable() is only consulted to keep the
        # contract-violation diagnostic.
        thread = self.scheduler.pick_next(now)
        if thread is None:
            if self.scheduler.has_runnable():
                raise SchedulingError(
                    "scheduler claimed runnable work, got None")
            return
        # Withdraw the thread for the duration of service: no other CPU
        # may pick it; tags are untouched until the charge.
        self.scheduler.thread_blocked(thread, now)
        thread.transition(ThreadState.RUNNING)
        cpu.current = thread
        self.dispatches += 1
        thread.stats.dispatches += 1
        quantum_ns = self.scheduler.quantum_for(thread)
        if quantum_ns is None:
            cpu.quantum_left = self._default_quantum_work
        else:
            cpu.quantum_left = work_from_time(quantum_ns, self.capacity_ips)
        if cpu.quantum_left <= 0:
            raise SimulationError("quantum too small for capacity")
        cpu.quantum_done = 0
        if self.tracer is not None:
            self.tracer.on_dispatch(thread, now)
        if _BUS.tally is not None:
            thread_record(_BUS.tally, thread)[R_DISPATCHES] += 1
        if _BUS.active:
            _BUS.emit(obs.DISPATCH, now, tid=thread.tid,
                         name=thread.name, node=_leaf_path(thread),
                         cpu=cpu.index, depth=self.scheduler.decision_depth,
                         switched=True, overhead_ns=0,
                         quantum_work=cpu.quantum_left)
        self._begin_burst(cpu)

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
        now = self.engine.now
        thread.remaining_work -= executed
        cpu.quantum_left -= executed
        cpu.quantum_done += executed
        elapsed = now - cpu.burst_start
        thread.stats.work_done += executed
        thread.stats.cpu_time += elapsed
        self.busy_time += elapsed
        if self.tracer is not None:
            self.tracer.on_slice(thread, cpu.burst_start, now, executed)
        if _BUS.tally is not None:
            _BUS.tally[T_EVENTS] += 1
        if _BUS.active:
            _BUS.emit(obs.SLICE, now, tid=thread.tid, name=thread.name,
                         node=_leaf_path(thread), cpu=cpu.index,
                         start=cpu.burst_start, work=executed)

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
        now = self.engine.now
        cpu.current = None

        if thread.remaining_work > 0:
            outcome, wake_time = "run", None
        else:
            thread.stats.segments_completed += 1
            if self.tracer is not None:
                self.tracer.on_segment_complete(thread, now)
            outcome, wake_time = self._advance_workload(thread)

        if outcome == "run":
            thread.transition(ThreadState.RUNNABLE)
        elif outcome in ("sleep", "wait"):
            thread.transition(ThreadState.SLEEPING)
            thread.stats.blocks += 1
        else:
            thread.transition(ThreadState.EXITED)
            thread.stats.exited_at = now

        if cpu.quantum_done > 0:
            self.scheduler.charge(thread, cpu.quantum_done, now)
            if self.tracer is not None:
                self.tracer.on_charge(thread, now, cpu.quantum_done)
            if _BUS.tally is not None:
                record = thread_record(_BUS.tally, thread)
                record[R_CHARGES] += 1
                record[R_SERVICE] += cpu.quantum_done
            if _BUS.active:
                _BUS.emit(obs.CHARGE, now, tid=thread.tid,
                             node=_leaf_path(thread), work=cpu.quantum_done)
        cpu.quantum_done = 0
        cpu.quantum_left = 0

        if outcome == "run":
            # re-enter the queues with a fresh stamp S = max(v, F)
            self.scheduler.thread_runnable(thread, now)
        elif outcome == "sleep":
            self._schedule_wakeup(thread, wake_time)
        elif outcome == "wait":
            if self.tracer is not None:
                self.tracer.on_block(thread, now, -1)
            if _BUS.tally is not None:
                thread_record(_BUS.tally, thread)[R_BLOCKS] += 1
            if _BUS.active:
                _BUS.emit(obs.BLOCK, now, tid=thread.tid,
                             node=_leaf_path(thread), wake=-1)
        else:
            self._release_held_mutexes(thread)
            if _BUS.tally is not None:
                _BUS.tally[T_EVENTS] += 1
            if _BUS.active:
                _BUS.emit(obs.EXIT, now, tid=thread.tid,
                             node=_leaf_path(thread))
            self.scheduler.retire(thread, now)
            if self.tracer is not None:
                self.tracer.on_exit(thread, now)

        self._dispatch_idle_cpus()

    # --- mutexes -----------------------------------------------------------------

    def _release_mutex(self, thread: SimThread, mutex) -> None:
        thread.held_mutexes.remove(mutex)
        granted = mutex.release(thread)
        if granted is not None:
            granted.held_mutexes.append(mutex)
            self._defer_wake(granted)

    def _release_held_mutexes(self, thread: SimThread) -> None:
        while thread.held_mutexes:
            self._release_mutex(thread, thread.held_mutexes[-1])
