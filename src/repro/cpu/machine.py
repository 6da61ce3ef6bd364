"""The single-CPU machine.

The machine owns every thread state transition.  Everything that does
not depend on the CPU count -- spawn, workload segments, sleep/wakeup,
exit, and the dispatch cycle (the pick, dispatch accounting, slice
booking, the end-of-dispatch settle and charge, and their tracer and
bus sites) -- is inherited from
:class:`~repro.cpu.lifecycle.ThreadLifecycle`, shared with the SMP
machine.  This module adds burst timing, interrupts, preemption and the
scheduling-cost model.  Its execution model:

* Threads are dispatched for **quanta measured in work** (instructions):
  a quantum of ``q`` nanoseconds grants ``q * capacity / 1s`` instructions.
  Interrupts pause the running thread without consuming its quantum, which
  is exactly the paper's model of quantum lengths "measured in units of
  instructions" on a fluctuating-bandwidth CPU.
* A dispatched thread runs in **bursts**: a burst ends at segment
  completion, quantum exhaustion, an interrupt arrival (pause/resume), or a
  preemption.  At the end of the *dispatch* (not of each burst) the
  scheduler is charged once with the total executed work — SFQ's
  "quantum length known only at completion" property.
* Interrupt service occupies the CPU at top priority; service times queue
  FIFO.  Stolen time is tracked so analysis code can fit FC/EBF parameters.
* Scheduling decisions and context switches consume CPU according to a
  pluggable :class:`~repro.cpu.costs.SchedulingCostModel` (Figure 7).
* Requeue discipline: a thread stays queued while it runs; the scheduler
  hears ``thread_blocked`` when a dispatch ends in sleep or wait.

Event priorities at equal timestamps: interrupts fire first, then wakeups,
then burst completions, then deferred dispatch attempts.  This ordering is
deterministic and makes a thread waking exactly at a quantum boundary
eligible for that boundary's scheduling decision.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.engine import OPS as _ENGINE_OPS
from repro.cpu.costs import SchedulingCostModel
from repro.cpu.interface import TopScheduler
from repro.cpu.interrupts import InterruptSource
# The _OUTCOME_* names stay importable from here: the compiled engine
# (_sfqc.c) reads them from repro.cpu.machine.  So does MachineStats,
# which repro and repro.cpu export.
from repro.cpu.lifecycle import (  # noqa: F401 (re-exports)
    _OUTCOME_EXIT,
    _OUTCOME_RUN,
    _OUTCOME_SLEEP,
    _OUTCOME_WAIT,
    MachineStats,
    ThreadLifecycle,
    _leaf_path,
)
from repro.errors import SimulationError
from repro.obs import events as obs
from repro.obs.tally import (
    R_PREEMPTIONS,
    T_EVENTS,
    T_INTERRUPT_NS,
    T_INTERRUPTS,
    thread_record,
)
from repro.sim.engine import Simulator
from repro.threads.thread import SimThread
from repro.units import MS, SECOND, work_from_time

#: module-level alias of the process-wide bus: emit-site guards are on
#: the per-dispatch hot path, and `_BUS.active` is one attribute lookup
#: cheaper than `obs.BUS.active`.  Every site also counts into the native
#: schedstat tally (`_BUS.tally`, see repro.obs.tally) when a collector is
#: attached.
_BUS = obs.BUS

#: the compiled burst-completion tick (``None`` on the pure engine).  The
#: C function mirrors _on_burst_complete -> _account_burst ->
#: _finish_dispatch -> _maybe_dispatch for the common case (hierarchical
#: scheduler, SFQ leaf, zero-cost model, no tracing, no interrupt in
#: service) and bails to the Python methods for everything else.
_TURBO_TICK = getattr(_ENGINE_OPS, "machine_tick", None)

#: compiled wakeup entry (None on the pure engine).  Scheduled in place of
#: ``_on_wakeup`` with a ``(machine, thread)`` pair as the event argument;
#: like the turbo tick it re-checks tracing at fire time and delegates back
#: to ``_on_wakeup`` whenever the simplified path does not apply.
_TURBO_WAKE = getattr(_ENGINE_OPS, "machine_wake", None)


class Machine(ThreadLifecycle):
    """A single simulated CPU driven by a :class:`TopScheduler`."""

    PRIORITY_INTERRUPT = -10
    # PRIORITY_WAKEUP = 0 comes from ThreadLifecycle
    PRIORITY_COMPLETION = 10
    PRIORITY_DISPATCH = 20

    def __init__(self, engine: Simulator, scheduler: TopScheduler,
                 capacity_ips: int = 100_000_000, default_quantum: int = 20 * MS,
                 cost_model: Optional[SchedulingCostModel] = None,
                 tracer=None) -> None:
        if capacity_ips <= 0:
            raise SimulationError("capacity must be positive")
        if default_quantum <= 0:
            raise SimulationError("default quantum must be positive")
        super().__init__(engine, scheduler, tracer)
        self.capacity_ips = capacity_ips
        self.default_quantum = default_quantum
        #: default quantum pre-converted to instructions (per-dispatch path)
        self._default_quantum_work = work_from_time(default_quantum, capacity_ips)
        self.cost_model = cost_model if cost_model is not None else SchedulingCostModel()

        # --- dispatch state ------------------------------------------------
        self.current: Optional[SimThread] = None
        self._last_ran: Optional[SimThread] = None
        self._quantum_work_left = 0
        self._quantum_work_done = 0
        self._burst_planned = 0
        self._burst_compute_start = 0
        self._burst_handle = None
        self._paused = False
        self._pending_dispatch = None
        # Compiled completion fast path.  Installed only for a plain
        # Machine (SmpMachine and subclasses keep the Python cycle); the
        # C tick re-checks every dynamic condition -- tracing, interrupt
        # service, cost model, wrapped scheduler -- at fire time and
        # delegates back to the Python methods, so installation is
        # unconditional beyond the exact-type check.
        self._turbo = _TURBO_TICK if type(self) is Machine else None
        self._turbo_wake = _TURBO_WAKE if type(self) is Machine else None

        # --- interrupt state ------------------------------------------------
        self._intr_busy_until = 0
        self._resume_handle = None
        self._sources: List[InterruptSource] = []

    # --- public API ------------------------------------------------------

    @property
    def now(self) -> int:
        """Current simulation time (ns)."""
        return self.engine.now

    def add_interrupt_source(self, source: InterruptSource) -> None:
        """Attach and start an interrupt source."""
        self._sources.append(source)
        source.start(self)

    def run_until(self, time: int) -> None:
        """Advance the simulation to absolute ``time``.

        Accounting is settled at the horizon: a burst in flight at ``time``
        has its work-so-far booked (and then continues), so statistics and
        traces are exact as of ``time``.
        """
        self.engine.run_until(time)
        self._flush_burst()

    def run_for(self, duration: int) -> None:
        """Advance the simulation by ``duration`` nanoseconds."""
        self.run_until(self.engine.now + duration)

    def utilization(self) -> float:
        """Fraction of elapsed time the CPU spent executing threads."""
        if self.engine.now == 0:
            return 0.0
        return self.stats.busy_time / self.engine.now

    # --- dispatching ---------------------------------------------------------

    def _kick(self, thread: SimThread, now: int) -> None:
        """``thread`` just became runnable: preempt if asked, then dispatch."""
        if (self.current is not None
                and not self._paused
                and self.scheduler.should_preempt(self.current, thread, now)):
            self._preempt_current()
        self._maybe_dispatch()

    def _requeue(self, thread: SimThread, outcome: str, now: int) -> None:
        """A thread stays queued while it runs; a sleep or wait dequeues it."""
        if outcome == _OUTCOME_SLEEP or outcome == _OUTCOME_WAIT:
            self.scheduler.thread_blocked(thread, now)

    def _maybe_dispatch(self) -> None:
        if self.current is not None:
            return
        now = self.engine.now
        if now < self._intr_busy_until:
            self._defer_dispatch(self._intr_busy_until)
            return
        thread = self._pick(now)
        if thread is None:
            return
        switched = thread is not self._last_ran
        overhead = self.cost_model.dispatch_cost(
            self.scheduler.decision_depth, switched)
        self.current = thread
        self._last_ran = thread
        self._quantum_work_left = self._begin_dispatch(
            thread, now, 0, switched, overhead)
        self._quantum_work_done = 0
        self._begin_burst(overhead)

    def _defer_dispatch(self, at_time: int) -> None:
        if self._pending_dispatch is not None and not self._pending_dispatch.cancelled:
            return
        self._pending_dispatch = self.engine.at(
            at_time, self._deferred_dispatch, priority=self.PRIORITY_DISPATCH)

    def _deferred_dispatch(self) -> None:
        self._pending_dispatch = None
        self._maybe_dispatch()

    # --- burst execution -------------------------------------------------------

    def _begin_burst(self, overhead_ns: int = 0) -> None:
        assert self.current is not None
        thread = self.current
        planned = min(thread.remaining_work, self._quantum_work_left)
        if planned <= 0:
            raise SimulationError("attempted to start an empty burst for %r" % (thread,))
        self._burst_planned = planned
        self._burst_compute_start = self.engine.now + overhead_ns
        self._paused = False
        # time_from_work(planned, capacity) inlined: planned > 0 was just
        # checked and capacity was validated at construction.
        duration = -((-planned * SECOND) // self.capacity_ips)
        if self._turbo is not None:
            self._burst_handle = self.engine.at(
                self._burst_compute_start + duration, self._turbo, self,
                priority=self.PRIORITY_COMPLETION)
        else:
            self._burst_handle = self.engine.at(
                self._burst_compute_start + duration, self._on_burst_complete,
                priority=self.PRIORITY_COMPLETION)

    def _account_burst(self, executed: int) -> None:
        """Book ``executed`` instructions of the current burst."""
        assert self.current is not None
        if executed <= 0:
            return
        self._quantum_work_left -= executed
        self._quantum_work_done += executed
        self._book_slice(self.current, 0, self._burst_compute_start,
                         self.engine.now, executed)

    def _on_burst_complete(self) -> None:
        self._burst_handle = None
        self._account_burst(self._burst_planned)
        self._finish_dispatch()

    def _executed_so_far(self) -> int:
        """Work completed in the active burst, for pause/preempt accounting."""
        elapsed = self.engine.now - self._burst_compute_start
        if elapsed <= 0:
            return 0
        done = work_from_time(elapsed, self.capacity_ips)
        return min(done, self._burst_planned)

    def _stop_burst(self) -> None:
        """Cancel the completion event and account partial work."""
        self.engine.cancel(self._burst_handle)
        self._burst_handle = None
        self._account_burst(self._executed_so_far())

    def _flush_burst(self) -> None:
        """Settle the active burst's partial work without ending the dispatch."""
        if self.current is None or self._paused or self._burst_handle is None:
            return
        self._stop_burst()
        if self.current.remaining_work == 0 or self._quantum_work_left == 0:
            self._finish_dispatch()
        else:
            self._begin_burst(0)

    def _preempt_current(self) -> None:
        assert self.current is not None
        self.stats.preemptions += 1
        self.current.stats.preemptions += 1
        if _BUS.tally is not None:
            thread_record(_BUS.tally, self.current)[R_PREEMPTIONS] += 1
        if _BUS.active:
            _BUS.emit(obs.PREEMPT, self.engine.now, tid=self.current.tid,
                         node=_leaf_path(self.current))
        self._stop_burst()
        self._finish_dispatch()

    def _finish_dispatch(self) -> None:
        """End the current dispatch: settle the workload, charge, reschedule."""
        assert self.current is not None
        thread = self.current
        done = self._quantum_work_done
        self.current = None
        self._paused = False
        self._quantum_work_done = 0
        self._quantum_work_left = 0
        self._end_dispatch(thread, done, self.engine.now)
        self._maybe_dispatch()

    # --- interrupts ----------------------------------------------------------

    def interrupt(self, service: int) -> None:
        """An interrupt arrived demanding ``service`` ns of CPU at top priority."""
        if service <= 0:
            return
        now = self.engine.now
        self.stats.interrupts += 1
        self.stats.interrupt_time += service
        busy_until = max(now, self._intr_busy_until) + service
        self._intr_busy_until = busy_until
        if self.tracer is not None:
            self.tracer.on_interrupt(now, service)
        tally = _BUS.tally
        if tally is not None:
            tally[T_EVENTS] += 1
            tally[T_INTERRUPTS] += 1
            tally[T_INTERRUPT_NS] += service
        if _BUS.active:
            _BUS.emit(obs.INTERRUPT, now, cpu=0, service=service)
        if self.current is not None:
            if not self._paused:
                self.stats.pauses += 1
                self._stop_burst()
                self._paused = True
            # (Re)schedule the resume for when interrupt service drains.
            self.engine.cancel(self._resume_handle)
            self._resume_handle = self.engine.at(
                busy_until, self._resume_current, priority=self.PRIORITY_DISPATCH)

    def _resume_current(self) -> None:
        self._resume_handle = None
        if self.current is None or not self._paused:
            return
        # The pause may have consumed the whole quantum or segment.
        if self.current.remaining_work == 0 or self._quantum_work_left == 0:
            self._finish_dispatch()
        else:
            self._begin_burst(0)
