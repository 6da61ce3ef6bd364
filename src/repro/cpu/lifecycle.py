"""The thread lifecycle shared by the uniprocessor and SMP machines.

Everything a thread does off the CPU is machine-independent: creation,
the workload-segment protocol (compute, sleep, mutexes, semaphores,
wait queues, exit), sleep/wakeup, synchronization wakeups and exit, and
every tracer / native-tally / bus site for those events.
:class:`ThreadLifecycle` holds that code once.  A machine subclass owns
only dispatch, bursts, the charge and interrupts, and implements
:meth:`ThreadLifecycle._kick`, which runs whenever a thread has just
become runnable.
"""

from __future__ import annotations

from typing import List, Optional

from repro.cpu.interface import TopScheduler
from repro.devtools.schedsan import maybe_wrap as _schedsan_wrap
from repro.errors import WorkloadError
from repro.obs import events as obs
from repro.obs.tally import R_BLOCKS, R_WAKES, T_EVENTS, thread_record
from repro.sim.engine import Simulator
from repro.sync.mutex import Acquire, Release
from repro.sync.semaphore import Down, Notify, Up, WaitOn
from repro.threads.segments import Compute, Exit, SleepFor, SleepUntil
from repro.threads.states import ThreadState
from repro.threads.thread import SimThread

#: module-level alias of the process-wide bus: `_BUS.active` is one
#: attribute lookup cheaper than `obs.BUS.active`.  Every site also counts
#: into the native schedstat tally (`_BUS.tally`, see repro.obs.tally)
#: when a collector is attached.
_BUS = obs.BUS

_OUTCOME_RUN = "run"
_OUTCOME_SLEEP = "sleep"
_OUTCOME_WAIT = "wait"  # blocked on a mutex; woken by the holder's release
_OUTCOME_EXIT = "exit"

#: safety bound on consecutive zero-length segments from one workload
_MAX_SEGMENT_PULLS = 1000


def _leaf_path(thread: SimThread) -> str:
    """Pathname of the thread's leaf node, "/" for flat schedulers."""
    leaf = thread.leaf
    return leaf.path if leaf is not None else "/"


class ThreadLifecycle:
    """Spawn, workload segments, sleep/wake, sync wakeups and exit.

    Subclasses set ``_turbo_wake`` (the compiled wakeup entry, or
    ``None``) and implement :meth:`_kick`.
    """

    PRIORITY_WAKEUP = 0

    def __init__(self, engine: Simulator, scheduler: TopScheduler,
                 tracer) -> None:
        self.engine = engine
        # Opt-in sanitizer (REPRO_SCHEDSAN=1): audits every scheduler
        # interaction; a no-op pass-through when disabled.
        scheduler = _schedsan_wrap(scheduler)
        self.scheduler = scheduler
        self.tracer = tracer
        self.threads: List[SimThread] = []
        # Hierarchical schedulers want a clock for hsfq_move bookkeeping.
        if hasattr(scheduler, "clock"):
            scheduler.clock = lambda: self.engine.now

    def spawn(self, thread: SimThread, at: Optional[int] = None) -> SimThread:
        """Create ``thread`` now (or at absolute time ``at``) and return it.

        For a hierarchical scheduler, attach the thread to its leaf node
        *before* spawning.
        """
        self.threads.append(thread)
        if at is None or at <= self.engine.now:
            self._do_spawn(thread)
        else:
            self.engine.at(at, self._do_spawn, thread)
        return thread

    def _kick(self, thread: SimThread, now: int) -> None:
        """React to ``thread`` having just become runnable."""
        raise NotImplementedError

    # --- spawning / workload advancement ----------------------------------

    def _do_spawn(self, thread: SimThread) -> None:
        now = self.engine.now
        thread.stats.created_at = now
        self.scheduler.admit(thread)
        if self.tracer is not None:
            self.tracer.on_spawn(thread, now)
        if _BUS.tally is not None:
            _BUS.tally[T_EVENTS] += 1
        if _BUS.active:
            _BUS.emit(obs.SPAWN, now, tid=thread.tid, name=thread.name,
                      node=_leaf_path(thread), weight=thread.weight)
        self._settle(thread)

    def _settle(self, thread: SimThread) -> None:
        """Pull the next segment of an off-CPU thread and act on it.

        Used at spawn and at wakeup; the thread is NEW or SLEEPING.
        """
        now = self.engine.now
        outcome, wake_time = self._advance_workload(thread)
        if outcome == _OUTCOME_RUN:
            self._make_runnable(thread)
        elif outcome == _OUTCOME_EXIT:
            thread.transition(ThreadState.EXITED)
            thread.stats.exited_at = now
            self._exit(thread, now)
        else:
            if thread.state is not ThreadState.SLEEPING:
                thread.transition(ThreadState.SLEEPING)
            if outcome == _OUTCOME_SLEEP:
                self._schedule_wakeup(thread, wake_time)
            else:
                self._note_wait(thread, now)

    def _advance_workload(self, thread: SimThread):
        """Pull segments until the thread has work, sleeps, or exits."""
        now = self.engine.now
        for __ in range(_MAX_SEGMENT_PULLS):
            segment = thread.workload.next_segment(now, thread)
            if segment is None or isinstance(segment, Exit):
                return _OUTCOME_EXIT, None
            if isinstance(segment, Compute):
                thread.remaining_work = segment.work
                return _OUTCOME_RUN, None
            if isinstance(segment, SleepFor):
                if segment.duration == 0:
                    continue
                return _OUTCOME_SLEEP, now + segment.duration
            if isinstance(segment, SleepUntil):
                if segment.wakeup <= now:
                    continue
                return _OUTCOME_SLEEP, segment.wakeup
            if isinstance(segment, Acquire):
                if segment.mutex.try_acquire(thread):
                    thread.held_mutexes.append(segment.mutex)
                    continue
                segment.mutex.enqueue_waiter(thread)
                return _OUTCOME_WAIT, None
            if isinstance(segment, Release):
                self._release_mutex(thread, segment.mutex)
                continue
            if isinstance(segment, Down):
                if segment.semaphore.try_down(thread):
                    continue
                segment.semaphore.enqueue_waiter(thread)
                return _OUTCOME_WAIT, None
            if isinstance(segment, Up):
                granted = segment.semaphore.up()
                if granted is not None:
                    self._defer_wake(granted)
                continue
            if isinstance(segment, WaitOn):
                segment.queue.enqueue_waiter(thread)
                return _OUTCOME_WAIT, None
            if isinstance(segment, Notify):
                for woken in segment.queue.notify(segment.count):
                    self._defer_wake(woken)
                continue
            raise WorkloadError(
                "workload %r produced unknown segment %r"
                % (thread.workload, segment))
        raise WorkloadError(
            "workload for %r produced %d zero-length segments in a row"
            % (thread, _MAX_SEGMENT_PULLS))

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
        self._kick(thread, now)

    # --- sleep / wakeup ----------------------------------------------------

    def _schedule_wakeup(self, thread: SimThread, wake_time: int) -> None:
        if self.tracer is not None:
            self.tracer.on_block(thread, self.engine.now, wake_time)
        if _BUS.tally is not None:
            thread_record(_BUS.tally, thread)[R_BLOCKS] += 1
        if _BUS.active:
            _BUS.emit(obs.BLOCK, self.engine.now, tid=thread.tid,
                      node=_leaf_path(thread), wake=wake_time)
        if self._turbo_wake is not None:
            thread.wakeup_handle = self.engine.at(
                wake_time, self._turbo_wake, (self, thread),
                priority=self.PRIORITY_WAKEUP)
        else:
            thread.wakeup_handle = self.engine.at(
                wake_time, self._on_wakeup, thread,
                priority=self.PRIORITY_WAKEUP)

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
            # Woke with unfinished compute (blocked mid-segment cannot
            # happen today, but a moved/suspended thread resumes here).
            self._make_runnable(thread)
        else:
            self._settle(thread)

    def _defer_wake(self, thread: SimThread) -> None:
        """Wake a synchronization waiter via an immediate engine event.

        Deferring ensures the waking thread's own dispatch is fully
        settled (charged, requeued) before the waiter competes for the
        CPU.
        """
        self.engine.at(self.engine.now, self._on_wakeup, thread,
                       priority=self.PRIORITY_WAKEUP)

    def _note_wait(self, thread: SimThread, now: int) -> None:
        """Record that ``thread`` blocked on a synchronization object."""
        if self.tracer is not None:
            self.tracer.on_block(thread, now, -1)
        if _BUS.tally is not None:
            thread_record(_BUS.tally, thread)[R_BLOCKS] += 1
        if _BUS.active:
            _BUS.emit(obs.BLOCK, now, tid=thread.tid,
                      node=_leaf_path(thread), wake=-1)

    # --- exit / mutexes ----------------------------------------------------

    def _exit(self, thread: SimThread, now: int) -> None:
        """Retire an EXITED thread, releasing every mutex it still holds."""
        self._release_held_mutexes(thread)
        if _BUS.tally is not None:
            _BUS.tally[T_EVENTS] += 1
        if _BUS.active:
            _BUS.emit(obs.EXIT, now, tid=thread.tid, node=_leaf_path(thread))
        self.scheduler.retire(thread, now)
        if self.tracer is not None:
            self.tracer.on_exit(thread, now)

    def _release_mutex(self, thread: SimThread, mutex) -> None:
        """Release ``mutex``; the granted waiter (if any) wakes deferred."""
        thread.held_mutexes.remove(mutex)
        granted = mutex.release(thread)
        if granted is not None:
            granted.held_mutexes.append(mutex)
            self._defer_wake(granted)

    def _release_held_mutexes(self, thread: SimThread) -> None:
        """An exiting thread implicitly releases everything it still holds."""
        while thread.held_mutexes:
            self._release_mutex(thread, thread.held_mutexes[-1])
