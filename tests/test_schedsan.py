"""Tests for SCHEDSAN, the opt-in runtime scheduler sanitizer.

The sanitizer is wired into ``Machine.__init__`` via
``repro.devtools.schedsan.maybe_wrap`` and activates when the
``REPRO_SCHEDSAN`` environment variable is set at machine-construction
time, so these tests monkeypatch the environment *before* building a
harness.
"""

import pytest

from repro.devtools import schedsan
from repro.devtools.schedsan import SchedsanError, SchedsanScheduler
from repro.errors import SchedulingError
from repro.schedulers.fifo import FifoScheduler
from repro.units import MS

from tests.conftest import FlatHarness, Harness, compute


@pytest.fixture
def sanitized(monkeypatch):
    """Enable SCHEDSAN for machines built inside the test."""
    monkeypatch.setenv(schedsan.ENV_ENABLE, "1")
    monkeypatch.delenv(schedsan.ENV_MODE, raising=False)


class TestEnablement:
    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv(schedsan.ENV_ENABLE, raising=False)
        h = Harness()
        assert not isinstance(h.machine.scheduler, SchedsanScheduler)

    def test_zero_means_disabled(self, monkeypatch):
        monkeypatch.setenv(schedsan.ENV_ENABLE, "0")
        h = Harness()
        assert not isinstance(h.machine.scheduler, SchedsanScheduler)

    def test_env_enables_wrapper(self, sanitized):
        h = Harness()
        assert isinstance(h.machine.scheduler, SchedsanScheduler)

    def test_wrap_is_idempotent(self, sanitized):
        h = Harness()
        wrapped = schedsan.maybe_wrap(h.machine.scheduler)
        assert wrapped is h.machine.scheduler

    def test_wrapper_preserves_decision_depth(self, sanitized):
        h = Harness()
        assert h.machine.scheduler.decision_depth == \
            h.machine.scheduler.inner.decision_depth


class TestHealthyRuns:
    """A correct scheduler produces zero violations under the sanitizer."""

    def test_hierarchical_scenario_is_clean(self, sanitized):
        from repro.schedulers.sfq_leaf import SfqScheduler

        h = Harness()
        video = h.structure.mknod("/video", 2)
        decode = h.structure.mknod("/video/decode", 3,
                                   scheduler=SfqScheduler())
        h.spawn_dhrystone("app-a", weight=1)
        h.spawn_dhrystone("app-b", weight=2)
        h.spawn_segments("frames", [compute(50_000)] * 4, leaf=decode)
        h.machine.run_until(200 * MS)
        assert h.machine.scheduler.violations == []
        assert video.queue.virtual_time >= 0

    def test_blocking_workload_is_clean(self, sanitized):
        from repro.threads.segments import SleepFor

        h = Harness()
        h.spawn_segments("sleeper", [compute(10_000), SleepFor(5 * MS),
                                     compute(10_000)])
        h.spawn_dhrystone("background")
        h.machine.run_until(100 * MS)
        assert h.machine.scheduler.violations == []

    def test_flat_machine_is_clean(self, sanitized):
        h = FlatHarness(FifoScheduler())
        h.spawn_segments("a", [compute(30_000)])
        h.spawn_segments("b", [compute(30_000)])
        h.machine.run_until(100 * MS)
        assert h.machine.scheduler.violations == []


class _ForgetfulFifo(FifoScheduler):
    """Broken on purpose: drops wakeups on the floor."""

    algorithm = "forgetful-fifo"

    def on_runnable(self, thread, now):
        pass  # never enqueues -> lost wakeup


class _StickyFifo(FifoScheduler):
    """Broken on purpose: pick_next dequeues (contract forbids it)."""

    algorithm = "sticky-fifo"

    def pick_next(self, now):
        if self._ready:
            return self._ready.popleft()
        return None


class TestBrokenSchedulers:
    def test_lost_wakeup_is_caught(self, sanitized):
        h = FlatHarness(_ForgetfulFifo())
        with pytest.raises(SchedsanError) as excinfo:
            h.spawn_segments("victim", [compute(10_000)])
            h.machine.run_until(50 * MS)
        message = str(excinfo.value)
        assert "lost-wakeup" in message
        assert "victim" in message

    def test_pick_dequeue_is_caught(self, sanitized):
        h = FlatHarness(_StickyFifo())
        with pytest.raises(SchedsanError) as excinfo:
            h.spawn_segments("only", [compute(10_000)])
            h.machine.run_until(50 * MS)
        assert "pick" in str(excinfo.value)

    def test_violation_reports_node_path_and_time(self, sanitized):
        h = FlatHarness(_ForgetfulFifo())
        with pytest.raises(SchedsanError) as excinfo:
            h.spawn_segments("victim", [compute(10_000)])
            h.machine.run_until(50 * MS)
        message = str(excinfo.value)
        assert "SCHEDSAN[" in message
        assert "t=" in message and "ns" in message

    def test_schedsan_error_is_a_scheduling_error(self):
        assert issubclass(SchedsanError, SchedulingError)

    def test_negative_work_is_caught(self, sanitized):
        h = Harness()
        thread = h.spawn_dhrystone("t")
        with pytest.raises(SchedsanError) as excinfo:
            h.machine.scheduler.charge(thread, -5, 0)
        assert "negative" in str(excinfo.value)

    def test_double_charge_is_caught(self, sanitized):
        h = Harness()
        thread = h.spawn_dhrystone("t")
        # Spawning dispatches eagerly, so one charge settles that pick;
        # a second charge breaks "exactly one charge per dispatch".
        h.machine.scheduler.charge(thread, 100, 0)
        with pytest.raises(SchedsanError) as excinfo:
            h.machine.scheduler.charge(thread, 100, 0)
        assert "without a matching pick_next" in str(excinfo.value)


class TestDormantWeightInvariant:
    """Paper §3: weight changes while a node is dormant must not warp
    its tags.  The static twin of this rule is schedflow's SF204."""

    def _dormant_harness(self):
        """A sleeper on its own leaf (dormant at 5 ms) plus a busy
        background thread keeping the machine (and the sweeps) going."""
        from repro.schedulers.sfq_leaf import SfqScheduler
        from repro.threads.segments import SleepFor

        h = Harness()
        media = h.structure.mknod("/media", 1, scheduler=SfqScheduler())
        h.spawn_segments("sleeper", [compute(1_000), SleepFor(50 * MS),
                                     compute(1_000)], leaf=media)
        h.spawn_dhrystone("background")
        h.machine.run_until(5 * MS)  # sleeper blocked, /media dormant
        return h, media

    def test_sanctioned_dormant_weight_change_is_clean(self, sanitized):
        from repro.core.structure import ADMIN_SET_WEIGHT

        h, media = self._dormant_harness()
        # set_weight while dormant is fine: tags stay put, the new
        # weight takes effect at the next stamping
        h.structure.admin(media.node_id, ADMIN_SET_WEIGHT, 7)
        h.machine.run_until(100 * MS)
        assert h.machine.scheduler.violations == []

    def test_dormant_weight_warp_is_caught(self, sanitized):
        h, media = self._dormant_harness()
        # a buggy implementation stores the weight directly and eagerly
        # recomputes the dormant node's finish tag from it
        root_queue = h.structure.root.queue
        slot = root_queue.slot_of(media)
        arena = root_queue.arena
        assert not arena.run[slot], "test premise: leaf must be dormant"
        media.weight = 7  # schedflow: disable=SF204
        # the raw column holds an integer numerator over the queue's
        # denominator; any eager rewrite of the dormant finish tag warps
        arena.fin[slot] = arena.start[slot] + 50_000
        with pytest.raises(SchedsanError) as excinfo:
            h.machine.run_until(100 * MS)
        message = str(excinfo.value)
        assert "dormant-weight-warp" in message
        assert "1 -> 7" in message

    def test_weight_change_while_runnable_is_clean(self, sanitized):
        from repro.core.structure import ADMIN_SET_WEIGHT

        h = Harness()
        h.spawn_dhrystone("worker")
        h.machine.run_until(5 * MS)
        h.structure.admin(h.leaf.node_id, ADMIN_SET_WEIGHT, 3)
        h.machine.run_until(50 * MS)
        assert h.machine.scheduler.violations == []


class TestCollectMode:
    def test_collect_mode_accumulates_instead_of_raising(self, monkeypatch):
        monkeypatch.setenv(schedsan.ENV_ENABLE, "1")
        monkeypatch.setenv(schedsan.ENV_MODE, "collect")
        h = FlatHarness(_ForgetfulFifo())
        h.spawn_segments("victim", [compute(10_000)])
        h.machine.run_until(50 * MS)  # must not raise
        violations = h.machine.scheduler.violations
        assert violations, "collect mode recorded nothing"
        assert any(v.rule == "lost-wakeup" for v in violations)
        assert all(v.time >= 0 for v in violations)

    def test_collected_violations_render_usefully(self, monkeypatch):
        monkeypatch.setenv(schedsan.ENV_ENABLE, "1")
        monkeypatch.setenv(schedsan.ENV_MODE, "collect")
        h = FlatHarness(_ForgetfulFifo())
        h.spawn_segments("victim", [compute(10_000)])
        h.machine.run_until(50 * MS)
        rendered = str(h.machine.scheduler.violations[0])
        assert rendered.startswith("SCHEDSAN[")
        assert "victim" in rendered
