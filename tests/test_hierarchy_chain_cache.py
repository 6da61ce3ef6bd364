"""The hierarchy's cached ancestor chains: invalidation and equivalence.

The traced-off fast path charges/wakes/sleeps through per-leaf cached
``(queue, record, node, parent)`` chains (``repro.core.sfq``), invalidated
by ``structure.tree_version`` whenever ``mknod``/``rmnod`` reshape the
tree.  Two guarantees are pinned here:

1. the fast path is behaviourally identical to the per-level method walk
   that runs while the observability bus is active;
2. tree mutations mid-run (grow a subtree, remove a leaf, move threads)
   never leave a stale chain behind.
"""

import pytest

from repro.core.hierarchy import HierarchicalScheduler
from repro.core.structure import SchedulingStructure
from repro.errors import StructureError
from repro.obs import events as obs
from repro.schedulers.sfq_leaf import SfqScheduler
from repro.threads.segments import SegmentListWorkload
from repro.threads.states import ThreadState
from repro.threads.thread import SimThread


def make_thread(name="t", weight=1):
    return SimThread(name, SegmentListWorkload([]), weight=weight)


class Driver:
    """A structure plus helpers to drive the same op script twice."""

    def __init__(self):
        self.structure = SchedulingStructure()
        self.scheduler = HierarchicalScheduler(self.structure)
        self.class_a = self.structure.mknod("/classA", 2)
        self.leaf1 = self.structure.mknod("/classA/leaf1", 1,
                                          scheduler=SfqScheduler())
        self.leaf2 = self.structure.mknod("/leaf2", 3,
                                          scheduler=SfqScheduler())
        self.threads = {}

    def spawn(self, name, leaf, weight=1):
        thread = make_thread(name, weight)
        leaf.attach_thread(thread)
        thread.transition(ThreadState.RUNNABLE)
        self.scheduler.thread_runnable(thread, 0)
        self.threads[name] = thread
        return thread

    def serve(self, work, now=0):
        thread = self.scheduler.pick_next(now)
        assert thread is not None
        self.scheduler.charge(thread, work, now)
        return thread.name

    def tag_snapshot(self):
        """All (node path -> start/finish tags at its parent) plus flags."""
        snapshot = {}
        for node in self.structure.iter_nodes():
            parent = node.parent
            entry = {"runnable": node.runnable}
            if parent is not None:
                entry["start"] = parent.queue.start_tag(node)
                entry["finish"] = parent.queue.finish_tag(node)
                entry["v"] = parent.queue.virtual_time
            snapshot[node.path] = entry
        return snapshot


def run_script(driver):
    """A scripted run that reshapes the tree while chains are cached."""
    picks = []
    driver.spawn("a", driver.leaf1)
    driver.spawn("b", driver.leaf2, weight=2)
    picks.append(driver.serve(30))
    picks.append(driver.serve(30))
    # Grow the tree mid-run: the cached chains must be rebuilt.
    leaf3 = driver.structure.mknod("/classA/leaf3", 1,
                                   scheduler=SfqScheduler())
    driver.spawn("c", leaf3)
    for work in (10, 20, 30, 40):
        picks.append(driver.serve(work))
    # Block a thread, remove its (now idle) leaf, keep scheduling.
    thread_a = driver.threads["a"]
    driver.scheduler.thread_blocked(thread_a, 0)
    driver.leaf1.detach_thread(thread_a)
    driver.structure.rmnod("/classA/leaf1")
    for work in (15, 25):
        picks.append(driver.serve(work))
    # Move a thread between leaves (re-keys it under another queue).
    thread_b = driver.threads["b"]
    driver.structure.move(thread_b, "/classA/leaf3")
    picks.append(driver.serve(20))
    return picks


def test_fast_path_matches_traced_walk():
    """Scheduling with the bus attached == without it, op for op.

    Both runs walk the cached chains; the bus only adds the per-level
    events read from the chain after each walk.
    """
    fast = Driver()
    fast_picks = run_script(fast)

    traced = Driver()
    subscriber = obs.BUS.subscribe(lambda event: None)
    try:
        assert obs.BUS.active
        traced_picks = run_script(traced)
    finally:
        obs.BUS.unsubscribe(subscriber)

    assert fast_picks == traced_picks
    fast_tags = fast.tag_snapshot()
    traced_tags = traced.tag_snapshot()
    assert fast_tags == traced_tags


def test_tree_version_bumps_on_mknod_and_rmnod():
    structure = SchedulingStructure()
    version = structure.tree_version
    structure.mknod("/x", 1)
    assert structure.tree_version > version
    version = structure.tree_version
    leaf = structure.mknod("/x/leaf", 1, scheduler=SfqScheduler())
    assert structure.tree_version > version
    version = structure.tree_version
    structure.rmnod(leaf)
    assert structure.tree_version > version


def test_chains_rebuilt_after_mknod():
    driver = Driver()
    driver.spawn("a", driver.leaf1)
    driver.serve(10)
    cached = driver.scheduler._charge_chains
    assert cached, "serving should have populated the chain cache"
    driver.structure.mknod("/classB", 1)
    # Next scheduling op must notice the version bump and drop stale chains.
    driver.serve(10)
    assert driver.scheduler._charge_chains_version == \
        driver.structure.tree_version


def test_removed_leaf_chain_not_reused():
    driver = Driver()
    thread = driver.spawn("a", driver.leaf1)
    driver.serve(10)
    driver.scheduler.thread_blocked(thread, 0)
    driver.leaf1.detach_thread(thread)
    driver.structure.rmnod("/classA/leaf1")
    # A new leaf may reuse the freed id(); the rebuilt chain must be fresh.
    leaf_new = driver.structure.mknod("/classA/leafN", 5,
                                      scheduler=SfqScheduler())
    driver.spawn("n", leaf_new)
    assert driver.serve(40) == "n"
    parent = leaf_new.parent
    assert parent.queue.finish_tag(leaf_new) > 0


def test_rmnod_rejects_busy_nodes():
    driver = Driver()
    driver.spawn("a", driver.leaf1)
    with pytest.raises(Exception):
        driver.structure.rmnod("/classA/leaf1")
    with pytest.raises(StructureError):
        driver.structure.rmnod("/")
