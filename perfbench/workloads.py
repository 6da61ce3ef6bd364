"""The four benchmark workloads, built only from public entry points.

Each workload is a closed batch job driven to a fixed simulated horizon.
:func:`build` returns a :class:`Prepared` run: the structure is built and
every thread spawned, so the caller times ``drive()`` alone.  ``drive()``
performs the user-visible work -- one ``run_until(horizon)`` call plus
rendering the outputs, or the cluster CLI ``run`` path -- and returns the
outputs the benchmark checks.  All inputs derive from ``seed``.
"""

from __future__ import annotations

import hashlib
import os
import time
from typing import Callable, Dict, NamedTuple, Optional

from repro.cluster.runner import run_cluster
from repro.cluster.scenario import CLUSTER_SCENARIOS
from repro.core.hierarchy import HierarchicalScheduler
from repro.core.structure import SchedulingStructure
from repro.core.tags import FLOAT
from repro.cpu.flat import FlatScheduler
from repro.cpu.machine import Machine
from repro.obs.events import BUS
from repro.obs.schedstat import SchedStat, render_schedstat
from repro.schedulers.sfq_leaf import SfqScheduler
from repro.sim.engine import Simulator
from repro.sim.rng import make_rng
from repro.threads.thread import SimThread
from repro.units import MS, SECOND
from repro.workloads.dhrystone import DhrystoneWorkload
from repro.workloads.interactive import InteractiveWorkload

CAPACITY = 100_000_000
FLAT_HORIZON = 1200 * SECOND
DEEP_HORIZON = 10 * SECOND
#: the CI gate's cluster scenario, run at the gate host's CPU count
CLUSTER_SCENARIO = "cluster_storm"
CLUSTER_SHARDS = 2


class Outputs(NamedTuple):
    """What one drive produced: digests to check, plus work counts."""

    digests: Dict[str, str]
    events: int
    dispatches: int
    #: cluster phase spans (host seconds) and counts; empty single-host
    cluster: Dict[str, float]
    #: artifact name -> written path (cluster only)
    files: Dict[str, str]


class Prepared(NamedTuple):
    """A simulation that is ready to drive."""

    drive: Callable[[], Outputs]
    #: the top scheduler class, whose entry points the traced run counts
    top: type
    tag_mode: str
    shards: int


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _thread_digest(engine: Simulator, machine: Machine) -> str:
    """sha256 over one canonical line per thread plus the machine totals."""
    lines = ["%s %d %d" % (thread.name, thread.stats.work_done,
                           thread.stats.dispatches)
             for thread in machine.threads]
    lines.append("sim_ns=%d dispatches=%d"
                 % (engine.now, machine.stats.dispatches))
    return _sha("\n".join(lines) + "\n")


def _flat_exact(seed: int, shards: int, workdir: str) -> Prepared:
    """Figure-5 SFQ arm: flat SFQ, exact Fraction tags, 5 + 2 threads."""
    engine = Simulator()
    machine = Machine(engine, FlatScheduler(SfqScheduler()),
                      capacity_ips=CAPACITY, default_quantum=20 * MS)
    for index in range(5):
        machine.spawn(SimThread("dhry-%d" % index,
                                DhrystoneWorkload(300, 10_000)))
    for index in range(2):
        machine.spawn(SimThread(
            "daemon-%d" % index,
            InteractiveWorkload(burst_work=400_000, think_time=120 * MS,
                                rng=make_rng(seed, "daemon/%d" % index))))

    def drive() -> Outputs:
        machine.run_until(FLAT_HORIZON)
        digest = _thread_digest(engine, machine)
        return Outputs({"threads": digest}, engine.events_fired,
                       machine.stats.dispatches, {}, {})

    return Prepared(drive, FlatScheduler, "exact", 1)


def _deep_tree() -> tuple:
    """Depth-8 tree: fanout 8 at the top two levels, chains below."""
    structure = SchedulingStructure(FLOAT)
    leaves = []
    for top in range(8):
        group = structure.mknod("g%d" % top, 1 + top % 3)
        for mid in range(8):
            node = structure.mknod("m%d" % mid, 1 + mid % 2, parent=group)
            for level in range(3, 8):
                node = structure.mknod("c%d" % level, 1, parent=node)
            leaves.append(structure.mknod(
                "leaf", 1, parent=node, scheduler=SfqScheduler(FLOAT)))
    return structure, leaves


def _deep(seed: int, stats: bool) -> Prepared:
    """64 churning interactive leaves at depth 8, a hog on every eighth."""
    structure, leaves = _deep_tree()
    engine = Simulator()
    machine = Machine(engine, HierarchicalScheduler(structure),
                      capacity_ips=CAPACITY, default_quantum=2 * MS)
    for index, leaf in enumerate(leaves):
        churn = SimThread("churn-%d" % index, InteractiveWorkload(
            burst_work=150_000, think_time=8 * MS,
            rng=make_rng(seed, "churn/%d" % index)))
        leaf.attach_thread(churn)
        machine.spawn(churn)
        if index % 8 == 0:
            hog = SimThread("hog-%d" % index, DhrystoneWorkload(300, 5_000))
            leaf.attach_thread(hog)
            machine.spawn(hog)

    def drive() -> Outputs:
        digests = {}
        if stats:
            collector = SchedStat()
            with BUS.subscription(collector):
                machine.run_until(DEEP_HORIZON)
            digests["schedstat"] = _sha(render_schedstat(structure, collector))
        else:
            machine.run_until(DEEP_HORIZON)
        digests["threads"] = _thread_digest(engine, machine)
        return Outputs(digests, engine.events_fired,
                       machine.stats.dispatches, {}, {})

    return Prepared(drive, HierarchicalScheduler, "float", 1)


def _cluster(seed: int, shards: int, workdir: str) -> Prepared:
    """The CLI ``run`` path: simulate, write the artifacts, digest."""
    spec = CLUSTER_SCENARIOS[CLUSTER_SCENARIO].build(True)

    def drive() -> Outputs:
        start = time.perf_counter()
        result = run_cluster(spec, seed, shards=shards)
        simulated = time.perf_counter()
        paths = result.write(workdir)
        written = time.perf_counter()
        digests = result.digests()
        done = time.perf_counter()
        return Outputs(
            digests,
            sum(int(host["events"]) for host in result.hosts),  # type: ignore[call-overload]
            sum(int(host["dispatches"]) for host in result.hosts),  # type: ignore[call-overload]
            {"simulate_s": simulated - start, "write_s": written - simulated,
             "digest_s": done - written, "messages": len(result.log),
             "epochs": spec.epochs},
            paths)

    return Prepared(drive, HierarchicalScheduler, "float", shards)


#: workload name -> builder(seed, shards, workdir); shards applies to the
#: cluster only, and single-host builders ignore workdir
BUILDERS: Dict[str, Callable[[int, int, str], Prepared]] = {
    "flat_exact": _flat_exact,
    "deep_churn": lambda seed, shards, workdir: _deep(seed, False),
    "deep_churn_stats": lambda seed, shards, workdir: _deep(seed, True),
    "cluster_storm_cli": _cluster,
}


def build(name: str, seed: int, shards: Optional[int] = None,
          workdir: str = os.curdir) -> Prepared:
    """Build workload ``name`` for ``seed``; ready to drive."""
    return BUILDERS[name](seed, CLUSTER_SHARDS if shards is None else shards,
                          workdir)
