"""The macro-benchmark scenarios perfkit runs.

Each scenario is a list of *phases*; a phase builds a simulation (timed as
``build``) and drives it to a fixed horizon (timed as ``run``), then
reports the simulator's own counters (events fired, dispatches, simulated
nanoseconds, thread count).  Everything inside a phase is deterministic —
seeded RNGs, integer simulated time — so two runs of one scenario execute
the exact same event sequence and differ only in wall-clock cost.

Scenario sizing has a ``quick`` mode (CI, seconds) and a full mode (local
baselines).  The deep-hierarchy scenario uses float tag math — what a
production kernel would ship, and the regime where dispatch overhead
rather than exact tag arithmetic dominates, which is precisely what the
suite is guarding.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Tuple, Union

from repro.core.hierarchy import HierarchicalScheduler
from repro.core.structure import SchedulingStructure
from repro.core.tags import FLOAT
from repro.cpu.flat import FlatScheduler
from repro.cpu.interrupts import PoissonInterruptSource
from repro.cpu.machine import Machine
from repro.experiments.common import figure6_structure
from repro.schedulers.sfq_leaf import SfqScheduler
from repro.sim.engine import Simulator
from repro.sim.rng import make_rng
from repro.smp.machine import SmpMachine
from repro.threads.segments import Compute, SegmentListWorkload, SleepFor
from repro.threads.thread import SimThread
from repro.units import MS, SECOND, US
from repro.workloads.bursty import BurstyWorkload
from repro.workloads.dhrystone import DhrystoneWorkload
from repro.workloads.interactive import InteractiveWorkload

#: counters every phase reports after its run
Counters = Dict[str, int]
#: drive() advances the simulation; counters() reads the final counters
PhaseRun = Tuple[Callable[[], None], Callable[[], Counters]]

CAPACITY = 100_000_000


class Phase:
    """One timed unit of a scenario: a builder returning (drive, counters)."""

    __slots__ = ("name", "setup")

    def __init__(self, name: str, setup: Callable[[], PhaseRun]) -> None:
        self.name = name
        self.setup = setup


class Scenario:
    """A named list of phases at a given size."""

    __slots__ = ("name", "description", "phases")

    def __init__(self, name: str, description: str,
                 phases: Callable[[bool], List[Phase]]) -> None:
        self.name = name
        self.description = description
        self.phases = phases


def _machine_counters(machine: Union[Machine, SmpMachine], engine: Simulator,
                      threads: int) -> Callable[[], Counters]:
    def counters() -> Counters:
        return {
            "events": engine.events_fired,
            "dispatches": machine.stats.dispatches,
            "sim_ns": engine.now,
            "threads": threads,
        }
    return counters


# --- figure-5 replay ---------------------------------------------------------


def _figure5_phases(quick: bool) -> List[Phase]:
    duration = (60 if quick else 240) * SECOND

    def setup() -> PhaseRun:
        engine = Simulator()
        machine = Machine(engine, FlatScheduler(SfqScheduler()),
                          capacity_ips=CAPACITY, default_quantum=20 * MS)
        for index in range(5):
            machine.spawn(SimThread("dhry-%d" % index,
                                    DhrystoneWorkload(300, 10_000)))
        for index in range(2):
            rng = make_rng(11, "daemon/%d" % index)
            machine.spawn(SimThread(
                "daemon-%d" % index,
                InteractiveWorkload(burst_work=400_000,
                                    think_time=120 * MS, rng=rng)))
        return (lambda: machine.run_until(duration),
                _machine_counters(machine, engine, 7))

    return [Phase("replay", setup)]


# --- figure-8 replay ---------------------------------------------------------


def _figure8_phases(quick: bool) -> List[Phase]:
    duration = (60 if quick else 240) * SECOND

    def setup() -> PhaseRun:
        structure, sfq1, sfq2, svr4 = figure6_structure(
            sfq1_weight=2, sfq2_weight=6, svr4_weight=1)
        engine = Simulator()
        machine = Machine(engine, HierarchicalScheduler(structure),
                          capacity_ips=CAPACITY, default_quantum=20 * MS)
        for leaf, prefix in ((sfq1, "sfq1"), (sfq2, "sfq2")):
            for index in range(2):
                thread = SimThread("%s-%d" % (prefix, index),
                                   DhrystoneWorkload(300, 10_000))
                leaf.attach_thread(thread)
                machine.spawn(thread)
        for index in range(4):
            rng = make_rng(3, "bg/%d" % index)
            thread = SimThread(
                "bg-%d" % index,
                BurstyWorkload(mean_busy_work=20_000_000,
                               mean_idle_time=400 * MS, rng=rng))
            svr4.attach_thread(thread)
            machine.spawn(thread)
        return (lambda: machine.run_until(duration),
                _machine_counters(machine, engine, 8))

    return [Phase("replay", setup)]


# --- deep hierarchy (depth 8, fanout 8) churn --------------------------------


def _deep_tree() -> Tuple[SchedulingStructure, List]:
    """Depth-8 tree: fanout 8 at the top two levels, chains below.

    Leaves sit at depth 8, so every dispatch walks eight SFQ queues and
    every charge restamps eight ancestors — the paper's O(depth) cost,
    maximized.  Float tag math keeps the measurement about dispatch
    machinery, not exact tag arithmetic.
    """
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


def _deep_hierarchy_phases(quick: bool) -> List[Phase]:
    duration = (10 if quick else 40) * SECOND

    def setup() -> PhaseRun:
        structure, leaves = _deep_tree()
        engine = Simulator()
        machine = Machine(engine, HierarchicalScheduler(structure),
                          capacity_ips=CAPACITY, default_quantum=2 * MS)
        count = 0
        for index, leaf in enumerate(leaves):
            rng = make_rng(17, "churn/%d" % index)
            churn = SimThread(
                "churn-%d" % index,
                InteractiveWorkload(burst_work=150_000,
                                    think_time=8 * MS, rng=rng))
            leaf.attach_thread(churn)
            machine.spawn(churn)
            count += 1
            if index % 8 == 0:
                hog = SimThread("hog-%d" % index, DhrystoneWorkload(300, 5_000))
                leaf.attach_thread(hog)
                machine.spawn(hog)
                count += 1
        return (lambda: machine.run_until(duration),
                _machine_counters(machine, engine, count))

    return [Phase("churn", setup)]


# --- SMP + interrupt storm ---------------------------------------------------


def _smp_interrupts_phases(quick: bool) -> List[Phase]:
    smp_duration = (5 if quick else 20) * SECOND
    intr_duration = (5 if quick else 20) * SECOND

    def smp_setup() -> PhaseRun:
        structure, sfq1, sfq2, svr4 = figure6_structure(
            sfq1_weight=1, sfq2_weight=2, svr4_weight=1)
        engine = Simulator()
        machine = SmpMachine(engine, HierarchicalScheduler(structure),
                             num_cpus=8, capacity_ips=CAPACITY,
                             default_quantum=5 * MS)
        for index in range(12):
            thread = SimThread("cpu-%d" % index, DhrystoneWorkload(300, 10_000))
            (sfq1 if index % 2 else sfq2).attach_thread(thread)
            machine.spawn(thread)
        for index in range(8):
            rng = make_rng(5, "inter/%d" % index)
            thread = SimThread(
                "inter-%d" % index,
                InteractiveWorkload(burst_work=500_000,
                                    think_time=20 * MS, rng=rng))
            svr4.attach_thread(thread)
            machine.spawn(thread)

        def counters() -> Counters:
            return {
                "events": engine.events_fired,
                "dispatches": machine.stats.dispatches,
                "sim_ns": engine.now,
                "threads": 20,
            }
        return (lambda: machine.run_until(smp_duration)), counters

    def intr_setup() -> PhaseRun:
        engine = Simulator()
        machine = Machine(engine, FlatScheduler(SfqScheduler()),
                          capacity_ips=CAPACITY, default_quantum=10 * MS)
        machine.add_interrupt_source(PoissonInterruptSource(
            mean_interarrival=800 * US, mean_service=60 * US,
            rng=make_rng(7, "intr/a")))
        machine.add_interrupt_source(PoissonInterruptSource(
            mean_interarrival=2 * MS, mean_service=150 * US,
            rng=make_rng(7, "intr/b")))
        for index in range(6):
            machine.spawn(SimThread("dhry-%d" % index,
                                    DhrystoneWorkload(300, 5_000),
                                    weight=1 + index % 3))
        return (lambda: machine.run_until(intr_duration),
                _machine_counters(machine, engine, 6))

    return [Phase("smp", smp_setup), Phase("interrupts", intr_setup)]


# --- admission storm ---------------------------------------------------------


def _admission_storm_phases(quick: bool) -> List[Phase]:
    population = 2_000 if quick else 10_000

    def setup() -> PhaseRun:
        structure = SchedulingStructure(FLOAT)
        leaves = []
        for group in range(8):
            node = structure.mknod("g%d" % group, 1 + group % 4)
            for leaf in range(2):
                leaves.append(structure.mknod(
                    "l%d" % leaf, 1, parent=node,
                    scheduler=SfqScheduler(FLOAT)))
        engine = Simulator()
        machine = Machine(engine, HierarchicalScheduler(structure),
                          capacity_ips=CAPACITY, default_quantum=1 * MS)
        spacing = SECOND // population  # arrivals spread over ~1 simulated s
        for index in range(population):
            thread = SimThread(
                "storm-%d" % index,
                SegmentListWorkload([
                    Compute(40_000), SleepFor(2 * MS), Compute(40_000)]),
                weight=1 + index % 5)
            leaves[index % len(leaves)].attach_thread(thread)
            machine.spawn(thread, at=index * spacing)

        def drive() -> None:
            # Horizon with slack: all arrivals + total work + sleep time.
            total_work_ns = population * 80_000 * SECOND // CAPACITY
            machine.run_until(SECOND + 4 * total_work_ns + SECOND)

        return drive, _machine_counters(machine, engine, population)

    return [Phase("storm", setup)]


# --- 100k-entity scale storm -------------------------------------------------


def _scale_storm_phases(quick: bool) -> List[Phase]:
    population = 100_000 if quick else 250_000

    def setup() -> PhaseRun:
        # 64 groups x 32 SFQ leaves = 2048 leaves; with ~50-120 threads per
        # leaf every arena column is thousands of entries long, so this is
        # the scenario where per-entity state layout (columnar arena vs
        # per-object attributes) dominates the cost.
        structure = SchedulingStructure(FLOAT)
        leaves = []
        for group in range(64):
            node = structure.mknod("g%d" % group, 1 + group % 4)
            for leaf in range(32):
                leaves.append(structure.mknod(
                    "l%d" % leaf, 1, parent=node,
                    scheduler=SfqScheduler(FLOAT)))
        engine = Simulator()
        machine = Machine(engine, HierarchicalScheduler(structure),
                          capacity_ips=CAPACITY, default_quantum=1 * MS)
        # Arrivals spread over ~2 simulated seconds so admission, dispatch,
        # sleep and exit all overlap instead of running in lockstep phases.
        spacing = 2 * SECOND // population
        for index in range(population):
            thread = SimThread(
                "scale-%d" % index,
                SegmentListWorkload([
                    Compute(20_000), SleepFor(5 * MS), Compute(20_000)]),
                weight=1 + index % 7)
            leaves[index % len(leaves)].attach_thread(thread)
            machine.spawn(thread, at=index * spacing)

        def drive() -> None:
            # Horizon with slack: all arrivals + total work + sleep time.
            total_work_ns = population * 40_000 * SECOND // CAPACITY
            machine.run_until(2 * SECOND + 4 * total_work_ns + SECOND)

        return drive, _machine_counters(machine, engine, population)

    return [Phase("storm", setup)]


# --- cluster-tier scenarios --------------------------------------------------


def _cluster_phase(name: str, build_spec: Callable[[], Any]) -> Phase:
    """One phase that drives a whole cluster simulation (serial shards).

    Shard workers would add process wall-clock noise, so perfkit always
    times the serial execution — the same event sequence the gate's
    ``--shards N`` run must reproduce byte-for-byte.
    """

    def setup() -> PhaseRun:
        from repro.cluster.runner import run_cluster
        spec = build_spec()
        holder: List[Any] = []

        def drive() -> None:
            holder.append(run_cluster(spec, seed=42, shards=1))

        def counters() -> Counters:
            result = holder[0]
            return {
                "events": sum(int(host["events"]) for host in result.hosts),
                "dispatches": sum(int(host["dispatches"])
                                  for host in result.hosts),
                "sim_ns": spec.horizon_ns,
                "threads": int(result.control["counters"]["placements"]),
            }

        return drive, counters

    return Phase(name, setup)


def _cluster_storm_phases(quick: bool) -> List[Phase]:
    from repro.cluster.scenario import storm_spec
    if quick:
        return [_cluster_phase("storm",
                               lambda: storm_spec(4, 4, 4_000, 16))]
    return [_cluster_phase("storm", lambda: storm_spec(8, 8, 50_000, 24))]


def _tenant_rebalance_phases(quick: bool) -> List[Phase]:
    from repro.cluster.scenario import rebalance_spec
    if quick:
        return [_cluster_phase("rebalance",
                               lambda: rebalance_spec(6, 600, 16))]
    return [_cluster_phase("rebalance", lambda: rebalance_spec(6, 2_400, 24))]


def scenarios() -> Dict[str, Scenario]:
    """The macro-scenario registry, keyed by name, in reporting order.

    This is the public way to enumerate perfkit's suite (faultlab mirrors
    these scenarios for its fault-injection cells).  The returned dict is
    a copy: mutating it does not affect the suite perfkit runs.
    """
    return dict(SCENARIOS)


#: the fixed suite, in reporting order
SCENARIOS: Dict[str, Scenario] = {
    scenario.name: scenario for scenario in (
        Scenario("figure5_replay",
                 "Figure-5 SFQ arm: 5 dhrystones + 2 interactive daemons",
                 _figure5_phases),
        Scenario("figure8_replay",
                 "Figure-8(a): 2:6:1 hierarchy under bursty background load",
                 _figure8_phases),
        Scenario("deep_hierarchy",
                 "depth-8/fanout-8 tree, 64 churning leaves + CPU hogs",
                 _deep_hierarchy_phases),
        Scenario("smp_interrupt_storm",
                 "8-CPU SMP mix, then a Poisson interrupt storm",
                 _smp_interrupts_phases),
        Scenario("admission_storm",
                 "thread admission storm: staggered spawn-to-exit lifecycles",
                 _admission_storm_phases),
        Scenario("scale_storm",
                 "100k-entity storm over 2048 SFQ leaves (arena scale test)",
                 _scale_storm_phases),
        Scenario("cluster_storm",
                 "multi-host placement storm through the cluster tier",
                 _cluster_storm_phases),
        Scenario("tenant_rebalance",
                 "affinity placement vs rebalancer under host churn",
                 _tenant_rebalance_phases),
    )
}
