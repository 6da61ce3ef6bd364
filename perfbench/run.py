"""The repo benchmark: the simulator's own host cost, per workload.

Usage (from the repository root)::

    python3 perfbench/run.py --workload flat_exact --seed 1 --seconds 20 \
        --trace 0 [--engine pure|compiled]

Every run is a fresh process (``child.py``), so import, build and spawn
costs are measured as a user meets them.  The benchmark first starts a
few set-up-only processes (``setup_s``), then drives the workload in new
processes until ``--seconds`` is used up (``run_s``,
``dispatches_per_s``, ``peak_rss_mb``).  With ``--trace 1`` it adds one
run under ``cProfile`` and reports the per-layer split instead.

Timings are host seconds scaled to a reference host speed: each process
times a fixed calibration job next to its own work, and its seconds are
multiplied by ``REFERENCE_CALIB_S / calibration time`` -- except for
sharded cluster runs, whose work runs in other processes.  The raw host
seconds are printed too.

Every run's outputs are checked: digests and event counts must repeat
across the runs of one invocation, must match ``references.json`` for the
recorded seeds, and the cluster's written artifacts must hash to its own
digests.  A run that raises, hangs or fails a check counts as failed.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it repeat every metric with
its unit, the ``run_s`` tail percentile, and the run's provenance.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

from layers import LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
REFERENCES = os.path.join(HERE, "references.json")
#: scratch space for cluster artifacts, inside the checkout
WORK = os.path.join(ROOT, ".perfbench_work")

WORKLOADS = ("flat_exact", "deep_churn", "deep_churn_stats",
             "cluster_storm_cli")
CLUSTER = "cluster_storm_cli"
#: seeds with recorded reference digests: the default and one held out
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919
#: set-up-only processes per invocation, after one discarded warm-up
SETUP_PROBES = 5
#: every invocation ends within this many seconds, or its runs count as hung
HARD_LIMIT_S = 170.0
#: digests that do not depend on the shard count (report.json records it)
SHARD_VARIANT = ("file.report",)
#: timings are scaled to a host on which ``child.calibrate()`` takes this
#: long (a typical reading on a 2-vCPU x86-64 VM with Python 3.11)
REFERENCE_CALIB_S = 0.0125
CLUSTER_SPANS = ("simulate_s", "write_s", "digest_s")

COUNT_NAMES = ("core.pick_next.calls", "core.charge.calls",
               "core.wake.calls", "core.block.calls", "tags.fraction.calls",
               "obs.emit.calls", "obs.subscriber.calls")


class Failure(Exception):
    """A run that raised, hung, or produced wrong output."""


class Bench:
    """One invocation: spawns run processes and checks their outputs."""

    def __init__(self, workload: str, seed: int, engine: str) -> None:
        self.workload = workload
        self.seed = seed
        self.started = time.perf_counter()
        self.workdir = os.path.join(WORK, "%s-%d" % (workload, os.getpid()))
        self.env = dict(os.environ, REPRO_ENGINE=engine)
        # set-up is measured with bytecode cached, as an installed package
        # has it: the warm-up process writes the cache
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.reference = load_references().get(workload, {}).get(str(seed))
        self.attempted = 0
        self.failures: List[str] = []
        #: outputs of the first good drive, which every later one must match
        self.first: Optional[dict] = None

    def spawn(self, mode: str, shards: Optional[int] = None) -> dict:
        """Start one run process and return its report."""
        request = {"workload": self.workload, "seed": self.seed,
                   "shards": shards, "workdir": self.workdir, "mode": mode,
                   "spawned": time.perf_counter()}
        timeout = max(1.0, HARD_LIMIT_S - (time.perf_counter() - self.started))
        try:
            proc = subprocess.run(
                [sys.executable, CHILD, json.dumps(request)], cwd=ROOT,
                env=self.env, capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise Failure("%s run hung past %.0f s" % (mode, timeout))
        if proc.returncode != 0:
            raise Failure("%s run exited %d:\n%s"
                          % (mode, proc.returncode, proc.stderr[-4000:]))
        try:
            report = json.loads(proc.stdout.splitlines()[-1])
        except (IndexError, ValueError):
            raise Failure("%s run printed no report" % mode)
        return to_reference(report)

    def drive(self, mode: str, shards: Optional[int] = None) -> Optional[dict]:
        """One checked drive; None (and a recorded failure) if it failed."""
        self.attempted += 1
        try:
            report = self.spawn(mode, shards)
            self.check(report, shard_invariant_only=shards is not None)
        except Failure as exc:
            self.failures.append(str(exc))
            return None
        return report

    def check(self, report: dict, shard_invariant_only: bool = False) -> None:
        """Raise :class:`Failure` unless the outputs are right."""
        digests = report["digests"]
        if shard_invariant_only:
            digests = {name: value for name, value in digests.items()
                       if name not in SHARD_VARIANT}
        check_outputs(self.workload, report, digests)
        if self.reference is not None:
            diff = sorted(name for name, value in digests.items()
                          if self.reference.get(name) != value)
            if diff:
                raise Failure("digests differ from references.json: %s"
                              % ", ".join(diff))
        if self.first is None:
            self.first = report
            return
        first = self.first["digests"]
        diff = sorted(name for name, value in digests.items()
                      if first.get(name) != value)
        if diff:
            raise Failure("digests differ between runs: %s" % ", ".join(diff))
        if report["events"] != self.first["events"]:
            raise Failure("sim.events differs between runs: %d vs %d"
                          % (report["events"], self.first["events"]))

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass


def to_reference(report: dict) -> dict:
    """Scale a run's host timings to the reference host speed, in place.

    The host's speed drifts by tens of percent over minutes on a shared
    machine; dividing by the run's own calibration time cancels that drift.
    A sharded run's work happens in worker processes whose speed this
    process's calibration does not follow, so it keeps host seconds.
    Raw host seconds stay in ``host_setup_s`` and ``host_run_s``.
    """
    factor = REFERENCE_CALIB_S / report["calib_s"]
    if report["provenance"]["shards"] != 1:
        factor = 1.0
    for key in ("setup_s", "run_s"):
        if key in report:
            report["host_" + key] = report[key]
            report[key] *= factor
    cluster = report.get("cluster", {})
    for span in CLUSTER_SPANS:
        if span in cluster:
            cluster[span] *= factor
    self_times = report.get("layers", {})
    for layer in self_times:
        self_times[layer] *= factor
    return report


def check_outputs(workload: str, report: dict, digests: Dict[str, str]) -> None:
    """Checks that hold for every seed, with or without a reference."""
    if report["dispatches"] <= 0 or report["events"] <= 0:
        raise Failure("no dispatches or events")
    if workload == CLUSTER:
        for name in ("trace", "placement"):
            if digests.get("file." + name) != digests[name]:
                raise Failure("written %s artifact does not hash to its "
                              "digest" % name)


def load_references() -> Dict[str, Dict[str, Dict[str, str]]]:
    """Recorded digests: workload -> seed -> digest name -> sha256."""
    with open(REFERENCES) as handle:
        return json.load(handle)


def tail(samples: List[float]) -> Optional[tuple]:
    """(percentile, value) of the highest percentile with >= 10 samples
    beyond it, or None when there are fewer than 11 samples."""
    n = len(samples)
    if n < 11:
        return None
    ordered = sorted(samples)
    return math.floor(100.0 * (n - 10) / n), ordered[n - 11]


def timed_loop(bench: Bench, seconds: float, fit: bool) -> List[dict]:
    """Drive fresh processes, one after another, for ``seconds``.

    Another run starts while time is left; with ``fit``, only if the last
    run's duration still fits, so that the traced runs that follow stay
    within the invocation's time limit.
    """
    runs: List[dict] = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        report = bench.drive("timed")
        if report is not None:
            runs.append(report)
        now = time.perf_counter()
        if now - start + (now - began if fit else 0.0) >= seconds:
            return runs


def measure(bench: Bench, seconds: float, trace: bool) -> tuple:
    """Run set-up probes, the timed loop and, if asked, the traced run."""
    try:
        bench.spawn("setup")  # warm-up: fills bytecode and engine caches
        setups = [bench.spawn("setup")["setup_s"]
                  for __ in range(SETUP_PROBES)]
    except Failure as exc:
        bench.attempted += 1
        bench.failures.append(str(exc))
        return [], [], None, None
    runs = timed_loop(bench, seconds, fit=trace)
    setups += [run["setup_s"] for run in runs]
    traced = untraced = None
    if trace and runs:
        if bench.workload == CLUSTER:
            # cProfile sees only its own process: trace the serial run,
            # and compare it with an untraced serial run
            serial = bench.drive("timed", shards=1)
            untraced = serial["run_s"] if serial else None
            traced = bench.drive("traced", shards=1)
        else:
            untraced = statistics.median(run["run_s"] for run in runs)
            traced = bench.drive("traced")
    return setups, runs, traced, untraced


def end_to_end(setups: List[float], runs: List[dict]) -> Dict[str, tuple]:
    return {
        "setup_s": (statistics.median(setups), "s"),
        "run_s": (statistics.median(run["run_s"] for run in runs), "s"),
        "dispatches_per_s": (statistics.median(
            run["dispatches"] / run["run_s"] for run in runs), "1/s"),
        "peak_rss_mb": (statistics.median(
            max(run["rss_parent_mb"], run["rss_worker_mb"]) for run in runs),
            "MiB"),
    }


def per_layer(bench: Bench, runs: List[dict], traced: dict,
              untraced: float) -> Dict[str, tuple]:
    metrics: Dict[str, tuple] = {}
    for layer in LAYERS:
        metrics[layer + ".self_s"] = (traced["layers"][layer], "s")
    metrics["sim.events"] = (traced["events"], "count")
    metrics["cpu.dispatches"] = (traced["dispatches"], "count")
    for name in COUNT_NAMES:
        metrics[name] = (traced["counts"][name], "count")
    cluster = traced["cluster"]
    metrics["cluster.messages"] = (cluster.get("messages", 0), "count")
    metrics["cluster.epochs"] = (cluster.get("epochs", 0), "count")
    for span in CLUSTER_SPANS:
        metrics["cluster." + span] = (statistics.median(
            run["cluster"].get(span, 0.0) for run in runs), "s")
    metrics["trace.overhead"] = (traced["run_s"] / untraced, "ratio")
    metrics["run_s.samples"] = (len(runs), "count")
    metrics["failed_share"] = (len(bench.failures) / bench.attempted, "ratio")
    metrics["rss.parent_mb"] = (statistics.median(
        run["rss_parent_mb"] for run in runs), "MiB")
    metrics["rss.worker_mb"] = (statistics.median(
        run["rss_worker_mb"] for run in runs), "MiB")
    metrics["host.run_s"] = (statistics.median(
        run["host_run_s"] for run in runs), "s")
    metrics["host.calib_s"] = (statistics.median(
        run["calib_s"] for run in runs), "s")
    return metrics


def git_commit() -> str:
    """HEAD of the checkout, or "unknown" outside a git work tree."""
    # never report the commit of a repository enclosing the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py",
                                     description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--engine", choices=("pure", "compiled"),
                        default="pure",
                        help="REPRO_ENGINE for every run process")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("perfbench: no src/repro under %s" % ROOT, file=sys.stderr)
        return 2
    bench = Bench(args.workload, args.seed, args.engine)
    try:
        setups, runs, traced, untraced = measure(
            bench, args.seconds, bool(args.trace))
    finally:
        bench.close()
    for failure in bench.failures:
        print("FAILED: " + failure, file=sys.stderr)
    if not runs or (args.trace and (traced is None or untraced is None)):
        print("perfbench: no good run to report", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": bench.attempted,
                          "failed": len(bench.failures), "metrics": {}}))
        return 1
    if args.trace:
        metrics = per_layer(bench, runs, traced, untraced)
    else:
        metrics = end_to_end(setups, runs)
    provenance = dict(runs[0]["provenance"], seed=args.seed,
                      commit=git_commit(), workload=args.workload,
                      reference_checked=bench.reference is not None)
    print("provenance: " + json.dumps(provenance, sort_keys=True))
    run_tail = tail([run["run_s"] for run in runs])
    print("run_s: n=%d median=%.6f s %s; host median=%.6f s, calibration "
          "median=%.6f s (reference %.4f s)" % (
              len(runs), statistics.median(run["run_s"] for run in runs),
              "p%d=%.6f s" % run_tail if run_tail else
              "(tail needs >= 11 samples)",
              statistics.median(run["host_run_s"] for run in runs),
              statistics.median(run["calib_s"] for run in runs),
              REFERENCE_CALIB_S))
    print("failed_share: %d/%d" % (len(bench.failures), bench.attempted))
    for name, (value, unit) in metrics.items():
        print("%s = %r %s" % (name, value, unit))
    print(json.dumps({
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
