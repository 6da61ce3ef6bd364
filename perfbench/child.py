"""One benchmark run process: set up, drive once, report one JSON line.

Invoked by ``run.py`` as ``python3 perfbench/child.py '<json request>'``
with the checkout root as the working directory.  The request names the
workload, seed, shard count, artifact directory, mode, and ``spawned``:
the parent's ``time.perf_counter()`` just before it started this process
(the same monotonic clock on Linux), so ``setup_s`` covers interpreter
start, importing ``repro``, building the structure and spawning threads.

Modes:
``setup``  stop once the simulation is ready to drive;
``timed``  drive once, untraced;
``traced`` drive once under ``cProfile`` and attribute it to layers.

Every process also times :func:`calibrate` twice once it is ready and,
when it drives, twice more after the drive; ``run.py`` uses the median
to scale this process's timings to a reference host speed.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import os
import platform
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import layers  # noqa: E402  (perfbench/ is on sys.path as the script's dir)
import workloads  # noqa: E402


class _Entry:
    """A weighted queue entry, shaped like the simulator's hot objects."""

    __slots__ = ("weight", "tag")

    def __init__(self, weight: int) -> None:
        self.weight = weight
        self.tag = 0

    def charge(self, work: int) -> int:
        self.tag += work // self.weight
        return self.tag


def calibrate() -> float:
    """Host seconds for a fixed pure-Python job that runs no ``repro`` code.

    The job does what the simulator's hot paths do -- slotted attribute
    updates, method calls, heap pushes and pops, dict counters -- so its
    time follows the host's current speed for this kind of code, and no
    change to the simulator can move it.
    """
    start = time.perf_counter()
    entries = [_Entry(1 + index % 7) for index in range(64)]
    heap = [(0, index) for index in range(64)]
    picks: dict = {}
    for step in range(12_000):
        __, index = heapq.heappop(heap)
        heapq.heappush(heap, (entries[index].charge(1000 + step % 13), index))
        picks[index] = picks.get(index, 0) + 1
    return time.perf_counter() - start


def _file_sha(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def _rss_mb(who: int) -> float:
    """Peak resident set size in MiB (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def _provenance(prepared: workloads.Prepared) -> dict:
    from repro.core import engine
    active = engine.active_engine()
    return {
        "engine": active,
        "build_key": engine.build_key() if active == "compiled" else None,
        "tag_mode": prepared.tag_mode,
        "shards": prepared.shards,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
    }


def _traced_counts(stats: dict, prepared: workloads.Prepared) -> dict:
    from repro.obs.events import EventBus
    from repro.obs.schedstat import SchedStat
    top = prepared.top
    calls = {
        "core.pick_next.calls": top.pick_next,
        "core.charge.calls": top.charge,
        "core.wake.calls": top.thread_runnable,
        "core.block.calls": top.thread_blocked,
        "obs.emit.calls": EventBus.emit,
        "obs.subscriber.calls": SchedStat.__call__,
    }
    counts = {name: layers.calls(stats, function)
              for name, function in calls.items()}
    counts["tags.fraction.calls"] = layers.calls_into_file(stats,
                                                           "fractions.py")
    return counts


def main(request: dict) -> dict:
    prepared = workloads.build(request["workload"], request["seed"],
                               request["shards"], request["workdir"])
    setup_s = time.perf_counter() - request["spawned"]
    calibrations = [calibrate(), calibrate()]
    report = {"setup_s": setup_s, "provenance": _provenance(prepared),
              "calib_s": statistics.median(calibrations)}
    if request["mode"] == "setup":
        return report
    profile = None
    if request["mode"] == "traced":
        import cProfile
        profile = cProfile.Profile()
    start = time.perf_counter()
    if profile is not None:
        profile.enable()
    out = prepared.drive()
    if profile is not None:
        profile.disable()
    run_s = time.perf_counter() - start
    calibrations += [calibrate(), calibrate()]
    digests = dict(out.digests)
    for name, path in out.files.items():
        digests["file." + name] = _file_sha(path)
    report.update({
        "run_s": run_s,
        "calib_s": statistics.median(calibrations),
        "digests": digests,
        "events": out.events,
        "dispatches": out.dispatches,
        "cluster": out.cluster,
        "rss_parent_mb": _rss_mb(resource.RUSAGE_SELF),
        "rss_worker_mb": _rss_mb(resource.RUSAGE_CHILDREN),
    })
    if profile is not None:
        stats = layers.profile_stats(profile)
        repro_root = os.path.join(ROOT, "src", "repro")
        report["layers"] = layers.attribute(stats, repro_root, run_s)
        report["counts"] = _traced_counts(stats, prepared)
    return report


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1])), sort_keys=True))
