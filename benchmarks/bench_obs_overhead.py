"""EXP-OBS — instrumentation overhead of the observability event bus.

Runs the Figure-5 workload (five Dhrystones plus interactive daemons,
both scheduler variants) under four instrumentation levels:

* **off** — no bus subscriber; every emit site reduced to one
  ``BUS.active`` attribute read;
* **binlog (deferred capture)** — :class:`BinaryTraceWriter` in
  ``defer=True`` mode: capture appends raw triples, encoding happens at
  seal.  The cheap leave-it-on path (target ≤1.5x off); the seal cost is
  measured separately;
* **binlog (streaming)** — the writer encoding inline with bounded
  memory, for million-event runs;
* **full stack** — per-node schedstats plus the Chrome-trace builder,
  the heaviest in-memory consumers.

A second pair runs perfkit's ``deep_hierarchy`` workload (depth-8 tree,
64 churning leaves, quick size) with no collector and with a
:class:`SchedStat` attached alone -- the native-counter path, which
keeps the untraced fast paths (and, compiled, the turbo tick) engaged.
Its ratio is recorded per engine (``REPRO_ENGINE``): a run replaces
only the current engine's depth-8 entries in the report it writes.

Ratios are computed from *interleaved pairs*: each round runs every
variant back to back and divides by that same round's traced-off time,
then the median ratio is reported.  Pairing cancels slow host drift
(CPU frequency, VM steal) that makes independent best-of-N ratios on
shared runners swing by 2x; the median resists the remaining spikes.

Run as a script to emit ``benchmarks/BENCH_OBS.json`` in the perfkit
schema, so capture-overhead regressions gate like events/s::

    PYTHONPATH=src python benchmarks/bench_obs_overhead.py --rounds 12

The pytest-benchmark entry points below remain for ``pytest
benchmarks/ --benchmark-only``.  Every variant must produce the
*identical* experiment result — the bus observes, never steers — which
is asserted here at benchmark scale.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.engine import active_engine
from repro.experiments import figure5
from repro.obs import events as ev
from repro.obs.binlog import BinaryTraceWriter
from repro.obs.chrometrace import ChromeTraceBuilder
from repro.obs.schedstat import SchedStat
from repro.perfkit.scenarios import scenarios as perfkit_scenarios
from repro.units import SECOND

from benchmarks.conftest import run_once

#: long enough to dominate setup cost, short enough for CI
DURATION = 10 * SECOND

#: figure5.run drives both scheduler variants for DURATION each
SIM_NS = 2 * DURATION

#: five dhrystones + two daemons, per variant machine
THREADS = 14

#: ROADMAP target for SchedStat on vs off on the depth-8 workload.  Not
#: a gate: neither engine met it when it was measured (docs/PERFORMANCE.md
#: "Native counters"), so the script reports the ratio against it.
DEPTH8_TARGET = 1.15


def run_plain():
    assert not ev.BUS.active
    return figure5.run(duration=DURATION)


def run_binlog(defer: bool = True):
    """Binlog-only capture into memory; returns (result, writer, seal_s)."""
    writer = BinaryTraceWriter(io.BytesIO(), defer=defer)
    with ev.BUS.subscription(writer):
        result = figure5.run(duration=DURATION)
    t0 = time.perf_counter()
    writer.close()
    seal_s = time.perf_counter() - t0
    return result, writer, seal_s


def run_observed():
    stats = SchedStat()
    builder = ChromeTraceBuilder()
    with ev.BUS.subscription(stats), ev.BUS.subscription(builder):
        result = figure5.run(duration=DURATION)
    return result, stats, builder


def run_depth8(collect: bool) -> Tuple[float, Dict[str, int]]:
    """Drive perfkit's quick deep_hierarchy run; returns (drive_s, counters).

    Only the drive is timed (the tree and threads are built first).  With
    ``collect`` a :class:`SchedStat` is the only thing attached.
    """
    (phase,) = perfkit_scenarios()["deep_hierarchy"].phases(True)
    drive, counters = phase.setup()
    if not collect:
        elapsed, __ = _timed(drive)
        return elapsed, counters()
    stats = SchedStat()

    def observed() -> None:
        # the timed region includes the fold when the subscription closes
        with ev.BUS.subscription(stats):
            drive()

    elapsed, __ = _timed(observed)
    assert stats.nodes["/"].dispatches > 0, "the collector saw the run"
    return elapsed, counters()


# --- pytest-benchmark entry points -------------------------------------------


def test_obs_off_baseline(benchmark):
    result = run_once(benchmark, run_plain)
    assert result.rows  # the experiment actually ran


def test_obs_binlog_capture(benchmark):
    result, writer, __ = run_once(benchmark, run_binlog)
    assert writer.event_count > 1000, "the binlog saw the run"
    assert result.rows == run_plain().rows


def test_obs_binlog_streaming(benchmark):
    result, writer, __ = run_once(benchmark, run_binlog, defer=False)
    assert writer.event_count > 1000
    assert result.rows == run_plain().rows


def test_obs_depth8_schedstat(benchmark):
    __, counters = run_once(benchmark, run_depth8, True)
    # Counting must not steer either: the same run as with nothing attached.
    assert counters == run_depth8(False)[1]


def test_obs_on_full_stack(benchmark):
    result, stats, builder = run_once(benchmark, run_observed)
    assert builder.event_count > 1000, "collectors saw the run"
    assert stats.nodes["/"].charges > 0
    # Observing must not steer: identical results with and without the bus.
    assert result.rows == run_plain().rows


# --- BENCH_OBS report (perfkit schema) ---------------------------------------

#: measurement variants, in per-round execution order ("off" must be first:
#: it is the denominator of that round's ratios)
_VARIANTS: List[Tuple[str, str]] = [
    ("obs_off", "figure-5, no bus subscriber (the traced-off baseline)"),
    ("obs_binlog", "figure-5, binlog deferred capture (encode at seal; "
                   "the leave-it-on path, target <=1.5x off)"),
    ("obs_binlog_streaming", "figure-5, binlog streaming encode "
                             "(bounded memory)"),
    ("obs_full_stack", "figure-5, schedstat + chrome-trace in-memory "
                       "collectors"),
]

#: the depth-8 pair; "off" is the denominator of its round's ratio
_DEPTH8_VARIANTS: List[Tuple[str, str]] = [
    ("obs_depth8_off", "depth-8 deep_hierarchy (quick), no collector"),
    ("obs_depth8_schedstat", "depth-8 deep_hierarchy (quick), SchedStat "
                             "attached alone (native counters; target "
                             "<=%.2fx off)" % DEPTH8_TARGET),
]


def _engine_name(name: str) -> str:
    """A depth-8 scenario name, qualified by the engine this run uses."""
    return "%s_%s" % (name, active_engine())


def _timed(runner: Callable[[], Any]) -> Tuple[float, Any]:
    t0 = time.perf_counter()
    value = runner()
    return time.perf_counter() - t0, value


def _run_round() -> Dict[str, Dict[str, Any]]:
    """One interleaved round: every variant once, back to back."""
    round_data: Dict[str, Dict[str, Any]] = {}
    elapsed, __ = _timed(run_plain)
    round_data["obs_off"] = {"run_s": elapsed, "events": 0, "seal_s": 0.0}
    elapsed, (__, writer, seal_s) = _timed(lambda: run_binlog(defer=True))
    round_data["obs_binlog"] = {"run_s": elapsed - seal_s,
                                "events": writer.event_count,
                                "seal_s": seal_s}
    elapsed, (__, writer, seal_s) = _timed(lambda: run_binlog(defer=False))
    round_data["obs_binlog_streaming"] = {"run_s": elapsed,
                                          "events": writer.event_count,
                                          "seal_s": seal_s}
    elapsed, __ = _timed(run_observed)
    round_data["obs_full_stack"] = {"run_s": elapsed, "events": 0,
                                    "seal_s": 0.0}
    for name, collect in (("obs_depth8_off", False),
                          ("obs_depth8_schedstat", True)):
        elapsed, counters = run_depth8(collect)
        round_data[name] = {"run_s": elapsed, "seal_s": 0.0,
                            "counters": counters}
    return round_data


def _scenario_entry(description: str, samples: List[Dict[str, Any]],
                    off: List[Dict[str, Any]], events: int, dispatches: int,
                    sim_ns: int, threads: int) -> Dict[str, Any]:
    """One perfkit-schema scenario entry, with paired ratios vs ``off``."""
    runs = [sample["run_s"] for sample in samples]
    median_run = statistics.median(runs)
    ratios = [sample["run_s"] / base["run_s"]
              for sample, base in zip(samples, off)]
    return {
        "description": description,
        "repeats": [{
            "build_s": 0.0,
            "run_s": sample["run_s"],
            "events": events,
            "dispatches": dispatches,
            "sim_ns": sim_ns,
            "threads": threads,
            "maxrss_kb": 0,
            "phases": {},
        } for sample in samples],
        "stats": {
            "run_s": {
                "min": min(runs),
                "median": median_run,
                "mean": statistics.fmean(runs),
                "stdev": statistics.stdev(runs),
            },
            "events_per_sec": events / median_run if median_run > 0 else 0.0,
            "dispatches_per_sec":
                dispatches / median_run if median_run > 0 else 0.0,
            "events": events,
            "dispatches": dispatches,
            "peak_rss_kb": 0,
        },
        # extra keys ride along unvalidated in the perfkit schema
        "overhead_vs_off": {
            "paired_ratios": [round(r, 4) for r in ratios],
            "median": statistics.median(ratios),
            "min_based": min(runs) / min(s["run_s"] for s in off),
        },
        "seal_s_median": statistics.median(
            sample["seal_s"] for sample in samples),
    }


def measure(rounds: int = 12,
            echo: Optional[Callable[[str], None]] = None) -> Dict[str, Any]:
    """Interleaved overhead measurement; returns a perfkit-schema report."""
    if rounds < 2:
        raise ValueError("need >= 2 rounds for a median, got %d" % rounds)
    # warm-up: imports, code objects, allocator pools
    run_plain()
    run_depth8(True)
    counts: Dict[str, int] = {}

    def count(event: ev.Event) -> None:
        counts[event.kind] = counts.get(event.kind, 0) + 1

    with ev.BUS.subscription(count):
        figure5.run(duration=DURATION)
    events_total = sum(counts.values())
    dispatches = counts.get(ev.DISPATCH, 0)

    names = [name for name, __ in _VARIANTS + _DEPTH8_VARIANTS]
    samples: Dict[str, List[Dict[str, Any]]] = {name: [] for name in names}
    for index in range(rounds):
        round_data = _run_round()
        for name in names:
            samples[name].append(round_data[name])
        if echo is not None:
            off_s = round_data["obs_off"]["run_s"]
            echo("round %2d/%d  off %6.2f ms   binlog %.3fx   "
                 "streaming %.3fx   full %.3fx   depth-8 schedstat %.3fx"
                 % (index + 1, rounds, off_s * 1e3,
                    round_data["obs_binlog"]["run_s"] / off_s,
                    round_data["obs_binlog_streaming"]["run_s"] / off_s,
                    round_data["obs_full_stack"]["run_s"] / off_s,
                    round_data["obs_depth8_schedstat"]["run_s"]
                    / round_data["obs_depth8_off"]["run_s"]))

    scenarios: Dict[str, Any] = {}
    for name, description in _VARIANTS:
        events = events_total if name != "obs_off" else 0
        scenarios[name] = _scenario_entry(
            description, samples[name], samples["obs_off"], events,
            dispatches, SIM_NS, THREADS)
    depth8 = samples["obs_depth8_off"][0]["counters"]
    for name, description in _DEPTH8_VARIANTS:
        entry = _scenario_entry(
            description + ", REPRO_ENGINE=%s" % active_engine(),
            samples[name], samples["obs_depth8_off"], depth8["events"],
            depth8["dispatches"], depth8["sim_ns"], depth8["threads"])
        entry["engine"] = active_engine()
        scenarios[_engine_name(name)] = entry

    report = {
        "schema": "repro.perfkit/1",
        "mode": "quick",
        "repeats": rounds,
        "host": {
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "scenarios": scenarios,
    }
    from repro.perfkit.schema import validate_report
    return validate_report(report)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="measure observability capture overhead, emit "
                    "BENCH_OBS.json in the perfkit schema")
    parser.add_argument("--rounds", type=int, default=12,
                        help="interleaved measurement rounds (default 12)")
    parser.add_argument("--out", default="benchmarks/BENCH_OBS.json",
                        help="output path (default benchmarks/BENCH_OBS.json)")
    args = parser.parse_args(argv)

    report = measure(rounds=args.rounds, echo=print)
    engine = active_engine()
    if os.path.exists(args.out):
        # keep the other engine's depth-8 entries: each engine's ratio is
        # measured by a run under that engine
        with open(args.out, "r", encoding="utf-8") as handle:
            previous = json.load(handle)["scenarios"]
        for name, entry in previous.items():
            if entry.get("engine") not in (None, engine):
                report["scenarios"][name] = entry
    from repro.perfkit.schema import dump_report
    dump_report(report, args.out)

    print()
    shown = [name for name, __ in _VARIANTS]
    shown += [_engine_name(name) for name, __ in _DEPTH8_VARIANTS]
    for name in shown:
        entry = report["scenarios"][name]
        overhead = entry["overhead_vs_off"]
        line = "%-22s median %7.2f ms   %5.3fx off (min-based %5.3fx)" % (
            name, entry["stats"]["run_s"]["median"] * 1e3,
            overhead["median"], overhead["min_based"])
        if entry["seal_s_median"]:
            line += "   seal %5.2f ms" % (entry["seal_s_median"] * 1e3)
        print(line)
    print("wrote %s" % args.out)
    binlog_ratio = report["scenarios"]["obs_binlog"]["overhead_vs_off"]["median"]
    depth8_ratio = report["scenarios"][_engine_name("obs_depth8_schedstat")][
        "overhead_vs_off"]["median"]
    print("depth-8 SchedStat on/off (%s): %.3fx, target <=%.2fx: %s"
          % (engine, depth8_ratio, DEPTH8_TARGET,
             "met" if depth8_ratio <= DEPTH8_TARGET else "missed"))
    return 0 if binlog_ratio <= 1.5 else 1


if __name__ == "__main__":
    import sys
    sys.exit(main())
