"""Tests of the benchmark itself: layer map, attribution, checks, names.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import cProfile
import json
import os
import re
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

REPRO = os.path.join(ROOT, "src", "repro")
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_layer_map_covers_every_repro_package():
    entries = {name for name in os.listdir(REPRO)
               if name.endswith(".py")
               or os.path.isfile(os.path.join(REPRO, name, "__init__.py"))}
    assert entries == set(layers.PACKAGE_LAYERS)
    assert set(layers.PACKAGE_LAYERS.values()) <= set(layers.LAYERS)


def test_owner_rules():
    root = os.path.normpath(REPRO)
    assert layers.owner((os.path.join(root, "core", "sfq.py"), 1, "f"),
                        root) == "core"
    assert layers.owner((os.path.join(root, "core", "tags.py"), 1, "f"),
                        root) == "tags"
    assert layers.owner((os.path.join(root, "trace", "x.py"), 1, "f"),
                        root) == "obs"
    assert layers.owner(("/usr/lib/python3/fractions.py", 1, "f"),
                        root) == "tags"
    assert layers.owner(("/usr/lib/python3/json/encoder.py", 1, "f"),
                        root) == "serialize"
    assert layers.owner(("~", 0, "<built-in method repro.core._sfqc."
                         "pick_leaf>"), root) == "core"
    assert layers.owner(("~", 0, "<built-in method builtins.len>"),
                        root) is None


def test_builtin_time_goes_to_its_nearest_repro_callers():
    root = os.path.normpath(REPRO)
    cpu = (os.path.join(root, "cpu", "machine.py"), 1, "tick")
    sim = (os.path.join(root, "sim", "engine.py"), 1, "run")
    helper = ("/usr/lib/python3/heapq.py", 1, "helper")
    builtin = ("~", 0, "<built-in method builtins.len>")
    stats = {
        cpu: (1, 1, 1.0, 1.0, {}),
        sim: (1, 1, 1.0, 1.0, {}),
        helper: (2, 2, 2.0, 3.0, {cpu: (1, 1, 1.0, 1.5),
                                  sim: (1, 1, 1.0, 1.5)}),
        builtin: (4, 4, 4.0, 4.0, {helper: (4, 4, 4.0, 4.0)}),
    }
    totals = layers.attribute(stats, root, 9.0)
    assert totals["cpu"] == pytest.approx(4.0)
    assert totals["sim"] == pytest.approx(4.0)
    assert totals["other"] == pytest.approx(1.0)


def test_layer_sums_account_for_the_traced_run():
    prepared = workloads.build("deep_churn", 3)
    profile = cProfile.Profile()
    start = time.perf_counter()
    profile.enable()
    prepared.drive()
    profile.disable()
    wall = time.perf_counter() - start
    totals = layers.attribute(layers.profile_stats(profile), REPRO, wall)
    assert set(totals) == set(layers.LAYERS)
    assert sum(totals.values()) == pytest.approx(wall)
    # nearly all of it lands on a named layer, core first on this tree
    assert totals["other"] < 0.05 * wall
    assert max(totals, key=totals.get) == "core"


def test_a_corrupted_reference_digest_counts_as_a_failed_run(tmp_path,
                                                            monkeypatch):
    reference = dict(run.load_references()["deep_churn"][
        str(run.DEFAULT_SEED)])
    reference["threads"] = "0" * 64
    path = tmp_path / "references.json"
    path.write_text(json.dumps({"deep_churn": {
        str(run.DEFAULT_SEED): reference}}))
    monkeypatch.setattr(run, "REFERENCES", str(path))
    bench = run.Bench("deep_churn", run.DEFAULT_SEED, "pure")
    try:
        assert bench.drive("timed") is None
    finally:
        bench.close()
    assert bench.attempted == 1
    assert "references.json" in bench.failures[0]


def test_digest_drift_between_runs_counts_as_failed():
    bench = run.Bench("deep_churn", 5, "pure")
    bench.first = {"digests": {"threads": "x"}, "events": 1}
    report = {"digests": {"threads": "y"}, "events": 1, "dispatches": 1}
    with pytest.raises(run.Failure):
        bench.check(report)
    report["digests"]["threads"] = "x"
    report["events"] = 2
    with pytest.raises(run.Failure):
        bench.check(report)


def test_every_metric_name_is_well_formed_and_declared():
    spec = _spec()
    declared = {section: [metric["name"] for metric in spec[section]]
                for section in ("end_to_end", "per_layer")}
    for names in declared.values():
        assert all(NAME.fullmatch(name) for name in names)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    fake = {"run_s": 2.0, "dispatches": 10, "events": 20, "setup_s": 0.2,
            "host_run_s": 2.2, "calib_s": 0.014,
            "rss_parent_mb": 30.0, "rss_worker_mb": 40.0,
            "cluster": {"simulate_s": 1.0}, "digests": {},
            "layers": {layer: 0.1 for layer in layers.LAYERS},
            "counts": {name: 1 for name in run.COUNT_NAMES}}
    assert (sorted(run.end_to_end([0.2], [fake]))
            == sorted(declared["end_to_end"]))
    bench = run.Bench("deep_churn", 5, "pure")
    bench.attempted = 1
    assert (sorted(run.per_layer(bench, [fake], fake, 1.0))
            == sorted(declared["per_layer"]))


def test_timings_scale_to_the_reference_host_speed():
    def report(shards):
        return {"setup_s": 0.2, "run_s": 3.0,
                "calib_s": 2 * run.REFERENCE_CALIB_S,
                "provenance": {"shards": shards},
                "cluster": {"write_s": 1.0, "messages": 7},
                "layers": {"core": 2.0}}
    serial = run.to_reference(report(1))
    assert serial["run_s"] == pytest.approx(1.5)
    assert serial["host_run_s"] == 3.0
    assert serial["setup_s"] == pytest.approx(0.1)
    assert serial["cluster"] == {"write_s": 0.5, "messages": 7}
    assert serial["layers"]["core"] == pytest.approx(1.0)
    # sharded work runs outside the calibrated process: host seconds stay
    sharded = run.to_reference(report(2))
    assert sharded["run_s"] == sharded["host_run_s"] == 3.0


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail([1.0] * 10) is None
    assert run.tail([float(i) for i in range(100)]) == (90, 89.0)
