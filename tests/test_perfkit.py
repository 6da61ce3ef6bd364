"""The perfkit benchmark harness: schema, comparison logic, CLI.

These tests run the *real* harness with one tiny scenario (quick mode,
one repeat) so the end-to-end pipeline — run, validate, dump, load,
compare — is exercised without minutes of benchmarking.  Comparison
semantics (threshold, min-speedup, mode guard) are tested on synthetic
reports so they are timing-independent.
"""

import copy
import json
import os

import pytest

from repro.perfkit.compare import (
    DEFAULT_THRESHOLD,
    compare_reports,
    parse_min_speedup,
)
from repro.perfkit.harness import run_suite
from repro.perfkit.cli import main
from repro.perfkit.scenarios import SCENARIOS
from repro.perfkit.schema import (
    SCHEMA,
    SchemaError,
    dump_report,
    load_report,
    validate_report,
)

#: the cheapest scenario, used wherever a real measurement is required
FAST_SCENARIO = "figure5_replay"


@pytest.fixture(scope="module")
def quick_report():
    """One real quick-mode measurement, shared by the module's tests."""
    return run_suite(quick=True, repeats=1, scenario_names=[FAST_SCENARIO])


def _synthetic_report(mode, **medians):
    """A minimal report dict for compare tests (not schema-complete)."""
    scenarios = {}
    for name, median in medians.items():
        scenarios[name] = {"stats": {"run_s": {"median": median}}}
    return {"schema": SCHEMA, "mode": mode, "scenarios": scenarios}


class TestHarness:
    def test_quick_report_is_schema_valid(self, quick_report):
        assert validate_report(quick_report) is quick_report
        assert quick_report["schema"] == SCHEMA
        assert quick_report["mode"] == "quick"
        entry = quick_report["scenarios"][FAST_SCENARIO]
        assert entry["stats"]["events"] > 0
        assert entry["stats"]["dispatches"] > 0
        assert entry["stats"]["run_s"]["median"] > 0
        assert entry["stats"]["events_per_sec"] > 0

    def test_scenario_registry_is_consistent(self):
        for name, scenario in SCENARIOS.items():
            assert scenario.name == name
            assert scenario.description

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            run_suite(quick=True, repeats=1, scenario_names=["nope"])

    def test_trace_dir_records_a_valid_binlog(self, tmp_path, capsys):
        from repro.obs.binlog import BinaryTraceReader

        run_suite(quick=True, repeats=1, scenario_names=[FAST_SCENARIO],
                  echo=print, trace_dir=str(tmp_path))
        assert "traced" in capsys.readouterr().out
        reader = BinaryTraceReader(str(tmp_path / (FAST_SCENARIO + ".binlog")))
        assert len(reader) > 1000

    def test_bad_repeats_rejected(self):
        with pytest.raises(ValueError, match="repeats"):
            run_suite(quick=True, repeats=0)

    def test_dump_and_load_roundtrip(self, quick_report, tmp_path):
        path = str(tmp_path / "BENCH_test.json")
        dump_report(quick_report, path)
        loaded = load_report(path)
        assert loaded == json.loads(json.dumps(quick_report))

    def test_load_rejects_wrong_schema(self, quick_report, tmp_path):
        bad = copy.deepcopy(quick_report)
        bad["schema"] = "repro.perfkit/999"
        path = str(tmp_path / "bad.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(bad, handle)
        with pytest.raises(SchemaError):
            load_report(path)


class TestCompare:
    def test_no_change_is_ok(self):
        baseline = _synthetic_report("quick", deep=1.0, smp=2.0)
        current = _synthetic_report("quick", deep=1.0, smp=2.0)
        result = compare_reports(current, baseline)
        assert result.ok
        assert "OK" in result.render()

    def test_double_slowdown_fails(self):
        baseline = _synthetic_report("quick", deep=1.0)
        current = _synthetic_report("quick", deep=2.0)
        result = compare_reports(current, baseline)
        assert not result.ok
        assert result.deltas[0].regressed
        assert "REGRESSION" in result.render()

    def test_slowdown_within_threshold_is_ok(self):
        baseline = _synthetic_report("quick", deep=1.0)
        current = _synthetic_report("quick", deep=1.0 + DEFAULT_THRESHOLD - 0.01)
        assert compare_reports(current, baseline).ok

    def test_min_speedup_enforced(self):
        baseline = _synthetic_report("quick", deep=1.5)
        current = _synthetic_report("quick", deep=1.2)  # only 1.25x
        result = compare_reports(current, baseline,
                                 min_speedups={"deep": 1.5})
        assert not result.ok
        assert not result.deltas[0].met_required
        met = compare_reports(current, baseline, min_speedups={"deep": 1.2})
        assert met.ok

    def test_min_speedup_for_unknown_scenario_rejected(self):
        baseline = _synthetic_report("quick", deep=1.0)
        current = _synthetic_report("quick", deep=1.0)
        with pytest.raises(ValueError, match="absent"):
            compare_reports(current, baseline, min_speedups={"ghost": 2.0})

    def test_mode_mismatch_rejected(self):
        baseline = _synthetic_report("full", deep=1.0)
        current = _synthetic_report("quick", deep=1.0)
        with pytest.raises(ValueError, match="mode"):
            compare_reports(current, baseline)

    def test_scenario_only_in_baseline_does_not_fail(self):
        baseline = _synthetic_report("quick", deep=1.0, old_only=1.0)
        current = _synthetic_report("quick", deep=1.0)
        result = compare_reports(current, baseline)
        assert result.ok
        assert result.only_baseline == ["old_only"]
        assert result.only_current == []

    def test_unbaselined_scenario_fails(self):
        """A scenario the baseline cannot check must not pass silently."""
        baseline = _synthetic_report("quick", deep=1.0)
        current = _synthetic_report("quick", deep=1.0, new_only=1.0)
        result = compare_reports(current, baseline)
        assert not result.ok
        assert result.only_current == ["new_only"]
        rendered = result.render()
        assert "new_only  [NO BASELINE]" in rendered
        assert rendered.endswith("verdict: FAIL")

    def test_negative_threshold_rejected(self):
        report = _synthetic_report("quick", deep=1.0)
        with pytest.raises(ValueError, match="threshold"):
            compare_reports(report, report, threshold=-0.1)

    def test_parse_min_speedup(self):
        assert parse_min_speedup(["a:1.5", "b:2"]) == {"a": 1.5, "b": 2.0}
        with pytest.raises(ValueError):
            parse_min_speedup(["no-colon"])
        with pytest.raises(ValueError):
            parse_min_speedup(["a:not-a-number"])
        with pytest.raises(ValueError):
            parse_min_speedup(["a:-1"])


class TestCli:
    def test_run_then_compare_ok(self, quick_report, tmp_path, capsys):
        baseline_path = str(tmp_path / "baseline.json")
        current_path = str(tmp_path / "current.json")
        dump_report(quick_report, baseline_path)
        dump_report(quick_report, current_path)
        assert main(["compare", current_path, baseline_path]) == 0
        assert "verdict: OK" in capsys.readouterr().out

    def test_compare_fails_on_injected_slowdown(self, quick_report,
                                                tmp_path, capsys):
        baseline_path = str(tmp_path / "baseline.json")
        dump_report(quick_report, baseline_path)
        slowed = copy.deepcopy(quick_report)
        stats = slowed["scenarios"][FAST_SCENARIO]["stats"]["run_s"]
        for key in ("min", "median", "mean"):
            stats[key] *= 2.0
        slowed_path = str(tmp_path / "slowed.json")
        dump_report(slowed, slowed_path)
        assert main(["compare", slowed_path, baseline_path]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_compare_fails_on_unbaselined_scenario(self, quick_report,
                                                   tmp_path, capsys):
        baseline_path = str(tmp_path / "baseline.json")
        dump_report(quick_report, baseline_path)
        grown = copy.deepcopy(quick_report)
        grown["scenarios"]["unrecorded"] = grown["scenarios"][FAST_SCENARIO]
        grown_path = str(tmp_path / "grown.json")
        dump_report(grown, grown_path)
        assert main(["compare", grown_path, baseline_path]) == 1
        assert "unrecorded  [NO BASELINE]" in capsys.readouterr().out

    def test_committed_baseline_covers_every_scenario(self):
        """The CI bench job gates every scenario the quick suite runs."""
        baseline = load_report(os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "benchmarks", "baseline.json"))
        assert baseline["mode"] == "quick"
        assert sorted(baseline["scenarios"]) == sorted(SCENARIOS)

    def test_compare_missing_file_exits_2(self, quick_report, tmp_path,
                                          capsys):
        baseline_path = str(tmp_path / "baseline.json")
        dump_report(quick_report, baseline_path)
        assert main(["compare", str(tmp_path / "absent.json"),
                     baseline_path]) == 2
        assert "perfkit compare" in capsys.readouterr().err

    def test_cli_run_writes_valid_report(self, tmp_path, capsys):
        out = str(tmp_path / "bench" / "BENCH_cli.json")
        code = main(["run", "--quick", "--repeats", "1",
                     "--scenario", FAST_SCENARIO, "--out", out])
        assert code == 0
        report = load_report(out)
        assert report["mode"] == "quick"
        assert FAST_SCENARIO in report["scenarios"]
        assert "wrote" in capsys.readouterr().out
