"""Regression comparison between two BENCH reports.

The unit of comparison is a scenario's **median run wall time**.  A
scenario regresses when::

    current_median > baseline_median * (1 + threshold)

with a default threshold of 25% — wide enough to absorb host noise and CI
runner variance, tight enough to catch a real hot-path slip.  A scenario
in the current report with no baseline fails the comparison: it cannot
be checked, so a pass would be silent about it (record a baseline when a
scenario is added).  A scenario only in the baseline is reported but
does not fail (a run may select a subset).  ``--min-speedup name:X`` additionally
requires ``baseline_median / current_median >= X`` — used to demonstrate
an optimization target against a recorded pre-change baseline.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional


DEFAULT_THRESHOLD = 0.25


class ScenarioDelta:
    """Comparison outcome for one scenario."""

    __slots__ = ("name", "baseline_s", "current_s", "speedup", "regressed",
                 "required_speedup", "met_required")

    def __init__(self, name: str, baseline_s: float, current_s: float,
                 threshold: float,
                 required_speedup: Optional[float] = None) -> None:
        self.name = name
        self.baseline_s = baseline_s
        self.current_s = current_s
        self.speedup = baseline_s / current_s if current_s > 0 else float("inf")
        self.regressed = current_s > baseline_s * (1.0 + threshold)
        self.required_speedup = required_speedup
        self.met_required = (required_speedup is None
                             or self.speedup >= required_speedup)

    def render(self) -> str:
        """One aligned report line: name, medians, speedup, failure flags."""
        flags = []
        if self.regressed:
            flags.append("REGRESSION")
        if not self.met_required:
            flags.append("below required %.2fx" % self.required_speedup)
        note = ("  [" + ", ".join(flags) + "]") if flags else ""
        return "%-22s %9.3fs -> %9.3fs   %5.2fx%s" % (
            self.name, self.baseline_s, self.current_s, self.speedup, note)


class CompareResult:
    """All per-scenario deltas plus the overall verdict."""

    __slots__ = ("deltas", "only_baseline", "only_current", "threshold")

    def __init__(self, deltas: List[ScenarioDelta], only_baseline: List[str],
                 only_current: List[str], threshold: float) -> None:
        self.deltas = deltas
        self.only_baseline = only_baseline
        self.only_current = only_current
        self.threshold = threshold

    @property
    def ok(self) -> bool:
        """True when every current scenario has a baseline, none regressed,
        and every required speedup held."""
        return not self.only_current and all(
            not delta.regressed and delta.met_required
            for delta in self.deltas)

    def render(self) -> str:
        """The full human-readable comparison table plus the verdict line."""
        lines = ["scenario                 baseline ->    current   speedup"
                 "   (threshold %.0f%%)" % (self.threshold * 100)]
        lines.extend(delta.render() for delta in self.deltas)
        if self.only_baseline:
            lines.append("only in baseline: %s" % ", ".join(self.only_baseline))
        if self.only_current:
            lines.append("only in current:  %s  [NO BASELINE]"
                         % ", ".join(self.only_current))
        lines.append("verdict: %s" % ("OK" if self.ok else "FAIL"))
        return "\n".join(lines)


def compare_reports(current: Dict[str, Any], baseline: Dict[str, Any],
                    threshold: float = DEFAULT_THRESHOLD,
                    min_speedups: Optional[Dict[str, float]] = None
                    ) -> CompareResult:
    """Compare two validated BENCH reports; see the module docstring."""
    if threshold < 0:
        raise ValueError("threshold must be non-negative, got %r" % (threshold,))
    if current["mode"] != baseline["mode"]:
        raise ValueError(
            "cannot compare a %r-mode report against a %r-mode baseline; "
            "scenario durations differ by design" % (
                current["mode"], baseline["mode"]))
    min_speedups = dict(min_speedups or {})
    current_scenarios = current["scenarios"]
    baseline_scenarios = baseline["scenarios"]
    unknown = [name for name in min_speedups if name not in current_scenarios]
    if unknown:
        raise ValueError("--min-speedup for scenario(s) absent from the "
                         "current report: %s" % ", ".join(unknown))
    deltas = []
    for name, baseline_entry in baseline_scenarios.items():
        current_entry = current_scenarios.get(name)
        if current_entry is None:
            continue
        deltas.append(ScenarioDelta(
            name,
            baseline_entry["stats"]["run_s"]["median"],
            current_entry["stats"]["run_s"]["median"],
            threshold,
            min_speedups.get(name)))
    only_baseline = sorted(set(baseline_scenarios) - set(current_scenarios))
    only_current = sorted(set(current_scenarios) - set(baseline_scenarios))
    return CompareResult(deltas, only_baseline, only_current, threshold)


def parse_min_speedup(specs: List[str]) -> Dict[str, float]:
    """Parse repeated ``name:X`` CLI specs into a dict."""
    result: Dict[str, float] = {}
    for spec in specs:
        name, sep, value = spec.partition(":")
        if not sep or not name:
            raise ValueError("--min-speedup expects NAME:FACTOR, got %r" % spec)
        try:
            factor = float(value)
        except ValueError:
            raise ValueError("bad --min-speedup factor in %r" % spec) from None
        if factor <= 0:
            raise ValueError("--min-speedup factor must be positive: %r" % spec)
        result[name] = factor
    return result
