"""Tests for seamcheck, the SF5xx cross-language engine-coherence rules.

Fixture convention (tests/fixtures/schedflow/seam/):

* ``sfNNN_bad.c`` must trigger SFNNN — and *only* SFNNN — when analyzed
  together with its optional ``sfNNN_py.py`` Python twin;
* ``sfNNN_ok.c`` (with the same twin) must analyze completely clean;
* every line that must be flagged carries an ``EXPECT-SFNNN`` marker
  comment, and the finding set must equal the marker set exactly.

The suite also seeds one-line skews into the *real* ``_sfqc.c`` and
asserts each rule catches its class of seam drift statically.
"""

import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.devtools.schedflow import RULES, analyze_paths, analyze_project
from repro.devtools.schedflow.parjobs import analyze_paths_jobs
from repro.devtools.schedflow.project import ProjectIndex

REPO_ROOT = Path(__file__).resolve().parent.parent
SEAM = REPO_ROOT / "tests" / "fixtures" / "schedflow" / "seam"
SRC = REPO_ROOT / "src"
SFQC = SRC / "repro" / "core" / "_sfqc.c"

SEAM_RULES = sorted(code for code in RULES if code.startswith("SF5"))

_MARKER_RE = re.compile(r"EXPECT-(SF\d+)")


def _pair_paths(code):
    """The analysis input for one fixture pair: the C file + any twin."""
    number = code[2:].lower()
    twin = SEAM / f"sf{number}_py.py"
    extra = [str(twin)] if twin.exists() else []
    return {
        "bad": [str(SEAM / f"sf{number}_bad.c")] + extra,
        "ok": [str(SEAM / f"sf{number}_ok.c")] + extra,
    }


def _markers(paths):
    """(filename, line, code) triples for every EXPECT marker."""
    expected = set()
    for path in paths:
        for lineno, line in enumerate(
                Path(path).read_text().splitlines(), start=1):
            for match in _MARKER_RE.finditer(line):
                expected.add((Path(path).name, lineno, match.group(1)))
    return expected


class TestSeamFixtures:
    def test_fixture_inventory(self):
        """Every SF5xx rule has a bad/ok C fixture pair in seam/."""
        bad = {f"SF{p.stem[2:5]}" for p in SEAM.glob("sf*_bad.c")}
        ok = {f"SF{p.stem[2:5]}" for p in SEAM.glob("sf*_ok.c")}
        assert bad == set(SEAM_RULES)
        assert ok == set(SEAM_RULES)

    @pytest.mark.parametrize("code", SEAM_RULES)
    def test_bad_fixture_triggers_exactly_at_markers(self, code):
        paths = _pair_paths(code)["bad"]
        findings = analyze_paths(paths)
        got = {(Path(f.path).name, f.line, f.code) for f in findings}
        expected = _markers(paths)
        assert expected, f"no EXPECT markers found for {code}"
        assert got == expected, [str(f) for f in findings]
        assert {f.code for f in findings} == {code}

    @pytest.mark.parametrize("code", SEAM_RULES)
    def test_ok_fixture_is_clean(self, code):
        paths = _pair_paths(code)["ok"]
        findings = analyze_paths(paths)
        assert findings == [], [str(f) for f in findings]

    def test_suppressed_fixture_is_clean(self):
        findings = analyze_paths([str(SEAM / "suppressed_ok.c")])
        assert findings == [], [str(f) for f in findings]

    def test_suppression_fixture_fires_without_its_comment(self):
        """suppressed_ok.c is only clean *because* of the in-place
        ``seamcheck: disable`` comment — stripping it surfaces SF504."""
        source = (SEAM / "suppressed_ok.c").read_text()
        stripped = re.sub(
            r"/\* seamcheck:.*?\*/", "", source, flags=re.DOTALL)
        assert stripped != source
        index = ProjectIndex()
        index.add_source(stripped, "stripped_seam.c")
        codes = {f.code for f in analyze_project(index)}
        assert codes == {"SF504"}


class TestRepositorySeamIsClean:
    def test_core_and_cpu_have_no_seam_findings(self):
        """The shipped compiled seam obeys its own coherence rules."""
        findings = analyze_paths(
            [str(SRC / "repro" / "core"), str(SRC / "repro" / "cpu")])
        seam = [f for f in findings if f.code.startswith("SF5")]
        assert seam == [], "\n".join(str(f) for f in seam)


def _analyze_seeded(c_text):
    """Analyze the real Python seam modules against a modified _sfqc.c."""
    index = ProjectIndex()
    for rel in ("core/sfq.py", "core/arena.py", "core/engine.py",
                "cpu/machine.py", "cpu/lifecycle.py"):
        path = SRC / "repro" / rel
        index.add_source(path.read_text(), str(path))
    index.add_source(c_text, str(SFQC))
    return [f for f in analyze_project(index)
            if f.code.startswith("SF5")]


def _seed(needle, replacement, occurrence=1):
    """Replace the ``occurrence``-th ``needle`` in the real _sfqc.c source."""
    base = SFQC.read_text()
    at = -1
    for __ in range(occurrence):
        at = base.find(needle, at + 1)
        assert at >= 0, f"seed needle drifted: {needle!r} #{occurrence}"
    return base[:at] + replacement + base[at + len(needle):]


class TestSeededSkews:
    """Each rule catches a one-line drift seeded into the real seam."""

    def test_sf501_catches_swapped_cview_members(self):
        text = _seed("CV_START, CV_FIN", "CV_FIN, CV_START")
        findings = _analyze_seeded(text)
        assert findings, "swapped CV members went undetected"
        assert {f.code for f in findings} == {"SF501"}
        assert any("CV_START" in f.message or "CV_FIN" in f.message
                   for f in findings)

    def test_sf502_catches_dropped_column_write(self):
        text = _seed(
            "col_store(run_col, slot, PyLong_FromLong(1)) < 0 ||\n", "")
        findings = _analyze_seeded(text)
        codes = {f.code for f in findings}
        assert "SF502" in codes, [str(f) for f in findings]
        hits = [f for f in findings if f.code == "SF502"]
        assert any(f.path.endswith("sfq.py") and "run" in f.message
                   for f in hits), [str(f) for f in hits]

    def test_sf502_catches_dropped_rescale_write(self):
        """The C twin of the integer-tag rescale must grow D too."""
        text = _seed(
            "    if (col_store(state, ST_DEN, PyNumber_Multiply(den, k)) < 0)\n"
            "        goto fail;\n", "")
        hits = [f for f in _analyze_seeded(text) if f.code == "SF502"]
        assert any(f.path.endswith("sfq.py") and "'DEN'" in f.message
                   for f in hits), [str(f) for f in hits]

    def test_sf503_catches_dropped_tracer_gate(self):
        text = _seed(
            "PyObject *tracer = PyObject_GetAttr(machine, str_tracer);",
            "PyObject *tracer = PyObject_GetAttr(machine, str_queue);")
        findings = _analyze_seeded(text)
        hits = [f for f in findings if f.code == "SF503"]
        assert any("tracer" in f.message for f in hits), \
            [str(f) for f in findings]

    def test_sf503_catches_dropped_wake_tracer_gate(self):
        """machine_wake's own tracer re-check (the second lookup in
        _sfqc.c) guards its bailouts, including the inherited _on_wakeup
        in cpu/lifecycle.py."""
        text = _seed(
            "PyObject *tracer = PyObject_GetAttr(machine, str_tracer);",
            "PyObject *tracer = PyObject_GetAttr(machine, str_queue);",
            occurrence=2)
        hits = [f for f in _analyze_seeded(text) if f.code == "SF503"]
        assert any("sfqc_machine_wake" in f.message
                   and "'tracer'" in f.message
                   and "_on_wakeup()" in f.message for f in hits), \
            [str(f) for f in hits]

    def test_sf503_follows_gates_into_self_helpers(self):
        """_on_burst_complete checks no gate itself: its tracer sites sit
        in the helpers it calls (_account_burst -> _book_slice,
        _finish_dispatch -> _end_dispatch), and they still count."""
        text = _seed(
            "PyObject *tracer = PyObject_GetAttr(machine, str_tracer);",
            "PyObject *tracer = PyObject_GetAttr(machine, str_queue);")
        hits = [f for f in _analyze_seeded(text) if f.code == "SF503"]
        assert any("sfqc_machine_tick" in f.message
                   and "'tracer'" in f.message
                   and "_on_burst_complete()" in f.message
                   and "_maybe_dispatch()" in f.message for f in hits), \
            [str(f) for f in hits]

    def test_sf504_catches_dropped_decref_on_error_path(self):
        text = _seed(
            "                         time, now);\n"
            "        Py_DECREF(now);\n"
            "        return NULL;",
            "                         time, now);\n"
            "        return NULL;")
        findings = _analyze_seeded(text)
        hits = [f for f in findings if f.code == "SF504"]
        assert any("'now'" in f.message and "leaks" in f.message
                   for f in hits), [str(f) for f in findings]

    def test_sf505_catches_narrowed_build_unit(self):
        text = _seed('Py_BuildValue("On", leaf, depth)',
                     'Py_BuildValue("Oi", leaf, depth)')
        findings = _analyze_seeded(text)
        hits = [f for f in findings if f.code == "SF505"]
        assert any("depth" in f.message for f in hits), \
            [str(f) for f in findings]

    def test_unmodified_seam_is_clean(self):
        assert _analyze_seeded(SFQC.read_text()) == []


def _run_cli(*args):
    """Run ``python -m repro.devtools.schedflow`` as a subprocess."""
    return subprocess.run(
        [sys.executable, "-m", "repro.devtools.schedflow", *args],
        capture_output=True,
        text=True,
        cwd=str(REPO_ROOT),
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin:/usr/local/bin"},
    )


class TestCli:
    def test_unparseable_c_is_exit_2(self, tmp_path):
        broken = tmp_path / "broken.c"
        broken.write_text("static PyObject *\nbroken(void)\n{\n    if (\n")
        result = _run_cli(str(broken))
        assert result.returncode == 2, result.stdout + result.stderr

    def test_select_mixes_prefixes_and_exact_ids(self):
        """--select SF5,SF204 runs the whole seam family plus one exact
        rule, and nothing else."""
        fixtures = REPO_ROOT / "tests" / "fixtures" / "schedflow"
        sf204 = next(iter(sorted(fixtures.glob("sf204_bad*.py"))))
        result = _run_cli("--select", "SF5,SF204", str(sf204),
                          str(SEAM / "sf505_bad.c"),
                          str(SEAM / "sf501_bad.c"),
                          str(SEAM / "sf501_py.py"))
        assert result.returncode == 1, result.stdout + result.stderr
        codes = set(re.findall(r"SF\d+", result.stdout))
        assert codes == {"SF204", "SF505", "SF501"}, result.stdout

    def test_select_ignores_blank_tokens(self):
        """A trailing comma must not widen the selection to all rules."""
        fixtures = REPO_ROOT / "tests" / "fixtures" / "schedflow"
        sf204 = next(iter(sorted(fixtures.glob("sf204_bad*.py"))))
        result = _run_cli("--select", "SF204,", str(sf204))
        assert result.returncode == 1
        codes = set(re.findall(r"SF\d+", result.stdout))
        assert codes == {"SF204"}, result.stdout

    def test_select_of_nothing_is_usage_error(self):
        result = _run_cli("--select", ",", str(SEAM / "sf505_bad.c"))
        assert result.returncode == 2


class TestParallelIncludesSeam:
    def test_jobs_matches_serial_over_mixed_sources(self):
        paths = [str(SEAM)]
        serial = analyze_paths(paths)
        jobs, _sources = analyze_paths_jobs(paths, jobs=2)
        assert [str(f) for f in jobs] == [str(f) for f in serial]
        assert any(f.code.startswith("SF5") for f in serial)
