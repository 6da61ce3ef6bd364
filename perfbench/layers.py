"""Attribute a cProfile run's self time to the simulator's layers.

Rules, applied to every profiled function:

1. A function defined in ``src/repro/<package>/...`` belongs to that
   package's layer (:data:`PACKAGE_LAYERS`); ``repro/core/tags.py`` is the
   ``tags`` layer.
2. ``fractions`` belongs to ``tags``; stdlib ``json``, ``hashlib`` and file
   I/O belong to ``serialize``; compiled ``_sfqc`` entry points belong to
   ``core``.
3. Any other builtin or stdlib function has no layer of its own: its self
   time is split over its callers in proportion to the time each caller's
   calls took (pstats caller edges), walking up until an owned function
   is reached.  Time with no owned caller goes to ``other``.

``other.self_s`` is the traced wall time minus every named layer, so the
layers always add up to the traced ``run_s``.
"""

from __future__ import annotations

import os
import pstats
from typing import Dict, Optional, Tuple

Func = Tuple[str, int, str]

#: every package and top-level module under ``src/repro`` -> its layer
PACKAGE_LAYERS: Dict[str, str] = {
    "sim": "sim",
    "cpu": "cpu",
    "smp": "smp",
    "core": "core",
    "schedulers": "schedulers",
    "currency": "schedulers",
    "qos": "schedulers",
    "threads": "workloads",
    "workloads": "workloads",
    "sync": "workloads",
    "obs": "obs",
    "trace": "obs",
    "cluster": "cluster",
    "analysis": "other",
    "devtools": "other",
    "experiments": "other",
    "faultlab": "other",
    "perfkit": "other",
    "viz": "other",
    "__init__.py": "other",
    "errors.py": "other",
    "hsfq.py": "other",
    "units.py": "other",
}

#: the reported layers, in report order; ``other`` is the remainder
LAYERS = ("sim", "cpu", "smp", "core", "tags", "schedulers", "workloads",
          "obs", "cluster", "serialize", "other")

_SERIALIZE_BUILTINS = ("_hashlib", "_json", "_io.", "io.open")


def owner(func: Func, repro_root: str) -> Optional[str]:
    """The layer that owns ``func`` outright, or None for builtins/stdlib."""
    filename, __, name = func
    if filename == "~":
        if "_sfqc" in name:
            return "core"
        if any(marker in name for marker in _SERIALIZE_BUILTINS):
            return "serialize"
        return None
    path = os.path.normpath(filename)
    prefix = repro_root + os.sep
    if path.startswith(prefix):
        rel = path[len(prefix):].split(os.sep)
        if rel[:2] == ["core", "tags.py"]:
            return "tags"
        return PACKAGE_LAYERS.get(rel[0], "other")
    base = os.path.basename(path)
    parent = os.path.basename(os.path.dirname(path))
    if base == "fractions.py":
        return "tags"
    if parent == "json" or base == "hashlib.py":
        return "serialize"
    return None


def attribute(stats: Dict[Func, tuple], repro_root: str,
              wall_s: float) -> Dict[str, float]:
    """Split ``wall_s`` across :data:`LAYERS` from a pstats ``stats`` dict."""
    repro_root = os.path.normpath(repro_root)
    shares: Dict[Func, Dict[str, float]] = {}
    visiting = set()

    def share(func: Func) -> Dict[str, float]:
        cached = shares.get(func)
        if cached is not None:
            return cached
        layer = owner(func, repro_root)
        if layer is not None:
            result = {layer: 1.0}
        elif func in visiting or func not in stats:
            return {"other": 1.0}
        else:
            visiting.add(func)
            callers = stats[func][4]
            weights = {caller: edge[2] for caller, edge in callers.items()}
            total = sum(weights.values())
            if total <= 0:
                weights = {caller: float(edge[1])
                           for caller, edge in callers.items()}
                total = sum(weights.values())
            result = {}
            for caller, weight in weights.items():
                if total <= 0 or weight <= 0:
                    continue
                for layer_name, part in share(caller).items():
                    result[layer_name] = (result.get(layer_name, 0.0)
                                          + part * weight / total)
            visiting.discard(func)
            if not result:
                result = {"other": 1.0}
        shares[func] = result
        return result

    totals = {layer: 0.0 for layer in LAYERS}
    for func, row in stats.items():
        self_time = row[2]
        for layer, part in share(func).items():
            totals[layer] += self_time * part
    named = sum(value for layer, value in totals.items() if layer != "other")
    totals["other"] = wall_s - named
    return totals


def calls(stats: Dict[Func, tuple], function) -> int:
    """Calls made to the Python ``function`` (0 if it never ran)."""
    code = function.__code__
    row = stats.get((code.co_filename, code.co_firstlineno, code.co_name))
    return row[1] if row is not None else 0


def calls_into_file(stats: Dict[Func, tuple], basename: str) -> int:
    """Calls into a stdlib module's functions from outside that module."""
    count = 0
    for func, row in stats.items():
        if os.path.basename(func[0]) != basename:
            continue
        for caller, edge in row[4].items():
            if os.path.basename(caller[0]) != basename:
                count += edge[1]
    return count


def profile_stats(profile) -> Dict[Func, tuple]:
    """The raw pstats table of a finished ``cProfile.Profile``."""
    return pstats.Stats(profile).stats  # type: ignore[attr-defined]
