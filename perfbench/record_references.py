"""Regenerate ``references.json``: the output digests the benchmark checks.

Usage (from the repository root)::

    python3 perfbench/record_references.py

Drives every workload once per recorded seed (the default and the held-out
seed) under the pure engine and writes their digests.  Simulated outputs
are a contract -- byte-identical across engines and shard counts -- so
this only needs rerunning when a change deliberately alters them.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    references = {}
    for workload in run.WORKLOADS:
        references[workload] = {}
        for seed in (run.DEFAULT_SEED, run.HELD_OUT_SEED):
            bench = run.Bench(workload, seed, "pure")
            bench.reference = None
            try:
                report = bench.drive("timed")
            finally:
                bench.close()
            if report is None:
                print("\n".join(bench.failures), file=sys.stderr)
                return 1
            references[workload][str(seed)] = report["digests"]
            print("%s seed %d: %s" % (workload, seed,
                                      ", ".join(sorted(report["digests"]))))
    with open(run.REFERENCES, "w") as handle:
        json.dump(references, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
