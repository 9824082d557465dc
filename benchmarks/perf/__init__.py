"""One perf ledger for the repo: five workloads, one corpus, one waterfall.

``python -m benchmarks.perf`` builds one real rule set, generates one
seeded corpus family from it, drives five named workloads through the
program's public entry points in child processes, checks their outputs
and prints every end-to-end metric by name.  ``--trace`` adds the
per-layer pass (outside-in probes under a span recorder) and the
waterfall.  ``BENCHMARK.json`` at the repo root is the single source
of metric names, units, directions and bounds; see ``README.md`` in
this directory for the glossary and how to read the output.

Importing this package does nothing but define paths and constants.
"""

import json
import pathlib

PERF_DIR = pathlib.Path(__file__).resolve().parent
ROOT = PERF_DIR.parents[1]
SRC = ROOT / "src"
#: everything a run writes lands here (ignored by git)
OUTPUT = PERF_DIR / "output"

DEFAULT_SEED = 12
#: ``--quick``: the smoke size (records nothing)
QUICK_SCALE = 0.02
#: the size of one driver-contract run (``--workload``): small enough
#: that set-up + several timed repeats + verification fit one run
RUN_SCALE = 0.25


def load_spec() -> dict:
    """The committed ``BENCHMARK.json`` (names, units, bounds)."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())
