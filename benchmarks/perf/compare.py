"""``python -m benchmarks.perf compare A.json B.json``.

Classifies every end-to-end metric x workload of two ledger results
(``A`` the parent, ``B`` the change) with the bounds ``BENCHMARK.json``
fixes and the runs' own quartiles:

``regressed``   B's median is worse than A's by more than the bound and
                the spread cannot explain it
``improved``    B wins at least nine tenths of all (A run, B run) pairs
                and the medians differ by more than A's own quartile
                distance
``unresolved``  the run-to-run spread is wider than the bound, so
                neither of the above can be said
``same``        otherwise

Results measured on machines with different ``cpu_count`` are refused:
three fleet processes on two cores and on eight are different
experiments.
"""

import json
import pathlib
import sys

from benchmarks.perf import load_spec


def classify(metric: dict, a: dict, b: dict) -> tuple:
    """``(verdict, relative change with worse > 0)`` for one pairing."""
    sign = 1.0 if metric["better"] == "lower" else -1.0
    worse = sign * (b["median"] - a["median"]) / a["median"]
    noise = max(a["q3"] - a["q1"], b["q3"] - b["q1"]) / a["median"]
    pairs = [(x, y) for x in a["samples"] for y in b["samples"]]
    b_wins = sum(sign * (y - x) < 0 for x, y in pairs) / len(pairs)
    a_wins = sum(sign * (y - x) > 0 for x, y in pairs) / len(pairs)
    bound = metric["bound"]
    if worse > bound:
        resolved = noise <= bound or a_wins == 1.0
        return ("regressed" if resolved else "unresolved"), worse
    if b_wins >= 0.9 and -worse > (a["q3"] - a["q1"]) / a["median"]:
        return "improved", worse
    if noise > bound:
        return "unresolved", worse
    return "same", worse


def main(argv) -> int:
    if len(argv) != 2:
        print("usage: python -m benchmarks.perf compare A.json B.json",
              file=sys.stderr)
        return 2
    a, b = (json.loads(pathlib.Path(path).read_text()) for path in argv)
    if a["stamp"]["cpu_count"] != b["stamp"]["cpu_count"]:
        print(
            f"refusing to compare: cpu_count {a['stamp']['cpu_count']} "
            f"vs {b['stamp']['cpu_count']}",
            file=sys.stderr,
        )
        return 2
    if (a["seed"], a["scale"]) != (b["seed"], b["scale"]):
        print("refusing to compare: different seed or scale",
              file=sys.stderr)
        return 2
    moved = 0
    metrics = load_spec()["end_to_end"]
    for workload, left in a["workloads"].items():
        right = b["workloads"][workload]
        for metric in metrics:
            name = metric["name"]
            verdict, worse = classify(
                metric, left["end_to_end"][name], right["end_to_end"][name]
            )
            moved += verdict in ("regressed", "improved")
            print(
                f"{workload:15s} {name:22s} {verdict:10s} "
                f"{-worse:+8.2%} (better > 0)  "
                f"A {left['end_to_end'][name]['median']:,.4f}  "
                f"B {right['end_to_end'][name]['median']:,.4f} "
                f"{metric['unit']}  bound {metric['bound']:.0%}"
            )
    return 1 if moved else 0
