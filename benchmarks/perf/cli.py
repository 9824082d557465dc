"""Command line of the perf ledger.

Three ways in, one measuring core (``workloads.Session``):

``python -m benchmarks.perf [--seed N] [--scale X] [--trace] [--out F]``
    the full ledger: every workload, one warm-up + five timed repeats
    (interleaved across workloads), the correctness gate, every metric printed by name with its unit,
    results written to ``output/result.json`` (or ``--out``);
    ``--quick`` is the 2 %-size smoke that records nothing.

``python -m benchmarks.perf compare A.json B.json``
    classify every metric x workload of two results.

``... --workload W --seed N --seconds S --trace 0|1``
    one driver-contract run: a single JSON object on the last line.
"""

import argparse
import importlib.metadata
import json
import os
import pathlib
import platform
import shutil
import subprocess
import sys
import time

from benchmarks.perf import (
    DEFAULT_SEED,
    OUTPUT,
    PERF_DIR,
    QUICK_SCALE,
    ROOT,
    RUN_SCALE,
    load_spec,
)
from benchmarks.perf import compare, workloads

WORKLOADS = tuple(workloads.BY_NAME)

LEDGER_REPEATS = 5


def stamp() -> dict:
    """The machine and versions a result was measured on."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "commit": commit,
        "when": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def _expected_sha(seed: int, scale: float, workload: str):
    """The committed event-log digest for a known corpus, if any."""
    table = json.loads((PERF_DIR / "expected.json").read_text())
    return table.get(f"seed={seed},scale={scale:g}", {}).get(workload)


def gate(measurement, seed: int, scale: float) -> list:
    """Every reason this workload's numbers may not be recorded."""
    errors = list(measurement.errors)
    expected = _expected_sha(seed, scale, measurement.workload)
    if expected is not None and expected != measurement.events_sha:
        errors.append(
            f"event log sha256 {measurement.events_sha[:12]} is not the "
            f"committed {expected[:12]}"
        )
    return [f"{measurement.workload}: {text}" for text in errors]


def _print_end_to_end(spec: dict, measurement) -> None:
    stats = measurement.end_to_end()
    for metric in spec["end_to_end"]:
        name, unit = metric["name"], metric["unit"]
        s = stats[name]
        print(
            f"{measurement.workload:15s} {name:22s} "
            f"{s['median']:>14,.4f} {unit:10s} "
            f"q1 {s['q1']:,.4f}  q3 {s['q3']:,.4f}  n={s['n']}"
        )
    print(
        f"{measurement.workload:15s} {'failed/attempted':22s} "
        f"{measurement.failed}/{measurement.attempted}"
    )


def run_ledger(args) -> int:
    quick = args.quick
    scale = QUICK_SCALE if quick else args.scale
    world = workloads.ensure_world()
    bench = workloads.Bench(
        seed=args.seed, scale=scale, world=world,
        base=OUTPUT / ("quick" if quick else "ledger"),
    )
    try:
        return _ledger(args, bench, quick)
    finally:
        shutil.rmtree(bench.base, ignore_errors=True)


def _ledger(args, bench, quick: bool) -> int:
    spec = load_spec()
    scale, world = bench.scale, bench.world
    stamped = stamp()
    print(f"# stamp {json.dumps(stamped)}")
    print(
        f"# seed {args.seed}  scale {scale:g}  world {world.name} "
        f"build_s {(world / 'build_s.txt').read_text().strip()}"
    )
    sessions = [
        workloads.Session(workloads.BY_NAME[name], bench)
        for name in WORKLOADS
    ]
    for session in sessions:
        for _ in range(1 if quick else session.workload.setups):
            session.set_up()
        if not quick:
            session.warm_up()
    for _ in range(1 if quick else LEDGER_REPEATS):
        for session in sessions:  # interleaved: see workloads.Session
            session.run_once()
    measured = {}
    errors = []
    for session in sessions:
        measurement = session.finish()
        measured[measurement.workload] = measurement
        _print_end_to_end(spec, measurement)
        errors += gate(measurement, args.seed, scale)
    for left, right in workloads.PAIRS:
        if measured[left].events_sha != measured[right].events_sha:
            errors.append(f"{left} and {right} event logs differ")

    per_layer, unavailable = {}, {}
    if args.trace and not errors:
        from benchmarks.perf import probes

        per_layer, unavailable = probes.traced_pass(bench, measured)
        for metric in spec["per_layer"]:
            name = metric["name"]
            value = per_layer.get(name)
            shown = (
                f"{value:>14,.4f}" if value is not None
                else f"{'null':>14s}  ({unavailable.get(name, 'not measured')})"
            )
            print(f"{'per-layer':15s} {name:40s} {shown} {metric['unit']}")

    for text in errors:
        print(f"GATE FAILED {text}", file=sys.stderr)
    if errors:
        return 1
    print("# gate passed: counts, cross-path logs and committed digests")
    if not quick:
        out = args.out or OUTPUT / "result.json"
        out.write_text(
            json.dumps(
                {
                    "schema": "benchmarks.perf/1",
                    "claim": None,
                    "stamp": stamped,
                    "seed": args.seed,
                    "scale": scale,
                    "workloads": {
                        name: {
                            "attempted": m.attempted,
                            "failed": m.failed,
                            "events_sha256": m.events_sha,
                            "end_to_end": m.end_to_end(),
                        }
                        for name, m in measured.items()
                    },
                    "per_layer": per_layer,
                    "unavailable": unavailable,
                },
                indent=1, sort_keys=True,
            )
            + "\n"
        )
        print(f"# wrote {out}")
    return 0


def run_contract(args) -> int:
    """One driver run: a JSON object as the last line of stdout."""
    spec = load_spec()
    world = workloads.ensure_world()
    bench = workloads.Bench(
        seed=args.seed, scale=RUN_SCALE, world=world,
        base=OUTPUT / f"run-{os.getpid()}",
    )
    try:
        if args.trace:
            from benchmarks.perf import probes

            measured = {
                name: workloads.measure(
                    workloads.BY_NAME[name], bench, repeats=1
                )
                for name in WORKLOADS
            }
            per_layer, _ = probes.traced_pass(bench, measured)
            listed = spec["per_layer"]
            values = per_layer
        else:
            workload = workloads.BY_NAME[args.workload]
            measured = {
                args.workload: workloads.measure(
                    workload, bench,
                    setups=workload.setups, seconds=args.seconds,
                )
            }
            listed = spec["end_to_end"]
            stats = measured[args.workload].end_to_end()
            values = {name: s["median"] for name, s in stats.items()}
        errors = []
        for measurement in measured.values():
            errors += gate(measurement, args.seed, RUN_SCALE)
        for text in errors:
            print(f"GATE FAILED {text}", file=sys.stderr)
        print(
            json.dumps(
                {
                    "correct": not errors,
                    "attempted": sum(
                        m.attempted for m in measured.values()
                    ),
                    "failed": sum(m.failed for m in measured.values()),
                    "metrics": {
                        metric["name"]: {
                            "value": values.get(metric["name"]),
                            "unit": metric["unit"],
                        }
                        for metric in listed
                    },
                }
            )
        )
    finally:
        shutil.rmtree(bench.base, ignore_errors=True)
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["compare"]:
        return compare.main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.perf",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="multiplies every record count (ledger mode; default 1.0)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help=f"scale {QUICK_SCALE}, one repeat, records nothing",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0,
        choices=(0, 1), help="also run the traced per-layer pass",
    )
    parser.add_argument(
        "--out", type=pathlib.Path,
        help="where the ledger result goes (default output/result.json)",
    )
    parser.add_argument(
        "--workload", choices=WORKLOADS,
        help="driver-contract mode: measure this one workload",
    )
    parser.add_argument(
        "--seconds", type=float,
        help="driver-contract mode: how long to measure",
    )
    args = parser.parse_args(argv)
    OUTPUT.mkdir(exist_ok=True)
    if args.workload is not None:
        if args.seconds is None:
            parser.error("--workload needs --seconds")
        return run_contract(args)
    return run_ledger(args)
