"""Fleet scaling: router fan-out throughput and the price of the merge.

The fleet exists to scale the streaming fold horizontally without
giving up the single-engine contract.  This bench pins the costs of
that claim:

* *scaling curve* — the same corpus through fleets of 1, 2, 4, and 8
  workers; records/second per width lands in
  ``BENCH_scaling.json`` under ``"fleet"``.  The parallel-speedup bar
  (>= 2.5x at four workers over one) is asserted only when the machine
  actually has four cores to scale onto — on smaller boxes the curve
  is recorded with ``speedup_bar_enforced: false`` instead of a
  vacuous failure;
* *merge overhead* — the deterministic k-way merge must cost <= 5% of
  the run's wall time at every width (asserted unconditionally: the
  merge is single-threaded bookkeeping and has no excuse);
* *equivalence en passant* — every width's merged log is compared
  byte-for-byte against the width-1 run, so a scaling regression can
  never be bought with a correctness one.

``python benchmarks/bench_fleet.py --quick`` runs a smaller corpus
and skips the JSON merge (the CI invocation).
"""

import argparse
import json
import os
import pathlib
import sys
import tempfile
import time

BENCH_PATH = (
    pathlib.Path(__file__).resolve().parents[1] / "BENCH_scaling.json"
)

#: four-worker speedup floor, enforced when cpu_count allows it
_SPEEDUP_AT_4_FLOOR = 2.5
#: merge may cost at most this fraction of any run's wall time
_MERGE_OVERHEAD_BOUND = 0.05


def _corpus(directory, repeats):
    from repro.experiments.context import ExperimentContext
    from repro.netflow.flowfile import write_flow_file

    context = ExperimentContext(
        seed=7, wild_subscribers=2_000, wild_days=2
    )
    capture = context.capture
    flows = [
        event.to_flow_record(
            0x0A000000 + event.device_id, capture.sampling_interval
        )
        for event in capture.isp_events
    ]
    flows.sort(key=lambda flow: flow.first_switched)
    flows = flows * repeats
    path = directory / "flows.csv"
    write_flow_file(path, flows)
    return context, path, len(flows)


def _run(repeats, merge):
    from repro.fleet import FleetConfig, run_fleet
    from repro.stream import StreamConfig

    base = pathlib.Path(tempfile.mkdtemp(prefix="bench-fleet-"))
    context, flow_path, records = _corpus(base, repeats)
    cpus = os.cpu_count() or 1
    widths = (1, 2, 4, 8)

    curve = {}
    merge_overhead_max = 0.0
    failures = []
    reference = None
    for workers in widths:
        out = base / f"merged-{workers}.jsonl"
        started = time.perf_counter()
        code, service = run_fleet(
            context.rules,
            context.hitlist,
            flow_path,
            base / f"fleet-{workers}",
            out,
            FleetConfig(
                workers=workers,
                engine=StreamConfig(
                    chunk_size=1 << 16, checkpoint_every=0
                ),
            ),
        )
        wall = time.perf_counter() - started
        if code != 0:
            failures.append(f"N={workers}: exit {code}")
            continue
        data = out.read_bytes()
        if reference is None:
            reference = data
        elif data != reference:
            failures.append(
                f"N={workers}: merged log diverged from N=1"
            )
        overhead = service.metrics.merge_seconds / wall
        merge_overhead_max = max(merge_overhead_max, overhead)
        curve[str(workers)] = {
            "wall_seconds": wall,
            "records_per_second": records / wall,
            "merge_seconds": service.metrics.merge_seconds,
            "merge_overhead": overhead,
            "events": service.metrics.merged_events,
        }

    speedup = None
    if "1" in curve and "4" in curve:
        speedup = (
            curve["4"]["records_per_second"]
            / curve["1"]["records_per_second"]
        )

    enforce_bar = cpus >= 4
    document = {
        "records": records,
        "cpus": cpus,
        "widths": list(widths),
        "curve": curve,
        "speedup_at_4": speedup,
        "merge_overhead_max": merge_overhead_max,
        "speedup_bar_enforced": enforce_bar,
    }

    if merge_overhead_max > _MERGE_OVERHEAD_BOUND:
        failures.append(
            f"merge overhead {merge_overhead_max:.1%} exceeds "
            f"{_MERGE_OVERHEAD_BOUND:.0%}"
        )
    if enforce_bar:
        if speedup is not None and speedup < _SPEEDUP_AT_4_FLOOR:
            failures.append(
                f"4-worker speedup {speedup:.2f}x below "
                f"{_SPEEDUP_AT_4_FLOOR}x floor ({cpus} cpus)"
            )
    else:
        print(
            f"# speedup bar skipped: {cpus} cpu(s) cannot scale to "
            f"4 workers",
            file=sys.stderr,
        )

    if merge:
        existing = (
            json.loads(BENCH_PATH.read_text())
            if BENCH_PATH.exists()
            else {}
        )
        existing["fleet"] = document
        BENCH_PATH.write_text(
            json.dumps(existing, indent=2, sort_keys=True) + "\n"
        )

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return (1 if failures else 0), document


def bench_fleet():
    """Pytest entry: full-size run, merged into BENCH_scaling.json."""
    status, document = _run(repeats=8, merge=True)
    assert status == 0, document
    assert document["merge_overhead_max"] <= _MERGE_OVERHEAD_BOUND


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0]
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smaller corpus, no BENCH_scaling.json merge (CI smoke)",
    )
    args = parser.parse_args(argv)
    if args.quick:
        status, _ = _run(repeats=2, merge=False)
        return status
    status, _ = _run(repeats=8, merge=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
