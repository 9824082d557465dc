"""Live rule-swap cost: ingest overhead and the apply-pause bound.

The hot-swap design claims the refresh machinery is free until the
flip and near-free at it: staging a generation adds one pointer check
to the per-record hot path, and the apply itself is reference flips
plus one bounded evidence-migration pass.  This bench pins both claims
with numbers:

* *overhead* — the same pre-parsed tuple stream folded with and
  without a staged swap; the swap-enabled run must stay within 5% of
  the baseline throughput (asserted);
* *pause* — the wall-time of the single ``observe`` call that crosses
  the activation boundary (the flip + migration over every populated
  state table), asserted bounded;
* *identity* — the identity-swap run emits byte-for-byte the same
  events as the no-swap baseline (the correctness half, mirrored from
  ``tests/test_rules_lifecycle.py``).

Results merge into ``BENCH_scaling.json`` under ``"rules"``.

``python benchmarks/bench_swap.py --quick`` runs a smaller stream and
skips the JSON merge (the CI invocation).
"""

import argparse
import json
import pathlib
import random
import sys
import time
import types

BENCH_PATH = (
    pathlib.Path(__file__).resolve().parents[1] / "BENCH_scaling.json"
)

_SUBSCRIBERS = 5_000
#: generous bound on the boundary-crossing observe call — the flip is
#: reference swaps plus one migration pass over the state tables.
_PAUSE_BOUND_SECONDS = 0.25
_OVERHEAD_BOUND = 1.05


def _world():
    """A synthetic deployment plus an identical next generation."""
    from repro.core.rules import DetectionRule, RuleSet

    def generation():
        daily = {
            0: {
                (0xC0A80001, 443): "a.example",
                (0xC0A80002, 80): "b.example",
            },
            1: {
                (0xC0A80001, 443): "a.example",
                (0xC0A80003, 8883): "c.example",
            },
        }
        hitlist = types.SimpleNamespace(daily_endpoints=daily)
        rules = RuleSet(
            [
                DetectionRule(
                    class_name="cam",
                    level="Product",
                    domains=("a.example", "b.example", "c.example"),
                )
            ]
        )
        return rules, hitlist

    return generation(), generation()


def _tuples(records):
    """A sorted two-day tuple stream, ~10% hitlist matches."""
    from repro.timeutil import SECONDS_PER_DAY, STUDY_START

    rng = random.Random(7)
    endpoint_pool = [
        (0xC0A80001, 443),
        (0xC0A80002, 80),
        (0xC0A80003, 8883),
    ]
    rows = []
    for _ in range(records):
        day = rng.choice([0, 1])
        when = (
            STUDY_START
            + day * SECONDS_PER_DAY
            + rng.randrange(SECONDS_PER_DAY)
        )
        if rng.random() < 0.1:
            dst, dport = rng.choice(endpoint_pool)
        else:
            dst, dport = rng.randint(0x08000000, 0x08FFFFFF), 53
        src = 0x0A000000 + rng.randrange(_SUBSCRIBERS)
        rows.append((when, src, dst, 6, dport, 0x10))
    rows.sort(key=lambda row: row[0])
    # the swap boundary: the first record of the second day
    return rows, STUDY_START + SECONDS_PER_DAY


def _assembly(rules, hitlist):
    from repro.pipeline import streaming_assembly

    return streaming_assembly(rules, hitlist)


def _events(sink):
    return [
        (e.subscriber, e.class_name, e.detected_at, e.record_index)
        for e in sink.events
    ]


def _run_stream(rules, hitlist, rows, generation=None, boundary=None):
    pipeline = _assembly(rules, hitlist)
    if generation is not None:
        pipeline.stage.stage_swap(generation, boundary)
    pipeline.run_tuples(iter(rows))
    return pipeline.stage.metrics.process_seconds, pipeline


def _measure(runner, repeats):
    """Min-of-repeats wall time (noise floor, not the average)."""
    best_seconds, best_pipeline = None, None
    for _ in range(repeats):
        seconds, pipeline = runner()
        if best_seconds is None or seconds < best_seconds:
            best_seconds, best_pipeline = seconds, pipeline
    return best_seconds, best_pipeline


def _swap_pause(rules, hitlist, rows, generation, boundary):
    """Wall time of the single observe() that applies the swap."""
    pre = [row for row in rows if row[0] < boundary]
    post = [row for row in rows if row[0] >= boundary]
    pipeline = _assembly(rules, hitlist)
    pipeline.run_tuples(iter(pre))
    pipeline.stage.stage_swap(generation, boundary)
    when, src, dst, proto, dport, flags = post[0]
    started = time.perf_counter()
    pipeline.stage.observe(len(pre), when, src, dst, proto, dport, flags)
    pause = time.perf_counter() - started
    assert pipeline.stage._pending_swap is None  # the flip happened
    migrated = pipeline.stage.metrics.rules_evidence_migrated
    return pause, migrated


def _run(records, repeats, merge):
    from repro.pipeline import RuleGeneration

    (rules, hitlist), (rules_next, hitlist_next) = _world()
    rows, boundary = _tuples(records)
    generation = RuleGeneration.prepare(2, rules_next, hitlist_next)

    _run_stream(rules, hitlist, rows)  # warmup (caches, allocator)
    base_seconds, base_pipeline = _measure(
        lambda: _run_stream(rules, hitlist, rows), repeats
    )
    swap_seconds, swap_pipeline = _measure(
        lambda: _run_stream(
            rules, hitlist, rows, generation=generation, boundary=boundary
        ),
        repeats,
    )
    if _events(swap_pipeline.sink) != _events(base_pipeline.sink):
        print("FAIL: identity swap changed the emitted events")
        return 1, None
    if swap_pipeline.stage.metrics.rules_swaps != 1:
        print("FAIL: the staged swap never applied")
        return 1, None
    pause, migrated = _swap_pause(
        rules, hitlist, rows, generation, boundary
    )

    base_rps = records / base_seconds
    swap_rps = records / swap_seconds
    overhead = swap_seconds / base_seconds
    document = {
        "records": records,
        "matched": swap_pipeline.stage.metrics.flows_matched,
        "baseline_records_per_second": base_rps,
        "swap_records_per_second": swap_rps,
        "overhead_ratio": overhead,
        "swap_pause_seconds": pause,
        "swap_pause_bound_seconds": _PAUSE_BOUND_SECONDS,
        "evidence_migrated": migrated,
        "events": len(swap_pipeline.sink.events),
    }
    print(
        f"swap bench: {records:,} records, "
        f"baseline {base_rps:,.0f} rec/s vs swap-enabled "
        f"{swap_rps:,.0f} rec/s (overhead {overhead:.3f}x), "
        f"apply pause {pause * 1000:.2f} ms "
        f"({migrated} windows migrated)"
    )
    if pause > _PAUSE_BOUND_SECONDS:
        print(
            f"FAIL: swap pause {pause:.3f}s exceeds "
            f"{_PAUSE_BOUND_SECONDS}s bound"
        )
        return 1, None
    if overhead > _OVERHEAD_BOUND:
        print(
            f"FAIL: swap-enabled overhead {overhead:.3f}x exceeds "
            f"{_OVERHEAD_BOUND}x bound"
        )
        return 1, None
    if merge:
        merged = (
            json.loads(BENCH_PATH.read_text())
            if BENCH_PATH.exists()
            else {}
        )
        merged["rules"] = document
        BENCH_PATH.write_text(
            json.dumps(merged, indent=2, sort_keys=True) + "\n"
        )
    return 0, document


def bench_swap_lifecycle():
    """Pytest entry: full-size run, merged into BENCH_scaling.json."""
    status, document = _run(records=200_000, repeats=5, merge=True)
    assert status == 0
    assert document["overhead_ratio"] <= _OVERHEAD_BOUND
    assert document["swap_pause_seconds"] <= _PAUSE_BOUND_SECONDS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smaller stream, no BENCH_scaling.json merge (CI smoke)",
    )
    args = parser.parse_args(argv)
    if args.quick:
        status, _ = _run(records=60_000, repeats=5, merge=False)
        return status
    status, _ = _run(records=200_000, repeats=5, merge=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
