"""Live rule-swap cost: ingest overhead and the apply-pause bound.

The hot-swap design claims the refresh machinery is free until the
flip and near-free at it: a staged generation adds one boundary scan
per chunk to the fold loop, and the apply itself is reference flips
plus one bounded evidence-migration pass.  This bench pins both claims
with numbers:

* *overhead* — the same column chunks folded with and without a swap
  staged for a boundary the stream never reaches; the staged run must
  stay within 5% of the baseline throughput (asserted).  The flip is
  not in this ratio: the chunk loop folds this corpus in tens of
  milliseconds, of which one migration pass would be 5-10%, and the
  pause bound is where that pass is held to account;
* *pause* — the wall-time of folding the one-row chunk that crosses
  the activation boundary (the flip + migration over the populated
  state table), asserted bounded;
* *identity* — the run the pause is taken from, swap applied
  mid-stream, emits byte-for-byte the same events as the no-swap
  baseline (the correctness half, mirrored from
  ``tests/test_rules_lifecycle.py``).

Results merge into ``BENCH_scaling.json`` under ``"rules"``.

``python benchmarks/bench_swap.py --quick`` runs a smaller stream and
skips the JSON merge (the CI invocation).
"""

import argparse
import json
import pathlib
import random
import statistics
import sys
import time
import types

BENCH_PATH = (
    pathlib.Path(__file__).resolve().parents[1] / "BENCH_scaling.json"
)

_SUBSCRIBERS = 5_000
_CHUNK_ROWS = 4_096
#: generous bound on the boundary-crossing fold — the flip is
#: reference swaps plus one migration pass over the state table.
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
    """Sorted two-day flow rows, ~10% hitlist matches."""
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


def _chunks(rows, start_index=0):
    """``rows`` as ``_CHUNK_ROWS``-row column chunks."""
    import numpy as np

    from repro.netflow.parse import FlowChunk

    columns = np.array(rows, dtype=np.int64).reshape(-1, 6).T
    return [
        FlowChunk(start_index + at, *columns[:, at:at + _CHUNK_ROWS])
        for at in range(0, len(rows), _CHUNK_ROWS)
    ]


def _events(sink):
    return [
        (e.subscriber, e.class_name, e.detected_at, e.record_index)
        for e in sink.events
    ]


def _run_stream(rules, hitlist, chunks, generation=None, boundary=None):
    pipeline = _assembly(rules, hitlist)
    if generation is not None:
        pipeline.stage.stage_swap(generation, boundary)
    pipeline.run_chunks(chunks)
    return pipeline.stage.metrics.process_seconds, pipeline


def _measure(base, staged, repeats):
    """``repeats`` back-to-back (base, staged) pairs of seconds: the
    best of each (noise floor, not the average) and the median
    staged/base ratio over the pairs — adjacent runs share the
    machine's state, so a ~20 ms fold on a shared box is compared with
    its neighbour, not with a run a second later."""
    pairs = [(base()[0], staged()[0]) for _ in range(repeats)]
    return (
        min(b for b, _ in pairs),
        min(s for _, s in pairs),
        statistics.median(s / b for b, s in pairs),
    )


def _swap_pause(rules, hitlist, rows, generation, boundary):
    """Wall time of folding the one row that applies the swap, and the
    pipeline after the whole stream."""
    split = next(n for n, row in enumerate(rows) if row[0] >= boundary)
    pipeline = _assembly(rules, hitlist)
    pipeline.stage.stage_swap(generation, boundary)
    pipeline.run_chunks(_chunks(rows[:split]))
    crossing = _chunks(rows[split:split + 1], start_index=split)
    started = time.perf_counter()
    pipeline.run_chunks(crossing)
    pause = time.perf_counter() - started
    assert pipeline.stage._pending_swap is None  # the flip happened
    pipeline.run_chunks(_chunks(rows[split + 1:], start_index=split + 1))
    return pause, pipeline


def _run(records, repeats, merge):
    from repro.pipeline import RuleGeneration

    (rules, hitlist), (rules_next, hitlist_next) = _world()
    rows, boundary = _tuples(records)
    chunks = _chunks(rows)
    generation = RuleGeneration.prepare(2, rules_next, hitlist_next)

    # warmup (caches, allocator), and the no-swap event log
    _, base_pipeline = _run_stream(rules, hitlist, chunks)
    base_seconds, swap_seconds, overhead = _measure(
        lambda: _run_stream(rules, hitlist, chunks),
        lambda: _run_stream(
            rules, hitlist, chunks, generation=generation,
            boundary=rows[-1][0] + 1,  # staged, never reached
        ),
        repeats,
    )
    pause, swap_pipeline = _swap_pause(
        rules, hitlist, rows, generation, boundary
    )
    if _events(swap_pipeline.sink) != _events(base_pipeline.sink):
        print("FAIL: identity swap changed the emitted events")
        return 1, None
    if swap_pipeline.stage.metrics.rules_swaps != 1:
        print("FAIL: the staged swap never applied")
        return 1, None
    migrated = swap_pipeline.stage.metrics.rules_evidence_migrated

    base_rps = records / base_seconds
    swap_rps = records / swap_seconds
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
        f"baseline {base_rps:,.0f} rec/s vs swap-staged "
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
            f"FAIL: swap-staged overhead {overhead:.3f}x exceeds "
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
    status, document = _run(records=200_000, repeats=15, merge=True)
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
        status, _ = _run(records=60_000, repeats=15, merge=False)
        return status
    status, _ = _run(records=200_000, repeats=15, merge=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
