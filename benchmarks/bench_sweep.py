"""Scenario-matrix sweep throughput and degradation benchmark.

Runs the ``quick`` grid (8 cells, each cell = synthesis + detection +
scoring) against the full-scale world and reports cells/second,
aggregate records/second, and the headline degradation facts the sweep exists to measure (CGNAT
precision collapse, sampling's time-to-detection cost).  Results merge
into ``BENCH_scaling.json`` under ``"sweep"``.

``python benchmarks/bench_sweep.py --quick`` runs a seconds-long
synthetic-world smoke (the CI invocation) without building the
experiment context: a tiny rule hierarchy + two-day hitlist, the full
quick grid, and a hard assert that the CGNAT axis degrades precision.
"""

import argparse
import json
import pathlib
import sys
import time

BENCH_PATH = (
    pathlib.Path(__file__).resolve().parents[1] / "BENCH_scaling.json"
)


def _sweep_rows(result):
    by_id = {row["cell_id"]: row for row in result.scorecard["rows"]}
    baseline = by_id[result.scorecard["baseline_cell_id"]]
    pooled = by_id[
        baseline["cell_id"].replace("cgnat001", "cgnat016")
    ]
    sparse = by_id[
        baseline["cell_id"].replace("samp00100", "samp01000")
    ]
    return baseline, pooled, sparse


def _summarise(result, elapsed):
    records = sum(doc["flows"] for doc in result.cells)
    baseline, pooled, sparse = _sweep_rows(result)
    return {
        "grid": result.grid,
        "cells": len(result.cells),
        "cells_per_second": len(result.cells) / elapsed,
        "records_per_second": records / elapsed,
        "baseline_precision": baseline["precision"],
        "cgnat16_precision": pooled["precision"],
        "baseline_median_ttd_seconds": baseline["median_ttd_seconds"],
        "samp1000_median_ttd_seconds": sparse["median_ttd_seconds"],
    }


def bench_sweep(benchmark, context, write_artefact, tmp_path_factory):
    from repro.sweep import TrafficModel, load_grid, run_sweep

    out_dir = tmp_path_factory.mktemp("bench-sweep")
    space = context.scenario.isp_topology().subscriber_space

    def run():
        return run_sweep(
            context.rules,
            context.hitlist,
            load_grid("quick"),
            model=TrafficModel(lines=240, days=2),
            address_space=space,
            out_dir=out_dir,
        )

    started = time.perf_counter()
    result = benchmark.pedantic(run, rounds=1, iterations=1)
    elapsed = time.perf_counter() - started

    summary = _summarise(result, elapsed)
    assert summary["cgnat16_precision"] < summary["baseline_precision"]
    assert (
        summary["samp1000_median_ttd_seconds"]
        > summary["baseline_median_ttd_seconds"]
    )

    document = (
        json.loads(BENCH_PATH.read_text()) if BENCH_PATH.exists() else {}
    )
    document["sweep"] = summary
    BENCH_PATH.write_text(
        json.dumps(document, indent=2, sort_keys=True) + "\n"
    )
    write_artefact("sweep_scorecard", result.markdown)


def _tiny_world():
    """A synthetic three-rule world mirroring the catalog's shape."""
    from types import SimpleNamespace

    from repro.core.rules import DetectionRule, RuleSet

    rules = RuleSet(
        [
            DetectionRule(
                "Amazon Product",
                "Vendor",
                ("av1.example", "av2.example", "av3.example"),
            ),
            DetectionRule(
                "Fire TV",
                "Product",
                ("ftv1.example", "ftv2.example", "ftv3.example"),
                parent="Amazon Product",
            ),
            DetectionRule(
                "Camera",
                "Product",
                tuple(f"cam{i}.example" for i in range(5)),
            ),
        ]
    )
    domains = sorted(
        {fqdn for rule in rules for fqdn in rule.domains}
    )
    daily = {
        day: {
            (0x10000000 + 97 * i + day, 443): fqdn
            for i, fqdn in enumerate(domains)
        }
        for day in range(2)
    }
    return rules, SimpleNamespace(daily_endpoints=daily)


def _quick() -> int:
    from repro.sweep import TrafficModel, load_grid, run_sweep

    rules, hitlist = _tiny_world()
    started = time.perf_counter()
    result = run_sweep(
        rules,
        hitlist,
        load_grid("quick"),
        model=TrafficModel(lines=160, days=2),
    )
    elapsed = time.perf_counter() - started
    summary = _summarise(result, elapsed)
    assert (
        summary["cgnat16_precision"] < summary["baseline_precision"]
    ), "CGNAT pooling must degrade precision"
    print(
        f"sweep smoke ok: {summary['cells']} cells in {elapsed:.2f}s "
        f"({summary['records_per_second']:,.0f} rec/s); "
        f"precision {summary['baseline_precision']:.3f} -> "
        f"{summary['cgnat16_precision']:.3f} under CGNAT-16, "
        f"median TTD {summary['baseline_median_ttd_seconds'] / 3600:.1f}h "
        f"-> {summary['samp1000_median_ttd_seconds'] / 3600:.1f}h at "
        f"1/1000 sampling"
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="synthetic-world smoke (CI); the full benchmark runs via "
        "pytest and updates BENCH_scaling.json",
    )
    args = parser.parse_args(argv)
    if args.quick:
        return _quick()
    import pytest

    return pytest.main([__file__, "-x", "-q"])


if __name__ == "__main__":
    sys.exit(main())
