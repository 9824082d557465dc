"""Cell execution: synthesise -> detect -> score -> metrics JSON.

Every cell runs :func:`~repro.pipeline.assemble.run_flow_detection`
over its synthesised flow text, keyed by a fresh
:class:`~repro.pipeline.flow.AddressKeying`.  Scoring inverts
the cell's :class:`~repro.isp.cgnat.AddressPlan`: a detection names an
address, and every line that address could name on the detection day
is flagged, which is exactly how CGNAT erodes precision.
"""

from __future__ import annotations

import io
import json
import pathlib
import statistics
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.cloud.addressing import Prefix, str_to_ip
from repro.core.rules import RuleSet
from repro.isp.cgnat import AddressPlan, build_address_plan
from repro.pipeline.assemble import run_flow_detection
from repro.pipeline.config import StreamConfig
from repro.pipeline.flow import AddressKeying
from repro.runtime.workers import resolve_workers
from repro.sweep.axes import (
    CellTruth,
    SweepCell,
    TrafficModel,
    cell_seed,
    synthesize_cell,
)
from repro.sweep.grid import SweepGrid
from repro.sweep.scorecard import build_scorecard, render_markdown
from repro.timeutil import STUDY_START, day_index

__all__ = [
    "CELL_SCHEMA",
    "DEFAULT_SWEEP_SPACE",
    "SweepResult",
    "run_cell",
    "run_sweep",
]

CELL_SCHEMA = "repro.sweep.metrics/1"

#: Address space for artifact-only runs (no scenario to carve from).
DEFAULT_SWEEP_SPACE = Prefix(0x0A000000, 12)


def _score(
    rules: RuleSet,
    truth: CellTruth,
    plan: AddressPlan,
    detections,
) -> Dict[str, object]:
    truth_map = truth.truth_lines(rules)
    flagged: Dict[str, set] = {}
    first_hit: Dict[Tuple[str, int], int] = {}
    for det in detections:
        day = day_index(det.detected_at)
        lines = plan.lines_for_address(str_to_ip(det.subscriber), day)
        bucket = flagged.setdefault(det.class_name, set())
        for line in lines:
            line = int(line)
            bucket.add(line)
            if line in truth_map.get(det.class_name, ()):
                key = (det.class_name, line)
                seen = first_hit.get(key)
                if seen is None or det.detected_at < seen:
                    first_hit[key] = det.detected_at
    tp = fp = fn = 0
    for name, lines in flagged.items():
        true_lines = truth_map.get(name, frozenset())
        tp += len(lines & true_lines)
        fp += len(lines - true_lines)
    for name, true_lines in truth_map.items():
        fn += len(true_lines - flagged.get(name, set()))
    precision = tp / (tp + fp) if tp + fp else None
    recall = tp / (tp + fn) if tp + fn else None
    if precision is None or recall is None:
        f1 = None
    elif precision + recall == 0:
        f1 = 0.0
    else:
        f1 = 2 * precision * recall / (precision + recall)
    lags = [when - STUDY_START for when in first_hit.values()]
    return {
        "tp": tp,
        "fp": fp,
        "fn": fn,
        "precision": precision,
        "recall": recall,
        "f1": f1,
        "median_ttd_seconds": (
            float(statistics.median(lags)) if lags else None
        ),
    }


def run_cell(
    rules: RuleSet,
    hitlist,
    cell: SweepCell,
    model: Optional[TrafficModel] = None,
    seed: int = 7,
    config: Optional[StreamConfig] = None,
    address_space: Optional[Prefix] = None,
    plan: Optional[AddressPlan] = None,
    out_dir: Optional[pathlib.Path] = None,
) -> Dict[str, object]:
    """Run one cell end to end; returns (and optionally writes) its
    ``repro.sweep.metrics/1`` document."""
    model = model or TrafficModel()
    if plan is None:
        plan = build_address_plan(
            address_space or DEFAULT_SWEEP_SPACE,
            model.lines,
            churn_probability=cell.churn,
            cgnat_pool_size=cell.cgnat_pool,
            seed=cell_seed(cell, seed) & 0x7FFFFFFF,
        )
    text, truth = synthesize_cell(
        rules, hitlist, cell, model, plan, seed
    )
    result = run_flow_detection(
        rules,
        hitlist,
        io.StringIO(text),
        config,
        keying=AddressKeying(),
    )
    score = _score(rules, truth, plan, result.detections)
    document: Dict[str, object] = {
        "schema": CELL_SCHEMA,
        "cell_id": cell.cell_id,
        "cell": cell.as_dict(),
        "seed": seed,
        "model": {
            "lines": model.lines,
            "days": len(truth.days),
            "owner_fraction": model.owner_fraction,
            "wire_packets_per_domain_day": (
                model.wire_packets_per_domain_day
            ),
        },
        "truth": {
            "owners": len(truth.owners),
            "hidden": len(truth.hidden),
            "mimics": len(truth.mimics),
            "classes": len(truth.truth_lines(rules)),
        },
        "flows": result.metrics.records_processed,
        "detections": len(result.detections),
        "score": score,
        "throughput": {
            "records_per_second": result.metrics.records_per_second,
        },
    }
    if out_dir is not None:
        out_dir = pathlib.Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / f"cell-{cell.cell_id}.json"
        path.write_text(
            json.dumps(document, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
    return document


@dataclass
class SweepResult:
    """Outcome of one grid run."""

    grid: str
    cells: List[Dict[str, object]]
    scorecard: Dict[str, object]
    markdown: str
    out_dir: Optional[pathlib.Path] = None


def run_sweep(
    rules: RuleSet,
    hitlist,
    grid: SweepGrid,
    model: Optional[TrafficModel] = None,
    seed: int = 7,
    config: Optional[StreamConfig] = None,
    workers: int = 1,
    address_space: Optional[Prefix] = None,
    out_dir: Optional[pathlib.Path] = None,
) -> SweepResult:
    """Run every cell of ``grid`` (optionally across processes) and
    aggregate the scorecard.

    Cell results are identical for any ``workers`` value: each cell is
    seeded from ``(seed, cell_id)`` alone and the address space is
    resolved once up front.
    """
    model = model or TrafficModel()
    cells = grid.cells()
    out = pathlib.Path(out_dir) if out_dir is not None else None
    workers = resolve_workers(workers, task_count=len(cells))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(
                    run_cell,
                    rules,
                    hitlist,
                    cell,
                    model=model,
                    seed=seed,
                    config=config,
                    address_space=address_space,
                    out_dir=out,
                )
                for cell in cells
            ]
            documents = [future.result() for future in futures]
    else:
        documents = [
            run_cell(
                rules,
                hitlist,
                cell,
                model=model,
                seed=seed,
                config=config,
                address_space=address_space,
                out_dir=out,
            )
            for cell in cells
        ]
    documents.sort(key=lambda doc: doc["cell_id"])
    scorecard = build_scorecard(documents, grid.name)
    markdown = render_markdown(scorecard)
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        (out / "scorecard.json").write_text(
            json.dumps(scorecard, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        (out / "scorecard.md").write_text(markdown, encoding="utf-8")
    return SweepResult(
        grid=grid.name,
        cells=documents,
        scorecard=scorecard,
        markdown=markdown,
        out_dir=out,
    )
