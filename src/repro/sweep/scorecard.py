"""Aggregate per-cell metrics into a scorecard + markdown table.

The scorecard (``repro.sweep.scorecard/1``) names a *baseline* cell —
the least adversarial point of the grid (no CGNAT, no churn, no
mimicry, no hiding, densest sampling) — and reports every cell's
precision/recall/F1/median-TTD next to the baseline's, so an axis's
damage is readable as a delta down a column.
"""

from __future__ import annotations

from typing import Dict, List, Optional

__all__ = ["SCORECARD_SCHEMA", "build_scorecard", "render_markdown"]

SCORECARD_SCHEMA = "repro.sweep.scorecard/1"


def _baseline_key(document: Dict[str, object]):
    cell = document["cell"]
    return (
        cell["cgnat_pool"],
        cell["mimicry"],
        cell["hiding"],
        cell["churn"],
        cell["sampling"],
    )


def build_scorecard(
    documents: List[Dict[str, object]], grid_name: str
) -> Dict[str, object]:
    """One row per cell, plus the baseline cell id."""
    if not documents:
        raise ValueError("cannot build a scorecard from zero cells")
    ordered = sorted(documents, key=lambda doc: doc["cell_id"])
    baseline = min(ordered, key=_baseline_key)
    rows = []
    for document in ordered:
        score = document["score"]
        rows.append(
            {
                "cell_id": document["cell_id"],
                "cell": document["cell"],
                "flows": document["flows"],
                "detections": document["detections"],
                "tp": score["tp"],
                "fp": score["fp"],
                "fn": score["fn"],
                "precision": score["precision"],
                "recall": score["recall"],
                "f1": score["f1"],
                "median_ttd_seconds": score["median_ttd_seconds"],
                "records_per_second": document["throughput"][
                    "records_per_second"
                ],
            }
        )
    return {
        "schema": SCORECARD_SCHEMA,
        "grid": grid_name,
        "cells": len(rows),
        "baseline_cell_id": baseline["cell_id"],
        "rows": rows,
    }


def _fmt(value: Optional[float], digits: int = 3) -> str:
    if value is None:
        return "—"
    return f"{value:.{digits}f}"


def _fmt_rate(value: Optional[float]) -> str:
    if not value:
        return "—"
    return f"{value / 1000:.0f}k"


def render_markdown(scorecard: Dict[str, object]) -> str:
    """The scorecard as a GitHub-flavoured markdown table."""
    lines = [
        f"# Sweep scorecard — grid `{scorecard['grid']}`",
        "",
        f"{scorecard['cells']} cells; baseline "
        f"`{scorecard['baseline_cell_id']}`.",
        "",
        "| cell | pool | churn | 1/N | mimic | hide | P | R | F1 "
        "| TTD (h) | rec/s |",
        "|---|---|---|---|---|---|---|---|---|---|---|",
    ]
    for row in scorecard["rows"]:
        cell = row["cell"]
        ttd = row["median_ttd_seconds"]
        marker = "baseline " if (
            row["cell_id"] == scorecard["baseline_cell_id"]
        ) else ""
        lines.append(
            "| {id} | {pool} | {churn:.2f} | {samp} | {mim:.2f} "
            "| {hide:.2f} | {p} | {r} | {f1} | {ttd} | {rps} |".format(
                id=f"{marker}`{row['cell_id']}`",
                pool=cell["cgnat_pool"],
                churn=cell["churn"],
                samp=cell["sampling"],
                mim=cell["mimicry"],
                hide=cell["hiding"],
                p=_fmt(row["precision"]),
                r=_fmt(row["recall"]),
                f1=_fmt(row["f1"]),
                ttd=(
                    "—" if ttd is None else f"{ttd / 3600:.1f}"
                ),
                rps=_fmt_rate(row["records_per_second"]),
            )
        )
    lines.append("")
    return "\n".join(lines)
