"""Scenario-matrix sweep: adversarial/realism grids over the detector.

``repro.sweep`` turns the repro into an evaluation instrument.  A
*cell* fixes one value per scenario axis (CGNAT pool size, churn rate,
sampling interval, mimicry fraction, device-hiding fraction); a *grid*
is the cartesian product of axis value lists.  Every cell synthesises a
ground-truth world on top of the ISP substrate, runs
:func:`~repro.pipeline.assemble.run_flow_detection` over it, scores
the detections against the truth, and emits one ``repro.sweep.metrics/1`` JSON.  The scorecard
aggregates cells into a precision/recall/F1/time-to-detection table.
"""

from repro.sweep.axes import (
    CellTruth,
    SweepCell,
    TrafficModel,
    class_pattern_domains,
    leaf_classes,
    synthesize_cell,
)
from repro.sweep.grid import GRID_PRESETS, SweepGrid, load_grid
from repro.sweep.runner import SweepResult, run_cell, run_sweep
from repro.sweep.scorecard import build_scorecard, render_markdown

__all__ = [
    "CellTruth",
    "SweepCell",
    "TrafficModel",
    "class_pattern_domains",
    "leaf_classes",
    "synthesize_cell",
    "GRID_PRESETS",
    "SweepGrid",
    "load_grid",
    "SweepResult",
    "run_cell",
    "run_sweep",
    "build_scorecard",
    "render_markdown",
]
