"""Shared analysis utilities: time bucketing, ECDFs, heavy-hitter
visibility, an analytic/Monte-Carlo detection-probability model, and
plain-text rendering of tables and series for the benchmark harness."""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.analysis.timeline": (
            "HourlySeries", "bucket_by_day", "bucket_by_hour",
        ),
        "repro.analysis.ecdf": ("Ecdf",),
        "repro.analysis.heavyhitters": ("heavy_hitter_visibility",),
        "repro.analysis.detection_model": (
            "estimate_detection_probabilities", "DetectionProbabilities",
        ),
        "repro.analysis.reporting": ("render_series", "render_table"),
    },
)
