"""Load-shed accounting: the ``"overload"`` metrics section.

Degradation must be measurable, never silent.  Every guard in
:mod:`repro.runtime` — the memory governor's shed ladder, the deadline
budget, the shutdown drain — records what it
did into one :class:`OverloadMetrics` instance, which both the stream
and batch metrics documents embed as their ``"overload"`` section
(next to ``"faults"`` and ``"quarantine"``).

Schema::

    "overload": {
      "memory_budget_bytes": <int|null>,
      "deadline_seconds": <float|null>,
      "rss_peak_bytes": <int>,
      "rss_samples": <int>,
      "pressure_events": <int>,
      "shed_actions": {"<action>": <count>, ...},
      "shed_units": {"<action>": <units>, ...},
      "ingest_dropped": {},
      "stop_reason": <"signal:SIGTERM"|"deadline"|...|null>,
      "degraded": <bool>
    }

``shed_actions`` counts how often each action fired;
``shed_units`` counts what it shed (table entries evicted, concurrent
shards surrendered).  ``ingest_dropped`` is always empty — no source
sheds records any more; the key stays so the document keeps its shape.
``degraded`` is true exactly when output may differ from an
unconstrained run: evidence was shed, or a deadline ended the run
early.  A pure signal drain
(stop, checkpoint, exit) is *not* degraded — the resumed run continues
bit-identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

__all__ = ["OverloadMetrics", "SHED_ACTIONS"]

#: The shed ladder's action vocabulary (stable, machine-matchable).
SHED_ACTIONS = (
    "identity_cache_clear",
    "early_checkpoint",
    "gc_collect",
    "table_shrink",
    "shard_admission_reduced",
)


@dataclass
class OverloadMetrics:
    """What the runtime guards measured and shed during one run."""

    memory_budget_bytes: Optional[int] = None
    deadline_seconds: Optional[float] = None
    rss_peak_bytes: int = 0
    rss_samples: int = 0
    pressure_events: int = 0
    shed_actions: Dict[str, int] = field(default_factory=dict)
    shed_units: Dict[str, int] = field(default_factory=dict)
    stop_reason: Optional[str] = None
    #: set when an early stop left non-resumable work undone (batch
    #: runs have no checkpoint to continue from, so a drain there is
    #: partial output, not a pause)
    partial: bool = False

    def record_sample(self, rss_bytes: int) -> None:
        self.rss_samples += 1
        if rss_bytes > self.rss_peak_bytes:
            self.rss_peak_bytes = rss_bytes

    def record_action(self, name: str, units: int = 0) -> None:
        """Count one shed action and how much it shed."""
        self.shed_actions[name] = self.shed_actions.get(name, 0) + 1
        if units:
            self.shed_units[name] = (
                self.shed_units.get(name, 0) + units
            )

    @property
    def entries_shed(self) -> int:
        """State-table entries evicted under memory pressure."""
        return self.shed_units.get("table_shrink", 0)

    @property
    def degraded(self) -> bool:
        """Output may differ from an unconstrained run."""
        return (
            self.partial
            or self.stop_reason == "deadline"
            or self.entries_shed > 0
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "memory_budget_bytes": self.memory_budget_bytes,
            "deadline_seconds": self.deadline_seconds,
            "rss_peak_bytes": self.rss_peak_bytes,
            "rss_samples": self.rss_samples,
            "pressure_events": self.pressure_events,
            "shed_actions": dict(sorted(self.shed_actions.items())),
            "shed_units": dict(sorted(self.shed_units.items())),
            "ingest_dropped": {},
            "stop_reason": self.stop_reason,
            "degraded": self.degraded,
        }
