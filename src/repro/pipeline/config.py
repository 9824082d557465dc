"""The engine's configuration: one dataclass.

The paper applies one rule set with one evidence threshold ``D`` at
two vantage points; only keying and the anti-spoofing filter change
between them.  :class:`StreamConfig` is that knob set, spelled once:
the assemblies (:mod:`repro.pipeline.assemble`), the stream engine and
every fleet worker are handed the same object (a worker derives its own
with :func:`dataclasses.replace`), and :meth:`StreamConfig.metrics` is
the one place a config is echoed into a metrics document.  Guard
budgets are not engine knobs — they reach an assembly as a
:class:`~repro.pipeline.core.GuardSet` (see ``GuardSet.build``).

It is defined here rather than in :mod:`repro.stream` so the shared
layer can read it without an upward import — :mod:`repro.pipeline`
never imports :mod:`repro.engine` or :mod:`repro.stream`;
``repro.stream.StreamConfig`` is this class.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass
from typing import Optional

from repro.netflow.parse import DEFAULT_CHUNK_SIZE
from repro.pipeline.metrics import StreamMetrics

__all__ = ["StreamConfig"]


@dataclass(frozen=True)
class StreamConfig:
    """Tuning of one detection run (frozen: a config captured in a
    checkpoint or a metrics document cannot drift mid-run)."""

    threshold: float = 0.4
    #: TCP flows must show established-connection evidence (the IXP
    #: anti-spoofing filter); non-TCP flows always pass
    require_established: bool = False
    #: tracked subscriber lines (the evidence table's LRU bound)
    max_subscribers: int = 1 << 16
    #: evict lines idle longer than this (event-time seconds); None = off
    ttl_seconds: Optional[int] = None
    #: salt of the subscriber anonymisation digest
    salt: str = "haystack"
    checkpoint_dir: Optional[pathlib.Path] = None
    #: write a checkpoint every N processed records; 0 disables.  That
    #: a cadence needs a ``checkpoint_dir`` is checked where one is
    #: known (the engine constructor): a fleet's cadence is set here
    #: and each worker supplies its own directory.
    checkpoint_every: int = 0
    checkpoint_keep: int = 3
    #: sample malformed/impossible records here instead of raising;
    #: ``None`` keeps the historical raise-on-bad-record behaviour
    quarantine_dir: Optional[pathlib.Path] = None
    #: accepted and ignored — flow files always fold as column chunks.
    #: Kept only because ``benchmarks/perf`` spells it; the next
    #: benchmark change should drop it there and here.
    columnar: bool = False
    #: rows per column chunk decoded from a flow file; detection
    #: output does not depend on the value
    chunk_size: int = DEFAULT_CHUNK_SIZE

    def __post_init__(self) -> None:
        if not 0 < self.threshold <= 1:
            raise ValueError("threshold must be in (0, 1]")
        for name in ("max_subscribers", "chunk_size", "checkpoint_keep"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.ttl_seconds is not None and self.ttl_seconds <= 0:
            raise ValueError("ttl_seconds must be positive when set")
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0")

    def metrics(self) -> StreamMetrics:
        """A fresh metrics document echoing this config."""
        return StreamMetrics(
            max_subscribers=self.max_subscribers,
            ttl_seconds=self.ttl_seconds,
            checkpoint_every=self.checkpoint_every,
            threshold=self.threshold,
        )
