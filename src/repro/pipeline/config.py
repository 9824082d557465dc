"""Typed configuration for pipeline assemblies.

Before this layer the same knobs lived in three dialects: the stream
engine's ``StreamConfig`` fields, the batch engine's ``WildConfig``
extras, and loose CLI flags.  :class:`PipelineConfig` groups them by
the stage they tune — detection semantics, per-key state bounds,
checkpoint cadence, quarantine routing, runtime guards — so an
assembly reads exactly the group it owns and the CLI builds one object
(:meth:`PipelineConfig.from_args`) for every entry point.

The sub-configs are frozen: a config captured in a checkpoint or a
metrics document cannot drift mid-run.  Conversions from the legacy
per-entry-point config types live with those entry points (e.g. the
stream engine maps its ``StreamConfig``), keeping this module free of
upward imports — :mod:`repro.pipeline` never imports
:mod:`repro.engine`, :mod:`repro.stream`, or :mod:`repro.ixp`.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass, field
from typing import Optional, Union

from repro.netflow.parse import DEFAULT_CHUNK_SIZE
from repro.pipeline.core import GuardSet
from repro.runtime.overload import OverloadMetrics
from repro.runtime.shutdown import StopToken

__all__ = [
    "DetectionConfig",
    "StateConfig",
    "CheckpointConfig",
    "QuarantineConfig",
    "GuardConfig",
    "ColumnarConfig",
    "RulesConfig",
    "PipelineConfig",
]

_PathLike = Union[str, pathlib.Path]


@dataclass(frozen=True)
class DetectionConfig:
    """What counts as a detection (the Validate/Detect stages)."""

    threshold: float = 0.4
    #: TCP flows must show established-connection evidence (the IXP
    #: anti-spoofing filter); non-TCP flows always pass
    require_established: bool = False
    #: salt of the subscriber anonymisation digest
    salt: str = "haystack"

    def __post_init__(self) -> None:
        if not 0 < self.threshold <= 1:
            raise ValueError("threshold must be in (0, 1]")


@dataclass(frozen=True)
class StateConfig:
    """Bounds of online per-key evidence state (Detect stage)."""

    #: total tracked keys (subscriber lines, addresses) across shards
    max_keys: int = 1 << 16
    #: evict keys idle longer than this (event-time seconds); None = off
    ttl_seconds: Optional[int] = None
    #: state shards; keys are partitioned by digest/address
    shards: int = 1

    def __post_init__(self) -> None:
        if self.max_keys < 1:
            raise ValueError("max_keys must be >= 1")
        if self.ttl_seconds is not None and self.ttl_seconds <= 0:
            raise ValueError("ttl_seconds must be positive when set")
        if self.shards < 1:
            raise ValueError("shards must be >= 1")

    @property
    def per_shard(self) -> int:
        """Table bound per shard (at least one key each)."""
        return max(1, self.max_keys // self.shards)


@dataclass(frozen=True)
class CheckpointConfig:
    """Crash-safety cadence (wraps :mod:`repro.stream.checkpoint`)."""

    directory: Optional[_PathLike] = None
    #: write a checkpoint every N processed records; 0 disables
    every: int = 0
    keep: int = 3

    def __post_init__(self) -> None:
        if self.every < 0:
            raise ValueError("every must be >= 0")
        if self.every and self.directory is None:
            raise ValueError("checkpoint cadence needs a directory")
        if self.keep < 1:
            raise ValueError("keep must be >= 1")


@dataclass(frozen=True)
class QuarantineConfig:
    """Routing of malformed/impossible records (Validate stage)."""

    #: sample bad records here instead of raising; None keeps the
    #: historical raise-on-bad-record behaviour
    directory: Optional[_PathLike] = None


@dataclass(frozen=True)
class GuardConfig:
    """Runtime-guard budgets (see :mod:`repro.runtime`)."""

    #: RSS budget in bytes; None disables the memory governor
    memory_budget: Optional[int] = None
    #: wall-clock budget in seconds; None disables the deadline
    deadline_seconds: Optional[float] = None


@dataclass(frozen=True)
class RulesConfig:
    """Live rule refresh from a versioned hitlist store.

    ``hitlist_dir`` points at a :class:`repro.rules.lifecycle.
    VersionedRuleStore` directory; when ``refresh_every`` is positive
    the assembly polls the store every that many records (at
    absolute record-count multiples, so a resumed run polls at the
    same stream positions as an uninterrupted one) and hot-swaps to a
    newer published generation at the next event-time hour boundary.
    """

    hitlist_dir: Optional[_PathLike] = None
    #: poll the store every N processed records; 0 disables refresh
    refresh_every: int = 0

    def __post_init__(self) -> None:
        if self.refresh_every < 0:
            raise ValueError("refresh_every must be >= 0")
        if self.refresh_every and self.hitlist_dir is None:
            raise ValueError("refresh cadence needs a hitlist_dir")


@dataclass(frozen=True)
class ColumnarConfig:
    """Sizing of the chunked detect path (Decode/Validate/Detect).

    Assemblies decode bulk flow sources into
    :class:`~repro.netflow.parse.FlowChunk` column batches of
    ``chunk_size`` rows and fold them through
    :meth:`~repro.pipeline.flow.FlowPipeline.run_chunks`.  Detection
    output does not depend on the value.
    """

    chunk_size: int = DEFAULT_CHUNK_SIZE

    def __post_init__(self) -> None:
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")


@dataclass(frozen=True)
class PipelineConfig:
    """One assembly's full tuning, grouped by stage."""

    detection: DetectionConfig = field(default_factory=DetectionConfig)
    state: StateConfig = field(default_factory=StateConfig)
    checkpoint: CheckpointConfig = field(default_factory=CheckpointConfig)
    quarantine: QuarantineConfig = field(default_factory=QuarantineConfig)
    guards: GuardConfig = field(default_factory=GuardConfig)
    columnar: ColumnarConfig = field(default_factory=ColumnarConfig)
    rules: RulesConfig = field(default_factory=RulesConfig)

    @classmethod
    def from_args(
        cls,
        threshold: float = 0.4,
        require_established: bool = False,
        salt: str = "haystack",
        max_keys: int = 1 << 16,
        ttl_seconds: Optional[int] = None,
        shards: int = 1,
        checkpoint_dir: Optional[_PathLike] = None,
        checkpoint_every: int = 0,
        checkpoint_keep: int = 3,
        quarantine_dir: Optional[_PathLike] = None,
        memory_budget: Optional[int] = None,
        deadline_seconds: Optional[float] = None,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        hitlist_dir: Optional[_PathLike] = None,
        hitlist_refresh_every: int = 0,
    ) -> "PipelineConfig":
        """Build from the flat knob names the CLI flags use."""
        return cls(
            detection=DetectionConfig(
                threshold=threshold,
                require_established=require_established,
                salt=salt,
            ),
            state=StateConfig(
                max_keys=max_keys,
                ttl_seconds=ttl_seconds,
                shards=shards,
            ),
            checkpoint=CheckpointConfig(
                directory=checkpoint_dir,
                every=checkpoint_every,
                keep=checkpoint_keep,
            ),
            quarantine=QuarantineConfig(directory=quarantine_dir),
            guards=GuardConfig(
                memory_budget=memory_budget,
                deadline_seconds=deadline_seconds,
            ),
            columnar=ColumnarConfig(chunk_size=chunk_size),
            rules=RulesConfig(
                hitlist_dir=hitlist_dir,
                refresh_every=hitlist_refresh_every,
            ),
        )

    def build_guards(
        self,
        stop_token: Optional[StopToken] = None,
        overload: Optional[OverloadMetrics] = None,
        on_pressure=None,
    ) -> GuardSet:
        """A :class:`~repro.pipeline.core.GuardSet` for these budgets."""
        return GuardSet.build(
            memory_budget=self.guards.memory_budget,
            deadline=self.guards.deadline_seconds,
            stop_token=stop_token,
            overload=overload,
            on_pressure=on_pressure,
        )
