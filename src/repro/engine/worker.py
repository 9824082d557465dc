"""Per-shard simulation worker.

:func:`simulate_shard` is the function executed inside pool workers.
It is deliberately self-contained: a :class:`ShardTask` carries a
numeric :class:`~repro.engine.plan.CohortPlan`, an owner slice and a
:class:`numpy.random.SeedSequence`, so tasks pickle in microseconds and
workers never touch the scenario object.

Memory model: instead of the serial path's per-day
``(owners, 24, |universe|)`` float64 temporaries, evidence is drawn in
*hour blocks* whose float32 sampling tensor is capped at
``block_bytes`` (default 16 MiB).  Block size adapts to the shard: a
small cohort evaluates whole days in one vectorised operation, a large
shard over a wide domain universe degrades gracefully to per-hour
evaluation.  Peak worker RSS is therefore bounded by the shard size,
not by the subscriber count.

Outputs are compact: per-class hourly *counts* (not per-owner
matrices), per-day detected-owner index arrays, and a bit-packed
per-owner hourly matrix for the cross-cohort "other classes"
deduplication (``numpy.packbits`` along the hour axis — 8× smaller on
the wire than boolean rows).
"""

from __future__ import annotations

import resource
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.engine.plan import CohortPlan
from repro.pipeline.metrics import ShardMetrics

__all__ = ["ShardTask", "ShardResult", "simulate_shard", "DEFAULT_BLOCK_BYTES"]

#: Cap on the float32 sampling tensor of one hour block (bytes).
DEFAULT_BLOCK_BYTES = 16 << 20

#: Detection classes whose hierarchy panels are reported separately —
#: every other class feeds the "other 32" dedup.  Mirrors
#: ``repro.isp.simulation._HIERARCHY_CLASSES``.
_HIERARCHY_CLASSES = frozenset(
    (
        "Alexa Enabled",
        "Amazon Product",
        "Fire TV",
        "Samsung IoT",
        "Samsung TV",
    )
)


@dataclass(frozen=True)
class ShardTask:
    """One unit of work: a contiguous owner slice of one cohort."""

    index: int  # global task index; aggregation folds in this order
    plan: CohortPlan
    start: int  # owner slice [start, stop) within plan.owners
    stop: int
    seed: np.random.SeedSequence
    days: int
    usage_packet_threshold: int
    block_bytes: int = DEFAULT_BLOCK_BYTES


@dataclass
class ShardResult:
    """Compact per-shard output, cheap to pickle back to the parent."""

    index: int
    product: str
    owners: np.ndarray  # global subscriber ids of this shard
    #: class -> (hours,) detected-line counts (summed over shard owners)
    hourly_counts: Dict[str, np.ndarray]
    #: class -> per-day arrays of detected global owner ids
    daily_owners: Dict[str, List[np.ndarray]]
    #: (hours,) actively-used-Alexa counts, or None
    alexa_hourly: Optional[np.ndarray]
    #: owners with any non-hierarchy-class hourly detection …
    other_owners: np.ndarray
    #: … and their bit-packed (m, ceil(hours/8)) hourly detection rows
    other_bits: np.ndarray
    metrics: ShardMetrics


def _block_hours(n: int, universe: int, block_bytes: int) -> int:
    """Hours per evaluation block so the float32 draw tensor stays
    under ``block_bytes`` (always at least one hour)."""
    per_hour = max(1, n * max(1, universe) * 4)
    return int(min(24, max(1, block_bytes // per_hour)))


def simulate_shard(task: ShardTask) -> ShardResult:
    """Simulate one owner shard hour-block by hour-block.

    The RNG stream is derived solely from ``task.seed``; given a fixed
    shard plan the result is bit-identical no matter which worker
    process (or how many) executes it.
    """
    started = time.perf_counter()
    plan = task.plan
    owners = plan.owners[task.start : task.stop]
    n = owners.size
    universe = plan.universe_size
    days = task.days
    hours = days * 24
    rng = np.random.default_rng(task.seed)

    hourly_counts: Dict[str, np.ndarray] = {
        rule.class_name: np.zeros(hours, dtype=np.int64)
        for rule in plan.rules
    }
    daily_owners: Dict[str, List[np.ndarray]] = {
        rule.class_name: [] for rule in plan.rules
    }
    other_classes = [
        rule.class_name
        for rule in plan.rules
        if rule.class_name not in _HIERARCHY_CLASSES
    ]
    other_rows = (
        np.zeros((n, hours), dtype=bool) if other_classes else None
    )
    alexa_hourly = (
        np.zeros(hours, dtype=np.int64) if plan.alexa is not None else None
    )

    block = _block_hours(n, universe, task.block_bytes)
    draws = 0
    zero32 = np.float32(0.0)
    # Reusable per-width buffers: uniforms, per-cell threshold, outcome.
    buffers: Dict[int, Tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
    for day in range(days):
        day_row = min(day, plan.day_available.shape[0] - 1)
        available = plan.day_available[day_row]
        if available.all():
            p_active, p_idle = plan.p_active, plan.p_idle
        else:
            p_active = np.where(available, plan.p_active, zero32)
            p_idle = np.where(available, plan.p_idle, zero32)
        p_delta = p_active - p_idle
        active = rng.random((n, 24)) < plan.q_by_hour[None, :]
        active32 = active.astype(np.float32)
        day_seen = np.zeros((n, universe), dtype=bool)
        hourly_ok: Dict[str, np.ndarray] = {}
        for rule in plan.rules:
            hourly_ok[rule.class_name] = np.zeros((n, 24), dtype=bool)
        for first in range(0, 24, block):
            width = min(block, 24 - first)
            if width not in buffers:
                shape = (n, width, universe)
                buffers[width] = (
                    np.empty(shape, dtype=np.float32),
                    np.empty(shape, dtype=np.float32),
                    np.empty(shape, dtype=bool),
                )
            uniforms, thresholds, seen = buffers[width]
            rng.random(out=uniforms, dtype=np.float32)
            draws += uniforms.size
            # threshold = p_idle + active * (p_active - p_idle), fused
            # in place — one compare instead of two plus a select.
            np.multiply(
                active32[:, first : first + width, None],
                p_delta[None, None, :],
                out=thresholds,
            )
            thresholds += p_idle[None, None, :]
            np.less(uniforms, thresholds, out=seen)
            day_seen |= seen.any(axis=1)
            for rule in plan.rules:
                if not rule.satisfiable:
                    continue
                if rule.indices.size == universe:
                    counts = seen.sum(axis=2)
                else:
                    counts = seen[:, :, rule.indices].sum(axis=2)
                ok = counts >= rule.needed
                if rule.critical.size:
                    ok &= seen[:, :, rule.critical].all(axis=2)
                hourly_ok[rule.class_name][:, first : first + width] = ok

        daily_ok: Dict[str, np.ndarray] = {}
        for rule in plan.rules:
            if not rule.satisfiable:
                daily_ok[rule.class_name] = np.zeros(n, dtype=bool)
                continue
            counts = day_seen[:, rule.indices].sum(axis=1)
            ok = counts >= rule.needed
            if rule.critical.size:
                ok &= day_seen[:, rule.critical].all(axis=1)
            daily_ok[rule.class_name] = ok

        # Hierarchy conjunction, then fold into the compact outputs.
        for rule in plan.rules:
            det_h = hourly_ok[rule.class_name]
            det_d = daily_ok[rule.class_name]
            for ancestor in rule.ancestors:
                det_h = det_h & hourly_ok[ancestor]
                det_d = det_d & daily_ok[ancestor]
            span = slice(day * 24, (day + 1) * 24)
            hourly_counts[rule.class_name][span] = det_h.sum(axis=0)
            daily_owners[rule.class_name].append(owners[det_d])
            if other_rows is not None and rule.class_name in other_classes:
                other_rows[:, span] |= det_h

        if alexa_hourly is not None:
            lam_idle, lam_active = task.plan.alexa
            lam_matrix = np.where(active, lam_active, lam_idle)
            usage_counts = rng.poisson(lam_matrix)
            alexa_hourly[day * 24 : (day + 1) * 24] = (
                usage_counts >= task.usage_packet_threshold
            ).sum(axis=0)

    if other_rows is not None:
        mask = other_rows.any(axis=1)
        other_owners = owners[mask]
        other_bits = np.packbits(other_rows[mask], axis=1)
    else:
        other_owners = np.empty(0, dtype=np.int32)
        other_bits = np.empty((0, (hours + 7) // 8), dtype=np.uint8)

    metrics = ShardMetrics(
        product=plan.product,
        owners=int(n),
        universe=int(universe),
        wall_seconds=time.perf_counter() - started,
        draws=int(draws),
        peak_rss_bytes=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        * 1024,
    )
    return ShardResult(
        index=task.index,
        product=plan.product,
        owners=owners,
        hourly_counts=hourly_counts,
        daily_owners=daily_owners,
        alexa_hourly=alexa_hourly,
        other_owners=other_owners,
        other_bits=other_bits,
        metrics=metrics,
    )
