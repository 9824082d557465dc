"""Staged-run machinery shared by every entry point.

Before this layer existed the batch engine, the stream engine, and the
IXP fabric path each re-wired the same three runtime concerns — stop
tokens, memory governance, wall-clock deadlines — into their own loops.
:class:`GuardSet` bundles them behind one poll, and :class:`StagedRun`
gives a multi-stage batch run (plan → simulate → aggregate) timed
stages plus guarded task admission, so the accounting every metrics
document carries (``stop_reason``, ``partial``, per-stage seconds) is
produced by one implementation.

The polling contract is shared with the flow driver
(:mod:`repro.pipeline.flow`), whose chunk loop polls the same guards
once per folded chunk — a SIGTERM drains within ``chunk_size`` records
of stream time, with the same attribution.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, Iterator, List, Optional, TypeVar

from repro.runtime.deadline import DeadlineBudget
from repro.runtime.memory import MemoryGovernor
from repro.runtime.overload import OverloadMetrics
from repro.runtime.shutdown import StopToken, current_token

__all__ = ["GUARD_STRIDE", "GuardSet", "StagedRun"]

#: Records a runtime-guard poll (stop token, deadline, memory governor)
#: accounts for when the caller does not say — the memory governor's
#: sampling stride counts in these.
GUARD_STRIDE = 64

_Task = TypeVar("_Task")


class GuardSet:
    """StopToken + MemoryGovernor + DeadlineBudget polled as one.

    ``check(records)`` is the single guard poll every pipeline loop
    uses: it ticks the memory governor (invoking ``on_pressure`` when a
    shed is due), then returns the stop reason — ``"deadline"``, a
    signal reason — once ingest must end, recording it in the shared
    :class:`~repro.runtime.overload.OverloadMetrics` so a stopped run
    is always attributable.  ``None`` means keep going.

    ``on_pressure`` defaults to a plain garbage-collection pass; an
    assembly that owns sheddable state (the stream engine's table
    ladder) replaces it with its own shed ladder.
    """

    def __init__(
        self,
        stop_token: Optional[StopToken] = None,
        governor: Optional[MemoryGovernor] = None,
        deadline: Optional[DeadlineBudget] = None,
        overload: Optional[OverloadMetrics] = None,
        on_pressure: Optional[Callable[[MemoryGovernor], None]] = None,
    ) -> None:
        self._stop_token = stop_token
        self.governor = governor
        self.deadline = deadline
        self.overload = (
            overload if overload is not None else OverloadMetrics()
        )
        self.on_pressure = on_pressure
        if governor is not None:
            self.overload = governor.metrics
        if deadline is not None:
            self.overload.deadline_seconds = deadline.seconds

    @classmethod
    def build(
        cls,
        memory_budget: Optional[int] = None,
        deadline: Optional[float] = None,
        stop_token: Optional[StopToken] = None,
        overload: Optional[OverloadMetrics] = None,
        on_pressure: Optional[Callable[[MemoryGovernor], None]] = None,
    ) -> "GuardSet":
        """Construct governor/deadline guards from plain config values."""
        governor = (
            MemoryGovernor(memory_budget, metrics=overload)
            if memory_budget is not None
            else None
        )
        budget = (
            DeadlineBudget(deadline) if deadline is not None else None
        )
        return cls(
            stop_token=stop_token,
            governor=governor,
            deadline=budget,
            overload=overload,
            on_pressure=on_pressure,
        )

    @property
    def stop_token(self) -> Optional[StopToken]:
        """The explicit token, else the active coordinator's."""
        if self._stop_token is not None:
            return self._stop_token
        return current_token()

    @property
    def stopped(self) -> bool:
        """A guard (signal or deadline) has ended ingest."""
        return self.overload.stop_reason is not None

    def note_stop(self, reason: str) -> None:
        """Record the first stop reason (later ones don't overwrite)."""
        if self.overload.stop_reason is None:
            self.overload.stop_reason = reason

    def check(self, records: int = GUARD_STRIDE) -> Optional[str]:
        """Poll all guards; the stop reason when ingest must end."""
        governor = self.governor
        if governor is not None and governor.tick(records):
            if self.on_pressure is not None:
                self.on_pressure(governor)
            else:
                governor.collect_garbage()
        deadline = self.deadline
        if deadline is not None and deadline.expired():
            self.note_stop(deadline.reason)
            return deadline.reason
        token = self.stop_token
        if token is not None and token.stop_requested():
            reason = token.reason or "stop"
            self.note_stop(reason)
            return reason
        return None


class StagedRun:
    """Timed stages and guarded task admission for a batch run.

    A batch entry point brackets each conceptual stage with
    :meth:`stage` (wall time lands in :attr:`seconds`) and feeds its
    work items through :meth:`admit`, which stops yielding the moment a
    guard fires: the remaining items are counted in
    :attr:`surrendered`, the run is marked ``partial`` in the overload
    section, and every completed item keeps its result — the drain
    semantics all entry points share.
    """

    def __init__(self, guards: Optional[GuardSet] = None) -> None:
        self.guards = guards if guards is not None else GuardSet()
        self.seconds: Dict[str, float] = {}
        #: tasks never started because a guard stopped admission
        self.surrendered = 0

    @contextmanager
    def stage(self, title: str) -> Iterator[None]:
        """Time one named stage (additive across re-entries)."""
        started = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[title] = self.seconds.get(title, 0.0) + (
                time.perf_counter() - started
            )

    def admit(self, tasks: Iterable[_Task]) -> Iterator[_Task]:
        """Yield tasks until a guard stops admission.

        The governor is sampled once per admitted task (a batch task is
        coarse next to a flow record), so pressure acts between tasks
        rather than mid-shard.
        """
        guards = self.guards
        governor = guards.governor
        pending: List[_Task] = list(tasks)
        for position, task in enumerate(pending):
            stride = (
                governor.sample_every if governor is not None
                else GUARD_STRIDE
            )
            if guards.check(stride) is not None:
                self.surrendered += len(pending) - position
                guards.overload.partial = True
                return
            yield task
