"""Runtime guards (:mod:`repro.runtime`): drain cleanly, degrade measurably.

PR 3's resilience layer recovers from *faults* — crashed workers,
corrupt checkpoints, flaky backends.  This package handles the
operational pressures that are not faults at all: being told to stop
(SIGTERM on redeploy), running out of memory budget, and running out
of wall clock.  Four modules, one contract each:

* :mod:`~repro.runtime.shutdown` — :class:`StopToken` +
  :class:`ShutdownCoordinator`: the first SIGTERM/SIGINT flips a
  cooperative stop token that every long loop polls at record /
  hour-block boundaries; the run drains to a final checkpoint and a
  flushed event sink, so a killed run resumes bit-identically.
* :mod:`~repro.runtime.memory` — :class:`MemoryGovernor`: samples RSS
  against ``--memory-budget`` and paces a shed ladder (early
  checkpoint, state-table shrink, shard-admission reduction) so the
  process degrades before the kernel OOM-kills it.
* :mod:`~repro.runtime.deadline` — :class:`DeadlineBudget`: a
  wall-clock countdown that ends the run with partial results marked
  ``degraded``.
* :mod:`~repro.runtime.overload` — :class:`OverloadMetrics`: the
  ``"overload"`` section of the metrics document, where every shed
  action, drop, and stop reason is counted.  Degradation is visible,
  never silent.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.runtime.deadline": ("DeadlineBudget",),
        "repro.runtime.memory": (
            "MemoryGovernor", "parse_memory_size", "read_rss_bytes",
        ),
        "repro.runtime.overload": ("OverloadMetrics", "SHED_ACTIONS"),
        "repro.runtime.shutdown": (
            "EXIT_COMPLETED", "EXIT_DRAINED", "EXIT_DRAIN_TIMEOUT",
            "ShutdownCoordinator", "StopToken", "current_token",
        ),
        "repro.runtime.workers": ("resolve_workers",),
    },
)
