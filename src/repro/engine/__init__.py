"""Sharded multiprocess wild-simulation engine.

The Section 6 in-the-wild study is, at production scale, a throughput
problem: detection rules are cheap per line, but a 15M-line ISP has a
lot of lines.  This package turns the serial per-cohort simulation of
:mod:`repro.isp.simulation` into a sharded pipeline:

* :mod:`repro.engine.plan` — compiles each product cohort into a
  picklable numeric :class:`~repro.engine.plan.CohortPlan` (compact
  domain universe, per-day hitlist availability, rule index tables) and
  partitions cohorts into owner shards with deterministic per-shard RNG
  streams derived via :meth:`numpy.random.SeedSequence.spawn`;
* :mod:`repro.engine.worker` — simulates one shard with a
  memory-bounded hour-block evaluation whose peak temporary allocation
  is capped regardless of subscriber count;
* :mod:`repro.engine.runner` — fans shards out over a
  :class:`concurrent.futures.ProcessPoolExecutor` and aggregates shard
  results deterministically (results are folded in shard order, so the
  output is identical for any worker count);
* :mod:`repro.pipeline.metrics` — per-stage wall time, shard memory,
  throughput and cohort-size metrics, serialisable to JSON for
  ``BENCH_*.json`` trajectories.

Determinism contract: same seed + same shard plan (``shard_size``)
⇒ bit-identical series for *any* worker count; different shard sizes
⇒ statistically equivalent series (per-shard RNG streams differ).
The ``workers=1`` path of :func:`repro.isp.simulation.run_wild_isp`
bypasses the engine entirely and stays bit-exact with the historical
serial implementation.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.engine.plan": (
            "CohortPlan", "RulePlan", "build_cohort_plan", "plan_shards",
        ),
        "repro.engine.runner": ("run_wild_isp_sharded",),
        "repro.engine.worker": ("ShardResult", "ShardTask", "simulate_shard"),
        "repro.pipeline.metrics": ("EngineMetrics", "ShardMetrics"),
    },
)
