"""Unified fault-injection harness (:mod:`repro.faults`).

One place for every way the test suite breaks the pipeline on purpose,
so the fault-matrix tests (``pytest -m faults``) exercise the same
seams in the same vocabulary:

* :mod:`repro.faults.files` — on-disk damage: truncation, header and
  payload corruption, half-written temp files, bounded out-of-order
  delivery;
* :mod:`repro.faults.injection` — runtime damage: crash-on-nth-shard /
  slow-worker / hung-worker plans for the supervised shard pool
  (:class:`ShardFaultPlan`), seeded lookup-error-rate wrappers for the
  resilient backends (:class:`FlakyProxy`), record-corruption helpers
  for flow files, and runtime-guard probes: :class:`SignalPlan`
  delivers a real kernel signal at an exact record index and
  :class:`MemoryPressurePlan` allocates RSS ballast there, so the
  drain/shed soak tests are deterministic;
* :mod:`repro.faults.datagrams` — wire damage for the live collector:
  :class:`DatagramPlan` applies the eight delivery faults of the
  collector matrix (drop, duplicate, reorder, truncate, bit-corrupt,
  data-before-template, exporter restart, socket buffer overflow) to
  encoded export datagrams, :func:`encode_export_stream` shapes the
  structural ones at encode time, and :class:`UdpReplayShim` pushes a
  delivered stream through a real socket;
* :mod:`repro.faults.fleet` — sharded-stream damage: :class:`FleetPlan`
  names the injection points of the fleet matrix (worker crash or hang
  mid-stream, router crash, rebalance during a staged rule swap),
  scoped by worker/batch/incarnation so restarts never re-fire a
  fault;
* :mod:`repro.faults.swap` — rule-lifecycle damage: :class:`SwapPlan`
  names the four injection points of the live rule-swap fault matrix
  (corrupt published artifact, crash mid-publish, backend outage
  mid-refresh, SIGTERM during swap) and applies each one.

Everything here is deterministic per seed — a fault matrix that cannot
be replayed exactly cannot assert bit-identical recovery.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.faults.datagrams": (
            "DATAGRAM_FAULT_KINDS", "DatagramPlan", "UdpReplayShim",
            "encode_export_stream",
        ),
        "repro.faults.fleet": ("FLEET_FAULT_KINDS", "FleetPlan"),
        "repro.faults.files": (
            "corrupt_payload_byte", "corrupt_version_header", "jitter_order",
            "truncate_file", "write_partial_temp",
        ),
        "repro.faults.injection": (
            "FlakyProxy", "InjectedFault", "MemoryPressurePlan", "ShardFault",
            "ShardFaultPlan", "SignalPlan", "corrupt_flow_lines",
        ),
        "repro.faults.swap": ("SWAP_FAULT_KINDS", "SwapPlan"),
    },
)
