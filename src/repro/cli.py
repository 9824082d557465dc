"""Command-line interface.

Usage::

    python -m repro list
    python -m repro experiment fig11 --subscribers 50000 --days 7
    python -m repro --workers 4 --metrics-out metrics.json experiment fig11
    python -m repro experiment all -o results/
    python -m repro pipeline
    python -m repro export wild-daily -o daily.csv
    python -m repro stream run flows.csv --artifacts artifacts/ \
        --checkpoint-dir ckpts/ --checkpoint-every 50000
    python -m repro stream run flows.csv --artifacts artifacts/ \
        --checkpoint-dir ckpts/ --checkpoint-every 50000 --resume
    python -m repro sweep run --grid quick --out sweep-out/
    python -m repro sweep run --grid adversarial --workers 4 \
        --artifacts artifacts/ --out sweep-out/

Experiments run against the shared
:class:`~repro.experiments.context.ExperimentContext`; the first
invocation of a ground-truth- or wild-backed experiment pays the
simulation cost, later ones in the same process reuse it.
"""

from __future__ import annotations

import argparse
import importlib
import pathlib
import sys
from typing import Callable, Optional, Sequence, Tuple

__all__ = ["main", "EXPERIMENTS"]

#: experiment id -> its module under :mod:`repro.experiments`, imported
#: only when the command runs it
_EXPERIMENT_MODULES = {
    "table1": "table1_catalog",
    "fig5": "fig5_visibility",
    "fig6": "fig6_heavy_hitters",
    "fig7": "fig7_pipeline_trace",
    "fig8": "fig8_domain_traffic",
    "fig9": "fig9_ecdf",
    "pipeline": "pipeline_counts",
    "rules": "rule_inventory",
    "fig10": "fig10_crosscheck",
    "fig11": "fig11_isp_wild",
    "fig12": "fig12_drilldown",
    "fig13": "fig13_churn",
    "fig14": "fig14_heatmap",
    "fig15": "fig15_ixp",
    "fig16": "fig16_ixp_asn",
    "fig17": "fig17_alexa_activity",
    "fig18": "fig18_usage",
    "false-positives": "false_positives",
    "dns-visibility": "dns_visibility",
    "scorecard": "scorecard",
    "defenses": "defense_eval",
}

_EXPORTS = ("wild-daily", "wild-hourly", "crosscheck", "ixp-daily")


def _experiment(identifier: str) -> Tuple[Callable, Callable]:
    """``(run(context) -> result, render(result) -> str)`` of one
    experiment, importing its module."""
    module = importlib.import_module(
        f"repro.experiments.{_EXPERIMENT_MODULES[identifier]}"
    )
    if identifier == "table1":
        return (
            lambda context: module.run(context.scenario.catalog),
            module.render,
        )
    return module.run, module.render


def __getattr__(name: str):
    # ``EXPERIMENTS`` (id -> ``(run, render)``) loads every experiment
    # module, so it is built only when asked for
    if name == "EXPERIMENTS":
        return {
            identifier: _experiment(identifier)
            for identifier in _EXPERIMENT_MODULES
        }
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'A Haystack Full of Needles' (IMC 2020): "
            "run any paper experiment from the command line."
        ),
    )
    parser.add_argument(
        "--seed", type=int, default=7, help="world seed (default 7)"
    )
    parser.add_argument(
        "--subscribers",
        type=int,
        default=100_000,
        help="wild-run subscriber lines (default 100000)",
    )
    parser.add_argument(
        "--days",
        type=int,
        default=14,
        help="wild-run study days (default 14)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help=(
            "wild-run worker processes: 1 = serial path (default), "
            "0 = one per CPU, N>1 = sharded engine with N workers"
        ),
    )
    parser.add_argument(
        "--shard-size",
        type=int,
        default=8192,
        help="owners per engine shard (default 8192)",
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=2,
        help=(
            "sharded engine: re-run a failed shard up to N times with "
            "backoff before dead-lettering it (default 2)"
        ),
    )
    parser.add_argument(
        "--shard-timeout",
        type=float,
        default=None,
        help=(
            "sharded engine: kill a shard running longer than this "
            "many wall-clock seconds (default: no timeout)"
        ),
    )
    parser.add_argument(
        "--quarantine-dir",
        type=pathlib.Path,
        default=None,
        help=(
            "directory for dead-letter records (sharded engine) and "
            "quarantined malformed flow records (stream run)"
        ),
    )
    parser.add_argument(
        "--metrics-out",
        type=pathlib.Path,
        default=None,
        help=(
            "write the engine metrics JSON of the wild run here "
            "(requires --workers != 1)"
        ),
    )
    parser.add_argument(
        "--memory-budget",
        type=str,
        default=None,
        help=(
            "RSS budget (e.g. 512M, 2GiB) the run sheds under instead "
            "of exceeding; shed actions land in the 'overload' metrics "
            "section"
        ),
    )
    parser.add_argument(
        "--deadline",
        type=float,
        default=None,
        help=(
            "wall-clock budget in seconds; at expiry the run stops "
            "admitting work and marks partial results degraded"
        ),
    )
    parser.add_argument(
        "--drain-grace",
        type=float,
        default=None,
        help=(
            "seconds a signal-triggered drain may take before the "
            "process force-exits with code 70 (default: unlimited)"
        ),
    )
    # Flags more than one subcommand takes are declared once, here,
    # and inherited through ``parents=``.
    rule_flags = argparse.ArgumentParser(add_help=False)
    rule_flags.add_argument(
        "--artifacts", type=pathlib.Path, default=None,
        help=(
            "directory with hitlist.json/rules.json (default: derive "
            "them from the simulated world)"
        ),
    )
    rule_flags.add_argument(
        "--threshold", type=float, default=0.4,
        help="detection threshold D (default 0.4)",
    )

    def chunk_flags(default: int) -> argparse.ArgumentParser:
        flags = argparse.ArgumentParser(add_help=False)
        flags.add_argument(
            "--chunk-size", type=int, default=default,
            help="rows per decoded column chunk (default %(default)s)",
        )
        return flags

    engine_flags = argparse.ArgumentParser(add_help=False)
    engine_flags.add_argument(
        "--require-established", action="store_true",
        help="drop TCP flows without an established handshake (spoof "
        "filter)",
    )
    engine_flags.add_argument(
        "--max-subscribers", type=int, default=1 << 16,
        help="state-table bound: tracked subscriber lines "
        "(default 65536)",
    )
    engine_flags.add_argument(
        "--ttl-seconds", type=int, default=None,
        help="evict subscribers idle longer than this (event time; "
        "default: no TTL)",
    )
    engine_flags.add_argument(
        "--checkpoint-dir", type=pathlib.Path, default=None,
        help="directory for crash-safe checkpoints (with "
        "--fleet-workers: the fleet directory)",
    )
    engine_flags.add_argument(
        "--checkpoint-every", type=int, default=0,
        help="checkpoint every N folded records; needs "
        "--checkpoint-dir (0 = only at end of stream, or when a "
        "collector drains)",
    )
    engine_flags.add_argument(
        "--resume", action="store_true",
        help="resume from the newest usable checkpoint in "
        "--checkpoint-dir (collect: the --journal is truncated to "
        "match; with --fleet-workers it is replayed instead)",
    )
    engine_flags.add_argument(
        "--events-out", type=pathlib.Path, default=None,
        help="append detection events to this JSONL log (default: "
        "print to stdout; collect prints them on exit)",
    )
    engine_flags.add_argument(
        "--stream-metrics-out", type=pathlib.Path, default=None,
        help="write the repro.engine.metrics/1 stream document here "
        "(collect: on exit, with the 'collector' section)",
    )
    engine_flags.add_argument(
        "--fleet-workers", type=int, default=0,
        help="fleet mode: fold on N supervised worker processes and "
        "merge their event logs byte-identically to a single-engine "
        "run (0 = off); needs --checkpoint-dir (the fleet directory), "
        "--events-out (the merged log) and, for collect, --journal "
        "(the fleet's replay source)",
    )
    engine_flags.add_argument(
        "--fleet-ring-slots", type=int, default=64,
        help="consistent-hash ring slots with --fleet-workers "
        "(default 64)",
    )

    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("list", help="list available experiments")

    experiment = commands.add_parser(
        "experiment", help="run one experiment (or 'all') and print it"
    )
    experiment.add_argument(
        "id", choices=sorted(_EXPERIMENT_MODULES) + ["all"]
    )
    experiment.add_argument(
        "-o",
        "--output",
        type=pathlib.Path,
        default=None,
        help="write output to this file (or directory for 'all')",
    )

    commands.add_parser(
        "pipeline", help="run the Figure-7 hitlist pipeline and report"
    )

    export = commands.add_parser(
        "export", help="export result series as CSV"
    )
    export.add_argument("what", choices=_EXPORTS)
    export.add_argument(
        "-o", "--output", type=pathlib.Path, default=None,
        help="CSV output path (default: stdout)",
    )

    artifacts = commands.add_parser(
        "artifacts",
        help="export the daily hitlist and rule set as JSON",
    )
    artifacts.add_argument(
        "directory", type=pathlib.Path,
        help="directory receiving hitlist.json and rules.json",
    )
    artifacts.add_argument(
        "--versioned", action="store_true",
        help="publish into a versioned rule store (rules-vNNN.json "
        "artifacts with integrity headers) instead of flat JSON; "
        "repeated runs allocate monotonically increasing versions",
    )

    detect = commands.add_parser(
        "detect",
        parents=[rule_flags, chunk_flags(65536)],
        help=(
            "run detection over a flow file (see "
            "repro.netflow.flowfile) using JSON artifacts"
        ),
    )
    detect.add_argument(
        "flows", type=pathlib.Path, help="flow file (haystack-flows CSV)"
    )

    stream = commands.add_parser(
        "stream",
        help=(
            "incremental online detection (bounded memory, "
            "checkpoint/resume); see repro.stream"
        ),
    )
    stream_commands = stream.add_subparsers(
        dest="stream_command", required=True
    )
    stream_run = stream_commands.add_parser(
        "run",
        parents=[rule_flags, engine_flags, chunk_flags(65536)],
        help=(
            "stream a flow file through the online detector, "
            "emitting detection events as chains complete"
        ),
    )
    stream_run.add_argument(
        "flows", type=pathlib.Path, help="flow file (haystack-flows CSV)"
    )
    stream_run.add_argument(
        "--max-records", type=int, default=None,
        help="stop after N records this run (the engine stays "
        "resumable)",
    )
    stream_run.add_argument(
        "--columnar", action="store_true",
        help="accepted and ignored: a flow file always folds as "
        "column chunks (kept only for benchmarks/perf, which still "
        "passes it)",
    )
    stream_run.add_argument(
        "--hitlist-dir", type=pathlib.Path, default=None,
        help="versioned rule store (see `repro artifacts --versioned`); "
        "rules/hitlist load from its newest generation instead of "
        "--artifacts, and refresh/hot-swap becomes available",
    )
    stream_run.add_argument(
        "--hitlist-refresh-every", type=int, default=0,
        help="poll --hitlist-dir for a newer generation every N "
        "records (at absolute record-count multiples, so resumed "
        "runs poll at the same stream positions) and hot-swap at "
        "the next event-time hour boundary (0 = no polling)",
    )
    stream_run.add_argument(
        "--migrate-rules", action="store_true",
        help="allow --resume under a different rule generation by "
        "migrating the checkpointed evidence (surviving rules keep "
        "their windows, dropped rules are expired and counted)",
    )
    stream_run.add_argument(
        "--inject-sigterm-at", type=int, default=None,
        help="fault harness: deliver a real SIGTERM to this process "
        "just before folding record index N (deterministic soak "
        "testing of the drain path)",
    )
    stream_run.add_argument(
        "--rebalance", action="store_true",
        help="with --fleet-workers: on worker death, skip in-place "
        "restarts and immediately quarantine + rebalance its ring "
        "slots onto the successor",
    )

    collect = commands.add_parser(
        "collect",
        parents=[rule_flags, engine_flags],
        help=(
            "live UDP NetFlow v9 / IPFIX collector service feeding "
            "the online detector; see repro.collector"
        ),
    )
    collect.add_argument(
        "--bind", default="127.0.0.1:0",
        help="UDP HOST:PORT to receive export datagrams on (port 0 = "
        "ephemeral, resolved port lands in --ready-file; default "
        "127.0.0.1:0)",
    )
    collect.add_argument(
        "--control-port", type=int, default=0,
        help="HTTP control plane port on the bind host (0 = ephemeral; "
        "default 0)",
    )
    collect.add_argument(
        "--no-control", action="store_true",
        help="disable the HTTP control plane entirely",
    )
    collect.add_argument(
        "--exporter-timeout", type=float, default=300.0,
        help="drop an exporter's template cache + pending buffer after "
        "this many seconds of silence (default 300)",
    )
    collect.add_argument(
        "--pending-sets", type=int, default=64,
        help="max buffered data-before-template sets per exporter "
        "(default 64)",
    )
    collect.add_argument(
        "--pending-ttl", type=float, default=60.0,
        help="seconds a buffered data set may wait for its template "
        "(default 60)",
    )
    collect.add_argument(
        "--recv-buffer", type=int, default=None,
        help="request SO_RCVBUF bytes on the UDP socket (default: OS)",
    )
    collect.add_argument(
        "--idle-exit", type=float, default=None,
        help="exit 0 after this many seconds without a datagram "
        "(default: run until signalled)",
    )
    collect.add_argument(
        "--max-datagrams", type=int, default=None,
        help="exit 0 after receiving N datagrams (test/bench bound)",
    )
    collect.add_argument(
        "--journal", type=pathlib.Path, default=None,
        help="append every delivered-and-decodable record to this "
        "flow file (the delivered-set oracle a live run is verified "
        "against)",
    )
    collect.add_argument(
        "--ready-file", type=pathlib.Path, default=None,
        help="write {'udp_port', 'control_port', 'pid'} JSON here "
        "once both sockets are bound",
    )

    sweep = commands.add_parser(
        "sweep",
        help=(
            "scenario-matrix evaluation: run the detector over a grid "
            "of adversarial/realism cells; see repro.sweep"
        ),
    )
    sweep_commands = sweep.add_subparsers(
        dest="sweep_command", required=True
    )
    sweep_run = sweep_commands.add_parser(
        "run",
        parents=[rule_flags, chunk_flags(4096)],
        help=(
            "expand a grid into cells, run detection per cell, "
            "write metrics JSONs + a scorecard"
        ),
    )
    sweep_run.add_argument(
        "--grid", default="quick",
        help="preset name (quick/paper/adversarial) or a JSON grid "
        "file (default quick)",
    )
    sweep_run.add_argument(
        "--out", type=pathlib.Path, default=pathlib.Path("sweep-out"),
        help="output directory for cell JSONs + scorecard "
        "(default sweep-out/)",
    )
    sweep_run.add_argument(
        "--workers", dest="sweep_workers", type=int, default=1,
        help="cell-level process parallelism (default 1; results are "
        "identical for any value)",
    )
    sweep_run.add_argument(
        "--lines", type=int, default=240,
        help="subscriber lines per cell (default 240)",
    )
    sweep_run.add_argument(
        "--sweep-days", type=int, default=2,
        help="traffic days per cell (default 2)",
    )
    return parser


def _emit(text: str, output: Optional[pathlib.Path]) -> None:
    if output is None:
        print(text)
    else:
        output.write_text(text + "\n")
        print(f"wrote {output}", file=sys.stderr)


def _run_experiment(identifier: str, context) -> str:
    run, render = _experiment(identifier)
    return render(run(context))


def _write_json(path: pathlib.Path, document) -> None:
    import json

    path.write_text(
        json.dumps(document, indent=2, sort_keys=True) + "\n"
    )
    print(f"wrote {path}", file=sys.stderr)


def _world(args):
    """The simulated world (an
    :class:`~repro.experiments.context.ExperimentContext`) at the scale
    the global flags name."""
    from repro.experiments.context import get_context

    return get_context(
        seed=args.seed,
        wild_subscribers=args.subscribers,
        wild_days=args.days,
    )


def _load_rules(args):
    """``(rules, hitlist, store, rules_version)`` for a detection
    command: the newest generation of ``--hitlist-dir`` (``stream
    run``), else the ``--artifacts`` JSON, else the simulated world's.
    ``None`` after printing why the store has nothing to load."""
    hitlist_dir = getattr(args, "hitlist_dir", None)
    if hitlist_dir is not None:
        from repro.rules import VersionedRuleStore

        store = VersionedRuleStore(hitlist_dir)
        loaded = store.load_latest()
        if loaded is None:
            print(
                f"error: no usable rule artifact under "
                f"{hitlist_dir} (publish one with "
                f"`repro artifacts --versioned {hitlist_dir}`)",
                file=sys.stderr,
            )
            return None
        artifact = loaded.artifact
        if loaded.fallbacks:
            print(
                f"# rules artifact fallback: skipped "
                f"{loaded.fallbacks} damaged generation(s), using "
                f"last-good v{artifact.version}",
                file=sys.stderr,
            )
        return artifact.rules, artifact.hitlist, store, artifact.version
    if args.artifacts is not None:
        from repro.core.serialization import (
            hitlist_from_json,
            rules_from_json,
        )

        hitlist = hitlist_from_json(
            (args.artifacts / "hitlist.json").read_text()
        )
        rules = rules_from_json(
            (args.artifacts / "rules.json").read_text()
        )
        return rules, hitlist, None, 0
    context = _world(args)
    return context.rules, context.hitlist, None, 0


def _stream_config(args, **overrides):
    """The run's one :class:`~repro.pipeline.config.StreamConfig`,
    from whichever engine flags the subcommand declares (the rest keep
    their defaults).  A checkpoint cadence without ``--checkpoint-dir``
    is dropped — ``stream run`` warns, ``collect`` refuses, before
    calling this."""
    from repro.stream import StreamConfig

    flags = {
        name: getattr(args, name)
        for name in (
            "threshold",
            "require_established",
            "max_subscribers",
            "ttl_seconds",
            "checkpoint_dir",
            "checkpoint_every",
            "quarantine_dir",
            "chunk_size",
        )
        if hasattr(args, name)
    }
    if flags.get("checkpoint_dir") is None:
        flags.pop("checkpoint_every", None)
    flags.update(overrides)
    return StreamConfig(**flags)


def _guard_kwargs(args, token=None) -> dict:
    """``stop_token``/``governor``/``deadline`` from ``--memory-budget``
    and ``--deadline`` — the keywords of both the stream engine and
    :class:`~repro.pipeline.core.GuardSet`."""
    from repro.pipeline import GuardSet
    from repro.runtime import parse_memory_size

    built = GuardSet.build(
        memory_budget=(
            parse_memory_size(args.memory_budget)
            if args.memory_budget is not None
            else None
        ),
        deadline=args.deadline,
    )
    return dict(
        stop_token=token, governor=built.governor, deadline=built.deadline
    )


def _event_sink(args):
    """``--events-out`` as an appendable JSONL log, else memory."""
    from repro.stream import JsonlEventSink, MemoryEventSink

    if args.events_out is not None:
        return JsonlEventSink(args.events_out, resume=args.resume)
    return MemoryEventSink()


def _flush_events(sink) -> None:
    """Print a memory sink's events; make a file sink durable."""
    from repro.stream import MemoryEventSink

    if isinstance(sink, MemoryEventSink):
        for event in sink.events:
            print(event.to_line())
    else:
        sink.flush(sync=True)


def _engine(args, rules, hitlist, config, sink, **kwargs):
    """The command's engine, fresh or ``--resume``d from
    ``--checkpoint-dir`` (where it reconciles its own rule generation,
    given a ``rule_source``); ``None`` after printing why it cannot."""
    from repro.stream import CheckpointError, StreamDetectionEngine

    if not args.resume:
        return StreamDetectionEngine(rules, hitlist, config, sink, **kwargs)
    if config.checkpoint_dir is None:
        print("error: --resume needs --checkpoint-dir", file=sys.stderr)
        return None
    try:
        return StreamDetectionEngine.resume(
            rules, hitlist, config, sink,
            migrate_rules=getattr(args, "migrate_rules", False),
            **kwargs,
        )
    except CheckpointError as exc:
        print(f"error: cannot resume: {exc}", file=sys.stderr)
        return None


def _run_stream(args) -> int:
    """``repro stream run``: online detection over a flow file.

    With ``--artifacts`` the simulated world is never built — the
    streaming path starts in milliseconds, which is the deployment
    shape (artifacts are produced once by ``repro artifacts``).

    Exit codes: 0 when the whole input was consumed,
    :data:`~repro.runtime.EXIT_DRAINED` (3) when a signal or deadline
    ended the run early but resumably, 70 when a drain overran
    ``--drain-grace`` (see README "Graceful shutdown & overload").
    """
    from repro.pipeline.swap import RuleSource
    from repro.runtime import (
        EXIT_DRAINED,
        ShutdownCoordinator,
        StopToken,
    )

    if args.hitlist_refresh_every and args.hitlist_dir is None:
        print(
            "error: --hitlist-refresh-every needs --hitlist-dir",
            file=sys.stderr,
        )
        return 2
    loaded = _load_rules(args)
    if loaded is None:
        return 2
    rules, hitlist, store, rules_version = loaded
    if args.fleet_workers:
        return _run_stream_fleet(args, rules, hitlist, rules_version)
    if args.checkpoint_every and args.checkpoint_dir is None:
        print(
            "warning: --checkpoint-every has no effect without "
            "--checkpoint-dir; running without crash safety",
            file=sys.stderr,
        )
    config = _stream_config(args)
    sink = _event_sink(args)
    token = StopToken()
    source = None  # the engine reconciles with and polls the store
    if store is not None:
        source = RuleSource(
            store.generation, store.head, args.hitlist_refresh_every
        )
    try:
        with ShutdownCoordinator(token, grace=args.drain_grace):
            engine = _engine(
                args, rules, hitlist, config, sink,
                rules_version=rules_version,
                rule_source=source,
                **_guard_kwargs(args, token),
            )
            if engine is None:
                return 2
            if engine.rules_version != rules_version:
                print(
                    f"# resuming under checkpointed rules "
                    f"v{engine.rules_version} (store head is "
                    f"v{rules_version}; the refresh poll swaps "
                    f"forward at the next boundary)",
                    file=sys.stderr,
                )
            processed = _stream_ingest(engine, args)
            if engine.pending_rules is not None:
                print(
                    f"# staged rules "
                    f"v{engine.pending_rules.generation.version} "
                    f"(activates at event-time "
                    f"{engine.pending_rules.activate_at})",
                    file=sys.stderr,
                )
            # Early stop (signal/deadline) or end of input: a final
            # checkpoint at the exact record reached + sink flush.
            engine.drain()
            metrics = engine.metrics_dict()
            print(
                f"# processed={processed} "
                f"total={engine.records_processed} "
                f"matched={engine.metrics.flows_matched} "
                f"events={engine.metrics.events_emitted} "
                f"quarantined={engine.metrics.records_quarantined}",
                file=sys.stderr,
            )
            if engine.stopped:
                print(
                    f"# drained reason={engine.metrics.overload.stop_reason} "
                    f"resumable={engine.config.checkpoint_dir is not None}",
                    file=sys.stderr,
                )
            _flush_events(sink)
    finally:
        sink.close()
    if args.stream_metrics_out is not None:
        _write_json(args.stream_metrics_out, metrics)
    return EXIT_DRAINED if engine.stopped else 0


def _fleet_flags_ok(args, needs, unsupported) -> bool:
    """Whether ``--fleet-workers`` has the flags it needs (the fleet
    directory, the merged log, ...) and none it cannot honour; prints
    the first violation."""
    values = {
        flag: getattr(args, flag.lstrip("-").replace("-", "_"))
        for flag in needs + unsupported
    }
    problems = [
        f"--fleet-workers needs {flag}"
        for flag in needs if values[flag] is None
    ] + [
        f"{flag} is not supported with --fleet-workers"
        for flag in unsupported if values[flag]
    ]
    if problems:
        print(f"error: {problems[0]}", file=sys.stderr)
    return not problems


def _run_stream_fleet(args, rules, hitlist, rules_version) -> int:
    """``repro stream run --fleet-workers N``: sharded streaming.

    The router consistent-hashes the flow stream onto N supervised
    worker processes under ``--checkpoint-dir`` (the fleet directory:
    ``ring.json``, per-worker checkpoints and event logs) and writes
    the deterministically merged event log to ``--events-out`` —
    byte-identical to what a single engine would emit for the same
    flags, including across worker kills, rebalances, and SIGTERM
    drain/resume.

    Exit codes match the single-engine path: 0 on a complete run,
    :data:`~repro.runtime.EXIT_DRAINED` (3) on a resumable early stop.
    """
    from repro.fleet import FleetConfig, run_fleet
    from repro.runtime import (
        ShutdownCoordinator,
        StopToken,
        resolve_workers,
    )

    if not _fleet_flags_ok(
        args,
        needs=("--checkpoint-dir", "--events-out"),
        unsupported=(
            "--hitlist-refresh-every",
            "--max-records",
            "--migrate-rules",
            "--memory-budget",
            "--deadline",
        ),
    ):
        return 2
    config = FleetConfig(
        workers=resolve_workers(args.fleet_workers),
        ring_slots=args.fleet_ring_slots,
        engine=_stream_config(args),
        rules_version=rules_version,
        max_restarts=0 if args.rebalance else 1,
        inject_sigterm_at=args.inject_sigterm_at,
    )
    token = StopToken()
    with ShutdownCoordinator(token, grace=args.drain_grace):
        code, service = run_fleet(
            rules,
            hitlist,
            args.flows,
            args.checkpoint_dir,
            args.events_out,
            config,
            resume=args.resume,
            stop_token=token,
        )
    fleet = service.metrics
    print(
        f"# fleet workers={config.workers} "
        f"routed={fleet.records_routed} "
        f"skipped={fleet.records_skipped} "
        f"events={fleet.merged_events} "
        f"restarts={fleet.restarts} "
        f"rebalances={fleet.rebalances} "
        f"epoch={fleet.ring_epoch}",
        file=sys.stderr,
    )
    if code:
        print(
            f"# drained reason={token.reason} resumable=True",
            file=sys.stderr,
        )
    if args.stream_metrics_out is not None:
        _write_json(
            args.stream_metrics_out, service.stream_metrics().to_dict()
        )
    return code


def _collect_fleet_target(args, rules, hitlist, token):
    """``repro collect --fleet-workers N``: the fold target is a
    :class:`~repro.fleet.service.FleetService` in push mode; the
    ``--journal`` doubles as its rebalance/resume replay source (and
    is therefore mandatory).  ``None`` after printing a flag error."""
    from repro.collector import FleetTarget
    from repro.fleet import FleetConfig, FleetService
    from repro.resilience.quarantine import QuarantineSink
    from repro.runtime import resolve_workers

    if not _fleet_flags_ok(
        args,
        needs=("--journal", "--checkpoint-dir", "--events-out"),
        unsupported=("--memory-budget", "--deadline"),
    ):
        return None
    fleet = FleetService(
        rules,
        hitlist,
        args.checkpoint_dir,
        FleetConfig(
            workers=resolve_workers(args.fleet_workers),
            ring_slots=args.fleet_ring_slots,
            # the service owns the cadence; it also validates rows
            # before journaling them, so a line the fleet cannot read
            # back is journal damage to raise on, not input to drop
            engine=_stream_config(
                args, checkpoint_every=0, quarantine_dir=None
            ),
        ),
        stop_token=token,
    )
    return FleetTarget(
        fleet, args.events_out, QuarantineSink(args.quarantine_dir)
    )


def _collect_engine(args, rules, hitlist, sink, token):
    """``repro collect``'s in-process engine, fresh or resumed from
    ``--checkpoint-dir``; ``None`` after printing a flag error."""
    if args.checkpoint_dir is None and args.checkpoint_every:
        print(
            "error: --checkpoint-every needs --checkpoint-dir",
            file=sys.stderr,
        )
        return None
    # the service owns the cadence
    config = _stream_config(args, checkpoint_every=0)
    return _engine(
        args, rules, hitlist, config, sink, **_guard_kwargs(args, token)
    )


def _run_collect(args) -> int:
    """``repro collect``: long-running UDP collector service.

    Binds the data socket and (unless ``--no-control``) the HTTP
    control plane, folds every delivered-and-decodable export record
    into the streaming engine — or, with ``--fleet-workers``, a worker
    fleet — and exits 0 when a bounded run (``--max-datagrams`` /
    ``--idle-exit``) completes or :data:`~repro.runtime.EXIT_DRAINED`
    (3) when a signal/deadline drained it to a final checkpoint
    ``--resume`` continues from.
    """
    from repro.collector import CollectorConfig, CollectorService
    from repro.netflow.journal import JournalError
    from repro.runtime import (
        EXIT_DRAINED,
        ShutdownCoordinator,
        StopToken,
    )

    host, _, port_text = args.bind.rpartition(":")
    if not host or not port_text.isdigit():
        print(
            f"error: --bind must be HOST:PORT, got {args.bind!r}",
            file=sys.stderr,
        )
        return 2
    rules, hitlist = _load_rules(args)[:2]
    config = CollectorConfig(
        bind_host=host,
        bind_port=int(port_text),
        control_host=host,
        control_port=None if args.no_control else args.control_port,
        exporter_timeout=args.exporter_timeout,
        pending_max_sets=args.pending_sets,
        pending_ttl=args.pending_ttl,
        recv_buffer=args.recv_buffer,
        idle_exit=args.idle_exit,
        max_datagrams=args.max_datagrams,
        checkpoint_every=args.checkpoint_every,
        journal=args.journal,
        ready_file=args.ready_file,
    )
    token = StopToken()
    sink = None  # the fleet's workers own their sinks
    try:
        with ShutdownCoordinator(token, grace=args.drain_grace):
            if args.fleet_workers:
                target = _collect_fleet_target(
                    args, rules, hitlist, token
                )
            else:
                sink = _event_sink(args)
                target = _collect_engine(
                    args, rules, hitlist, sink, token
                )
            if target is None:
                return 2
            service = CollectorService(target, config=config)
            try:
                exit_code = service.run(resume=args.resume)
            except JournalError as exc:
                action = "resume" if args.resume else "open the journal"
                print(f"error: cannot {action}: {exc}", file=sys.stderr)
                return 2
            metrics = service.metrics_snapshot()
            if service.journal_kept is not None:
                print(
                    f"# journal truncated to {service.journal_kept} "
                    f"records",
                    file=sys.stderr,
                )
            collector = service.source.metrics
            fleet = metrics.get("fleet")
            print(
                f"# datagrams={collector.datagrams_received} "
                f"decoded={collector.datagrams_decoded} "
                f"quarantined={collector.datagrams_quarantined} "
                f"records={metrics['throughput']['records']} "
                f"events={metrics['throughput']['events']}"
                + (
                    f" workers={fleet['workers']} "
                    f"restarts={fleet['restarts']} "
                    f"rebalances={fleet['rebalances']}"
                    if fleet
                    else ""
                ),
                file=sys.stderr,
            )
            if exit_code == EXIT_DRAINED:
                print(
                    f"# drained reason="
                    f"{metrics['overload']['stop_reason'] or token.reason} "
                    f"resumable={args.checkpoint_dir is not None}",
                    file=sys.stderr,
                )
            if sink is not None:
                _flush_events(sink)
    finally:
        if sink is not None:
            sink.close()
    if args.stream_metrics_out is not None:
        _write_json(args.stream_metrics_out, metrics)
    return exit_code


def _stream_ingest(engine, args) -> int:
    """Run the stream engine's ingest, optionally under fault probes.

    ``--inject-sigterm-at N`` splits the chunk holding record N and
    sends a real SIGTERM between the halves of the one decode pass: the
    next guard poll sees the stop before record N folds, so the drain
    lands on exactly N records for any ``--chunk-size``.
    """
    from repro.netflow.parse import ColumnarDecodeStage

    max_records, at = args.max_records, args.inject_sigterm_at
    chunks = ColumnarDecodeStage(
        engine.config.chunk_size, quarantine=engine.quarantine
    ).iter_chunks(args.flows, skip=engine.records_processed)
    before = -1 if at is None else at - engine.records_processed
    if before < 0 or (max_records is not None and before >= max_records):
        return engine.process_chunks(chunks, max_records=max_records)
    import itertools
    import os
    import signal

    rest = []

    def head():
        for chunk in chunks:
            cut = at - chunk.start_index
            if cut < len(chunk):
                rest.append(chunk.tail(cut))
                yield chunk.head(cut)
                return
            yield chunk

    processed = engine.process_chunks(head())
    if processed < before or engine.stopped:
        return processed
    os.kill(os.getpid(), signal.SIGTERM)
    if max_records is not None:
        max_records -= before
    return processed + engine.process_chunks(
        itertools.chain(rest, chunks), max_records=max_records
    )


def _run_sweep(args) -> int:
    """``repro sweep run``: evaluate the detector over a scenario grid.

    Writes one ``repro.sweep.metrics/1`` JSON per cell plus
    ``scorecard.json``/``scorecard.md`` into ``--out``.
    """
    from repro.sweep import TrafficModel, load_grid, run_sweep

    grid = load_grid(args.grid)
    rules, hitlist = _load_rules(args)[:2]
    address_space = None
    if args.artifacts is None:
        address_space = (
            _world(args).scenario.isp_topology().subscriber_space
        )
    result = run_sweep(
        rules,
        hitlist,
        grid,
        model=TrafficModel(lines=args.lines, days=args.sweep_days),
        seed=args.seed,
        config=_stream_config(args),
        workers=args.sweep_workers,
        address_space=address_space,
        out_dir=args.out,
    )
    print(result.markdown)
    print(
        f"wrote {len(result.cells)} cell documents + scorecard to "
        f"{args.out}",
        file=sys.stderr,
    )
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        for identifier in sorted(_EXPERIMENT_MODULES):
            print(identifier)
        return 0

    if args.command == "stream":
        return _run_stream(args)

    if args.command == "collect":
        return _run_collect(args)

    if args.command == "sweep":
        return _run_sweep(args)

    from repro.runtime import ShutdownCoordinator, parse_memory_size

    # One coordinator over the whole batch command: SIGTERM/SIGINT
    # stops shard admission (via repro.runtime.current_token) and the
    # run returns whatever completed, marked in the metrics document.
    with ShutdownCoordinator(grace=args.drain_grace):
        return _run_batch(args, parse_memory_size)


def _run_batch(args, parse_memory_size) -> int:
    from repro.experiments.context import get_context

    context = get_context(
        seed=args.seed,
        wild_subscribers=args.subscribers,
        wild_days=args.days,
        wild_workers=args.workers,
        wild_shard_size=args.shard_size,
        wild_max_retries=args.max_retries,
        wild_shard_timeout=args.shard_timeout,
        wild_quarantine_dir=(
            str(args.quarantine_dir)
            if args.quarantine_dir is not None
            else None
        ),
        wild_memory_budget=(
            parse_memory_size(args.memory_budget)
            if args.memory_budget is not None
            else None
        ),
        wild_deadline=args.deadline,
    )
    if args.metrics_out is not None:
        metrics = context.wild.metrics
        if metrics is None:
            print(
                "--metrics-out needs the sharded engine "
                "(pass --workers 0 or a value > 1)",
                file=sys.stderr,
            )
            return 2
        _write_json(args.metrics_out, metrics)

    if args.command == "pipeline":
        print(_run_experiment("pipeline", context))
        return 0

    if args.command == "experiment":
        if args.id == "all":
            directory = args.output or pathlib.Path("results")
            directory.mkdir(parents=True, exist_ok=True)
            for identifier in sorted(_EXPERIMENT_MODULES):
                text = _run_experiment(identifier, context)
                _emit(text, directory / f"{identifier}.txt")
            return 0
        _emit(_run_experiment(args.id, context), args.output)
        return 0

    if args.command == "artifacts":
        from repro.core.serialization import (
            hitlist_to_json,
            rules_to_json,
        )

        if args.versioned:
            from repro.rules import CandidateRejected, VersionedRuleStore

            store = VersionedRuleStore(args.directory)
            try:
                artifact = store.publish(context.rules, context.hitlist)
            except CandidateRejected as exc:
                print(
                    f"error: candidate rejected: {exc}", file=sys.stderr
                )
                return 2
            print(
                f"published rules v{artifact.version} to "
                f"{args.directory}",
                file=sys.stderr,
            )
            return 0

        args.directory.mkdir(parents=True, exist_ok=True)
        _emit(
            hitlist_to_json(context.hitlist),
            args.directory / "hitlist.json",
        )
        _emit(
            rules_to_json(context.rules),
            args.directory / "rules.json",
        )
        return 0

    if args.command == "detect":
        from repro.pipeline import GuardSet, run_flow_detection

        rules, hitlist = _load_rules(args)[:2]
        # The offline assembly of the shared staged pipeline — same
        # stage graph (and therefore same detections) as the stream
        # path; see repro.pipeline.
        result = run_flow_detection(
            rules,
            hitlist,
            args.flows,
            _stream_config(args),
            guards=GuardSet(**_guard_kwargs(args)),
        )
        print(
            f"# flows={result.flows_seen} "
            f"matched={result.flows_matched}"
        )
        for detection in result.detections:
            print(
                f"{detection.subscriber},{detection.class_name},"
                f"{detection.detected_at}"
            )
        return 0

    if args.command == "export":
        from repro.analysis import export as export_module
        from repro.experiments import fig10_crosscheck as crosscheck

        if args.what == "wild-daily":
            text = export_module.wild_daily_csv(context.wild)
        elif args.what == "wild-hourly":
            text = export_module.wild_hourly_csv(context.wild)
        elif args.what == "crosscheck":
            text = export_module.crosscheck_csv(
                crosscheck.run(context)
            )
        else:
            text = export_module.ixp_daily_csv(context.ixp)
        _emit(text.rstrip("\n"), args.output)
        return 0

    raise AssertionError("unreachable")


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
