"""Streaming vs batch throughput, and the price of crash safety.

The streaming engine exists to serve detections online without giving
up speed: its flow-file replay must beat the batch path's per-record
throughput (the acceptance bar is 2x), and checkpointing must stay a
small fraction of wall time.  Results are merged into
``BENCH_scaling.json`` under a ``"stream"`` key so the trajectory is
tracked alongside the batch engine's.
"""

import json
import pathlib
import time

from repro.analysis.reporting import render_table
from repro.core.detector import FlowDetector
from repro.netflow.flowfile import read_flow_file, write_flow_file
from repro.stream import StreamConfig, StreamDetectionEngine

BENCH_PATH = (
    pathlib.Path(__file__).resolve().parents[1] / "BENCH_scaling.json"
)


def _flowfile_from_capture(capture, directory):
    flows = []
    for event in capture.isp_events:
        src = 0x0A000000 + event.device_id
        flows.append(
            event.to_flow_record(src, capture.sampling_interval)
        )
    flows.sort(key=lambda flow: flow.first_switched)
    path = directory / "gt-flows.csv"
    write_flow_file(path, flows)
    return path, len(flows)


def _batch_run(rules, hitlist, path):
    detector = FlowDetector(rules, hitlist, threshold=0.4)
    started = time.perf_counter()
    for flow in read_flow_file(path):
        detector.observe_flow(flow.src_ip, flow)
    detections = detector.detections()
    return time.perf_counter() - started, len(detections)


def _stream_run(rules, hitlist, path, checkpoint_dir=None):
    config = StreamConfig(
        checkpoint_dir=checkpoint_dir,
        checkpoint_every=50_000 if checkpoint_dir else 0,
    )
    engine = StreamDetectionEngine(rules, hitlist, config)
    engine.process_flowfile(path)
    metrics = engine.metrics
    return (
        metrics.process_seconds + metrics.checkpoint_seconds,
        metrics.events_emitted,
        engine.metrics_dict(),
    )


def bench_stream(
    benchmark, context, write_artefact, tmp_path_factory
):
    directory = tmp_path_factory.mktemp("bench_stream")
    path, records = _flowfile_from_capture(context.capture, directory)

    batch_seconds, batch_detections = _batch_run(
        context.rules, context.hitlist, path
    )
    stream_seconds, stream_events, _plain = benchmark.pedantic(
        _stream_run,
        args=(context.rules, context.hitlist, path),
        rounds=1,
        iterations=1,
    )
    ckpt_seconds, _events, ckpt_metrics = _stream_run(
        context.rules,
        context.hitlist,
        path,
        checkpoint_dir=directory / "ckpt",
    )

    batch_rps = records / batch_seconds
    stream_rps = records / stream_seconds
    ckpt_rps = records / ckpt_seconds
    overhead = ckpt_metrics["checkpoints"]["overhead"]

    document = json.loads(BENCH_PATH.read_text()) if BENCH_PATH.exists() else {}
    document["stream"] = {
        "records": records,
        "batch_records_per_second": batch_rps,
        "stream_records_per_second": stream_rps,
        "stream_checkpointed_records_per_second": ckpt_rps,
        "speedup_over_batch": stream_rps / batch_rps,
        "checkpoint_overhead": overhead,
        "checkpoints_written": ckpt_metrics["checkpoints"]["written"],
        "events": stream_events,
    }
    BENCH_PATH.write_text(
        json.dumps(document, indent=2, sort_keys=True) + "\n"
    )

    write_artefact(
        "stream_throughput",
        render_table(
            ("path", "records/sec", "notes"),
            (
                ("batch (oracle)", f"{batch_rps:,.0f}", "-"),
                (
                    "stream",
                    f"{stream_rps:,.0f}",
                    f"{stream_rps / batch_rps:.2f}x batch",
                ),
                (
                    "stream + checkpoints",
                    f"{ckpt_rps:,.0f}",
                    f"{overhead:.1%} checkpoint overhead",
                ),
            ),
            title=f"Online detection throughput ({records:,} records)",
        ),
    )

    # the stream path finds exactly the batch detections, faster
    # (the shared memoised line parser sped the batch oracle up too,
    # so the stream replay's edge is narrower than it once was)
    assert stream_events == batch_detections
    assert stream_rps >= 1.5 * batch_rps
    assert overhead < 0.25
