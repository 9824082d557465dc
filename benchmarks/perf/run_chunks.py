"""Child runner of the ``chunks_dense`` workload.

The one workload with no CLI in front of it: pre-decoded column chunks
go straight into ``StreamDetectionEngine.process_chunks`` — the public
columnar ingest — so fold, evidence table, event sink and checkpoints
are all that runs.  Everything is timed from outside (spawn to exit),
like the CLI workloads; this file only wires arguments to the engine.
"""

import argparse
import json
import pathlib
import sys


def load_chunks(path) -> list:
    """The stored columns as ``FlowChunk``s of the default chunk size."""
    import numpy as np

    from repro.netflow.parse import DEFAULT_CHUNK_SIZE, FlowChunk

    with np.load(path) as stored:
        columns = [
            stored[name]
            for name in ("first", "src", "dst", "proto", "dport", "flags")
        ]
    return [
        FlowChunk(
            start,
            *(column[start : start + DEFAULT_CHUNK_SIZE] for column in columns),
        )
        for start in range(0, len(columns[0]), DEFAULT_CHUNK_SIZE)
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("chunks", type=pathlib.Path)
    parser.add_argument("--artifacts", type=pathlib.Path, required=True)
    parser.add_argument("--checkpoint-dir", type=pathlib.Path, required=True)
    parser.add_argument("--checkpoint-every", type=int, required=True)
    parser.add_argument("--max-subscribers", type=int, required=True)
    parser.add_argument("--events-out", type=pathlib.Path, required=True)
    parser.add_argument("--metrics-out", type=pathlib.Path, required=True)
    args = parser.parse_args(argv)

    from repro.core.serialization import hitlist_from_json, rules_from_json
    from repro.stream import (
        JsonlEventSink,
        StreamConfig,
        StreamDetectionEngine,
    )

    hitlist = hitlist_from_json(
        (args.artifacts / "hitlist.json").read_text()
    )
    rules = rules_from_json((args.artifacts / "rules.json").read_text())
    chunks = load_chunks(args.chunks)
    config = StreamConfig(
        max_subscribers=args.max_subscribers,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_every=args.checkpoint_every,
        columnar=True,
    )
    with JsonlEventSink(args.events_out) as sink:
        engine = StreamDetectionEngine(rules, hitlist, config, sink)
        engine.process_chunks(chunks)
        engine.drain()
        document = engine.metrics_dict()
    args.metrics_out.write_text(json.dumps(document, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
