"""World + seeded corpus generator: the only inputs the program sees.

Run as a child process (``python corpus.py --kind text ...``) so that
set-up is timed from outside like everything else and the
orchestrating process stays small (a child's ``ru_maxrss`` starts at
its parent's resident size, see ``procs.py``).

One generator makes the column arrays of a flow stream; three writers
turn them into the three input forms the workloads need:

``text``    a haystack-flows CSV file (``repro stream run``)
``chunks``  an ``.npz`` of the six detection columns (``run_chunks.py``)
``wire``    NetFlow v9 + IPFIX export datagrams (``repro collect``)

Planted rows point at an endpoint of *that row's event day* in the real
hitlist, so every planted row must match; background rows point into
an address pool that is checked to be disjoint from every day's
hitlist, so none of them can.  ``planted`` in the manifest is therefore
the exact expected ``matched`` count.

The datagram writer is the benchmark's own exporter, not the program's
encoder: RFC 3954 / RFC 7011 framing built with numpy, so that a codec
refactor cannot change the input.  Like the program's own encoder it
advances the v9 sequence number by the packet's record count, which is
how the collector's loss accounting reads it.
"""

import argparse
import json
import pathlib
import struct
import sys
import zlib

import numpy as np

#: scale 1.0 shapes; ``scale`` multiplies rows *and* lines so rows per
#: line, evicted share and checkpoints per run keep their proportions
SHAPES = {
    "text": {"rows": 1_500_000, "planted": 0.05, "lines": 50_000},
    "chunks": {"rows": 1_200_000, "planted": 0.30, "lines": 150_000},
    # the 0 %-planted twin of "chunks": mask + searchsorted, no fold
    "scan": {"rows": 1_200_000, "planted": 0.0, "lines": 150_000},
    "wire": {"rows": 450_000, "planted": 0.05, "lines": 15_000},
}
EVENT_DAYS = 3
SECONDS_PER_DAY = 86_400

LINE_BASE = 0x0A000000  # subscriber lines: 10.0.0.0 upward
BACKGROUND_BASE = 0x08000000  # background servers: 8.0.0.0/16
BACKGROUND_POOL = 1 << 16
BACKGROUND_PORTS = (53, 80, 123, 443, 993, 5223)

RECORDS_PER_DATAGRAM = 25
TEMPLATE_EVERY = 500  # datagrams between template re-announcements
V9_SOURCE_ID = 11
IPFIX_DOMAIN = 22
SAMPLING_INTERVAL = 1000  # announced in-band by the v9 exporter

CHUNK_COLUMNS = ("first", "src", "dst", "proto", "dport", "flags")


def load_endpoints(artifacts: pathlib.Path):
    """Per-day ``(addresses, ports)`` arrays from ``hitlist.json``,
    read through the program's own loader."""
    from repro.core.serialization import hitlist_from_json

    hitlist = hitlist_from_json(
        (artifacts / "hitlist.json").read_text()
    )
    days = {}
    for day, endpoints in hitlist.daily_endpoints.items():
        pairs = sorted(endpoints)
        days[day] = (
            np.array([a for a, _ in pairs], dtype=np.int64),
            np.array([p for _, p in pairs], dtype=np.int64),
        )
    for addresses, _ in days.values():
        inside = (addresses >= BACKGROUND_BASE) & (
            addresses < BACKGROUND_BASE + BACKGROUND_POOL
        )
        if inside.any():
            raise ValueError(
                "hitlist endpoints fall inside the background pool; "
                "planted counts would not be exact"
            )
    return days


def make_columns(kind: str, seed: int, scale: float, endpoints):
    """The seeded column arrays of one corpus, sorted by event time."""
    from repro.timeutil import STUDY_START

    shape = SHAPES[kind]
    rows = max(RECORDS_PER_DATAGRAM * 4, int(shape["rows"] * scale))
    if kind == "wire":  # whole datagrams, two exporters
        rows -= rows % (2 * RECORDS_PER_DATAGRAM)
    lines = max(64, int(shape["lines"] * scale))
    planted = int(round(rows * shape["planted"]))
    rng = np.random.default_rng([seed, zlib.crc32(kind.encode())])

    first = STUDY_START + np.sort(
        rng.integers(0, EVENT_DAYS * SECONDS_PER_DAY, rows)
    )
    day = (first - STUDY_START) // SECONDS_PER_DAY
    src = LINE_BASE + rng.integers(0, lines, rows)
    dst = BACKGROUND_BASE + rng.integers(0, BACKGROUND_POOL, rows)
    dport = rng.choice(np.array(BACKGROUND_PORTS), rows)
    proto = np.where(rng.random(rows) < 0.9, 6, 17)
    is_planted = np.zeros(rows, dtype=bool)
    is_planted[rng.choice(rows, planted, replace=False)] = True
    for index in range(EVENT_DAYS):
        addresses, ports = endpoints[index]
        where = np.flatnonzero(is_planted & (day == index))
        pick = rng.integers(0, len(addresses), len(where))
        dst[where] = addresses[pick]
        dport[where] = ports[pick]
    proto[is_planted] = 6
    packets = rng.integers(1, 50, rows)
    columns = {
        "first": first,
        "last": first + rng.integers(0, 120, rows),
        "src": src,
        "dst": dst,
        "proto": proto,
        "sport": rng.integers(1024, 65536, rows),
        "dport": dport,
        "packets": packets,
        "bytes": packets * rng.integers(40, 1500, rows),
        "flags": np.where(
            proto == 6, rng.choice(np.array([0x10, 0x18, 0x1B]), rows), 0
        ),
    }
    return columns, {
        "kind": kind,
        "seed": seed,
        "scale": scale,
        "rows": rows,
        "planted": planted,
        "lines": lines,
    }


# -- writers ------------------------------------------------------------


def _dotted(values):
    """Dotted quads as a list, formatting each distinct address once."""
    unique, inverse = np.unique(values, return_inverse=True)
    text = np.array(
        [
            f"{v >> 24}.{(v >> 16) & 255}.{(v >> 8) & 255}.{v & 255}"
            for v in unique.tolist()
        ],
        dtype=object,
    )
    return text[inverse].tolist()


def write_text(columns, path: pathlib.Path) -> None:
    """The haystack-flows CSV form (header lines as the program's own
    writer and the collector journal produce them)."""
    flag_text = [f"0x{value:02x}" for value in range(256)]
    lines = map(
        "%d,%d,%s,%s,%d,%d,%d,%d,%d,%s\n".__mod__,
        zip(
            columns["first"].tolist(),
            columns["last"].tolist(),
            _dotted(columns["src"]),
            _dotted(columns["dst"]),
            columns["proto"].tolist(),
            columns["sport"].tolist(),
            columns["dport"].tolist(),
            columns["packets"].tolist(),
            columns["bytes"].tolist(),
            [flag_text[f] for f in columns["flags"].tolist()],
        ),
    )
    with open(path, "w", encoding="ascii") as fh:
        fh.write("# haystack-flows v1 sampling=1\n")
        fh.write(
            "# first,last,src,dst,proto,sport,dport,packets,bytes,flags\n"
        )
        fh.writelines(lines)


def write_chunks(columns, path: pathlib.Path) -> None:
    np.savez(path, **{name: columns[name] for name in CHUNK_COLUMNS})


# (information element, length) in record order; v9 and IPFIX share the
# first six and differ in counter width and timestamp elements
_V9_FIELDS = (
    (8, 4), (12, 4), (7, 2), (11, 2), (4, 1), (6, 1),
    (2, 4), (1, 4), (22, 4), (21, 4),
)
_IPFIX_FIELDS = (
    (8, 4), (12, 4), (7, 2), (11, 2), (4, 1), (6, 1),
    (2, 8), (1, 8), (150, 4), (151, 4),
)
_COLUMN_OF_FIELD = (
    "src", "dst", "sport", "dport", "proto", "flags",
    "packets", "bytes", "first", "last",
)


def _record_bytes(columns, fields):
    """All rows packed big-endian in template order, one row per item."""
    dtype = np.dtype(
        [
            (name, f">u{length}")
            for name, (_, length) in zip(_COLUMN_OF_FIELD, fields)
        ]
    )
    packed = np.empty(len(columns["first"]), dtype=dtype)
    for name in _COLUMN_OF_FIELD:
        packed[name] = columns[name]
    return packed, dtype.itemsize


def _set(set_id: int, body: bytes) -> bytes:
    body += b"\x00" * (-len(body) % 4)
    return struct.pack("!HH", set_id, 4 + len(body)) + body


def _template(template_id: int, fields) -> bytes:
    return struct.pack("!HH", template_id, len(fields)) + b"".join(
        struct.pack("!HH", *field) for field in fields
    )


def _v9_options() -> bytes:
    """Options template + record announcing the sampling interval."""
    template = struct.pack(
        "!HHHHHHHHH", 257, 4, 8, 1, 4, 34, 4, 35, 1
    )
    record = struct.pack("!IIB", V9_SOURCE_ID, SAMPLING_INTERVAL, 2)
    return _set(1, template) + _set(257, record)


def write_wire(columns, path: pathlib.Path) -> int:
    """Interleaved v9 / IPFIX datagrams, length-prefixed, in send order.

    Batch ``i`` (25 consecutive rows) goes to the v9 exporter when
    ``i`` is even and to the IPFIX exporter when odd; each exporter
    re-announces its template every ``TEMPLATE_EVERY`` of its own
    datagrams.
    """
    per = RECORDS_PER_DATAGRAM
    v9_rows, v9_size = _record_bytes(columns, _V9_FIELDS)
    ipfix_rows, ipfix_size = _record_bytes(columns, _IPFIX_FIELDS)
    v9_raw, ipfix_raw = v9_rows.tobytes(), ipfix_rows.tobytes()
    v9_announce = _set(0, _template(256, _V9_FIELDS)) + _v9_options()
    ipfix_announce = _set(2, _template(300, _IPFIX_FIELDS))
    export_times = columns["last"][per - 1 :: per].tolist()
    v9_seq = ipfix_seq = 0
    datagrams = len(export_times)
    with open(path, "wb") as fh:
        for batch, export_time in enumerate(export_times):
            announce = (batch // 2) % TEMPLATE_EVERY == 0
            if batch % 2 == 0:
                data = v9_raw[batch * per * v9_size : (batch + 1) * per * v9_size]
                count = per + (3 if announce else 0)
                payload = (
                    struct.pack(
                        "!HHIIII", 9, count,
                        (export_time * 1000) & 0xFFFFFFFF,
                        export_time, v9_seq, V9_SOURCE_ID,
                    )
                    + (v9_announce if announce else b"")
                    + _set(256, data)
                )
                v9_seq = (v9_seq + count) & 0xFFFFFFFF
            else:
                data = ipfix_raw[
                    batch * per * ipfix_size : (batch + 1) * per * ipfix_size
                ]
                body = (ipfix_announce if announce else b"") + _set(
                    300, data
                )
                payload = (
                    struct.pack(
                        "!HHIII", 10, 16 + len(body), export_time,
                        ipfix_seq, IPFIX_DOMAIN,
                    )
                    + body
                )
                ipfix_seq = (ipfix_seq + per) & 0xFFFFFFFF
            fh.write(struct.pack("!I", len(payload)) + payload)
    return datagrams


def generate(kind, seed, scale, artifacts, out: pathlib.Path) -> dict:
    """Write one corpus under ``out``; returns (and stores) its manifest."""
    out.mkdir(parents=True, exist_ok=True)
    columns, manifest = make_columns(
        kind, seed, scale, load_endpoints(artifacts)
    )
    if kind == "text":
        write_text(columns, out / "flows.csv")
    elif kind == "wire":
        manifest["datagrams"] = write_wire(columns, out / "wire.bin")
    else:
        write_chunks(columns, out / "chunks.npz")
    (out / "manifest.json").write_text(json.dumps(manifest) + "\n")
    return manifest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--kind", choices=sorted(SHAPES), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--artifacts", type=pathlib.Path, required=True)
    parser.add_argument("--out", type=pathlib.Path, required=True)
    args = parser.parse_args(argv)
    generate(args.kind, args.seed, args.scale, args.artifacts, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
