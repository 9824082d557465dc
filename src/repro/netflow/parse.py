"""Flow-line parsing: the memoised per-line parser and the columnar
file decoder.

:class:`FlowLineParser` is the one per-line implementation: full
:class:`~repro.netflow.records.FlowRecord` construction
(:func:`repro.netflow.flowfile.parse_flow_line`) and the column-subset
tuple detection consumes (:meth:`FlowLineParser.tuple`) share one split
contract, one error message and one pair of bounded memo caches.

Dotted quads and flag bytes repeat heavily — subscriber lines and
hitlist endpoints are small sets next to the record count — so memoised
conversions dominate raw parsing.  The caches are bounded: if an
adversarially diverse stream ever bloats them past
:data:`PARSE_CACHE_LIMIT` entries, an arbitrary half is evicted so the
warm half keeps serving (a full clear would cold-start every
conversion at once).

:class:`ColumnarDecodeStage` is the batch counterpart of the per-line
parser: it decodes a flow file into :class:`FlowChunk` batches of
numpy column arrays for the vectorized detect path
(:mod:`repro.pipeline.columnar`).  It never builds a ``str`` per field:
one numpy kernel parses each block's raw bytes straight into int64
columns, so the memo caches above serve the per-line parser only.  A
block the kernel declines — comments or blank lines mid-block,
malformed or oddly spelled fields — takes the per-line path
(:meth:`ColumnarDecodeStage._decode_lines`, the one home of the
per-line error messages and quarantine reasons) instead.  numpy is
imported lazily so the substrate stays importable without it.
"""

from __future__ import annotations

import io
import itertools
import pathlib
import string
from typing import IO, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.cloud.addressing import str_to_ip
from repro.netflow.records import FlowKey, FlowRecord
from repro.resilience.quarantine import QuarantineSink, validate_flow_tuple

__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "FLOW_FILE_COLUMNS",
    "ColumnarDecodeStage",
    "FlowChunk",
    "IndexedFlowChunk",
    "FlowLineParser",
    "FlowTuple",
    "PARSE_CACHE_LIMIT",
    "SHARED_PARSER",
    "chunks_from_records",
]

#: Column order of the haystack-flows CSV format (see
#: :mod:`repro.netflow.flowfile`, which owns reading/writing whole
#: files around this per-line contract).
FLOW_FILE_COLUMNS = (
    "first", "last", "src", "dst", "proto", "sport", "dport",
    "packets", "bytes", "flags",
)

#: ``(first_switched, src_ip, dst_ip, protocol, dst_port, tcp_flags)``
#: — the columns detection consumes, in stream fast-path order.
FlowTuple = Tuple[int, int, int, int, int, int]

#: Entry cap on the memo caches.
PARSE_CACHE_LIMIT = 1 << 20

#: Rows per :class:`FlowChunk` the columnar decode stage aims for.
#: Large enough to amortise per-chunk numpy overhead, small enough
#: that the chunk's column temporaries stay cache/allocator friendly.
DEFAULT_CHUNK_SIZE = 1 << 16

#: Bytes per read, i.e. per kernel call (~3,700 lines).  Chunks are cut
#: at ``chunk_size`` rows whatever a read brings in, so this only sizes
#: the kernel's temporaries: measured on the perf corpus, 128-512 KiB
#: blocks decode a quarter faster than chunk-sized (4.5 MiB) ones and
#: hold 50 MiB less at the peak.
_BLOCK_BYTES = 1 << 18

#: The bytes below ``"0"`` of one clean data line, in order: the
#: commas between the ten columns, the dots of ``src``/``dst`` and the
#: newline.  Space, ``#``, ``+``, ``-`` and every control character
#: also sort below ``"0"``, so any of them breaks the pattern.
_ROW_SEPARATORS = b",,...,...,,,,,,\n"

#: Longest decimal token the kernel takes: 18 digits stay below 2**63.
_MAX_DIGITS = 18

_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1

#: Byte → hex digit value, 255 where the byte is not ``[0-9a-fA-F]``.
_HEX_VALUES = bytes(
    int(chr(byte), 16) if chr(byte) in string.hexdigits else 255
    for byte in range(256)
)

_np = None


def _numpy():
    """Import numpy on first columnar use (keeps the per-line paths
    importable without it)."""
    global _np
    if _np is None:
        import numpy

        _np = numpy
    return _np


def _evict_half(cache: Dict[str, int]) -> None:
    """Drop an arbitrary half of a memo cache (the insertion-oldest
    half, as dicts preserve insertion order) so recent entries keep
    serving instead of cold-starting the whole stream."""
    drop = max(1, len(cache) // 2)
    for key in list(itertools.islice(cache, drop)):
        del cache[key]


class FlowLineParser:
    """Parses split CSV fields into tuples or records, memoised.

    Instances are cheap; the module-level :data:`SHARED_PARSER` is the
    default so every caller in a process shares one warm cache.  The
    memo maps are pure (text → value), so sharing across callers can
    only improve hit rates, never results.
    """

    __slots__ = ("cache_limit", "_ips", "_flags")

    def __init__(self, cache_limit: int = PARSE_CACHE_LIMIT) -> None:
        if cache_limit < 1:
            raise ValueError("cache_limit must be positive")
        self.cache_limit = cache_limit
        self._ips: Dict[str, int] = {}
        self._flags: Dict[str, int] = {}

    def split(self, line: str) -> List[str]:
        """Split one data line, enforcing the column-count contract."""
        parts = line.split(",")
        if len(parts) != len(FLOW_FILE_COLUMNS):
            raise ValueError(
                f"flow line has {len(parts)} fields, expected "
                f"{len(FLOW_FILE_COLUMNS)}: {line!r}"
            )
        return parts

    def ip(self, text: str) -> int:
        """Memoised dotted-quad → integer conversion."""
        value = self._ips.get(text)
        if value is None:
            if len(self._ips) >= self.cache_limit:
                _evict_half(self._ips)
            value = self._ips[text] = str_to_ip(text)
        return value

    def flag_bits(self, text: str) -> int:
        """Memoised ``0x..`` flag-byte parse."""
        value = self._flags.get(text)
        if value is None:
            if len(self._flags) >= self.cache_limit:
                _evict_half(self._flags)
            value = self._flags[text] = int(text, 16)
        return value

    def tuple(self, parts: Sequence[str]) -> FlowTuple:
        """Detection-relevant columns only, no object construction.

        A field outside int64 cannot live in a column, so it is as
        unparseable as a non-number: ``ValueError``.
        """
        row = (
            int(parts[0]),  # first
            self.ip(parts[2]),
            self.ip(parts[3]),
            int(parts[4]),  # proto
            int(parts[6]),  # dport
            self.flag_bits(parts[9]),
        )
        if not _INT64_MIN <= min(row) <= max(row) <= _INT64_MAX:
            raise ValueError(
                f"flow line has a field outside int64: "
                f"{','.join(parts)!r}"
            )
        return row

    def record(
        self, parts: Sequence[str], sampling_interval: int = 1
    ) -> FlowRecord:
        """Full :class:`FlowRecord` construction (batch/replay path)."""
        return FlowRecord(
            key=FlowKey(
                src_ip=self.ip(parts[2]),
                dst_ip=self.ip(parts[3]),
                protocol=int(parts[4]),
                src_port=int(parts[5]),
                dst_port=int(parts[6]),
            ),
            first_switched=int(parts[0]),
            last_switched=int(parts[1]),
            packets=int(parts[7]),
            bytes=int(parts[8]),
            tcp_flags=self.flag_bits(parts[9]),
            sampling_interval=sampling_interval,
        )


#: Process-wide default parser: both `read_flow_file` and
#: `ColumnarDecodeStage` go through this instance unless handed their own.
SHARED_PARSER = FlowLineParser()


class FlowChunk:
    """One decoded batch of flows as parallel int64 column arrays.

    The columnar counterpart of a run of :data:`FlowTuple` rows: six
    equal-length numpy arrays (``first``, ``src``, ``dst``, ``proto``,
    ``dport``, ``flags``) plus ``start_index``, the stream index of
    row 0 in the valid-row coordinate system checkpoints are expressed
    in (quarantined/skipped lines never consume an index).
    """

    __slots__ = (
        "start_index", "first", "src", "dst", "proto", "dport", "flags",
    )

    def __init__(
        self, start_index, first, src, dst, proto, dport, flags
    ) -> None:
        self.start_index = start_index
        self.first = first
        self.src = src
        self.dst = dst
        self.proto = proto
        self.dport = dport
        self.flags = flags

    def __len__(self) -> int:
        return len(self.first)

    def head(self, count: int) -> "FlowChunk":
        """The first ``count`` rows (``max_records`` bounding)."""
        return FlowChunk(
            self.start_index,
            self.first[:count],
            self.src[:count],
            self.dst[:count],
            self.proto[:count],
            self.dport[:count],
            self.flags[:count],
        )

    def tail(self, drop: int) -> "FlowChunk":
        """Rows from ``drop`` on, re-indexed (resume fast-forward)."""
        return FlowChunk(
            self.start_index + drop,
            self.first[drop:],
            self.src[drop:],
            self.dst[drop:],
            self.proto[drop:],
            self.dport[drop:],
            self.flags[drop:],
        )


class IndexedFlowChunk(FlowChunk):
    """A chunk whose rows carry explicit, possibly gapped indices.

    A plain :class:`FlowChunk` numbers its rows contiguously from
    ``start_index`` — correct for a single linear stream.  A fleet
    worker instead receives the *subset* of the stream whose keys hash
    to its ring slots, and the merged event log is only byte-identical
    to the single-engine run if each record folds under the global
    index it had before routing.  ``indices`` is an int64 array, one
    global stream index per row, ascending but not contiguous;
    ``start_index`` degrades to ``indices[0]`` for code that only needs
    a lower bound.
    """

    __slots__ = ("indices",)

    def __init__(
        self, indices, first, src, dst, proto, dport, flags
    ) -> None:
        start = int(indices[0]) if len(indices) else 0
        super().__init__(start, first, src, dst, proto, dport, flags)
        self.indices = indices

    def head(self, count: int) -> "IndexedFlowChunk":
        """The first ``count`` rows (``max_records`` bounding)."""
        return IndexedFlowChunk(
            self.indices[:count],
            self.first[:count],
            self.src[:count],
            self.dst[:count],
            self.proto[:count],
            self.dport[:count],
            self.flags[:count],
        )

    def tail(self, drop: int) -> "IndexedFlowChunk":
        """Rows from ``drop`` on (indices travel with their rows)."""
        return IndexedFlowChunk(
            self.indices[drop:],
            self.first[drop:],
            self.src[drop:],
            self.dst[drop:],
            self.proto[drop:],
            self.dport[drop:],
            self.flags[drop:],
        )


class ColumnarDecodeStage:
    """Decode a flow file into :class:`FlowChunk` column batches.

    The text leaves ``bytes`` exactly once: each block of complete
    lines goes through :func:`_decode_bytes`, one numpy kernel
    that finds the separator bytes, checks that every row has the exact
    ``,,...,...,,,,,,\\n`` pattern and gathers the six needed columns
    digit by digit into int64.  ``#`` header lines at the front of a
    block are peeled off first, so a standard headered file never
    leaves the kernel.

    The kernel accepts a block only when every needed token is 1-18
    plain ASCII digits (``0x`` + 1-2 hex digits for ``flags``), every
    address octet is at most 255 and, with a quarantine attached,
    ``proto``/``dport`` are in range.  Anything else — comments or
    blank lines mid-block, ``\\r``, signs, spaces, ``_``, longer values,
    non-ASCII bytes, a wrong field count — drops the whole block to
    :meth:`_decode_lines`, the per-line contract: a ``ValueError``
    naming the line without a quarantine, a reason string per skipped
    line with one.

    Chunks hold exactly ``chunk_size`` valid rows (the last one fewer).
    """

    def __init__(
        self,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        parser: Optional[FlowLineParser] = None,
        quarantine: Optional[QuarantineSink] = None,
    ) -> None:
        if chunk_size < 1:
            raise ValueError("chunk_size must be positive")
        self.chunk_size = chunk_size
        self.parser = parser if parser is not None else SHARED_PARSER
        self.quarantine = quarantine

    # -- file ingest --------------------------------------------------

    def iter_chunks(
        self,
        source: Union[str, pathlib.Path, IO[str]],
        skip: int = 0,
    ) -> Iterator[FlowChunk]:
        """Yield decoded chunks; ``skip`` fast-forwards valid rows.

        The first yielded row carries index ``skip`` — how a resumed
        engine continues from its checkpointed record count
        (quarantine accounting still covers the skipped prefix).
        """
        np = _numpy()
        index = 0
        to_skip = skip
        for columns in self._cut(self._decode_blocks(source, np), np):
            chunk = FlowChunk(index, *columns)
            index += len(chunk)
            chunk, to_skip = _skip_rows(chunk, to_skip)
            if len(chunk):
                yield chunk

    def _cut(self, blocks, np):
        """Re-cut decoded ``(6, rows)`` blocks into arrays of exactly
        ``chunk_size`` valid rows (the last one fewer)."""
        size = self.chunk_size
        held, rows = [], 0
        for columns in blocks:
            held.append(columns)
            rows += columns.shape[1]
            if rows < size:
                continue
            columns = np.concatenate(held, axis=1)
            whole = rows - rows % size
            for at in range(0, whole, size):
                yield columns[:, at:at + size]
            held, rows = [columns[:, whole:]], rows - whole
        if rows:
            yield np.concatenate(held, axis=1)

    def _decode_blocks(self, source, np):
        """Read ``source`` in blocks of complete lines and decode each
        into one ``(6, rows)`` int64 array."""
        owns = isinstance(source, (str, pathlib.Path))
        stream = open(source, "rb") if owns else source
        newline = b"\n" if owns else "\n"
        carry = newline[:0]
        try:
            while True:
                block = stream.read(_BLOCK_BYTES)
                if not block:
                    break
                block = carry + block
                cut = block.rfind(newline) + 1
                carry = block[cut:]
                if cut:
                    yield self._decode_block(block[:cut], np)
            if carry:
                yield self._decode_block(carry + newline, np)
        finally:
            if owns:
                stream.close()

    # -- decoding -----------------------------------------------------

    def _decode_block(self, block: Union[bytes, str], np):
        """Decode one block of newline-terminated lines.

        Text-stream blocks are encoded for the kernel (a non-ASCII
        character becomes ``?``, which no needed token accepts) and fall
        back on the original text; file blocks fall back through the
        same ascii, universal-newline reader ``open(path)`` would give
        the per-line path.
        """
        text = isinstance(block, str)
        columns = _decode_bytes(
            block.encode("ascii", "replace") if text else block,
            self.quarantine is not None,
            np,
        )
        if columns is None:
            lines = block.split("\n") if text else io.TextIOWrapper(
                io.BytesIO(block), encoding="ascii"
            )
            columns = np.stack(self._decode_lines(lines, np))
        return columns

    def _decode_lines(self, lines: Iterable[str], np):
        """Per-line fallback: the contract for comments, malformed
        lines, unparseable fields and impossible tuples."""
        parser = self.parser
        quarantine = self.quarantine
        expected = len(FLOW_FILE_COLUMNS)
        columns: Tuple[List[int], ...] = ([], [], [], [], [], [])
        for line in lines:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            if len(parts) != expected:
                if quarantine is not None:
                    quarantine.record("malformed_line", line)
                    continue
                raise ValueError(
                    f"flow line has {len(parts)} fields, expected "
                    f"{expected}: {line!r}"
                )
            try:
                row = parser.tuple(parts)
            except ValueError:
                if quarantine is not None:
                    quarantine.record("unparseable_field", line)
                    continue
                raise
            if quarantine is not None:
                reason = validate_flow_tuple(*row)
                if reason is not None:
                    quarantine.record(reason, line)
                    continue
            for column, value in zip(columns, row):
                column.append(value)
        return tuple(
            np.array(column, dtype=np.int64) for column in columns
        )


def _decode_bytes(data: bytes, strict: bool, np):
    """The byte-level kernel: ``(6, rows)`` int64, or ``None`` to
    decline the block (the caller then takes the per-line path).

    ``data`` is whole lines, the last one newline-terminated.  Every
    byte below ``"0"`` is a separator candidate; a clean row has
    exactly the sixteen of :data:`_ROW_SEPARATORS`, which one gather
    checks for the whole block.  Between separators all bytes are
    then ``>= "0"``, so a needed token is valid iff each of its bytes
    maps to a digit.  ``strict`` (a quarantine is attached) also
    declines rows the quarantine would have to judge.
    """
    start = 0
    while data.startswith(b"#", start):
        start = data.find(b"\n", start) + 1
    # a file's reader breaks lines at a lone ``\r`` too, header or not
    if not data.isascii() or data.find(b"\r", 0, start) >= 0:
        return None
    if start == len(data):
        return np.empty((6, 0), dtype=np.int64)
    buf = np.frombuffer(data, dtype=np.uint8, offset=start)
    seps = np.flatnonzero(buf < ord("0"))
    rows, extra = divmod(len(seps), len(_ROW_SEPARATORS))
    if extra:
        return None
    pattern = np.frombuffer(_ROW_SEPARATORS, dtype=np.uint8)
    if not (buf[seps].reshape(rows, -1) == pattern).all():
        return None
    # token j of a row lies between bounds[j] and bounds[j + 1]: the
    # previous row's newline, then this row's sixteen separators
    bounds = np.empty((len(_ROW_SEPARATORS) + 1, rows), dtype=seps.dtype)
    bounds[1:] = seps.reshape(rows, -1).T
    bounds[0, 0] = -1
    bounds[0, 1:] = bounds[-1, :-1]
    first = _decimal(buf, bounds[0], bounds[1], np)
    # the eight address octets and ``proto`` are consecutive tokens
    small = _decimal(buf, bounds[2:11], bounds[3:12], np)
    dport = _decimal(buf, bounds[12], bounds[13], np)
    flags = _flag_bits(buf, bounds[15], bounds[16], np)
    if first is None or small is None or dport is None or flags is None:
        return None
    if small[:8].max() > 255:
        return None
    if strict and (small[8].max() > 255 or dport.max() > 65535):
        return None
    out = np.empty((6, rows), dtype=np.int64)
    out[0] = first
    out[1] = (small[0] << 24) | (small[1] << 16) | (small[2] << 8) | small[3]
    out[2] = (small[4] << 24) | (small[5] << 16) | (small[6] << 8) | small[7]
    out[3] = small[8]
    out[4] = dport
    out[5] = flags
    return out


def _decimal(buf, before, after, np):
    """The tokens between separator positions ``before`` and ``after``
    as int64, right-aligned digit by digit; ``None`` unless every token
    is 1-18 ASCII digits.

    Eighteen digits stay below 2**63, so the sum cannot wrap.  Bytes
    are widened to int64 *before* scaling: uint8 arithmetic wraps, and
    what a uint8 array times a numpy integer scalar promotes to differs
    between numpy 1.x and 2.x.
    """
    lengths = after - before
    lengths -= 1
    shortest, longest = int(lengths.min()), int(lengths.max())
    if shortest < 1 or longest > _MAX_DIGITS:
        return None
    values = np.zeros(after.shape, dtype=np.int64)
    at = after.copy()
    worst = 0
    for place in range(longest):
        at -= 1
        # for a token shorter than `place + 1` this reads whatever
        # precedes it (before the buffer's start the index goes
        # negative and wraps, still in bounds: only a longer token in
        # a later row brings `place` that far); `lengths > place`
        # zeroes exactly those reads
        digits = buf[at]
        digits -= ord("0")
        if place >= shortest:
            digits *= lengths > place
        worst = max(worst, int(digits.max()))
        wide = digits.astype(np.int64)
        wide *= 10 ** place
        values += wide
    return values if worst <= 9 else None


def _flag_bits(buf, before, after, np):
    """``0x`` + one or two hex digits as int64; ``None`` otherwise."""
    lengths = after - before
    if int(lengths.min()) < 4 or int(lengths.max()) > 5:
        return None
    if (buf[before + 1] != ord("0")).any() or (
        buf[before + 2] != ord("x")
    ).any():
        return None
    hex_values = np.frombuffer(_HEX_VALUES, dtype=np.uint8)
    low = hex_values[buf[after - 1]]
    high = hex_values[buf[after - 2]]
    high[lengths == 4] = 0  # one digit only: that byte was the ``x``
    if max(int(low.max()), int(high.max())) > 15:
        return None
    return (high.astype(np.int64) << 4) | low


def _skip_rows(chunk: FlowChunk, to_skip: int):
    """Fast-forward a resume prefix through a decoded chunk."""
    if not to_skip:
        return chunk, 0
    if to_skip >= len(chunk):
        return chunk.head(0), to_skip - len(chunk)
    return chunk.tail(to_skip), 0


def chunks_from_records(
    records: Iterable[FlowRecord],
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    start_index: int = 0,
) -> Iterator[FlowChunk]:
    """Column chunks from an in-memory record iterable.

    No validation, indices assigned from ``start_index`` — chunk
    sources that never touch text (the IXP fabric tap, sweep cells)
    enter the vectorized path here.
    """
    np = _numpy()
    iterator = iter(records)
    index = start_index
    while True:
        batch = list(itertools.islice(iterator, chunk_size))
        if not batch:
            return
        count = len(batch)
        yield FlowChunk(
            index,
            np.fromiter(
                (f.first_switched for f in batch), np.int64, count=count
            ),
            np.fromiter((f.src_ip for f in batch), np.int64, count=count),
            np.fromiter((f.dst_ip for f in batch), np.int64, count=count),
            np.fromiter(
                (f.protocol for f in batch), np.int64, count=count
            ),
            np.fromiter(
                (f.dst_port for f in batch), np.int64, count=count
            ),
            np.fromiter(
                (f.tcp_flags for f in batch), np.int64, count=count
            ),
        )
        index += count
