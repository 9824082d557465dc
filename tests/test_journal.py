"""Journal damage, one table, three entry points.

A collector journal (:mod:`repro.netflow.journal`) is read by
``ColumnarDecodeStage.iter_chunks`` (``stream run``, the fleet,
``pipeline.assemble``), cut by ``truncate_journal`` and cut-then-
appended by ``repro collect --resume``.  Each row of :data:`CASES`
builds one file from the same 16 rows in segments of 5, 7 and 4 and
says what each entry point must make of it: the rows it yields or
keeps, or the error it raises (naming the damaged segment's byte
offset).  ``None`` marks an entry point a case does not concern.
"""

import re

import numpy as np
import pytest

from repro.netflow.flowfile import write_flow_file
from repro.netflow.journal import (
    JournalError,
    TornSegment,
    encode_segment,
    open_journal,
    truncate_journal,
)
from repro.netflow.parse import ColumnarDecodeStage
from repro.resilience.sealed import seal_header
from tests.conftest import flow_row, journal_rows, write_artifacts

SIZES = (5, 7, 4)
#: the collector's checkpoint in the resume column: inside segment 2
CHECKPOINT = 9


@pytest.fixture(scope="module")
def flows(gt_flows):
    return list(gt_flows[: sum(SIZES)])


def _write(path, flows, sizes=SIZES):
    at = 0
    with open_journal(path) as journal:
        for size in sizes:
            rows = [flow_row(flow) for flow in flows[at : at + size]]
            block = np.array(rows, dtype=np.uint64).reshape(size, 10)
            journal.write(encode_segment(block.T))
            at += size
    return path.read_bytes()


def _offsets(data):
    """Byte offset of every segment of a clean journal."""
    return [match.start() for match in re.finditer(b"haystack-journal", data)]


# -- the cases: each writes ``path`` and returns the error's offset -------


def _clean(path, flows):
    _write(path, flows)


def _torn_last(path, flows):
    data = _write(path, flows)
    segment = data[_offsets(data)[2] :]
    path.write_bytes(data + segment[: len(segment) // 2])
    return len(data)


def _flipped_middle(path, flows):
    data = bytearray(_write(path, flows))
    second, third = _offsets(bytes(data))[1:3]
    data[third - 5] ^= 0x01  # a column byte of segment 2
    path.write_bytes(bytes(data))
    return second


def _foreign_magic(path, flows):
    body = b"\x00" * 16
    path.write_bytes(seal_header("repro-checkpoint", 2, [body]) + body)


def _foreign_segment(path, flows):
    data = _write(path, flows)
    second = _offsets(data)[1]
    path.write_bytes(
        data[:second] + data[second:].replace(
            b"haystack-journal", b"repro-checkpoint", 1
        )
    )
    return second


def _empty(path, flows):
    path.write_bytes(b"")


def _header_only(path, flows):
    _write(path, flows, sizes=(0,))


def _text_journal(path, flows):
    write_flow_file(path, flows)


def _rows(flows, start=0, stop=None):
    return [flow_row(flow) for flow in flows[start:stop]]


#: name -> (build, iter_chunks, truncate_journal(path), collect --resume)
#: where an expectation is ``("rows", start, stop)``, ``("error", type,
#: text)`` (``{offset}`` is the segment's byte offset) or ``("kept",
#: n)`` / ``("refused", text)`` for the resume column
CASES = {
    "torn last segment": (
        _torn_last,
        ("error", TornSegment, "segment at byte {offset}: body cut short"),
        ("rows", 0, 16),
        ("kept", CHECKPOINT),
    ),
    "flipped byte in a middle segment": (
        _flipped_middle,
        ("error", JournalError, "segment at byte {offset}: payload digest"),
        ("error", JournalError, "segment at byte {offset}: payload digest"),
        ("refused", "segment at byte {offset}: payload digest mismatch"),
    ),
    "foreign magic": (
        _foreign_magic,
        # not a journal's first bytes: read as a text flow file
        ("error", ValueError, ""),
        ("error", JournalError, "is not a haystack-journal v1 journal"),
        ("refused", "is not a haystack-journal v1 journal"),
    ),
    "foreign magic mid-file": (
        _foreign_segment,
        ("error", JournalError, "at byte {offset}: wrong magic"),
        ("error", JournalError, "at byte {offset}: wrong magic"),
        ("refused", "at byte {offset}: wrong magic 'repro-checkpoint'"),
    ),
    "empty file": (
        _empty,
        ("rows", 0, 0),
        ("rows", 0, 0),
        ("refused", f"holds 0 records, fewer than the {CHECKPOINT} the"),
    ),
    "header only": (
        _header_only,
        ("rows", 0, 0),
        ("rows", 0, 0),
        ("refused", f"holds 0 records, fewer than the {CHECKPOINT} the"),
    ),
    "mid-segment cut": (
        _clean, None, ("rows", 0, 16), ("kept", CHECKPOINT),
    ),
    "parent-written text journal": (
        _text_journal,
        ("rows", 0, 16),
        ("error", JournalError, "older releases wrote text flow journals"),
        ("refused", "is not a haystack-journal v1 journal"),
    ),
}


def _check_error(expected, raised, offset):
    _, kind, text = expected
    assert type(raised.value) is kind or (
        kind is ValueError and isinstance(raised.value, ValueError)
        and not isinstance(raised.value, JournalError)
    )
    assert text.format(offset=offset) in str(raised.value)
    if isinstance(raised.value, JournalError) and "{offset}" in text:
        assert raised.value.offset == offset


def _cases(column):
    return [name for name, case in CASES.items() if case[column] is not None]


@pytest.mark.parametrize("name", _cases(1))
def test_iter_chunks(name, flows, tmp_path):
    build, expected = CASES[name][0], CASES[name][1]
    path = tmp_path / "journal.csv"
    offset = build(path, flows)
    decode = ColumnarDecodeStage(4).iter_chunks(path)
    if expected[0] == "error":
        with pytest.raises(ValueError) as raised:
            list(decode)
        _check_error(expected, raised, offset)
        return
    chunks = list(decode)
    got = [
        row
        for chunk in chunks
        for row in zip(
            chunk.first.tolist(), chunk.src.tolist(), chunk.dst.tolist(),
            chunk.proto.tolist(), chunk.dport.tolist(),
            chunk.flags.tolist(),
        )
    ]
    want = [
        tuple(row[i] for i in (0, 2, 3, 4, 6, 9))
        for row in _rows(flows, *expected[1:])
    ]
    assert got == want
    assert [chunk.start_index for chunk in chunks] == list(
        range(0, len(want), 4)
    )


@pytest.mark.parametrize("name", _cases(2))
def test_truncate_journal(name, flows, tmp_path):
    build, expected = CASES[name][0], CASES[name][2]
    path = tmp_path / "journal.csv"
    offset = build(path, flows)
    before = path.read_bytes()
    if expected[0] == "error":
        with pytest.raises(JournalError) as raised:
            truncate_journal(path)
        _check_error(expected, raised, offset)
        assert path.read_bytes() == before  # damage is never "repaired"
        return
    want = _rows(flows, *expected[1:])
    assert truncate_journal(path) == len(want)
    assert journal_rows(path) == want


@pytest.mark.parametrize("skip", [0, 4, 5, 6, 12, 15, 16, 40])
def test_skip_crosses_segment_boundaries(skip, flows, tmp_path):
    """``skip`` passes over whole segments by the row counts in their
    prefixes: segment 1's body is damaged, and a skip past it never
    reads it."""
    path = tmp_path / "journal.csv"
    data = bytearray(_write(path, flows))
    data[_offsets(bytes(data))[1] - 3] ^= 0x01  # a column byte of segment 1
    path.write_bytes(bytes(data))
    decode = ColumnarDecodeStage(4).iter_chunks(path, skip=skip)
    if skip < SIZES[0]:
        with pytest.raises(JournalError, match="segment at byte 0: "):
            list(decode)
        return
    chunks = list(decode)
    got = [value for chunk in chunks for value in chunk.first.tolist()]
    assert got == [flow.first_switched for flow in flows[skip:]]
    if chunks:
        assert chunks[0].start_index == skip


def test_mid_segment_cut_reseals_the_prefix(flows, tmp_path):
    path = tmp_path / "journal.csv"
    data = _write(path, flows)
    assert truncate_journal(path, CHECKPOINT) == CHECKPOINT
    kept = path.read_bytes()
    second = _offsets(data)[1]
    assert kept[:second] == data[:second]
    assert _offsets(kept) == _offsets(data)[:2]
    assert journal_rows(path) == _rows(flows, 0, CHECKPOINT)
    # a cut on a segment boundary writes nothing new
    assert truncate_journal(path, SIZES[0]) == SIZES[0]
    assert path.read_bytes() == data[:second]


def test_collector_refuses_to_append_to_a_text_journal(flows, tmp_path):
    path = tmp_path / "journal.csv"
    write_flow_file(path, flows)
    with pytest.raises(JournalError, match="not a haystack-journal"):
        open_journal(path)


# -- collect --resume -------------------------------------------------------


@pytest.fixture(scope="module")
def checkpointed(rules, hitlist, flows, tmp_path_factory):
    """Artifacts, and a collector checkpoint at record 9 written by
    ``stream run`` over a clean journal (which also shows ``stream
    run`` reading one)."""
    from repro.cli import main

    base = tmp_path_factory.mktemp("resume")
    artifacts = write_artifacts(base / "artifacts", rules, hitlist)
    journal = base / "clean.csv"
    _write(journal, flows)
    assert main([
        "stream", "run", str(journal), "--artifacts", str(artifacts),
        "--checkpoint-dir", str(base / "ckpt"),
        "--events-out", str(base / "events.jsonl"),
        "--max-records", str(CHECKPOINT),
    ]) == 0
    return base


@pytest.mark.parametrize("name", _cases(3))
def test_collect_resume(name, flows, checkpointed, tmp_path, capsys):
    import shutil

    from repro.cli import main

    build, expected = CASES[name][0], CASES[name][3]
    path = tmp_path / "journal.csv"
    offset = build(path, flows)
    shutil.copytree(checkpointed / "ckpt", tmp_path / "ckpt")
    shutil.copy(checkpointed / "events.jsonl", tmp_path / "events.jsonl")
    capsys.readouterr()
    code = main([
        "collect", "--artifacts", str(checkpointed / "artifacts"),
        "--no-control", "--bind", "127.0.0.1:0",
        "--journal", str(path),
        "--checkpoint-dir", str(tmp_path / "ckpt"),
        "--events-out", str(tmp_path / "events.jsonl"),
        "--idle-exit", "0.05", "--resume",
    ])
    err = capsys.readouterr().err
    if expected[0] == "refused":
        assert code == 2
        assert "error: cannot resume: " in err
        assert expected[1].format(offset=offset) in err
        return
    assert code == 0, err
    assert f"# journal truncated to {expected[1]} records" in err
    assert journal_rows(path) == _rows(flows, 0, expected[1])
