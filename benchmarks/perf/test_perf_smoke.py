"""Self-test of the perf ledger (``PYTHONPATH=src pytest benchmarks/perf -q``).

Outside tier-1's ``testpaths`` on purpose: it spawns the real CLIs.
"""

import json
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from benchmarks.perf import OUTPUT, QUICK_SCALE, load_spec  # noqa: E402
from benchmarks.perf import workloads  # noqa: E402

ENTRY = [sys.executable, str(ROOT / "benchmarks" / "perf" / "__main__.py")]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _git_status():
    try:
        return subprocess.run(
            ["git", "status", "--porcelain"], cwd=ROOT, check=True,
            capture_output=True, text=True,
        ).stdout
    except (OSError, subprocess.CalledProcessError):
        pytest.skip("not a git checkout")


def test_spec_names_are_well_formed_and_unique():
    spec = load_spec()
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in spec[key]
    ]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    assert any(
        m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
        for m in spec["end_to_end"]
    )


def test_quick_prints_every_metric_and_leaves_the_tree_clean():
    before = _git_status()
    result = OUTPUT / "result.json"
    recorded = result.stat().st_mtime_ns if result.exists() else None
    run = subprocess.run(
        ENTRY + ["--quick", "--trace"], cwd=ROOT, timeout=170,
        capture_output=True, text=True,
    )
    assert run.returncode == 0, run.stderr[-2000:]
    spec = load_spec()
    lines = run.stdout.splitlines()
    for workload in spec["workloads"]:
        for metric in spec["end_to_end"]:
            assert any(
                line.split()[:2] == [workload["name"], metric["name"]]
                and metric["unit"] in line.split()
                for line in lines
            ), (workload["name"], metric["name"])
        assert any(
            line.split()[:2] == [workload["name"], "failed/attempted"]
            and line.split()[2].startswith("0/")
            for line in lines
        )
    for metric in spec["per_layer"]:
        assert any(
            line.split()[:2] == ["per-layer", metric["name"]]
            and line.split()[-1] == metric["unit"]
            for line in lines
        ), metric["name"]
    for workload in spec["workloads"]:
        assert (OUTPUT / f"trace-{workload['name']}.json").exists()
    assert recorded == (
        result.stat().st_mtime_ns if result.exists() else None
    ), "--quick must record nothing"
    assert _git_status() == before


def test_gate_trips_on_a_corrupted_event_log():
    class Corrupted(workloads.JournalReplay):
        def prepare(self, bench, slot):
            prepared = super().prepare(bench, slot)
            log = bytearray(prepared.reference_log.read_bytes())
            log[len(log) // 2] ^= 0x01
            prepared.reference_log.write_bytes(bytes(log))
            return prepared

    OUTPUT.mkdir(exist_ok=True)
    bench = workloads.Bench(
        seed=3, scale=QUICK_SCALE, world=workloads.ensure_world(),
        base=OUTPUT / "selftest",
    )
    try:
        honest = workloads.measure(
            workloads.JournalReplay(), bench, repeats=1
        )
        assert honest.errors == []
        corrupted = workloads.measure(Corrupted(), bench, repeats=1)
        assert any("differs" in text for text in corrupted.errors)
    finally:
        shutil.rmtree(bench.base, ignore_errors=True)


def test_contract_run_prints_one_result_object():
    run = subprocess.run(
        ENTRY + ["--workload", "chunks_dense", "--seed", "4",
                 "--seconds", "1", "--trace", "0"],
        cwd=ROOT, timeout=170, capture_output=True, text=True,
    )
    assert run.returncode == 0, run.stderr[-2000:]
    result = json.loads(run.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {
        metric["name"] for metric in load_spec()["end_to_end"]
    }
