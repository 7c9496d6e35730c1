"""Tests of the benchmark itself: quick mode on every workload, the result
schema that BENCHMARK.json fixes, and the tracer's rules.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import math
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import bench_host  # noqa: E402
import bench_trace  # noqa: E402
import run  # noqa: E402
from bench_workloads import Op, Workload  # noqa: E402


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_quick_run_reports_every_declared_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "1", "--seconds", "1",
                 "--trace", str(trace), "--quick")
    assert proc.returncode == 0, proc.stderr
    *_, record_line, result_line = proc.stdout.splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1

    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0, m["name"]

    record = json.loads(record_line)["record"]
    for key in ("nproc", "python", "numpy", "git_revision", "source_sha256",
                "seed", "blas", "loadavg_start", "loadavg_end"):
        assert key in record
    assert record["ops"] == result["attempted"]
    assert record["fail_ratio"] == 0
    if trace:
        assert record["witnesses_differing"] == []


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "cochain", "--seed", "0", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tracer_counts_only_calls_across_modules():
    import ainfbg.dga
    import ainfbg.glin

    original = ainfbg.dga.rank_nullspace
    m = np.array([[1, 2, 0], [2, 4, 1]], dtype=np.int64)
    tracer = bench_trace.Tracer()
    tracer.install()
    try:
        ainfbg.dga.rank_nullspace(m, 5)
        ainfbg.glin.rank_nullspace(m, 5)
    finally:
        tracer.uninstall()
    totals = tracer.span_totals()
    # the row_reduce inside glin.rank_nullspace is not a layer boundary
    assert set(totals) == {"glin.rank_nullspace"}
    assert totals["glin.rank_nullspace"]["calls"] == 1
    assert ainfbg.dga.rank_nullspace is original


def test_sampler_samples_inside_long_operations_and_cleans_up():
    handler = signal.getsignal(signal.SIGALRM)
    with bench_host.HostSampler() as host:
        start = host.begin()
        time.sleep(3 * bench_host.SAMPLE_EVERY_S)
        end = host.end()
    # one sample on entry, at least two inside the operation, one on exit
    assert len(host.samples) >= 4
    assert end - start < 3.5 * bench_host.SAMPLE_EVERY_S
    assert host.scale(start, end) > 0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is handler


def test_differing_witness_fails_the_run(tmp_path):
    rounds = iter([1, 2])
    workload = Workload(ops=[])
    workload.ops.append(Op("drifting count", lambda: workload.counts.update(
        {"transfer.memo_entries": next(rounds)}) or []))
    with bench_host.HostSampler() as host:
        _, _, _, differ = run.traced_rounds(workload, "cochain", run.Tally(host),
                                            tmp_path / "spans.jsonl")
    assert differ == ["transfer.memo_entries"]
