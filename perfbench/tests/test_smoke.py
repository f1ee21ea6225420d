"""Smoke test of the benchmark at tiny budgets.

    python -m pytest perfbench/tests
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import worker
from dwtcdma import sim
from workloads import WORKLOADS, check_records, workload_config

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_prints_every_declared_metric_with_its_unit(workload, trace):
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS)
    done = run_bench(ROOT, "--workload", workload, "--seed", "5", "--seconds", "1",
                     "--trace", str(trace), "--tiny")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1

    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))
        assert any(line.startswith(metric["name"] + " ") and line.endswith(" " + metric["unit"])
                   for line in lines[:-1])
    for name in ("points_attempted", "points_failed"):
        assert any(line.startswith(name + " ") for line in lines[:-1])


def test_corrupted_records_count_as_failed_points():
    config, _ = workload_config("kernel-grid", 5, tiny=True)
    records = sim.run_sweep(config)
    assert check_records(config, records) == {}

    first = records[0]
    wrong_ber = dataclasses.replace(first, ber=first.ber + 0.25)
    wrong_seed = dataclasses.replace(records[1], seed=records[1].seed + 1)
    failures = check_records(config, [wrong_ber, wrong_seed] + records[3:])
    assert len(failures) == 3  # two broken records and one missing


def test_ber_far_from_theory_fails():
    config, _ = workload_config("users-lowsnr", 5, tiny=True)
    records = sim.run_sweep(config)
    index, record = next((i, r) for i, r in enumerate(records)
                         if not r.coded and r.bit_errors >= 10)
    errors = record.bit_errors // 2
    records[index] = dataclasses.replace(record, bit_errors=errors,
                                         ber=errors / record.bits_sent)
    failures = check_records(config, records)
    assert len(failures) == 1
    assert "sigma from theory" in next(iter(failures.values()))[0]


def test_point_that_raises_counts_as_failed(tmp_path, monkeypatch):
    real_run_point = sim.run_point

    def run_point(point, *args):
        if point.scheme == "dqpsk" and point.wavelet == "db2" and point.coded:
            raise RuntimeError("injected failure")
        return real_run_point(point, *args)

    monkeypatch.setattr(sim, "run_point", run_point)
    result = worker.measure("kernel-grid", 5, 0.0, False, tmp_path, tiny=True)
    assert result["attempted"] == 12
    assert result["failed"] == 1
    assert result["correct"] is False


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run_bench(tmp_path, "--workload", "kernel-grid", "--seed", "1", "--seconds", "1",
                     "--trace", "0")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
