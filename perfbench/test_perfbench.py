"""Tests of the benchmark itself, on the smoke size (every workload once).

They run the benchmark as the command BENCHMARK.json names, check that
every listed metric is printed with its unit, and that a corrupted pinned
identity is caught and counted as a failed job.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT, check=True):
    cmd = [sys.executable, *SPEC["command"][1:], *args]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)
    if check:
        assert proc.returncode == 0, proc.stderr
    return proc


def smoke(workload, golden, *extra):
    proc = bench("--workload", workload, "--seed", "0", "--seconds", "0",
                 "--size", "smoke", "--golden", str(golden), *extra)
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.fixture(scope="module")
def golden(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden") / "golden.json"
    bench("--pin", "0", "--size", "smoke", "--golden", str(path))
    return path


def test_spec_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert {"name": "setup_s", "unit": "s", "better": "lower",
            "bound": max(m["bound"] for m in SPEC["end_to_end"])} in SPEC["end_to_end"]
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_unit(workload, trace, golden):
    lines, result = smoke(workload, golden, "--trace", str(trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert any(line.startswith("digests: pinned") for line in lines)
    assert any(line.startswith("env: python=") and "nproc=" in line and "commit=" in line
               for line in lines)
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert f"metric {m['name']} = " in "\n".join(lines)


def test_corrupted_pin_counts_as_failed(golden, tmp_path):
    data = json.loads(golden.read_text())
    ids = data["pins"]["smoke/0/naive-dense"]
    ids[0] = ("0" if ids[0][0] != "0" else "1") + ids[0][1:]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    lines, result = smoke("naive-dense", bad)
    assert not result["correct"]
    assert result["failed"] == 1 and result["attempted"] == 2
    assert "failed_frac = 0.5 (1 of 2 jobs failed)" in lines


def test_seed_without_pins_is_unpinned(golden):
    lines, result = smoke("sweep-mixed", golden, "--seed", "424242")
    assert result["correct"]
    assert any(line.startswith("digests: unpinned") for line in lines)


def test_seed_gives_same_jobs():
    sys.path.insert(0, str(ROOT))
    from perfbench.workloads import make_jobs

    for workload in WORKLOADS:
        assert make_jobs(workload, 3) == make_jobs(workload, 3)
        assert make_jobs(workload, 3) != make_jobs(workload, 4)


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path, check=False)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
