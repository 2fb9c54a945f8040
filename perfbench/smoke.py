"""Smoke test of the benchmark itself: every workload at a tiny size.

    python3 -m pytest perfbench/smoke.py -q

It checks that each workload runs untraced and traced, that the result line
carries every metric BENCHMARK.json names with its unit, that the op list is
a pure function of the seed, and that the benchmark fails without a result
in a directory that holds nothing but the benchmark.  The file name keeps it
out of the repository's default test collection; it takes about two
minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _bench(*args, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_prints_every_metric(workload, trace):
    out = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--tiny")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, lines
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert any(ln.startswith(f"  {m['name']} = ") and ln.endswith(f" {m['unit']}")
                   for ln in lines), m["name"]
    assert any("op-list sha256" in ln for ln in lines)
    assert any(ln.startswith("environment ") for ln in lines)
    assert any(ln.startswith("calibration probe median") for ln in lines)
    if trace:
        m = result["metrics"]
        assert m["mc.tail.factorizations"]["value"] == m["mc.tail.matrices"]["value"]
        assert any(ln.startswith("tracing overhead") for ln in lines)
    else:
        assert any("op_tail_ms is the" in ln for ln in lines)


def test_op_list_is_a_function_of_the_seed():
    for w in workloads.WORKLOADS:
        a = workloads.build(w, 7, 20.0).digest()
        assert a == workloads.build(w, 7, 20.0).digest()
        assert a != workloads.build(w, 8, 20.0).digest()


def test_tail_is_the_order_statistic_with_ten_beyond():
    lat = [float(i) for i in range(1, 31)]
    assert run._tail(lat) == (20.0, "p66 of 30 ops (10 beyond)")
    assert run._tail(lat[:12]) == (12.0, "max of 12 ops")


def test_one_disturbed_probe_does_not_move_the_calibration():
    probes = [0.05] * 5 + [0.5] + [0.05] * 5
    assert calibrate.factors(probes, 10) == [calibrate.REF_S / 0.05] * 10


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for p in SPEC["paths"]:
        shutil.copytree(ROOT / p, tmp_path / p, ignore=shutil.ignore_patterns("__pycache__"))
    out = _bench("--workload", "mc_tail", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
