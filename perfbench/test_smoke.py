"""Smoke test of the benchmark at a tiny size.

    python3 -m pytest perfbench/test_smoke.py

Runs perfbench/run.py on the "tiny" workload from the repository root and
checks that every metric BENCHMARK.json names is printed with its unit,
and that a failing run raises error_rate without crashing the benchmark.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEFINITION = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tiny", "--seed", "3",
         "--seconds", "1", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc, lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace,kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_metric_printed_with_unit(trace, kind):
    proc, lines, result = bench("--trace", trace)
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in DEFINITION[kind]}
    for metric in DEFINITION[kind]:
        name, unit = metric["name"], metric["unit"]
        assert result["metrics"][name]["unit"] == unit
        assert isinstance(result["metrics"][name]["value"], (int, float)), name
        assert any(line.startswith(f"{name} ") and line.endswith(f" {unit}")
                   for line in lines), name
    assert any(line.startswith("error_rate 0 fraction") for line in lines)


def test_injected_failure_counts_into_error_rate():
    proc, lines, result = bench("--trace", "0", "--inject-failure")
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] is False
    assert result["failed"] == 1 and result["attempted"] > 1
    rate = next(line for line in lines if line.startswith("error_rate "))
    assert float(rate.split()[1]) == pytest.approx(1 / result["attempted"], rel=1e-5)  # printed to 6 digits
    assert all(m["value"] is not None for m in result["metrics"].values())


def test_refuses_to_run_without_sources():
    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "fit_joint",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=170)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""
