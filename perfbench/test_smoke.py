"""Smoke test of the benchmark on tiny inputs: cover (2,4) on four single
boxes (6 nodes) and enumerate (2,4).  Every metric that BENCHMARK.json
names is printed with its unit, and a wrong reference digest makes the
operations count as failed."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.3", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return lines[:-1], json.loads(lines[-1])


def _printed(lines):
    """metric name -> unit from the lines before the JSON result."""
    return {line.split()[0]: line.split()[2] for line in lines
            if len(line.split()) >= 3}


@pytest.mark.parametrize("workload,trace", [
    ("smoke-cover", 0), ("smoke-cover", 1), ("smoke-enumerate", 1)])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    lines, result = _bench(workload, trace)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == expected
    printed = _printed(lines)
    for m in SPEC["end_to_end"] + (SPEC["per_layer"] if trace else []):
        assert printed[m["name"]] == m["unit"]
    assert printed["error_rate"] == "ratio"
    error_rate = [line for line in lines if line.startswith("error_rate ")]
    assert float(error_rate[0].split()[1]) == 0.0


def test_wrong_reference_digest_counts_as_failure(capsys):
    references = json.loads(run.REFERENCES.read_text())
    for key in references["smoke-cover"]:
        references["smoke-cover"][key] = "0" * 64
    code = run.main(["--workload", "smoke-cover", "--seed", "3",
                     "--seconds", "0.3", "--trace", "0"],
                    references=references)
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert code == 0
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    error_rate = [line for line in lines if line.startswith("error_rate ")]
    assert float(error_rate[0].split()[1]) == 1.0
