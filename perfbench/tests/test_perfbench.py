"""Tests of the benchmark itself.

Run from the root of a checkout: python3 -m pytest perfbench/tests -q
Each test runs real repetitions, so the file takes about a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def result_line(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    res = result_line(bench("--workload", "expr-ladder", "--seed", "1",
                            "--seconds", "1", "--trace", trace))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    declared = {m["name"]: m["unit"] for m in BENCH[section]}
    printed = {name: m["unit"] for name, m in res["metrics"].items()}
    assert printed == declared
    for m in res["metrics"].values():
        assert set(m) == {"value", "unit"}
        assert isinstance(m["value"], (int, float))


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOADS)
    expected = json.loads(run.EXPECTED.read_text())
    assert sorted(expected) == sorted(run.WORKLOADS)


def test_tampered_digest_fails_the_gate():
    observed = run.spawn("expr-ladder", 1, 0, "-", 170)["passes"]
    expected = json.loads(run.EXPECTED.read_text())["expr-ladder"]
    assert run.gate(observed, expected) == (528, 0)
    key = sorted(expected["ops"])[0]
    expected["ops"][key] = "0" * 16
    # The same operation fails in the cold and in the warm pass.
    assert run.gate(observed, expected) == (528, 2)


def test_gate_fails_every_operation_of_a_pass_with_a_wrong_outcome():
    expected = json.loads(run.EXPECTED.read_text())["scan-6000"]
    observed = json.loads(json.dumps(expected))
    assert run.gate([observed], expected) == (29, 0)
    observed["pass"]["core_split"]["a7"] = "0" * 16
    assert run.gate([observed], expected) == (29, 29)


@pytest.mark.parametrize("workload", ["catalog-400", "expr-ladder"])
def test_two_seeds_give_identical_outputs(workload):
    first = run.spawn(workload, 1, 0, "-", 170)
    second = run.spawn(workload, 2, 0, "-", 170)
    assert first["passes"] == second["passes"]
    expected = json.loads(run.EXPECTED.read_text())[workload]
    assert run.gate(first["passes"], expected)[1] == 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "oracle-40", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
