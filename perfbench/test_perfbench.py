"""The benchmark's own tests, on tiny groups:

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from spans import PER_LAYER
from workloads import WORKLOADS, load_reference, verdict

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result(child) -> dict:
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout.splitlines()[-1])


def test_spec_lists_what_the_benchmark_runs_and_prints():
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] \
        == [tuple(m) for m in PER_LAYER]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_end_to_end(workload):
    out = result(bench("--workload", workload, "--seed", "3",
                       "--seconds", "1", "--trace", "0", "--smoke"))
    assert out["correct"] and out["failed"] == 0 and out["attempted"] > 0
    assert set(out["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in out["metrics"].values())


def test_smoke_traced_counts_repeat_across_seeds():
    runs = [result(bench("--workload", "classify-b4-jobs2", "--seed", seed,
                         "--seconds", "1", "--trace", "1", "--smoke"))
            for seed in ("1", "2")]
    for out in runs:
        assert out["correct"] and out["failed"] == 0
        assert set(out["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    counts = [{k: v["value"] for k, v in out["metrics"].items()
               if v["unit"] == "count"} for out in runs]
    assert counts[0] == counts[1]
    assert counts[0]["klbase.h_blocks"] > 0


def test_verdict_rejects_changed_output():
    reference = load_reference()
    args = ("group", "--type", "A3")
    assert verdict(args, 0, b"{}\n", reference) == \
        "stdout differs from the reference"
    assert verdict(args, 2, b"", reference).startswith("exit 2")
    assert verdict(("group", "--type", "A2"), 0, b"", reference) == \
        "no reference output"


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    child = bench("--workload", "classify-h3", "--seed", "1",
                  "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert child.returncode != 0
    assert '"metrics"' not in child.stdout
