"""Fast self-test of the end-to-end benchmark (collected by the tier-1 suite).

Runs ``run.py --smoke`` as a child process -- exactly how the driver runs it --
so nothing here imports the harness modules.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def smoke(workload: str, trace: int, cwd: Path = ROOT, script: Path = HERE / "run.py"):
    done = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, cwd=cwd, timeout=120,
    )
    return done


@pytest.fixture(scope="module")
def runs():
    """Every smoke run the tests below look at.  ``http_hot`` runs alone (its
    generator-health guard compares two rates and wants the machine to
    itself); the in-process ones run two at a time."""
    alone = [("http_hot", 0, 0)]
    paired = [(w, 0, 0) for w in WORKLOADS if w != "http_hot"] + [
        ("lib_mixed", 1, 0), ("lib_mixed", 1, 1)]
    done = [smoke(key[0], key[1]) for key in alone]
    with ThreadPoolExecutor(max_workers=2) as pool:
        done += pool.map(lambda key: smoke(key[0], key[1]), paired)
    out = {}
    for key, process in zip(alone + paired, done):
        assert process.returncode == 0, process.stderr
        lines = process.stdout.strip().splitlines()
        sha = next(line.split()[-1] for line in lines if "sha256" in line)
        out[key] = (json.loads(lines[-1]), sha)
    return out


def test_result_schema_and_end_to_end_names(runs):
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for workload in WORKLOADS:
        result, _sha = runs[(workload, 0, 0)]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert isinstance(result["attempted"], int) and result["attempted"] >= 1
        assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_per_layer_names_match_spec(runs):
    result, _sha = runs[("lib_mixed", 1, 0)]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
    assert result["metrics"]["bench.trace_overhead_ratio"]["value"] > 0


def test_names_and_units_use_the_allowed_alphabet():
    names = WORKLOADS + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(m["unit"]) for m in SPEC["end_to_end"] + SPEC["per_layer"])
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in SPEC["end_to_end"])
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    # Timing bounds come from measured spread (README): wide enough to hold
    # on a noisy day, narrow enough that a 20 % regression cannot pass.
    assert bounds["setup_s"] == max(bounds.values())
    assert all(bounds[name] <= 0.20 for name in bounds if name != "setup_s")


def test_same_seed_same_stream_and_exact_counts(runs):
    first = runs[("lib_mixed", 0, 0)]
    traced, again = runs[("lib_mixed", 1, 0)], runs[("lib_mixed", 1, 1)]
    assert first[1] == traced[1] == again[1]
    # On lib_mixed the traced run reports the same bytes ratio under its
    # per-layer name, so three runs must agree on it to the last digit.
    ratio = first[0]["metrics"]["stored_bytes_ratio"]["value"]
    for count in ("index.packed_bytes_per_text_byte", "index.cursor_ops_per_op",
                  "index.positions_returned_per_op"):
        assert traced[0]["metrics"][count]["value"] == again[0]["metrics"][count]["value"]
        assert traced[0]["metrics"][count]["value"] > 0
    assert traced[0]["metrics"]["index.packed_bytes_per_text_byte"]["value"] == ratio


def test_refuses_to_run_outside_a_checkout(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's own
    files there is no program to measure: non-zero exit, no result line."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    target = tmp_path / "benchmarks" / "e2e"
    shutil.copytree(HERE, target, ignore=shutil.ignore_patterns("__pycache__"))
    done = smoke("lib_mixed", 0, cwd=tmp_path, script=target / "run.py")
    assert done.returncode != 0
    assert not done.stdout.strip().startswith("{")
