"""Quick self-test of the benchmark; asserts nothing about time.

    python -m pytest bench/test_bench.py -q

Runs every workload on a few points (`--quick`) in both modes, checks that
the run passed its output checks and printed every metric BENCHMARK.json
names, and checks that each workload's checks catch a corrupted output.
"""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_run_prints_every_metric(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        printed = result["metrics"][m["name"]]
        assert printed["unit"] == m["unit"]
        assert isinstance(printed["value"], (int, float))
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.fixture(scope="module")
def bench_modules():
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import tracer
    import workloads

    return tracer, workloads


def _one_round(workloads, tracer, name):
    wl = workloads.make(name, 3, quick=True)
    tracer.clear_program_caches(tracer.program_caches())
    inputs = wl.inputs(0)
    outputs = wl.run(inputs, workloads.Recorder())
    assert wl.check(inputs, outputs) == []
    return wl, inputs, outputs


def test_matrix_check_catches_a_wrong_label(bench_modules):
    tracer, workloads = bench_modules
    wl, inputs, outputs = _one_round(workloads, tracer, "matrix")
    sig, rep, depth, dp = outputs[0]
    wrong = "Conic" if sig.label != "Conic" else "TwoLines"
    outputs[0] = (dataclasses.replace(sig, label=wrong), rep, depth, dp)
    assert wl.check(inputs, outputs)


def test_atlas_check_catches_a_wrong_side(bench_modules):
    tracer, workloads = bench_modules
    wl, inputs, (entries, results) = _one_round(workloads, tracer, "atlas")
    entry, spec, inside, p, sig = results[0]
    results[0] = (entry, spec, not inside, p, sig)
    assert wl.check(inputs, (entries, results))
    assert wl.check(inputs, (entries[1:], results[1:]))


def test_oracle_check_catches_a_wrong_census(bench_modules):
    tracer, workloads = bench_modules
    wl, inputs, (sizes, census, cone) = _one_round(workloads, tracer, "oracle")
    assert wl.check(inputs, ([s + 1 for s in sizes], census, cone))
    label, agree, same, lift = census[0]
    census[0] = ("Empty2Z", agree, same, lift)
    assert wl.check(inputs, (sizes, census, cone))
