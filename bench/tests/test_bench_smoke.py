"""Smoke test of the benchmark at tiny sizes.

Each workload runs one round of its warm-up schedule (its smallest inputs),
once untraced and once traced.  The test asserts that every metric named in
BENCHMARK.json is emitted with its unit and that every check passes.  The
known-defect probes are run on their own, and must fail by those defects only.

    python3 -m pytest bench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run as bench  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def units(section: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [False, True])
def test_workload_emits_every_metric_and_passes_its_checks(name, trace, monkeypatch):
    bench.import_package()
    import workloads

    cls = workloads.WORKLOADS[name]
    tiny = cls.warm_schedule or cls.schedule[:4]
    monkeypatch.setattr(cls, "schedule", tiny)
    monkeypatch.setattr(cls, "probe_schedule", ())
    result = bench.run_workload(name, seed=7, seconds=0, trace=trace, max_rounds=1)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    want = units("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())


@pytest.mark.parametrize("name", ["spectra_mid", "decide_large"])
def test_probe_fails_only_by_known_defects_and_the_same_for_every_seed(name, tmp_path):
    bench.import_package()
    import workloads

    workload = workloads.WORKLOADS[name](str(tmp_path))
    probe = workload.probe_round()
    assert repr(probe) == repr(workload.probe_round())
    run = bench.Run()
    for inst in probe:
        bench.run_op(workload, inst, run)
    assert run.unexpected == 0
    assert sum(run.failures.values()) >= 1
    assert set(run.failures) <= workload.known_defects


def test_sweep_small_finishes_sweeps_and_catches_a_shared_profile(tmp_path):
    bench.import_package()
    import workloads

    sweep = workloads.SweepSmall(str(tmp_path))
    for r in range(81):  # 3^4 rounds: three sweeps of the m = 3 slot, one of the m = 4 slot
        for inst in sweep._round(5, r, sweep.warm_schedule):
            sweep.check(inst, sweep.op(inst))
    assert sweep.sweeps_completed == 4

    first, second = (sweep.make_round(5, r)[-1] for r in (0, 1))
    profile = sweep.op(first)[3]
    sweep.check(first, sweep.op(first))
    other = workloads.switching_class(second["n"], dict(zip(map(tuple, second["edges"]), second["exps"])))
    assert other != workloads.switching_class(first["n"], dict(zip(map(tuple, first["edges"]), first["exps"])))
    with pytest.raises(workloads.Mismatch, match="share a profile"):
        sweep._check_profile(second, tuple(profile), other)


def test_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep_small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
