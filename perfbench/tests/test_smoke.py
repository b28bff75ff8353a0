"""Toy-scale runs of every workload: each named metric is emitted and checks pass."""

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import run
from conftest import BENCH, ROOT

TOY = {
    "build": {"train_minutes": 0.5, "dev_minutes": 0.2, "test_minutes": 0.2,
              "dict_iters": 5, "dict_frames": 300},
    "train": {"train_minutes": 0.5, "dev_minutes": 0.2, "test_minutes": 0.2,
              "dict_iters": 5, "dict_frames": 300, "epochs": 2},
    "infer": {"clip_seconds": 20.0, "train_minutes": 0.4, "dev_minutes": 0.4, "test_minutes": 0.7,
              "dict_iters": 5, "dict_frames": 300, "epochs": 1,
              "probe_per_class": 3, "probe_epochs": 10},
}


def toy(name):
    w = run.WORKLOADS[name]
    return dataclasses.replace(w, config={**w.config, **TOY[name]}, setup_repeats=1)


@pytest.fixture(scope="module")
def bench():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_toy_workload_emits_every_metric(name, trace, bench, tmp_path):
    result, detail = run.run(toy(name), seed=5, seconds=0, trace=trace, work=tmp_path)
    assert detail["problems"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = bench["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {k: v["unit"] for k, v in result["metrics"].items()}
    if trace:
        assert detail["absent_metrics"] == [] and detail["absent_wraps"] == []
        # train loads train twice and dev once; eval, segment and explain load test once each
        assert result["metrics"]["training.load_split.calls"]["value"] == {"build": 1, "train": 3, "infer": 3}[name]
        # layer self times plus the stage's own self time add up to the stage span
        for acc in detail["accounting"].values():
            assert acc["self_sum_s"] == pytest.approx(acc["stage_span_s"], rel=1e-9)
            assert acc["stage_span_s"] + acc["import_s"] < acc["wall_s"]
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())
        stage_keys = {f"{s.replace('-', '_')}_s" for s in run.WORKLOADS[name].stages}
        assert stage_keys <= set(detail["figures"])


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "build", "--seed", "1",
                          "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                         timeout=60)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
