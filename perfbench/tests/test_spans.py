"""Span arithmetic, the percentile rule, wrapping, and metric naming."""

import json
import re
import subprocess
import sys

import pytest

import layers
import run
from conftest import BENCH, ROOT
from spans import Tracer, outermost, self_times, tail_percentile, timing_summary

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


def span(i, parent, name, start, end):
    return [i, parent, name, start, end, None]


@pytest.mark.parametrize("n, pct", [(0, 50), (10, 50), (19, 50), (20, 50), (32, 68), (100, 90),
                                    (101, 90), (1000, 99), (5000, 99)])
def test_tail_percentile_leaves_ten_samples_beyond(n, pct):
    assert tail_percentile(n) == pct


def test_timing_summary_reports_median_tail_and_count():
    samples = [float(v) for v in range(100, 0, -1)]
    out = timing_summary(samples)
    assert out == {"p50": 50.5, "tail": 90.0, "tail_pct": 90, "n": 100}
    assert sum(s > out["tail"] for s in samples) == 10


def test_timing_summary_small_samples_fall_back_to_median():
    assert timing_summary([3.0, 1.0, 2.0]) == {"p50": 2.0, "tail": 2.0, "tail_pct": 50, "n": 3}
    assert timing_summary([])["n"] == 0


def test_self_time_subtracts_union_of_overlapping_children():
    spans = [
        span(0, -1, "root", 0.0, 10.0),
        span(1, 0, "a", 1.0, 4.0),
        span(2, 0, "b", 3.0, 6.0),  # overlaps a, as spans from two threads would
        span(3, 1, "c", 2.0, 3.0),
        span(4, 0, "late", 8.0, 12.0),  # ends after its parent: only 8..10 counts
    ]
    assert self_times(spans) == pytest.approx([10 - 5 - 2, 3 - 1, 3, 1, 4])


def test_self_times_of_a_nested_tree_sum_to_the_root():
    spans = [span(0, -1, "root", 0.0, 9.0), span(1, 0, "a", 1.0, 5.0), span(2, 1, "b", 2.0, 3.0),
             span(3, 1, "b", 3.5, 4.0), span(4, 0, "c", 6.0, 8.5)]
    assert sum(self_times(spans)) == pytest.approx(9.0)


def test_outermost_counts_nested_repeats_once():
    spans = [span(0, -1, "x", 0, 5), span(1, 0, "y", 1, 4), span(2, 1, "x", 2, 3), span(3, -1, "x", 6, 7)]
    assert [s[0] for s in outermost(spans, ["x"])] == [0, 3]
    assert [s[0] for s in outermost(spans, ["x", "y"])] == [0, 3]


def test_loss_time_excludes_only_forward_and_backward():
    spans = [span(0, -1, "training.loss", 0.0, 10.0), span(1, 0, "network.forward", 1.0, 3.0),
             span(2, 1, "network.dconv_fwd", 1.5, 2.0), span(3, 0, "network.sigmoid", 4.0, 5.0),
             span(4, 0, "network.backward", 6.0, 9.0)]
    agg = layers.Spans([{"spans": spans}])
    assert agg.outside_ms("training.loss", "network.forward", "network.backward") == pytest.approx(5000.0)
    assert agg.self_ms("training.loss") == pytest.approx(4000.0)


def test_tracer_records_parents_attrs_and_survives_errors():
    tracer = Tracer()
    inner = tracer.wrap(lambda v: v * 2, "inner", hook=lambda args, out: {"out": out, "v": args["v"]})
    broken_hook = tracer.wrap(lambda: 1, "bad_hook", hook=lambda args, out: 1 / 0)

    def outer():
        return inner(v=3) + broken_hook()

    def fails():
        raise KeyError("x")

    assert tracer.wrap(outer, "outer")() == 7
    with pytest.raises(KeyError):
        tracer.wrap(fails, "fails")()
    names = {s[2]: s for s in tracer.spans}
    assert names["inner"][1] == names["outer"][0]
    assert names["inner"][5] == {"out": 6, "v": 3}
    assert "hook_error" in names["bad_hook"][5]
    assert names["fails"][1] == -1 and names["fails"][4] >= names["fails"][3]


def test_missing_helper_leaves_its_metrics_absent():
    dumps = [{"stage": "train", "import_s": 1.0, "absent": ["network._dconv_grads"], "exit": 0,
              "spans": [span(0, -1, "cli.train", 0.0, 1.0)]}]
    values, absent = layers.layer_metrics(dumps, {k: 1.0 for k in (
        "nmf_ceiling", "network_ceiling", "overhead_pct", "accounted_pct", "snmf_objective",
        "train_loss", "dev_macro_f1", "test_macro_f1")})
    assert set(absent) == {"network.dconv_bwd.ms", "network.dconv.calls", "network.dconv_gflops"}
    assert values["cli.train.self_ms"] == pytest.approx(1000.0)
    assert set(values) | set(absent) == set(layers.METRICS)


def test_install_wraps_names_where_they_are_looked_up():
    script = (
        "import sys; import nmfseg.network as net; del net._dconv_grads\n"
        "import layers, nmfseg.cli as cli, nmfseg.training as tr, nmfseg.probing as pr, nmfseg.optim as op\n"
        "from spans import Tracer\n"
        "t = Tracer(); absent = layers.install(t)\n"
        "ok = tr._forward_cache is cli._forward_cache is net._forward_cache\n"
        "ok = ok and tr.adam_step is pr.adam_step is op.adam_step and tr.adam_step.__wrapped__ is not None\n"
        "print(absent, ok)\n")
    env = {"PYTHONPATH": f"{ROOT / 'src'}:{BENCH}", "PATH": "/usr/bin:/bin"}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "['network._dconv_grads'] True"


def test_metric_names_and_benchmark_json_agree():
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    per_layer = {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]}
    assert per_layer == {name: spec[:2] for name, spec in layers.METRICS.items()}
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in bench[key]]
    assert len(names) == len(set(names))
    assert all(NAME_RE.fullmatch(n) and len(n) <= 64 for n in names)
    assert bench["paths"] == ["perfbench"]
    assert {w["name"]: w["why"] for w in bench["workloads"]} == {n: w.why for n, w in run.WORKLOADS.items()}
