"""Which nmfseg functions the traced run wraps, and the per-layer metrics.

Each wrap names a function by its defining module.  :func:`install` replaces
it in every ``nmfseg`` module namespace that holds it (``training`` and
``cli`` import ``_forward_cache`` by name, ``probing`` imports
``adam_step``), so calls are caught where the name is looked up.  A function
that no longer exists is reported as absent and the metrics built on its
spans are left out; the run does not fail.

Stdlib only, like :mod:`spans`.
"""

from __future__ import annotations

import importlib
import statistics
import sys

from spans import ATTRS, END, ID, NAME, PARENT, START, outermost, self_times, timing_summary

STAGES = ("gen-data", "pretrain-dict", "train", "eval", "segment", "explain", "probe")


# --- attribute hooks: computed from argument and result shapes only ---------

def _dconv_flops(a) -> int:
    w, n, d = a["w"], a["x"].shape[1], a["d"]
    return 2 * w.shape[0] * w.shape[1] * (3 * n - 2 * d)  # taps at 0, -d, +d


def _dconv_fwd(a, _):
    return {"flops": _dconv_flops(a)}


def _dconv_bwd(a, _):
    return {"flops": 2 * _dconv_flops(a)}  # weight grads and input grads: three GEMMs each


def _update_h(a, _):
    (f, t), k = a["x"].shape, a["w"].shape[1]
    return {"flops": 2 * (k * f * t + k * k * f + k * k * t)}


def _update_w(a, _):
    (f, t), k = a["x"].shape, a["w"].shape[1]
    return {"flops": 2 * (f * t * k + k * k * t + f * k * k)}


def _objective(a, _):
    (f, t), k = a["x"].shape, a["w"].shape[1]
    return {"flops": 2 * f * k * t}


def _train_snmf(a, result):
    trace = list(result[0].objective_trace)
    return {"iterations": len(trace) - 1, "max_iters": a["cfg"].max_iters,
            "non_increasing": all(b <= p + 1e-9 * abs(p) for p, b in zip(trace, trace[1:]))}


def _live_bytes(_, cache):
    """Bytes owned by the arrays a forward pass hands back (views count once)."""
    seen, total, todo = set(), 0, [cache]
    while todo:
        v = todo.pop()
        if isinstance(v, dict):
            todo.extend(v.values())
        elif isinstance(v, (list, tuple)):
            todo.extend(v)
        elif hasattr(v, "nbytes"):
            while getattr(v, "base", None) is not None and hasattr(v.base, "nbytes"):
                v = v.base
            if id(v) not in seen:
                seen.add(id(v))
                total += v.nbytes
    return {"live_bytes": total}


def _segments(a, result):
    return {"in_frames": sum(c.features.shape[1] for c in a["clips"]),
            "out_frames": sum(s.features.shape[1] for s in result)}


# (defining module, attribute, span name, hook)
WRAPS = (
    ("frontend", "load_audio", "frontend.load_audio", None),
    ("frontend", "save_audio", "frontend.save_audio", None),
    ("frontend", "stft_magnitude", "frontend.stft", None),
    ("frontend", "log_mel", "frontend.log_mel", None),
    ("frontend", "mel_filterbank", "frontend.mel_filterbank", None),
    ("frontend", "read_features", "frontend.read_features", None),
    ("corpus", "generate_corpus", "corpus.generate", None),
    ("corpus", "synthesize_clip", "corpus.synthesize_clip", None),
    ("corpus", "save_manifest", "corpus.save_manifest", None),
    ("corpus", "load_manifest", "corpus.load_manifest", None),
    ("labels", "read_label_file", "labels.read", None),
    ("labels", "write_label_file", "labels.write", None),
    ("labels", "label_matrix_from_range", "labels.matrix", None),
    ("nmf", "train_snmf", "nmf.train_snmf", _train_snmf),
    ("nmf", "update_h", "nmf.update_h", _update_h),
    ("nmf", "update_w", "nmf.update_w", _update_w),
    ("nmf", "snmf_objective", "nmf.objective", _objective),
    ("nmf", "save_dictionary", "nmf.save_dictionary", None),
    ("nmf", "load_dictionary", "nmf.load_dictionary", None),
    ("network", "_forward_cache", "network.forward", _live_bytes),
    ("network", "forward", "network.forward_api", None),
    ("network", "_backward_from_cache", "network.backward", None),
    ("network", "_dconv_forward", "network.dconv_fwd", _dconv_fwd),
    ("network", "_dconv_grads", "network.dconv_bwd", _dconv_bwd),
    ("network", "SegModel.load_parameters", "network.load_parameters", None),
    ("network", "init_model", "network.init_model", None),
    ("network", "load_model", "network.load_model", None),
    ("network", "save_model", "network.save_model", None),
    ("network", "sigmoid", "network.sigmoid", None),
    ("network", "bce_masked", "network.bce", None),
    ("optim", "adam_step", "optim.adam_step", None),
    ("optim", "init_adam", "optim.init_adam", None),
    ("training", "load_split", "training.load_split", None),
    ("training", "load_clip", "training.load_clip", None),
    ("training", "build_segments", "training.build_segments", _segments),
    ("training", "_batch_loss_and_grads", "training.loss", None),
    ("training", "dev_metrics", "training.dev_metrics", None),
    ("training", "train", "training.train", None),
    ("training", "pretrain_dictionary", "training.pretrain_dictionary", None),
    ("training", "evaluate_split", "training.evaluate_split", None),
    ("evaluate", "accumulate_counts", "evaluate.accumulate_counts", None),
    ("evaluate", "frames_to_segments", "evaluate.frames_to_segments", None),
    ("evaluate", "write_segments", "evaluate.write", None),
    ("evaluate", "write_f1_csv", "evaluate.write", None),
    ("evaluate", "write_f1_json", "evaluate.write", None),
    ("explain", "make_record", "explain.make_record", None),
    ("explain", "component_report", "explain.component_report", None),
    ("explain", "write_component_csv", "explain.write", None),
    ("explain", "write_sample_csv", "explain.write", None),
    ("explain", "write_summary_json", "explain.write", None),
    ("explain", "write_spectrum_csv", "explain.write", None),
    ("probing", "build_synthetic_task", "probing.build_task", None),
    ("probing", "synth_probe_clip", "probing.synth_clip", None),
    ("probing", "train_probe", "probing.train_probe", None),
    ("probing", "eval_probe", "probing.eval_probe", None),
    ("probing", "write_result_json", "probing.write", None),
)


def install(tracer) -> list[str]:
    """Wrap every function in :data:`WRAPS`; return the ones that do not exist."""
    absent = []
    for module, attr, span, hook in WRAPS:
        try:
            owner = importlib.import_module(f"nmfseg.{module}")
        except ImportError:
            absent.append(f"{module}.{attr}")
            continue
        cls_name, _, name = attr.rpartition(".")
        if cls_name:
            owner = getattr(owner, cls_name, None)
        original = getattr(owner, name, None)
        if original is None:
            absent.append(f"{module}.{attr}")
            continue
        wrapped = tracer.wrap(original, span, hook)
        if cls_name:
            setattr(owner, name, wrapped)
            continue
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "nmfseg" or mod_name.startswith("nmfseg.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
    return absent


# --- aggregation over the traced stages of one run ---------------------------

class Spans:
    """Spans of several traced stage processes, each with its own id space."""

    def __init__(self, dumps: list[dict]):
        self.dumps = dumps
        self.stages = [(d["spans"], self_times(d["spans"])) for d in dumps]

    def calls(self, name: str) -> int:
        return sum(1 for spans, _ in self.stages for s in spans if s[NAME] == name)

    def busy_ms(self, *names: str) -> float:
        """Wall time inside the named spans, nested repeats counted once."""
        return 1e3 * sum(s[END] - s[START] for spans, _ in self.stages for s in outermost(spans, names))

    def self_ms(self, *names: str) -> float:
        return 1e3 * sum(t for spans, selfs in self.stages
                         for s, t in zip(spans, selfs) if s[NAME] in names)

    def outside_ms(self, name: str, *excluded: str) -> float:
        """Time in ``name`` spans not covered by descendants named in ``excluded``."""
        total = 0.0
        for spans, _ in self.stages:
            kids: dict[int, list] = {}
            for s in spans:
                kids.setdefault(s[PARENT], []).append(s)
            for s in spans:
                if s[NAME] != name:
                    continue
                todo = list(kids.get(s[ID], ()))
                total += s[END] - s[START]
                while todo:
                    c = todo.pop()
                    if c[NAME] in excluded:
                        total -= c[END] - c[START]
                    else:
                        todo.extend(kids.get(c[ID], ()))
        return 1e3 * total

    def attrs(self, name: str) -> list[dict]:
        return [s[ATTRS] for spans, _ in self.stages for s in spans
                if s[NAME] == name and s[ATTRS] and "hook_error" not in s[ATTRS]]

    def total(self, name: str, key: str) -> float:
        return sum(a[key] for a in self.attrs(name))

    def step_ms(self) -> list[float]:
        """Gaps between successive ``adam_step`` returns inside one ``train`` call."""
        gaps = []
        for spans, _ in self.stages:
            by_id = {s[ID]: s for s in spans}
            ends: dict[int, list] = {}
            for s in spans:
                if s[NAME] != "optim.adam_step":
                    continue
                p = by_id.get(s[PARENT])
                while p is not None and p[NAME] != "training.train":
                    p = by_id.get(p[PARENT])
                if p is not None:
                    ends.setdefault(p[ID], []).append(s[END])
            for e in ends.values():
                e.sort()
                gaps.extend(1e3 * (b - a) for a, b in zip(e, e[1:]))
        return gaps

    def gflops(self, *names: str) -> float:
        ms = self.busy_ms(*names)
        return sum(self.total(n, "flops") for n in names) / (ms * 1e6) if ms > 0 else 0.0


def _ms(*names):
    return names, lambda s, x: s.busy_ms(*names)


def _calls(name):
    return (name,), lambda s, x: s.calls(name)


def _extra(key):
    return (), lambda s, x: x[key]


def _step(key):
    return ("optim.adam_step", "training.train"), lambda s, x: timing_summary(s.step_ms())[key]


# name -> (unit, better, span names it needs, fn(spans, extra))
METRICS = {
    "cli.import_s": ("s", "lower", (), lambda s, x: statistics.median(d["import_s"] for d in s.dumps)),
    **{f"cli.{st}.self_ms": ("ms", "lower", (), lambda s, x, st=st: s.self_ms(f"cli.{st}"))
       for st in STAGES},
    "corpus.synthesize_clip.ms": ("ms", "lower", *_ms("corpus.synthesize_clip")),
    "corpus.synthesize_clip.calls": ("count", "lower", *_calls("corpus.synthesize_clip")),
    "corpus.write.ms": ("ms", "lower", *_ms("frontend.save_audio", "labels.write", "corpus.save_manifest")),
    "frontend.load_audio.ms": ("ms", "lower", *_ms("frontend.load_audio")),
    "frontend.stft.ms": ("ms", "lower", *_ms("frontend.stft")),
    "frontend.stft.calls": ("count", "lower", *_calls("frontend.stft")),
    "frontend.log_mel.ms": ("ms", "lower", *_ms("frontend.log_mel")),
    "frontend.mel_filterbank.ms": ("ms", "lower", *_ms("frontend.mel_filterbank")),
    "frontend.save_audio.ms": ("ms", "lower", *_ms("frontend.save_audio")),
    "labels.read.ms": ("ms", "lower", *_ms("labels.read")),
    "labels.read.calls": ("count", "lower", *_calls("labels.read")),
    "nmf.train_snmf.ms": ("ms", "lower", *_ms("nmf.train_snmf")),
    "nmf.update_h.ms": ("ms", "lower", *_ms("nmf.update_h")),
    "nmf.update_w.ms": ("ms", "lower", *_ms("nmf.update_w")),
    "nmf.objective.ms": ("ms", "lower", *_ms("nmf.objective")),
    "nmf.iterations": ("count", "lower", ("nmf.train_snmf",),
                       lambda s, x: s.total("nmf.train_snmf", "iterations")),
    "nmf.stopped_on_tol": ("count", "higher", ("nmf.train_snmf",),
                           lambda s, x: sum(a["iterations"] < a["max_iters"]
                                            for a in s.attrs("nmf.train_snmf"))),
    "nmf.gflops": ("GFLOP/s", "higher", ("nmf.update_h", "nmf.update_w", "nmf.objective"),
                   lambda s, x: s.gflops("nmf.update_h", "nmf.update_w", "nmf.objective")),
    "nmf.gemm_ceiling_gflops": ("GFLOP/s", "higher", *_extra("nmf_ceiling")),
    "nmf.snmf_objective": ("objective", "lower", *_extra("snmf_objective")),
    "network.forward.ms": ("ms", "lower", *_ms("network.forward")),
    "network.forward.calls": ("count", "lower", *_calls("network.forward")),
    "network.forward_live_mb": ("MB", "lower", ("network.forward",),
                                lambda s, x: max([a["live_bytes"] for a in s.attrs("network.forward")],
                                                 default=0) / 1e6),
    "network.backward.ms": ("ms", "lower", *_ms("network.backward")),
    "network.dconv_fwd.ms": ("ms", "lower", *_ms("network.dconv_fwd")),
    "network.dconv_bwd.ms": ("ms", "lower", *_ms("network.dconv_bwd")),
    "network.dconv.calls": ("count", "lower", ("network.dconv_fwd", "network.dconv_bwd"),
                            lambda s, x: s.calls("network.dconv_fwd") + s.calls("network.dconv_bwd")),
    "network.dconv_gflops": ("GFLOP/s", "higher", ("network.dconv_fwd", "network.dconv_bwd"),
                             lambda s, x: s.gflops("network.dconv_fwd", "network.dconv_bwd")),
    "network.gemm_ceiling_gflops": ("GFLOP/s", "higher", *_extra("network_ceiling")),
    "network.load_parameters.ms": ("ms", "lower", *_ms("network.load_parameters")),
    "network.load_parameters.calls": ("count", "lower", *_calls("network.load_parameters")),
    "network.load_model.ms": ("ms", "lower", *_ms("network.load_model")),
    "network.save_model.ms": ("ms", "lower", *_ms("network.save_model")),
    "optim.adam_step.ms": ("ms", "lower", *_ms("optim.adam_step")),
    "optim.adam_step.calls": ("count", "lower", *_calls("optim.adam_step")),
    "training.load_split.ms": ("ms", "lower", *_ms("training.load_split")),
    "training.load_split.calls": ("count", "lower", *_calls("training.load_split")),
    "training.build_segments.ms": ("ms", "lower", *_ms("training.build_segments")),
    "training.frames_used_ratio": ("ratio", "higher", ("training.build_segments",),
                                   lambda s, x: (s.total("training.build_segments", "out_frames")
                                                 / max(1, s.total("training.build_segments", "in_frames")))),
    "training.loss.ms": ("ms", "lower", ("training.loss", "network.forward", "network.backward"),
                         lambda s, x: s.outside_ms("training.loss", "network.forward", "network.backward")),
    "training.step_ms.p50": ("ms", "lower", *_step("p50")),
    "training.step_ms.tail": ("ms", "lower", *_step("tail")),
    "training.step_ms.tail_pct": ("percentile", "higher", *_step("tail_pct")),
    "training.step_ms.n": ("count", "higher", *_step("n")),
    "training.dev_metrics.ms": ("ms", "lower", *_ms("training.dev_metrics")),
    "training.evaluate_split.ms": ("ms", "lower", *_ms("training.evaluate_split")),
    "training.train_loss": ("loss", "lower", *_extra("train_loss")),
    "training.dev_macro_f1": ("F1", "higher", *_extra("dev_macro_f1")),
    "evaluate.accumulate_counts.ms": ("ms", "lower", *_ms("evaluate.accumulate_counts")),
    "evaluate.frames_to_segments.ms": ("ms", "lower", *_ms("evaluate.frames_to_segments")),
    "evaluate.write.ms": ("ms", "lower", *_ms("evaluate.write")),
    "evaluate.test_macro_f1": ("F1", "higher", *_extra("test_macro_f1")),
    "explain.make_record.ms": ("ms", "lower", *_ms("explain.make_record")),
    "explain.component_report.ms": ("ms", "lower", *_ms("explain.component_report")),
    "probing.build_task.ms": ("ms", "lower", ("probing.build_task",),
                              lambda s, x: s.self_ms("probing.build_task")),
    "probing.train_probe.ms": ("ms", "lower", *_ms("probing.train_probe")),
    "probing.eval_probe.ms": ("ms", "lower", *_ms("probing.eval_probe")),
    "trace.overhead_pct": ("%", "lower", *_extra("overhead_pct")),
    "trace.accounted_pct": ("%", "higher", *_extra("accounted_pct")),
}


def layer_metrics(dumps: list[dict], extra: dict) -> tuple[dict, list[str]]:
    """Per-layer metric values, and the names left out because a wrapped
    function they need does not exist."""
    missing_specs = {name for d in dumps for name in d["absent"]}
    spans_of = {}
    for module, attr, span, _ in WRAPS:
        spans_of.setdefault(span, []).append(f"{module}.{attr}")
    unavailable = {span for span, specs in spans_of.items() if all(s in missing_specs for s in specs)}
    agg = Spans(dumps)
    values, absent = {}, []
    for name, (_, _, needs, fn) in METRICS.items():
        if any(n in unavailable for n in needs):
            absent.append(name)
        else:
            values[name] = float(fn(agg, extra))
    return values, absent
