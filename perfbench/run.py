"""nmfseg benchmark: times the CLI stages in fresh processes, as users run them.

    python3 perfbench/run.py --workload {build,train,infer} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the stages import ``nmfseg`` from
``src/``.  The seed generates the workload's config (and through it the
corpus); the program sees only those inputs.

* ``--trace 0`` sets the workload up (its ``setup_s``), then runs the
  workload's stages, each as a fresh ``nmfseg`` process, again and again for
  ``--seconds`` (at least once).  It checks every stage's outputs and that
  each repeat reproduces the first repeat's artifacts byte for byte, and
  prints the end-to-end metrics.
* ``--trace 1`` runs the stages once untraced and once under
  ``traced_cli.py``, which records a span around each layer call, and prints
  the per-layer metrics (see ``layers.METRICS``), including the tracing
  overhead between the two passes.

Stdout ends with one JSON line: ``correct``, ``attempted`` and ``failed``
(stage runs, counting failed checks) and ``metrics``.  The lines above it
record the machine, the per-stage figures and every problem found.  Scratch
files live in ``.bench_build/perfbench/`` and are removed on exit.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import layers
from spans import ATTRS, END, NAME, PARENT, START, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# The whole run must end within 180 s; stages are cut off before that.
RUN_DEADLINE_S = 170.0
SAMPLE_RATE, WIN_LEN, HOP, MAX_DILATION = 16000, 400, 320, 16
CLI = "from nmfseg.cli import main; main()"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: dict  # key = value overrides of nmfseg's defaults; the seed is added per run
    setup: tuple  # stages that prepare the inputs in in/
    stages: tuple  # the timed stages
    # build's set-up is a bare import, cheap enough to repeat for a median; the
    # others synthesise and train for 10-15 s, so they set up once per run
    setup_repeats: int
    input_frames: callable  # cfg -> frames of input the timed stages process (frames_per_s)
    dconv_dtype: str  # dtype of the dilated conv GEMMs this workload runs
    dconv_cols: callable  # cfg -> columns of those GEMMs


def _clips(cfg: dict, split: str) -> int:
    return max(1, int(round(cfg[f"{split}_minutes"] * 60.0 / cfg["clip_seconds"])))


def _clip_frames(cfg: dict) -> int:
    return 1 + (int(round(cfg["clip_seconds"] * SAMPLE_RATE)) - WIN_LEN) // HOP


def _train_cols(cfg: dict) -> int:
    return cfg["batch"] * (int(round(cfg["segment_seconds"] / (HOP / SAMPLE_RATE))) + 2 * MAX_DILATION)


WORKLOADS = {w.name: w for w in (
    Workload(
        name="build",
        why="gen-data then pretrain-dict on a 17-min corpus at desk clip and codebook settings; "
            "synthesis, WAV and label writes and SNMF work, the network is idle",
        config={"train_minutes": 10.0, "dev_minutes": 4.0, "test_minutes": 3.0},
        setup=(), stages=("gen-data", "pretrain-dict"), setup_repeats=3,
        input_frames=lambda c: _clip_frames(c) * sum(_clips(c, s) for s in ("train", "dev", "test")),
        dconv_dtype="float32", dconv_cols=_train_cols),
    Workload(
        name="train",
        why="the train stage at desk model shape on a 10-min split for 3 epochs; "
            "forward, backward, losses and ADAM dominate, SNMF and synthesis are idle",
        config={"train_minutes": 10.0, "dev_minutes": 2.0, "test_minutes": 0.5,
                "dict_iters": 30, "epochs": 3},
        setup=("gen-data", "pretrain-dict"), stages=("train",), setup_repeats=1,
        input_frames=lambda c: _clip_frames(c) * _clips(c, "train") * c["epochs"],
        dconv_dtype="float32", dconv_cols=_train_cols),
    Workload(
        name="infer",
        why="eval, segment, explain and probe over 120-s recordings with a desk-shape model; "
            "forward-only float64 inference at long T, no backward or SNMF",
        config={"clip_seconds": 120.0, "train_minutes": 2.0, "dev_minutes": 2.0, "test_minutes": 16.0,
                "dict_iters": 30, "epochs": 2},
        setup=("gen-data", "pretrain-dict", "train"), stages=("eval", "segment", "explain", "probe"),
        setup_repeats=1,
        input_frames=lambda c: _clip_frames(c) * _clips(c, "test"),
        dconv_dtype="float64", dconv_cols=lambda c: _clip_frames(c) + 2 * MAX_DILATION),
)}

# Set-up writes in/ and timed stage X writes out/X.  A workload that times
# gen-data reads the corpus that stage just wrote.
def stage_args(workload: Workload, stage: str, out: str) -> list[str]:
    manifest = "out/gen-data/corpus/manifest.csv" if "gen-data" in workload.stages else "in/corpus/manifest.csv"
    args = [stage, "--config", "bench.cfg", "--out", out]
    if stage in ("pretrain-dict", "train", "eval", "segment", "explain"):
        args += ["--manifest", manifest]
    if stage == "train":
        args += ["--dict", "in/dictionary.nsd"]
    if stage in ("eval", "segment", "explain", "probe"):
        args += ["--model", "in/model.nsm"]
    if stage in ("eval", "segment", "explain"):
        args += ["--split", "test"]
    return args


# --- child processes ----------------------------------------------------------

@dataclass
class Proc:
    wall_s: float
    code: int
    maxrss_mb: float


class Runner:
    """Starts one child at a time from ``work`` and waits for it to end."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))

    def run(self, argv: list[str]) -> Proc:
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            return Proc(0.0, -1, 0.0)
        with open(self.work / "children.log", "ab") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable] + argv, cwd=self.work, env=self.env,
                                    stdout=log, stderr=subprocess.STDOUT)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Proc(wall, proc.returncode, usage.ru_maxrss / 1024.0)

    def stage(self, workload: Workload, stage: str, out: str, spans: str | None = None) -> Proc:
        args = stage_args(workload, stage, out)
        if spans is None:
            return self.run(["-c", CLI] + args)
        return self.run([str(HERE / "traced_cli.py"), spans] + args)


# --- output checks ----------------------------------------------------------------

class CheckFailed(Exception):
    pass


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def _finite(*values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def _json(path: Path):
    _require(path.is_file(), f"missing {path.name}")
    with open(path) as fh:
        return json.load(fh)


def check_stage(stage: str, out: Path, cfg: dict) -> dict:
    """Validate one stage's outputs; return the quality figures it reports."""
    from nmfseg.corpus import CLASS_NAMES
    from nmfseg.network import load_model
    from nmfseg.nmf import load_dictionary

    log = _json(out / f"{stage}.run.json")
    metrics = log["metrics"]
    if stage == "gen-data":
        expected = {s: _clips(cfg, s) for s in ("train", "dev", "test")}
        _require(metrics["clips"] == expected, f"clip counts {metrics['clips']} != {expected}")
        with open(out / "corpus" / "manifest.csv") as fh:
            rows = fh.read().splitlines()[1:]
        _require(len(rows) == sum(expected.values()), "manifest row count")
        for row in rows:
            _, audio, _, labels, _ = row.split(",")
            _require((out / "corpus" / audio).is_file() and (out / "corpus" / labels).is_file(),
                     f"missing clip files for {row}")
        return {}
    if stage == "pretrain-dict":
        dictionary = load_dictionary(out / "dictionary.nsd")
        dictionary.validate()
        _require(dictionary.components == cfg["k"], "dictionary width")
        obj, iters = metrics["final_objective"], metrics["iterations"]
        _require(_finite(obj) and obj > 0 and 1 <= iters <= cfg["dict_iters"], f"objective {obj} after {iters}")
        return {"snmf_objective": obj}
    if stage == "train":
        model = load_model(out / "model.nsm")
        _require((model.k, model.channels) == (cfg["k"], cfg["channels"]), "model shape")
        trace = _json(out / "trace.json")
        _require(len(trace) == cfg["epochs"], "epoch count in trace.json")
        _require(all(_finite(e[k]) for e in trace for k in ("train_total", "dev_macro_f1", "dev_bce")),
                 "non-finite trace entry")
        return {"train_loss": trace[-1]["train_total"], "dev_macro_f1": max(e["dev_macro_f1"] for e in trace)}
    n_test = _clips(cfg, "test")
    if stage == "eval":
        f1 = _json(out / "f1.json")
        _require(sorted(f1) == sorted(CLASS_NAMES), f"f1.json classes {sorted(f1)}")
        _require(all(_finite(f1[c].get("f1")) for c in CLASS_NAMES), "undefined or non-finite class F1")
        _require(_finite(metrics["macro_f1"]) and 0 <= metrics["macro_f1"] <= 1, "macro F1")
        return {"test_macro_f1": metrics["macro_f1"]}
    if stage == "segment":
        segs = sorted((out / "segments").glob("*.seg"))
        _require(len(segs) == n_test == metrics["files"], f"{len(segs)} .seg files for {n_test} test clips")
        return {}
    if stage == "explain":
        summary = _json(out / "summary.json")
        _require(isinstance(summary, dict) and summary, "empty summary.json")
        return {}
    if stage == "probe":
        results = _json(out / "probe_results.json")
        _require(sorted(results) == ["am-rate", "noise-color", "tone-class"], f"probe tasks {sorted(results)}")
        _require(all(_finite(r["accuracy"], r["uar"]) and 0 <= r["accuracy"] <= 1 for r in results.values()),
                 "probe accuracy")
        return {}
    raise CheckFailed(f"no check for stage {stage}")


def digest(out: Path) -> dict:
    """sha256 of every file under ``out``, by relative path."""
    sums = {}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h = hashlib.sha256()
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
        sums[str(path.relative_to(out))] = h.hexdigest()
    return sums


# --- one run --------------------------------------------------------------------------

@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    walls: dict = field(default_factory=dict)  # stage -> [wall s of each untraced pass]
    traced_walls: dict = field(default_factory=dict)  # stage -> wall s of the traced pass
    rss_mb: list = field(default_factory=list)  # max RSS of each untraced stage process
    quality: dict = field(default_factory=dict)
    reference: dict = field(default_factory=dict)  # stage -> digest of its first pass

    def record(self, runner: Runner, workload: Workload, stage: str, cfg: dict, spans: str | None = None):
        """Run one stage, check its outputs against the checks and the first
        pass, and keep its figures only if everything holds."""
        out = runner.work / "out" / stage
        shutil.rmtree(out, ignore_errors=True)
        proc = runner.stage(workload, stage, f"out/{stage}", spans)
        self.attempted += 1
        try:
            _require(proc.code == 0, f"exit code {proc.code}")
            self.quality.update(check_stage(stage, out, cfg))
            sums = digest(out)
            ref = self.reference.setdefault(stage, sums)
            _require(sums == ref, "artifacts differ from the first pass: "
                     + ", ".join(sorted(k for k in set(sums) | set(ref) if sums.get(k) != ref.get(k)))[:300])
        except Exception as exc:  # any malformed output is a failed stage, not a crashed benchmark
            self.failed += 1
            self.problems.append(f"{stage}{' (traced)' if spans else ''}: {type(exc).__name__}: {exc}")
            return proc
        if spans:
            self.traced_walls[stage] = proc.wall_s
        else:
            self.walls.setdefault(stage, []).append(proc.wall_s)
            self.rss_mb.append(proc.maxrss_mb)
        return proc


def write_config(work: Path, workload: Workload, seed: int) -> dict:
    from nmfseg import config as cfgmod  # imported before set-up is timed, see run()

    cfg = cfgmod.default_config()
    cfg.update(workload.config)
    cfg["seed"] = seed
    (work / "bench.cfg").write_text(cfgmod.serialize_config(cfg))
    return cfg


def set_up(runner: Runner, workload: Workload, seed: int) -> tuple[dict, list[float]]:
    """Prepare config and inputs ``setup_repeats`` times; return the config and
    each preparation's wall time.  The first step of every preparation is a
    bare import of the CLI, so the timed stages start on warm caches."""
    times = []
    cfg = None
    for _ in range(workload.setup_repeats):
        shutil.rmtree(runner.work / "in", ignore_errors=True)
        t0 = time.perf_counter()
        cfg = write_config(runner.work, workload, seed)
        steps = [["-c", "import nmfseg.cli"]] + [["-c", CLI] + stage_args(workload, s, "in")
                                                 for s in workload.setup]
        for argv in steps:
            proc = runner.run(argv)
            if proc.code != 0:
                raise RuntimeError(f"set-up step {argv[2] if len(argv) > 2 else argv[1]!r} exited with {proc.code}")
        times.append(time.perf_counter() - t0)
    return cfg, times


def gemm_gflops(m: int, k: int, n: int, dtype: str, budget_s: float = 0.25) -> float:
    """Plain ``np.matmul`` rate at one shape: median over repeats after warm-up."""
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.random((m, k)).astype(dtype)
    b = rng.random((k, n)).astype(dtype)
    for _ in range(3):
        np.matmul(a, b)
    times = []
    stop = time.perf_counter() + budget_s
    while time.perf_counter() < stop or len(times) < 5:
        t0 = time.perf_counter()
        np.matmul(a, b)
        times.append(time.perf_counter() - t0)
    return 2.0 * m * k * n / statistics.median(times) / 1e9


def run(workload: Workload, seed: int, seconds: float, trace: bool, work: Path) -> tuple[dict, dict]:
    """One benchmark run; returns (result line, detail)."""
    import nmfseg.cli  # noqa: F401  used by the checks; imported here so setup_s leaves it out

    runner = Runner(work, time.monotonic() + RUN_DEADLINE_S)
    cfg, setup_times = set_up(runner, workload, seed)
    outcome = Outcome()
    detail = {"workload": workload.name, "seed": seed, "setup_s": setup_times}

    def one_pass(spans_dir: Path | None = None) -> float:
        total = 0.0
        for stage in workload.stages:
            spans = str(spans_dir / f"{stage}.json") if spans_dir else None
            total += outcome.record(runner, workload, stage, cfg, spans).wall_s
        return total

    if trace:
        spans_dir = work / "spans"
        spans_dir.mkdir(exist_ok=True)
        plain = one_pass()
        traced = one_pass(spans_dir)
        metrics = traced_metrics(workload, cfg, outcome, spans_dir, plain, traced, detail)
    else:
        t_begin = time.perf_counter()
        passes = 0
        while True:
            one_pass()
            passes += 1
            elapsed = time.perf_counter() - t_begin
            if elapsed + elapsed / passes > seconds:
                break
        detail["passes"] = passes
        stages_s = stage_figures(workload, cfg, outcome)["stages_s"][0]
        metrics = {
            "stages_s": (stages_s, "s"),
            "frames_per_s": (workload.input_frames(cfg) / stages_s, "1/s"),
            "peak_rss_mb": (max(outcome.rss_mb, default=float("nan")), "MB"),
            "success_ratio": ((outcome.attempted - outcome.failed) / outcome.attempted, "ratio"),
            "setup_s": (statistics.median(setup_times), "s"),
        }

    bad = [name for name, (value, _) in metrics.items() if not _finite(value)]
    if bad:
        outcome.failed += 1
        outcome.problems.append(f"non-finite metrics: {bad}")
    detail["stage_walls_s"] = outcome.walls
    detail["figures"] = stage_figures(workload, cfg, outcome)
    detail["problems"] = outcome.problems
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, detail


def stage_figures(workload: Workload, cfg: dict, outcome: Outcome) -> dict:
    """Per-stage wall times (median over passes) and the quality the stages
    report, each as [value, unit]."""
    walls = {s: statistics.median(outcome.walls[s]) if s in outcome.walls else float("nan")
             for s in workload.stages}
    out = {f"{stage.replace('-', '_')}_s": [wall, "s"] for stage, wall in walls.items()}
    out["stages_s"] = [sum(walls.values()), "s"]
    for key, unit in (("snmf_objective", "objective"), ("train_loss", "loss"),
                      ("dev_macro_f1", "F1"), ("test_macro_f1", "F1")):
        if key in outcome.quality:
            out[key] = [outcome.quality[key], unit]
    if workload.name == "train":
        out["train_frames_per_s"] = [workload.input_frames(cfg) / out["stages_s"][0], "1/s"]
    out["error_rate"] = [outcome.failed / max(1, outcome.attempted), "failed/attempted"]
    return out


def traced_metrics(workload: Workload, cfg: dict, outcome: Outcome, spans_dir: Path,
                   plain_s: float, traced_s: float, detail: dict) -> dict:
    """Per-layer metrics from the traced pass's span files."""
    dumps = []
    for stage in workload.stages:
        path = spans_dir / f"{stage}.json"
        if not path.is_file():
            outcome.failed += 1
            outcome.problems.append(f"{stage} (traced): wrote no spans")
            continue
        with open(path) as fh:
            dumps.append(json.load(fh))

    accounting = {}
    for d in dumps:
        stage_span = sum(s[END] - s[START] for s in d["spans"] if s[PARENT] == -1)
        if d["stage"] in outcome.traced_walls:
            accounting[d["stage"]] = {"stage_span_s": stage_span, "self_sum_s": sum(self_times(d["spans"])),
                                      "import_s": d["import_s"], "wall_s": outcome.traced_walls[d["stage"]]}
        for s in d["spans"]:
            if s[NAME] == "nmf.train_snmf" and s[ATTRS] and s[ATTRS].get("non_increasing") is False:
                outcome.failed += 1
                outcome.problems.append(f"{d['stage']} (traced): SNMF objective trace increased")
    detail["accounting"] = accounting
    detail["traced_walls_s"] = outcome.traced_walls

    extra = {
        "nmf_ceiling": gemm_gflops(cfg["k"], cfg["n_fft"] // 2 + 1, cfg["dict_frames"], "float64"),
        "network_ceiling": gemm_gflops(cfg["channels"], cfg["channels"], workload.dconv_cols(cfg),
                                       workload.dconv_dtype),
        "overhead_pct": 100.0 * (traced_s - plain_s) / plain_s,
        "accounted_pct": 100.0 * statistics.median(
            [(a["stage_span_s"] + a["import_s"]) / a["wall_s"] for a in accounting.values()] or [float("nan")]),
        **{key: outcome.quality.get(key, 0.0)
           for key in ("snmf_objective", "train_loss", "dev_macro_f1", "test_macro_f1")},
    }
    values, absent = layers.layer_metrics(dumps, extra)
    detail["absent_metrics"] = absent
    detail["absent_wraps"] = sorted({a for d in dumps for a in d["absent"]})
    return {name: (value, layers.METRICS[name][0]) for name, value in values.items()}


# --- environment ------------------------------------------------------------------

def environment() -> dict:
    import numpy as np
    import scipy

    env = {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "NMFSEG_THREADS": os.environ.get("NMFSEG_THREADS"),
        "thread_env": {k: os.environ[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
                       if k in os.environ},
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        env["blas"] = None
    env["blas_threads"] = _openblas_threads(np)
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            level = Path(index, "level").read_text().strip()
            kind = Path(index, "type").read_text().strip()
            caches[f"L{level}{kind[0].lower() if kind != 'Unified' else ''}"] = Path(index, "size").read_text().strip()
        except OSError:
            continue
    env["caches"] = caches
    env["git_commit"] = _git_commit()
    env["source_sha256"] = _source_digest()
    return env


def _openblas_threads(np) -> int | None:
    import ctypes

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return None


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


# --- entry point --------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "nmfseg" / "cli.py").is_file():
        print(f"perfbench: no nmfseg sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = ROOT / ".bench_build" / "perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        print("env " + json.dumps(environment(), sort_keys=True), flush=True)
        try:
            result, detail = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), work)
        except RuntimeError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            log = work / "children.log"
            if log.is_file():
                sys.stderr.write(log.read_text()[-4000:])
            return 1
        print("detail " + json.dumps(detail, sort_keys=True))
        for problem in detail["problems"]:
            print(f"problem: {problem}", file=sys.stderr)
        print(json.dumps(result), flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
