"""Command-line surface tying the pipeline stages together.

Every subcommand takes --config (flat key=value file), --out (artifact
directory), and optionally --seed to override the configured seed.  Each
handler returns its metrics and artifacts, and ``run_command`` writes them to
a machine-readable ``<command>.run.json`` with the resolved configuration,
its hash, and the input paths; logs carry no timestamps, so identical runs
produce identical bytes.  On failure, files created by the failed run are
removed.

Every stage that runs two things at once runs them on the two threads of
``parallel.map``: ``gen-data`` synthesises two clips at a time, ``probe``
two labels' probe clips, ``train`` two batch shards, and ``eval``,
``segment``, ``explain`` and ``ablate-beta`` keep two clips in flight.  No
stage starts a process.  NMFSEG_THREADS, a positive integer, caps the count
(``parallel.workers``); at 1 everything runs inline.  Every output is
byte-identical at any thread count.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import config as cfgmod
from .corpus import CLASS_NAMES, generate_corpus, load_manifest
from .errors import SIZE, UNIT, ConfigError, FormatError, NmfsegError, open_text, write_csv, write_json
from .evaluate import (decide_frames, frames_to_segments, report_to_dict,
                       write_f1_csv, write_f1_json, write_segments)
from .explain import (component_report, make_record, report_summary,
                      write_component_csv, write_sample_csv, write_spectrum_csv,
                      write_summary_json)
from .labels import read_label_file
from .network import init_model, load_model, save_model
from .nmf import save_dictionary, load_dictionary
from .probing import build_synthetic_tasks, eval_probe, load_probe_manifest, train_probe, write_result_json
from .training import (check_dictionary, encode_rows, evaluate_split, load_clip, pretrain_dictionary,
                       reconstruction_error, split_rows, train)


class _Run:
    """Tracks files created by one command so failures leave no partial outputs."""

    def __init__(self, out_dir: Path):
        self.out = out_dir
        self.created: list[Path] = []

    def path(self, *parts) -> Path:
        p = self.out.joinpath(*parts)
        p.parent.mkdir(parents=True, exist_ok=True)
        self.created.append(p)
        return p

    def track_tree(self, root: Path) -> None:
        self.created.append(root)

    def cleanup(self) -> None:
        import shutil
        for p in reversed(self.created):
            if p.is_dir():
                shutil.rmtree(p, ignore_errors=True)
            elif p.exists():
                p.unlink()


def _write_run_log(run: _Run, command: str, cfg: dict, inputs: dict, metrics: dict,
                   artifacts: list) -> None:
    payload = {
        "command": command,
        "config": {k: (int(v) if isinstance(v, bool) else v) for k, v in sorted(cfg.items())},
        "config_hash": cfgmod.config_hash(cfg),
        "seed": cfg["seed"],
        "inputs": inputs,
        "metrics": metrics,
        "artifacts": sorted(str(a) for a in artifacts),
    }
    write_json(run.path(f"{command}.run.json"), payload)


def _cmd_gen_data(args, cfg, run: _Run):
    spec = cfgmod.corpus_spec(cfg)
    corpus_dir = run.out / "corpus"
    run.track_tree(corpus_dir)
    manifest = generate_corpus(spec, corpus_dir)
    counts = {split: len(manifest.for_split(split)) for split in ("train", "dev", "test")}
    return {"clips": counts}, [corpus_dir / "manifest.csv"]


def _cmd_pretrain_dict(args, cfg, run: _Run):
    manifest = load_manifest(args.manifest)
    settings = cfgmod.frontend_settings(cfg)
    dictionary = pretrain_dictionary(manifest, settings, cfgmod.snmf_config(cfg),
                                     max_frames=cfg["dict_frames"])
    out = run.path("dictionary.nsd")
    save_dictionary(dictionary, out)
    metrics = {"iterations": len(dictionary.objective_trace) - 1,
               "final_objective": dictionary.objective_trace[-1],
               "stopped_on_tol": dictionary.stopped_on_tol,
               "dead_columns_reset": dictionary.dead_columns_reset}
    return metrics, [out]


def _train_dims(manifest, settings) -> tuple[int, int]:
    """Feature and class counts, read from the first train clip alone."""
    clip = load_clip(manifest, split_rows(manifest, "train")[0], settings, with_spect=False)
    return clip.features.shape[0], clip.labels.shape[0]


def _cmd_train(args, cfg, run: _Run):
    manifest = load_manifest(args.manifest)
    settings = cfgmod.frontend_settings(cfg)
    dictionary = load_dictionary(args.dict)
    check_dictionary(dictionary, settings, "train")
    tc = cfgmod.train_config(cfg)
    d, c = _train_dims(manifest, settings)
    model = init_model(d=d, k=dictionary.components, c=c, seed=cfg["seed"],
                       channels=cfg["channels"])
    model.attach_dictionary(dictionary)
    model, trace = train(model, manifest, tc, settings)
    model_path = run.path("model.nsm")
    save_model(model, model_path)
    trace_path = run.path("trace.json")
    write_json(trace_path, trace)
    last = trace[-1]
    metrics = {"best_epoch": last["best_epoch"], "epochs": len(trace),
               "final_dev_macro_f1": last["dev_macro_f1"], "final_dev_bce": last["dev_bce"]}
    return metrics, [model_path, trace_path]


def _cmd_segment(args, cfg, run: _Run):
    model = load_model(args.model)
    settings = cfgmod.frontend_settings(cfg)
    manifest = load_manifest(args.manifest)

    def segment(clip, h, logits):
        decisions = decide_frames(logits, cfg["threshold"], clip.hop)
        return clip.clip_id, frames_to_segments(decisions, min_dur=cfg["min_dur"], class_names=CLASS_NAMES)

    artifacts = []
    for clip_id, segments in encode_rows(model, manifest, split_rows(manifest, args.split), settings, segment):
        out = run.path("segments", f"{clip_id}.seg")
        write_segments(out, clip_id, segments)
        artifacts.append(out)
    return {"files": len(artifacts)}, artifacts


def _cmd_eval(args, cfg, run: _Run):
    model = load_model(args.model)
    settings = cfgmod.frontend_settings(cfg)
    manifest = load_manifest(args.manifest)
    report = evaluate_split(model, manifest, args.split, settings, threshold=cfg["threshold"])
    csv_path = run.path("f1.csv")
    json_path = run.path("f1.json")
    write_f1_csv(report, csv_path)
    write_f1_json(report, json_path)
    return {"f1": report_to_dict(report), "macro_f1": report.macro_f1()}, [csv_path, json_path]


def _dominant_class(labels: np.ndarray) -> int:
    return int(np.argmax((labels == 1).mean(axis=1)))


def _row_class(manifest, row, settings) -> int:
    """Dominant class of a row's labels as ``load_clip`` aligns them.

    Alignment keeps every label frame or drops the last one, so the label
    file alone decides the class unless that last frame changes it.
    """
    labels, _ = read_label_file(manifest.resolve(row.labels))
    c = _dominant_class(labels)
    if labels.shape[1] > 1 and _dominant_class(labels[:, :-1]) != c:
        c = _dominant_class(load_clip(manifest, row, settings, with_spect=False).labels)
    return c


def _cmd_explain(args, cfg, run: _Run):
    UNIT.check("--tau", args.tau)
    SIZE.check("--samples-per-class", args.samples_per_class)
    model = load_model(args.model)
    settings = cfgmod.frontend_settings(cfg)
    manifest = load_manifest(args.manifest)
    classes = [(row, _row_class(manifest, row, settings)) for row in split_rows(manifest, args.split)]

    per_class = args.samples_per_class
    chosen = []
    for c in range(len(CLASS_NAMES)):
        matching = [row for row, row_class in classes if row_class == c]
        chosen.extend((row, c) for row in matching[:per_class])
    if not chosen:
        raise NmfsegError("no clips with a dominant class; cannot build relevance records")
    class_of = {row.clip_id: c for row, c in chosen}

    def record(clip, h, logits):
        return make_record(clip.clip_id, class_of[clip.clip_id], h, model.theta, tau=args.tau)

    records = encode_rows(model, manifest, [row for row, _ in chosen], settings, record)
    report = component_report(records, samples_per_class=per_class)

    comp_csv = run.path("components.csv")
    samp_csv = run.path("samples.csv")
    summary = run.path("summary.json")
    write_component_csv(report, comp_csv)
    write_sample_csv(report, samp_csv)
    write_summary_json(report, summary)
    artifacts = [comp_csv, samp_csv, summary]
    if model.w_ref is not None:
        for k in report.modular_ids[:8]:
            spectrum = run.path("spectra", f"component_{k:03d}.csv")
            write_spectrum_csv(model.w_ref, k, spectrum, n_fft=settings.n_fft)
            artifacts.append(spectrum)
    return report_summary(report), artifacts


def _cmd_probe(args, cfg, run: _Run):
    if args.eval_manifest and not args.task_manifest:
        raise ConfigError("--eval-manifest needs --task-manifest: the synthetic probe tasks "
                          "make their own evaluation clips")
    model = load_model(args.model)
    settings = cfgmod.frontend_settings(cfg)
    results = {}
    if args.task_manifest:
        task = load_probe_manifest(model, args.task_manifest, name="manifest", settings=settings)
        eval_task = load_probe_manifest(model, args.eval_manifest or args.task_manifest,
                                        name="manifest-eval", settings=settings,
                                        class_count=task.class_count)
        weights = train_probe(task, epochs=cfg["probe_epochs"], lr=cfg["probe_lr"], seed=cfg["seed"])
        results["manifest"] = eval_probe(weights, eval_task)
    else:
        names = ("tone-class", "noise-color", "am-rate")
        specs = [(name, 3, cfg["probe_per_class"], seed)
                 for name in names for seed in (cfg["seed"], cfg["seed"] + 7919)]
        tasks = build_synthetic_tasks(model, specs, settings=settings, seconds=cfg["probe_seconds"])
        for name, train_task, eval_task in zip(names, tasks[::2], tasks[1::2]):
            weights = train_probe(train_task, epochs=cfg["probe_epochs"], lr=cfg["probe_lr"],
                                  seed=cfg["seed"])
            results[name] = eval_probe(weights, eval_task)
    out = run.path("probe_results.json")
    write_result_json(results, out)
    metrics = {name: {"accuracy": r.accuracy, "uar": r.uar} for name, r in results.items()}
    return metrics, [out]


def _cmd_ablate_beta(args, cfg, run: _Run):
    manifest = load_manifest(args.manifest)
    settings = cfgmod.frontend_settings(cfg)
    dictionary = load_dictionary(args.dict)
    check_dictionary(dictionary, settings, "ablate-beta")
    d, c = _train_dims(manifest, settings)
    tc = cfgmod.train_config(cfg)

    rows = []
    for beta in (0.0, 1.0, 5.0):
        model = init_model(d=d, k=dictionary.components, c=c, seed=cfg["seed"],
                           channels=cfg["channels"])
        model.attach_dictionary(dictionary)
        model, _ = train(model, manifest, replace(tc, beta=beta), settings)
        recon = reconstruction_error(model, manifest, "test", settings)
        report = evaluate_split(model, manifest, "test", settings, threshold=cfg["threshold"])
        model_path = run.path(f"model_beta{beta:g}.nsm")
        save_model(model, model_path)
        rows.append({"beta": beta, "recon_per_frame": recon,
                     "f1": {name: entry.f1 for name, entry in report.per_class.items() if entry.defined}})

    recons = [r["recon_per_frame"] for r in rows]
    metrics = {"rows": rows, "recon_non_increasing": all(a >= b for a, b in zip(recons, recons[1:]))}
    out = run.path("ablation.json")
    write_json(out, metrics)
    csv_path = run.path("ablation.csv")
    write_csv(csv_path, ["beta", "recon_per_frame"] + [f"f1_{n}" for n in CLASS_NAMES],
              ([f"{r['beta']:g}", f"{r['recon_per_frame']:.6f}"]
               + [f"{r['f1'].get(n, float('nan')):.6f}" for n in CLASS_NAMES] for r in rows))
    return metrics, [out, csv_path]


def _read_run_log(path) -> dict:
    """A run log's command, config hash and metrics; a file that is not a UTF-8
    JSON object holding all three raises FormatError naming it."""
    try:
        payload = json.load(open_text(path))
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: not JSON: {exc}") from None
    kinds = {"command": str, "config_hash": str, "metrics": dict}
    for key, kind in kinds.items():
        if not (isinstance(payload, dict) and isinstance(payload.get(key), kind)):
            raise FormatError(f"{path}: not a run log: no {key!r} {kind.__name__}")
    return {key: payload[key] for key in kinds}


def _cmd_report(args, cfg, run: _Run):
    root = Path(args.dir)
    summary = []
    for log in sorted(root.rglob("*.run.json")):
        entry = _read_run_log(log)
        summary.append({"path": str(log.relative_to(root)), **entry})
        print(f"{entry['command']:14s} {entry['config_hash'][:12]}  {log}")
    out = run.path("report.json")
    write_json(out, summary)
    return {"runs": len(summary)}, [out]


_COMMANDS = {
    "gen-data": (_cmd_gen_data, ()),
    "pretrain-dict": (_cmd_pretrain_dict, ("manifest",)),
    "train": (_cmd_train, ("manifest", "dict")),
    "segment": (_cmd_segment, ("model", "manifest")),
    "eval": (_cmd_eval, ("model", "manifest")),
    "explain": (_cmd_explain, ("model", "manifest")),
    "probe": (_cmd_probe, ("model",)),
    "ablate-beta": (_cmd_ablate_beta, ("manifest", "dict")),
    "report": (_cmd_report, ("dir",)),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="nmfseg",
                                     description="NMF-tied explainable multilabel audio segmentation")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, required) in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="flat key=value config file")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override the configured seed")
        for key in required:
            p.add_argument(f"--{key}", required=True)
        if name in ("segment", "eval", "explain"):
            p.add_argument("--split", default="test")
        if name == "explain":
            p.add_argument("--samples-per-class", type=int, default=5)
            p.add_argument("--tau", type=float, default=0.5)
        if name == "probe":
            p.add_argument("--task-manifest", default=None)
            p.add_argument("--eval-manifest", default=None)
    return parser


def run_command(argv) -> int:
    """Execute one subcommand; nonzero exit and clean outputs on failure."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    run = _Run(Path(args.out))
    handler, required = _COMMANDS[args.command]
    try:
        cfg = cfgmod.parse_config(args.config) if args.config else cfgmod.default_config()
        if args.seed is not None:
            cfg["seed"] = args.seed
        run.out.mkdir(parents=True, exist_ok=True)
        metrics, artifacts = handler(args, cfg, run)
        inputs = {key: str(value) for key in (*required, "split", "task_manifest", "eval_manifest")
                  if (value := getattr(args, key, None)) is not None}
        _write_run_log(run, args.command, cfg, inputs, metrics, artifacts)
        return 0
    except (NmfsegError, OSError, ValueError) as exc:
        run.cleanup()
        print(f"nmfseg {args.command}: error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
