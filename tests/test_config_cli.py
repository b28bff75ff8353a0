"""Config parsing and the command-line surface."""

import json
import os
import shutil
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nmfseg
from nmfseg import cli, parallel, training
from nmfseg.cli import run_command
from nmfseg.config import (SCHEMA, config_hash, default_config, frontend_settings, parse_config,
                           serialize_config, snmf_config, train_config)
from nmfseg.corpus import Manifest, ManifestRow, load_manifest
from nmfseg.errors import ConfigError
from nmfseg.frontend import FrontendSettings, featurize
from nmfseg.labels import write_label_file
from nmfseg.network import init_model, load_model, save_model
from nmfseg.nmf import Dictionary, normalize_columns, save_dictionary
from nmfseg.parallel import workers
from nmfseg.training import evaluate_split, load_clip

FAST_CFG = """
# desk-test settings
train_minutes = 0.5
dev_minutes = 0.5
test_minutes = 0.5
clip_seconds = 5.0
k = 8
dict_iters = 40
dict_frames = 400
epochs = 2
batch = 8
seed = 3
"""

# frontend settings that pass every per-key range but no STFT or filterbank
BAD_FRONTEND = [
    ("f_max = 9000\n", "f_max"),
    ("f_min = 4000\nf_max = 4000\n", "f_min"),
    ("win_len = 600\nn_fft = 512\n", "win_len"),
]


@pytest.fixture(scope="module")
def fast_cfg_file(tmp_path_factory):
    p = tmp_path_factory.mktemp("cfg") / "fast.cfg"
    p.write_text(FAST_CFG)
    return p


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory, fast_cfg_file):
    """gen-data + pretrain-dict + train, shared by the CLI tests."""
    out = tmp_path_factory.mktemp("pipe")
    assert run_command(["gen-data", "--config", str(fast_cfg_file), "--out", str(out)]) == 0
    manifest = out / "corpus" / "manifest.csv"
    assert run_command(["pretrain-dict", "--config", str(fast_cfg_file),
                        "--manifest", str(manifest), "--out", str(out)]) == 0
    assert run_command(["train", "--config", str(fast_cfg_file), "--manifest", str(manifest),
                        "--dict", str(out / "dictionary.nsd"), "--out", str(out)]) == 0
    return fast_cfg_file, out, manifest


class TestConfig:
    def test_defaults_and_overrides(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("alpha = 5\nbeta=2.5 # comment\n\n# full-line comment\nepochs= 7\n")
        cfg = parse_config(p)
        assert cfg["alpha"] == 5.0 and cfg["beta"] == 2.5 and cfg["epochs"] == 7
        assert cfg["gamma"] == default_config()["gamma"]

    def test_unknown_key(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("no_such_key = 1\n")
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(p)

    def test_bad_value(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("epochs = banana\n")
        with pytest.raises(ConfigError, match="bad value"):
            parse_config(p)

    def test_undecodable_byte_names_the_file(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_bytes(b"epochs = 7  # caf\xe9\n")
        with pytest.raises(ConfigError, match="not UTF-8") as info:
            parse_config(p)
        assert str(p) in str(info.value)

    @pytest.mark.parametrize("value", ["nan", "1.5", "0", "1", "-0.2"])
    def test_threshold_outside_unit_interval(self, tmp_path, value):
        p = tmp_path / "c.cfg"
        p.write_text(f"threshold = {value}\n")
        with pytest.raises(ConfigError, match="threshold"):
            parse_config(p)

    @pytest.mark.parametrize("key, value", [
        ("batch", "0"), ("epochs", "-1"), ("k", "0"), ("channels", "0"), ("dict_iters", "0"),
        ("dict_frames", "0"), ("n_fft", "0"), ("win_len", "0"), ("hop", "0"), ("n_mels", "0"),
        ("n_fft", "1"), ("win_len", "1"), ("n_fft", "511"),
        ("probe_epochs", "0"), ("probe_per_class", "0"), ("seed", "-1"),
        ("alpha", "-1"), ("beta", "nan"), ("gamma", "inf"), ("mu", "-0.1"), ("dict_tol", "nan"),
        ("dict_tol", "0"),
        ("f_min", "-1"), ("f_max", "inf"), ("rate_noise", "-2"), ("min_dur", "nan"),
        ("segment_seconds", "0"), ("clip_seconds", "0"), ("train_minutes", "-1"),
        ("probe_seconds", "nan"), ("lr", "nan"), ("lr", "0"), ("lr", "-1e-3"), ("probe_lr", "0"),
        ("probe_lr", "inf"),
    ])
    def test_value_outside_range(self, tmp_path, key, value):
        p = tmp_path / "c.cfg"
        p.write_text(f"{key} = {value}\n")
        with pytest.raises(ConfigError, match=f"{key} must be"):
            parse_config(p)

    @pytest.mark.parametrize("value", ["3", "401", "511"])
    def test_odd_n_fft_is_refused_naming_it(self, tmp_path, value):
        """The mel filterbank of an odd n_fft would be laid out for n_fft - 1."""
        p = tmp_path / "c.cfg"
        p.write_text(f"n_fft = {value}\nwin_len = 3\n")
        with pytest.raises(ConfigError, match=f"n_fft must be an even integer >= 2, got {value}"):
            parse_config(p)

    @pytest.mark.parametrize("text, key", BAD_FRONTEND)
    def test_frontend_cross_key_limits(self, tmp_path, text, key):
        p = tmp_path / "c.cfg"
        p.write_text(text)
        with pytest.raises(ConfigError, match=key):
            parse_config(p)

    def test_frontend_limits_at_their_edges_accepted(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("win_len = 512\nn_fft = 512\nf_min = 0\nf_max = 8000\n")
        assert parse_config(p)["f_max"] == 8000.0

    def test_defaults_in_range(self):
        assert all(ok(default) for _, default, (_, ok) in SCHEMA.values())

    def test_hash_covers_resolved_config(self):
        a = default_config()
        b = default_config()
        assert config_hash(a) == config_hash(b)
        b["alpha"] = 11.0
        assert config_hash(a) != config_hash(b)

    def test_frontend_settings_is_one_class(self):
        assert nmfseg.FrontendSettings is training.FrontendSettings is FrontendSettings
        assert not hasattr(FrontendSettings(), "hop_seconds")

    def test_serialize_round_trip(self, tmp_path):
        cfg = default_config()
        cfg["beta"] = 5.0
        p = tmp_path / "c.cfg"
        p.write_text(serialize_config(cfg))
        assert parse_config(p) == cfg


# value pools of the config property, per key type: edge values, values near
# the defaults, and one value no type takes
_POOLS = {int: ["-1", "0", "1", "2", "3", "8", "64", "320", "400", "512", "x"],
          float: ["nan", "inf", "-1", "0", "1e-3", "0.5", "4", "4000", "8000", "9000", "x"]}
_BOOLS = ["0", "1", "yes", "no", "x"]
_FRONTEND_KEYS = ["n_fft", "win_len", "hop", "n_mels", "f_min", "f_max", "recon_log"]
_CLIP = np.random.default_rng(0).uniform(-0.5, 0.5, 1024).astype(np.float32)  # longer than any window


def _config_line(key):
    return st.sampled_from(_POOLS.get(SCHEMA[key][0], _BOOLS)).map(lambda value: f"{key} = {value}")


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(lines=st.lists(st.one_of(st.sampled_from(_FRONTEND_KEYS), st.sampled_from(sorted(SCHEMA)))
                      .flatmap(_config_line), max_size=8))
@example(lines=["n_fft = 1", "win_len = 1"])
def test_generated_config_is_refused_or_runs(tmp_path_factory, lines):
    """A config file either raises ConfigError from ``parse_config``, or builds
    the frontend, training and SNMF settings and featurizes a short clip,
    raising nothing but ConfigError; the features and target it gives are finite."""
    p = tmp_path_factory.getbasetemp() / "generated.cfg"
    p.write_text("".join(f"{line}\n" for line in lines))
    try:
        cfg = parse_config(p)
        train_config(cfg)
        snmf_config(cfg)
        features, target = featurize(_CLIP, frontend_settings(cfg), target=True)
    except ConfigError:
        return
    assert np.isfinite(features).all() and np.isfinite(target).all()


class TestCliHappyPaths:
    def test_gen_data_wrote_manifest_and_log(self, pipeline):
        _, out, manifest = pipeline
        assert manifest.exists()
        log = json.loads((out / "gen-data.run.json").read_text())
        assert log["command"] == "gen-data"
        assert log["config"]["k"] == 8
        assert "config_hash" in log and log["metrics"]["clips"]["train"] == 6

    def test_eval_writes_reports(self, pipeline, tmp_path):
        cfg, out, manifest = pipeline
        eval_out = tmp_path / "eval"
        rc = run_command(["eval", "--config", str(cfg), "--model", str(out / "model.nsm"),
                          "--manifest", str(manifest), "--split", "test", "--out", str(eval_out)])
        assert rc == 0
        assert (eval_out / "f1.csv").exists() and (eval_out / "f1.json").exists()

    @pytest.mark.parametrize("command", ["eval", "segment", "explain"])
    def test_eval_twice_byte_identical(self, pipeline, tmp_path, command):
        cfg, out, manifest = pipeline
        outs = []
        for name in ("e1", "e2"):
            stage_out = tmp_path / name
            assert run_command([command, "--config", str(cfg), "--model", str(out / "model.nsm"),
                                "--manifest", str(manifest), "--split", "test",
                                "--out", str(stage_out)]) == 0
            tree = _tree_bytes(stage_out)
            # the run log names its artifacts by path, so only its metrics compare
            log = json.loads(tree.pop(f"{command}.run.json"))
            outs.append((tree, log["metrics"]))
        assert len(outs[0][0]) >= {"eval": 2, "segment": 6, "explain": 3}[command]
        assert outs[0] == outs[1]

    def test_segment_output_format(self, pipeline, tmp_path):
        cfg, out, manifest = pipeline
        seg_out = tmp_path / "segs"
        assert run_command(["segment", "--config", str(cfg), "--model", str(out / "model.nsm"),
                            "--manifest", str(manifest), "--split", "test",
                            "--out", str(seg_out)]) == 0
        seg_files = sorted((seg_out / "segments").glob("*.seg"))
        assert seg_files
        for line in seg_files[0].read_text().splitlines():
            parts = line.split()
            assert parts[0] == "SEG" and len(parts) == 5
            assert float(parts[3]) > 0  # durations positive

    def test_probe_and_explain_run(self, pipeline, tmp_path):
        cfg_file, out, manifest = pipeline
        probe_out = tmp_path / "probe"
        cfg2 = tmp_path / "probe.cfg"
        cfg2.write_text(FAST_CFG + "probe_per_class = 3\nprobe_epochs = 30\nprobe_seconds = 0.5\n")
        assert run_command(["probe", "--config", str(cfg2), "--model", str(out / "model.nsm"),
                            "--out", str(probe_out)]) == 0
        results = json.loads((probe_out / "probe_results.json").read_text())
        assert set(results) == {"tone-class", "noise-color", "am-rate"}
        expl_out = tmp_path / "explain"
        assert run_command(["explain", "--config", str(cfg_file), "--model", str(out / "model.nsm"),
                            "--manifest", str(manifest), "--split", "train",
                            "--samples-per-class", "2", "--out", str(expl_out)]) == 0
        assert (expl_out / "components.csv").exists()
        assert (expl_out / "summary.json").exists()

    def test_report_collects_run_logs(self, pipeline, tmp_path):
        cfg, out, _ = pipeline
        rep_out = tmp_path / "rep"
        assert run_command(["report", "--dir", str(out), "--out", str(rep_out)]) == 0
        summary = json.loads((rep_out / "report.json").read_text())
        assert {entry["command"] for entry in summary} >= {"gen-data", "pretrain-dict", "train"}


class TestReportRefusesMalformedLogs:
    @pytest.mark.parametrize("blob, named", [
        (b"{}", "'command'"), (b"[]", "'command'"), (b'{"command": "train"}', "'config_hash'"),
        (b'{"command": "train", "config_hash": "ab", "metrics": 3}', "'metrics'"),
        (b'{"command": ', "not JSON"), (b'{"command": "tr\xffin"}', "not UTF-8"),
    ])
    def test_exits_1_naming_the_file(self, tmp_path, capsys, blob, named):
        """A log next to a good one stops ``report`` with one error line naming
        the file (and the missing key), and no report is written."""
        logs = tmp_path / "logs"
        logs.mkdir()
        (logs / "a.run.json").write_text(json.dumps({"command": "eval", "config_hash": "cd", "metrics": {}}))
        (logs / "b.run.json").write_bytes(blob)
        out = tmp_path / "rep"
        assert run_command(["report", "--dir", str(logs), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert str(logs / "b.run.json") in err and named in err, err
        assert not (out / "report.json").exists()


class TestExplainChoice:
    """explain picks clips from label files, by the labels load_clip aligns."""

    def test_matches_aligned_labels_on_corpus(self, pipeline):
        _, _, manifest_path = pipeline
        manifest = load_manifest(manifest_path)
        settings = FrontendSettings()
        for row in manifest.rows:
            aligned = load_clip(manifest, row, settings, with_spect=False).labels
            assert cli._row_class(manifest, row, settings) == cli._dominant_class(aligned)

    def test_dropped_last_frame_decides(self, pipeline, tmp_path):
        _, _, manifest_path = pipeline
        manifest = load_manifest(manifest_path)
        row = manifest.for_split("test")[0]
        shutil.copy(manifest.resolve(row.audio), tmp_path / "clip.wav")
        frames = load_clip(manifest, row, FrontendSettings(), with_spect=False).labels.shape[1]
        labels = np.zeros((4, frames + 1), dtype=np.int8)
        labels[0, :10] = 1
        labels[1, 10:20] = 1
        labels[1, -1] = 1  # a tie once load_clip drops this frame
        write_label_file(tmp_path / "clip.lab", labels, 0.02)
        odd = Manifest(rows=[ManifestRow("clip", "clip.wav", "", "clip.lab", "test")], root=tmp_path)
        assert cli._dominant_class(labels) == 1
        assert cli._row_class(odd, odd.rows[0], FrontendSettings()) == 0


class TestPretrainDictRunLog:
    def test_hits_the_iteration_cap(self, pipeline):
        _, out, _ = pipeline
        metrics = json.loads((out / "pretrain-dict.run.json").read_text())["metrics"]
        assert metrics["iterations"] == 40
        assert metrics["stopped_on_tol"] is False
        assert metrics["dead_columns_reset"] == 0

    def test_stops_on_tolerance(self, pipeline, tmp_path):
        cfg_file, _, manifest = pipeline
        loose = tmp_path / "loose.cfg"
        loose.write_text(cfg_file.read_text() + "dict_tol = 0.01\n")
        out = tmp_path / "loose"
        assert run_command(["pretrain-dict", "--config", str(loose), "--manifest", str(manifest),
                            "--out", str(out)]) == 0
        metrics = json.loads((out / "pretrain-dict.run.json").read_text())["metrics"]
        assert metrics["iterations"] < 40
        assert metrics["stopped_on_tol"] is True
        assert metrics["dead_columns_reset"] == 0


def test_cli_never_loads_scipy(tmp_path):
    """The runtime needs NumPy alone: importing the CLI, both noise
    synthesizers and a WAV round trip load no scipy module."""
    wav = str(tmp_path / "x.wav")
    code = ("import sys, numpy as np, nmfseg.cli\n"
            "from nmfseg.corpus import synth_noise\n"
            "from nmfseg.frontend import AudioClip, load_audio, save_audio\n"
            "from nmfseg.probing import synth_probe_clip\n"
            "synth_noise(np.random.default_rng(0), 800)\n"
            "synth_probe_clip('noise-color', 2, seed=0, seconds=0.05)\n"
            f"save_audio(AudioClip(np.zeros(800)), {wav!r})\n"
            f"load_audio({wav!r})\n"
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(nmfseg.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_synthesis_starts_no_process(fast_cfg_file, tmp_path):
    """``gen-data`` and ``probe`` at two threads load neither the process pool
    nor ``multiprocessing``: synthesis runs on the ``parallel`` threads."""
    save_model(init_model(d=80, k=8, c=4, seed=0), tmp_path / "model.nsm")
    probe_cfg = tmp_path / "probe.cfg"
    probe_cfg.write_text("probe_per_class = 2\nprobe_epochs = 2\nprobe_seconds = 0.5\n")
    gen_data = ["gen-data", "--config", str(fast_cfg_file), "--out", str(tmp_path / "gen")]
    probe = ["probe", "--config", str(probe_cfg), "--model", str(tmp_path / "model.nsm"),
             "--out", str(tmp_path / "probe")]
    code = ("import sys\n"
            "from nmfseg.cli import run_command\n"
            f"assert run_command({gen_data!r}) == 0\n"
            f"assert run_command({probe!r}) == 0\n"
            "print(sorted(m for m in sys.modules if m == 'concurrent.futures.process'\n"
            "             or m == 'multiprocessing' or m.startswith('multiprocessing.')))\n")
    env = dict(os.environ, NMFSEG_THREADS="2", PYTHONPATH=os.pathsep.join(
        [str(Path(nmfseg.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
    assert (tmp_path / "probe" / "probe_results.json").exists()


def _tree_bytes(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


class TestWorkerCount:
    def test_default_is_usable_cpus_capped_by_env(self, monkeypatch):
        usable = len(os.sched_getaffinity(0))
        monkeypatch.delenv("NMFSEG_THREADS", raising=False)
        assert workers() == usable
        monkeypatch.setenv("NMFSEG_THREADS", "1")
        assert workers() == 1
        monkeypatch.setenv("NMFSEG_THREADS", str(usable + 5))
        assert workers() == usable

    @pytest.mark.parametrize("raw", ["abc", "0", "-3", "", "2.5"])
    def test_invalid_value_fails_gen_data(self, fast_cfg_file, tmp_path, monkeypatch, capsys, raw):
        monkeypatch.setenv("NMFSEG_THREADS", raw)
        out = tmp_path / "bad"
        assert run_command(["gen-data", "--config", str(fast_cfg_file), "--out", str(out)]) == 1
        assert "NMFSEG_THREADS" in capsys.readouterr().err
        assert not (out / "corpus").exists()
        assert not (out / "gen-data.run.json").exists()

    def test_default_and_one_worker_write_identical_trees(self, fast_cfg_file, tmp_path, monkeypatch):
        trees = []
        for raw in (None, "1"):
            if raw is None:
                monkeypatch.delenv("NMFSEG_THREADS", raising=False)
            else:
                monkeypatch.setenv("NMFSEG_THREADS", raw)
            out = tmp_path / f"threads-{raw}"
            assert run_command(["gen-data", "--config", str(fast_cfg_file), "--out", str(out)]) == 0
            trees.append(_tree_bytes(out / "corpus"))
        assert len(trees[0]) == 37  # 18 clips x (WAV + labels) + manifest.csv
        assert trees[0] == trees[1]

    def test_train_default_and_one_worker_write_identical_bytes(self, pipeline, tmp_path, monkeypatch):
        cfg, out, manifest = pipeline
        written = []
        for raw in (None, "1"):
            if raw is None:
                monkeypatch.delenv("NMFSEG_THREADS", raising=False)
            else:
                monkeypatch.setenv("NMFSEG_THREADS", raw)
            target = tmp_path / f"threads-{raw}"
            assert run_command(["train", "--config", str(cfg), "--manifest", str(manifest),
                                "--dict", str(out / "dictionary.nsd"), "--out", str(target)]) == 0
            written.append({name: (target / name).read_bytes() for name in ("model.nsm", "trace.json")})
        assert written[0] == written[1]


class TestCliErrors:
    @pytest.mark.parametrize("command", ["segment", "eval"])
    @pytest.mark.parametrize("value", ["nan", "1.5"])
    def test_bad_threshold_fails_without_outputs(self, pipeline, tmp_path, capsys, command, value):
        cfg, out, manifest = pipeline
        bad = tmp_path / "bad.cfg"
        bad.write_text(cfg.read_text() + f"threshold = {value}\n")
        target = tmp_path / "out"
        assert run_command([command, "--config", str(bad), "--model", str(out / "model.nsm"),
                            "--manifest", str(manifest), "--out", str(target)]) == 1
        assert "threshold" in capsys.readouterr().err
        assert not target.exists()

    @pytest.mark.parametrize("key, value", [("channels", "0"), ("batch", "0"), ("lr", "nan")])
    def test_out_of_range_train_config_fails_without_outputs(self, pipeline, tmp_path, capsys,
                                                             key, value):
        cfg, out, manifest = pipeline
        bad = tmp_path / "bad.cfg"
        bad.write_text(cfg.read_text() + f"{key} = {value}\n")
        target = tmp_path / "out"
        assert run_command(["train", "--config", str(bad), "--manifest", str(manifest),
                            "--dict", str(out / "dictionary.nsd"), "--out", str(target)]) == 1
        assert f"{key} must be" in capsys.readouterr().err
        assert not target.exists()

    @pytest.mark.parametrize("text, key", BAD_FRONTEND)
    @pytest.mark.parametrize("command", ["gen-data", "pretrain-dict"])
    def test_bad_frontend_limits_fail_without_outputs(self, pipeline, tmp_path, capsys,
                                                      command, text, key):
        cfg, _, manifest = pipeline
        bad = tmp_path / "bad.cfg"
        bad.write_text(cfg.read_text() + text)
        target = tmp_path / "out"
        argv = [command, "--config", str(bad), "--out", str(target)]
        if command == "pretrain-dict":
            argv += ["--manifest", str(manifest)]
        assert run_command(argv) == 1
        assert key in capsys.readouterr().err
        assert not target.exists()

    @pytest.mark.parametrize("hop, ok", [(160, False), (320, True)])
    def test_gen_data_refuses_a_hop_off_the_label_grid(self, tmp_path, capsys, monkeypatch,
                                                        hop, ok):
        """The corpus labels frames 0.02 s apart; at hop 160 no file is written."""
        cfg = tmp_path / "hop.cfg"
        cfg.write_text(FAST_CFG.replace("0.5", "0.05") + f"hop = {hop}\n")
        monkeypatch.setenv("NMFSEG_THREADS", "1")
        target = tmp_path / "out"
        assert run_command(["gen-data", "--config", str(cfg), "--out", str(target)]) == (0 if ok else 1)
        if ok:
            assert (target / "corpus" / "manifest.csv").exists()
        else:
            err = capsys.readouterr().err
            assert "hop = 160" in err and "0.02 s" in err
            assert not [p for p in target.rglob("*") if p.is_file()]

    def test_missing_dictionary_file(self, pipeline, tmp_path, capsys):
        cfg, out, manifest = pipeline
        rc = run_command(["train", "--config", str(cfg), "--manifest", str(manifest),
                          "--dict", str(tmp_path / "nope.nsd"), "--out", str(tmp_path / "t")])
        assert rc != 0
        assert "nope.nsd" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "ablate-beta"])
    def test_dictionary_of_other_bin_count_fails_before_any_clip_is_read(self, pipeline, tmp_path, capsys,
                                                                          monkeypatch, command):
        cfg, _, manifest = pipeline
        w, _ = normalize_columns(1.0 - np.random.default_rng(0).random((129, 8)), np.ones((8, 1)))
        save_dictionary(Dictionary(values=w), tmp_path / "d129.nsd")

        def no_read(*args, **kwargs):
            raise AssertionError(f"{command} read a clip before checking its dictionary")

        monkeypatch.setattr(training, "read_wav", no_read)
        target = tmp_path / "out"
        assert run_command([command, "--config", str(cfg), "--manifest", str(manifest),
                            "--dict", str(tmp_path / "d129.nsd"), "--out", str(target)]) == 1
        assert ("the dictionary has 129 frequency bins, but the frontend's n_fft of 512 gives 257"
                in capsys.readouterr().err)
        assert not list(target.rglob("*"))

    def test_unknown_flag(self):
        assert run_command(["eval", "--nonsense"]) != 0

    @pytest.mark.parametrize("flag, value", [("--tau", "0"), ("--tau", "1.5"), ("--tau", "nan"),
                                             ("--samples-per-class", "0"),
                                             ("--samples-per-class", "-1")])
    def test_bad_explain_option_fails_before_any_clip_is_read(self, pipeline, tmp_path, capsys,
                                                              monkeypatch, flag, value):
        cfg, out, manifest = pipeline
        argv = ["explain", "--config", str(cfg), "--model", str(out / "model.nsm"),
                "--manifest", str(manifest), flag, value, "--out", str(tmp_path / "out")]

        def no_read(*args, **kwargs):
            raise AssertionError("explain read a clip before checking its options")

        monkeypatch.setattr(training, "read_wav", no_read)
        assert run_command(argv) == 1
        assert f"{flag} must be" in capsys.readouterr().err
        assert not list((tmp_path / "out").rglob("*"))
        args = cli._build_parser().parse_args(argv)
        with pytest.raises(ConfigError, match=f"{flag} must be"):
            cli._cmd_explain(args, parse_config(cfg), cli._Run(tmp_path / "out"))

    def test_failed_run_cleans_partial_outputs(self, pipeline, tmp_path):
        cfg, out, manifest = pipeline
        target = tmp_path / "cleanme"
        rc = run_command(["train", "--config", str(cfg), "--manifest", str(manifest),
                          "--dict", str(tmp_path / "missing.nsd"), "--out", str(target)])
        assert rc != 0
        assert not list(target.rglob("*.nsm"))
        assert not (target / "train.run.json").exists()


class TestCheckpointPrecision:
    def test_reloaded_checkpoint_scores_dev_as_training_did(self, pipeline):
        """The float32 checkpoint reproduces the best epoch's dev macro F1 exactly."""
        _, out, manifest_path = pipeline
        trace = json.loads((out / "trace.json").read_text())
        best = trace[-1]["best_epoch"]
        report = evaluate_split(load_model(out / "model.nsm"), load_manifest(manifest_path), "dev")
        assert report.macro_f1() == trace[best]["dev_macro_f1"]

    def test_save_load_save_byte_identical(self, pipeline, tmp_path):
        _, out, _ = pipeline
        save_model(load_model(out / "model.nsm"), tmp_path / "again.nsm")
        assert (tmp_path / "again.nsm").read_bytes() == (out / "model.nsm").read_bytes()


class TestRunLogReproducibility:
    def test_rerun_from_run_log_matches_metrics(self, pipeline, tmp_path):
        cfg_file, out, manifest = pipeline
        log = json.loads((out / "train.run.json").read_text())
        cfg_text = "\n".join(f"{k} = {v}" for k, v in log["config"].items())
        replay_cfg = tmp_path / "replay.cfg"
        replay_cfg.write_text(cfg_text + "\n")
        replay_out = tmp_path / "replay"
        assert run_command(["train", "--config", str(replay_cfg), "--manifest", str(manifest),
                            "--dict", str(out / "dictionary.nsd"), "--out", str(replay_out)]) == 0
        replay_log = json.loads((replay_out / "train.run.json").read_text())
        assert replay_log["metrics"] == log["metrics"]
        assert replay_log["config_hash"] == log["config_hash"]
        assert (replay_out / "model.nsm").read_bytes() == (out / "model.nsm").read_bytes()


class TestRunLogInputs:
    """Each ``*.run.json`` names the input paths it was given, plus ``--split``
    and the probe manifests."""

    def test_pipeline_stages(self, pipeline):
        _, out, manifest = pipeline
        expected = {"gen-data": {}, "pretrain-dict": {"manifest": str(manifest)},
                    "train": {"manifest": str(manifest), "dict": str(out / "dictionary.nsd")}}
        for command, inputs in expected.items():
            assert json.loads((out / f"{command}.run.json").read_text())["inputs"] == inputs

    @pytest.mark.parametrize("command", ["segment", "eval", "explain", "probe", "ablate-beta", "report"])
    def test_later_stages(self, pipeline, tmp_path, command):
        cfg, out, manifest = pipeline
        model, dictionary = str(out / "model.nsm"), str(out / "dictionary.nsd")
        split = {"model": model, "manifest": str(manifest), "split": "dev"}
        flags = {"segment": split, "eval": split, "explain": split, "probe": {"model": model},
                 "ablate-beta": {"manifest": str(manifest), "dict": dictionary},
                 "report": {"dir": str(out)}}[command]
        argv = [command, "--config", str(cfg), "--out", str(tmp_path / "run")]
        for key, value in flags.items():
            argv += [f"--{key}", value]
        if command == "probe":
            task = self._probe_manifest(manifest, tmp_path / "task.csv")
            argv += ["--task-manifest", str(task)]
            flags = {**flags, "task_manifest": str(task)}
        assert run_command(argv) == 0
        assert json.loads((tmp_path / "run" / f"{command}.run.json").read_text())["inputs"] == flags

    @staticmethod
    def _probe_manifest(manifest, path):
        corpus = load_manifest(manifest)
        path.write_text("".join(f"{corpus.resolve(row.audio)},{i % 2}\n"
                                for i, row in enumerate(corpus.for_split("test")[:4])))
        return path

    def test_probe_eval_manifest(self, pipeline, tmp_path):
        cfg, out, manifest = pipeline
        task = self._probe_manifest(manifest, tmp_path / "task.csv")
        evaluation = self._probe_manifest(manifest, tmp_path / "eval.csv")
        assert run_command(["probe", "--config", str(cfg), "--out", str(tmp_path / "run"),
                            "--model", str(out / "model.nsm"), "--task-manifest", str(task),
                            "--eval-manifest", str(evaluation)]) == 0
        assert json.loads((tmp_path / "run" / "probe.run.json").read_text())["inputs"] == {
            "model": str(out / "model.nsm"), "task_manifest": str(task), "eval_manifest": str(evaluation)}

    def test_probe_eval_manifest_needs_task_manifest(self, tmp_path, capsys):
        """Checked before the model is read: the model path does not exist either."""
        run = tmp_path / "run"
        assert run_command(["probe", "--out", str(run), "--model", str(tmp_path / "missing.nsm"),
                            "--eval-manifest", str(tmp_path / "does-not-exist.csv")]) == 1
        err = capsys.readouterr().err
        assert "--eval-manifest" in err and "--task-manifest" in err
        assert not [p for p in run.rglob("*") if p.is_file()]


class TestOneClipAtATime:
    """With one worker, no clip's arrays are alive when an inference stage
    loads the next one; with two, at most one other clip is."""

    STAGES = ["evaluate_split", "mean_activation_l1", "reconstruction_error", "segment", "explain"]

    @staticmethod
    def _alive_at_each_load(pipeline, tmp_path, monkeypatch, stage) -> list:
        """How many earlier clips' features are alive as each test clip loads."""
        cfg, out, manifest_path = pipeline
        model, manifest, settings = load_model(out / "model.nsm"), load_manifest(manifest_path), FrontendSettings()

        def run():
            if stage in ("segment", "explain"):
                assert run_command([stage, "--config", str(cfg), "--model", str(out / "model.nsm"),
                                    "--manifest", str(manifest_path), "--split", "test",
                                    "--out", str(tmp_path / stage)]) == 0
            else:
                getattr(training, stage)(model, manifest, "test", settings)

        loaded, alive = [], []
        original = training.load_clip

        def load_clip_tracked(*args, **kwargs):
            alive.append(sum(ref() is not None for ref in loaded))
            clip = original(*args, **kwargs)
            loaded.append(weakref.ref(clip.features))
            return clip

        monkeypatch.setattr(training, "load_clip", load_clip_tracked)
        run()
        assert len(alive) == len(manifest.for_split("test")) >= 2
        return alive

    @pytest.mark.parametrize("stage", STAGES)
    def test_no_clip_outlives_its_turn(self, pipeline, tmp_path, monkeypatch, stage):
        monkeypatch.setenv("NMFSEG_THREADS", "1")
        alive = self._alive_at_each_load(pipeline, tmp_path, monkeypatch, stage)
        assert alive == [0] * len(alive)

    @pytest.mark.parametrize("stage", STAGES)
    def test_two_workers_hold_one_other_clip_at_most(self, pipeline, tmp_path, monkeypatch, stage):
        monkeypatch.setattr(parallel, "workers", lambda: 2)
        alive = self._alive_at_each_load(pipeline, tmp_path, monkeypatch, stage)
        assert max(alive) <= parallel.SHARDS - 1, alive
