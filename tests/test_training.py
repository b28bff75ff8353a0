"""Dataset assembly and the training loop."""

import shutil
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from conftest import assert_views_of_flat, load_split_with_targets
from nmfseg import frontend, parallel, training
from nmfseg.corpus import HOP_SECONDS, Manifest, ManifestRow
from nmfseg.errors import ConfigError, DimensionError, FormatError, IngestionError, NumericError
from nmfseg.frontend import AudioClip, FeatureSequence, save_audio, write_features
from nmfseg.labels import read_label_file, write_label_file
from nmfseg.network import init_model
from nmfseg.nmf import Dictionary, SnmfConfig, dictionary_to_bytes, normalize_columns, train_snmf
from nmfseg.training import (FrontendSettings, TrainConfig, build_segments,
                             evaluate_split, load_clip, load_split, pretrain_dictionary,
                             train)


@pytest.fixture(scope="module")
def trained_setup(small_corpus):
    _, manifest = small_corpus
    settings = FrontendSettings()
    dictionary = pretrain_dictionary(manifest, settings, SnmfConfig(k=16, mu=0.1, max_iters=100, seed=0),
                                     max_frames=1000)
    return manifest, settings, dictionary


class TestDataAssembly:
    def test_split_loading_and_alignment(self, trained_setup):
        manifest, settings, _ = trained_setup
        clips = load_split_with_targets(manifest, "train", settings)
        for clip in clips:
            assert clip.features.shape[1] == clip.spect.shape[1] == clip.labels.shape[1]
            assert clip.features.shape[0] == 80
            assert clip.spect.shape[0] == 257

    def test_missing_split(self, trained_setup):
        manifest, settings, _ = trained_setup
        with pytest.raises(FormatError, match="no 'nope' rows"):
            load_split(manifest, "nope", settings)
        with pytest.raises(FormatError, match="no 'nope' rows"):
            evaluate_split(init_model(d=80, k=16, c=4, seed=0), manifest, "nope", settings)

    def test_clip_without_spectrogram(self, trained_setup):
        manifest, settings, _ = trained_setup
        for row in manifest.for_split("test"):
            full = load_clip(manifest, row, settings)
            lean = load_clip(manifest, row, settings, with_spect=False)
            assert full.spect is not None and full.spect.dtype == np.float32
            assert lean.spect is None
            assert lean.features.dtype == np.float32 and lean.hop == full.hop
            np.testing.assert_array_equal(lean.features, full.features)
            np.testing.assert_array_equal(lean.labels, full.labels)

    def test_segment_chunking(self, trained_setup):
        manifest, settings, _ = trained_setup
        clips = load_split(manifest, "train", settings)
        segments = build_segments(clips, segment_seconds=4.0)
        seg_frames = int(round(4.0 / clips[0].hop))
        assert all(s.features.shape[1] == seg_frames for s in segments)
        assert all(s.labels.frames == seg_frames for s in segments)
        # a 10 s clip yields two full 4 s segments; the tail is dropped
        assert len(segments) == 2 * len(clips)

    def test_length_mismatch_beyond_one_frame(self, tmp_path, small_corpus):
        _, manifest = small_corpus
        row = manifest.for_split("train")[0]
        bad_dir = tmp_path / "bad"
        bad_dir.mkdir()
        import shutil
        shutil.copy(manifest.resolve(row.audio), bad_dir / "clip.wav")
        from nmfseg.labels import read_label_file, write_label_file
        frames, hop = read_label_file(manifest.resolve(row.labels))
        write_label_file(bad_dir / "clip.lab", frames[:, :-5], hop)
        bad_manifest = Manifest(rows=[ManifestRow("clip", "clip.wav", "", "clip.lab", "train")],
                                root=bad_dir)
        with pytest.raises(DimensionError, match="more than one"):
            load_split(bad_manifest, "train", FrontendSettings())

    def test_frame_grid_checked_to_the_label_files_rounding(self, tmp_path, small_corpus):
        """A label file stores its hop to 6 decimals: 321 samples (0.0200625 s)
        reads back as 0.020063 and loads; the corpus's 0.02 s labels do not
        load at a hop of 319 samples (0.0199375 s), where they would drift by
        one frame over a 10-s clip, nor at 160."""
        _, manifest = small_corpus
        row = manifest.for_split("train")[0]
        frames, hop = read_label_file(manifest.resolve(row.labels))
        write_label_file(tmp_path / "clip.lab", frames[:, :498], 321 / 16000)
        shutil.copy(manifest.resolve(row.audio), tmp_path / "clip.wav")
        near = Manifest(rows=[ManifestRow("clip", "clip.wav", "", "clip.lab", "train")], root=tmp_path)
        assert load_clip(near, near.rows[0], FrontendSettings(hop=321)).labels.shape[1] == 498
        for samples in (319, 160):
            with pytest.raises(FormatError) as info:
                load_clip(manifest, row, FrontendSettings(hop=samples))
            message = str(info.value)
            assert str(manifest.resolve(row.labels)) in message
            assert repr(hop) in message and repr(samples / 16000) in message

    def test_feature_file_hop_must_match_the_frontend(self, tmp_path, small_corpus):
        _, manifest = small_corpus
        row = manifest.for_split("train")[0]
        write_features(FeatureSequence(values=np.zeros((12, 499), dtype=np.float32), hop=0.01),
                       tmp_path / "clip.nsf")
        ext = Manifest(rows=[replace(row, features=str(tmp_path / "clip.nsf"))], root=manifest.root)
        with pytest.raises(FormatError, match="0.01 s apart") as info:
            load_clip(ext, ext.rows[0], FrontendSettings())
        assert str(tmp_path / "clip.nsf") in str(info.value)

    def test_feature_file_row_only_checks_its_samples(self, tmp_path, small_corpus, monkeypatch):
        """With a feature file and no target, a row's audio is only checked
        for non-finite samples: no frame is transformed."""
        _, manifest = small_corpus
        row = manifest.for_split("train")[0]
        shutil.copy(manifest.resolve(row.labels), tmp_path / "clip.lab")
        write_features(FeatureSequence(values=np.zeros((12, 499), dtype=np.float32), hop=0.02),
                       tmp_path / "clip.nsf")
        ext = Manifest(rows=[ManifestRow("clip", "clip.wav", "clip.nsf", "clip.lab", "train")], root=tmp_path)

        def no_transform(*args, **kwargs):
            raise AssertionError("a frame was transformed")

        monkeypatch.setattr(frontend, "frame_magnitudes", no_transform)
        wav = manifest.resolve(row.audio).read_bytes()
        (tmp_path / "clip.wav").write_bytes(wav)
        clip = load_clip(ext, ext.rows[0], FrontendSettings(), with_spect=False)
        assert clip.features.shape == (12, 499) and clip.spect is None
        # the file's last four bytes are its last float32 sample, which no frame covers
        (tmp_path / "clip.wav").write_bytes(wav[:-4] + np.float32(np.nan).tobytes())
        with pytest.raises(IngestionError, match="non-finite"):
            load_clip(ext, ext.rows[0], FrontendSettings(), with_spect=False)

    def test_external_feature_files_used(self, tmp_path, small_corpus):
        _, manifest = small_corpus
        row = manifest.for_split("train")[0]
        import shutil
        ext_dir = tmp_path / "ext"
        ext_dir.mkdir()
        shutil.copy(manifest.resolve(row.audio), ext_dir / "clip.wav")
        shutil.copy(manifest.resolve(row.labels), ext_dir / "clip.lab")
        from nmfseg.frontend import FeatureSequence, write_features
        rng = np.random.default_rng(0)
        t = 499  # matches the 10 s clip's frame count
        write_features(FeatureSequence(values=rng.normal(size=(12, t)).astype(np.float32),
                                       hop=0.02), ext_dir / "clip.nsf")
        ext_manifest = Manifest(rows=[ManifestRow("clip", "clip.wav", "clip.nsf",
                                                  "clip.lab", "train")], root=ext_dir)
        clips = load_split(ext_manifest, "train", FrontendSettings())
        assert clips[0].features.shape[0] == 12


def _peak_traced_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _evaluate_split_peaks(manifest) -> dict:
    """Traced peak bytes of ``evaluate_split`` over 1 and over 4 equal-length clips."""
    rows = [replace(row, split="eval") for row in manifest.for_split("train")[:4]]
    model = init_model(d=80, k=16, c=4, seed=0)
    peaks = {}
    for n in (1, 4):
        sub = Manifest(rows=rows[:n], root=manifest.root)
        evaluate_split(model, sub, "eval")  # warm caches (mel filterbank) outside the trace
        peaks[n] = _peak_traced_bytes(lambda: evaluate_split(model, sub, "eval"))
    return peaks


def test_no_segments_raises_config_error_naming_segment_seconds(trained_setup):
    manifest, settings, dictionary = trained_setup
    model = init_model(d=80, k=16, c=4, seed=0)
    model.attach_dictionary(dictionary)  # the default beta = 1 needs one before any clip is read
    with pytest.raises(ConfigError, match="segment_seconds = 60"):
        train(model, manifest, TrainConfig(segment_seconds=60.0, epochs=1), settings)


def test_evaluate_split_streams_clips(small_corpus, monkeypatch):
    """With one worker, four equal-length clips peak within 10 % of one clip,
    so clips are not held."""
    monkeypatch.setenv("NMFSEG_THREADS", "1")
    peaks = _evaluate_split_peaks(small_corpus[1])
    assert peaks[4] <= 1.10 * peaks[1], peaks


def test_evaluate_split_streams_clips_on_two_workers(small_corpus, monkeypatch):
    """With two workers, four clips peak within 10 % of ``SHARDS`` clips in flight."""
    monkeypatch.setattr(parallel, "workers", lambda: 2)
    peaks = _evaluate_split_peaks(small_corpus[1])
    assert peaks[4] <= 1.10 * parallel.SHARDS * peaks[1], peaks


# 40 train clips of 3 s (149 frames each); clip i is exactly zero over a
# stretch that moves with i, so the 1e-8 norm floor drops whole frames
_QUIET_CLIPS = 40
_QUIET_SAMPLES = 48000
_QUIET_FRAMES = 149


@pytest.fixture(scope="module")
def quiet_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("quiet")
    rng = np.random.default_rng(11)
    rows = []
    for i in range(_QUIET_CLIPS):
        samples = rng.uniform(0.02, 0.1) * rng.standard_normal(_QUIET_SAMPLES)
        start = (i * 3700) % 36000
        samples[start:start + 9000] = 0.0
        save_audio(AudioClip(samples=samples), root / f"c{i}.wav")
        labels = rng.integers(0, 2, size=(4, _QUIET_FRAMES))
        write_label_file(root / f"c{i}.lab", labels, HOP_SECONDS)
        rows.append(ManifestRow(f"c{i}", f"c{i}.wav", "", f"c{i}.lab", "train"))
    return Manifest(rows=rows, root=root)


def _snmf_cfg():
    return SnmfConfig(k=8, mu=0.1, max_iters=20, rel_tol=1e-5, seed=4)


def _reference_dictionary(manifest, settings, max_frames):
    """The codebook as fitted from the whole split: concatenate, normalize, stride."""
    clips = load_split_with_targets(manifest, "train", settings)
    x = np.concatenate([np.asarray(c.spect, dtype=np.float64) for c in clips], axis=1)
    norms = np.linalg.norm(x, axis=0)
    x = x[:, norms > 1e-8] / norms[norms > 1e-8]
    if x.shape[1] > max_frames:
        x = x[:, ::int(np.ceil(x.shape[1] / max_frames))]
    return train_snmf(x, _snmf_cfg())[0]


def _pretrain(manifest, settings, max_frames):
    return pretrain_dictionary(manifest, settings, _snmf_cfg(), max_frames=max_frames)


class TestPretrainDictionary:
    @pytest.mark.parametrize("recon_log", [False, True])
    # 4884 of 5960 frames clear the floor: stride 1, and stride 13, which
    # crosses the 149-frame clip ends at a different offset each time
    @pytest.mark.parametrize("max_frames", [10_000, 400])
    def test_matches_whole_split_reference(self, quiet_corpus, recon_log, max_frames):
        settings = FrontendSettings(recon_log=recon_log)
        clips = load_split_with_targets(quiet_corpus, "train", settings)
        spect = np.concatenate([c.spect for c in clips], axis=1)
        kept = int(np.sum(np.linalg.norm(spect.astype(np.float64), axis=0) > 1e-8))
        assert 0 < kept < spect.shape[1]  # the silent stretches fall under the floor
        ours = _pretrain(quiet_corpus, settings, max_frames)
        ref = _reference_dictionary(quiet_corpus, settings, max_frames)
        assert dictionary_to_bytes(ours) == dictionary_to_bytes(ref)
        assert ours.objective_trace == ref.objective_trace

    @pytest.mark.parametrize("extra_frames", [1, -1])
    def test_feature_file_rows_align_as_load_clip_does(self, quiet_corpus, tmp_path, extra_frames):
        """A feature file one frame longer than the labels leaves t alone; one
        frame shorter sets it.  Either way the codebook is the reference one."""
        rows = []
        for i, row in enumerate(quiet_corpus.for_split("train")[:8]):
            if i % 2 == 0:
                frames = _QUIET_FRAMES + extra_frames
                write_features(FeatureSequence(values=np.zeros((3, frames), dtype=np.float32),
                                               hop=HOP_SECONDS), tmp_path / f"{row.clip_id}.nsf")
                row = replace(row, features=str(tmp_path / f"{row.clip_id}.nsf"))
            rows.append(row)
        manifest = Manifest(rows=rows, root=quiet_corpus.root)
        settings = FrontendSettings()
        ours = _pretrain(manifest, settings, max_frames=300)
        assert dictionary_to_bytes(ours) == dictionary_to_bytes(
            _reference_dictionary(manifest, settings, max_frames=300))

    def test_computes_no_log_mel(self, quiet_corpus, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("pretrain_dictionary computed log-mel features")

        monkeypatch.setattr(frontend, "mel_filterbank", forbidden)
        dictionary = _pretrain(quiet_corpus, FrontendSettings(), max_frames=300)
        assert dictionary.values.shape == (257, 8)

    def test_holds_no_split_of_targets(self, quiet_corpus, monkeypatch):
        """Up to the SNMF call, the traced peak stays within 0.75x the split's
        float32 reconstruction targets (0.61x measured with two clips in
        flight, 0.31x with one), and doubling the clips at the same
        ``max_frames`` moves it by under 10 % (1-3 % measured): only the
        picked frames and two clips' temporaries are held.  Keeping every
        clip's target until the frames were picked peaked at 1.28x, and at
        1.79x that with twice the clips."""
        settings = FrontendSettings()
        target_bytes = sum(c.spect.nbytes for c in load_split_with_targets(quiet_corpus, "train", settings))
        doubled = Manifest(rows=quiet_corpus.rows + [replace(row, clip_id=f"{row.clip_id}b")
                                                     for row in quiet_corpus.rows],
                           root=quiet_corpus.root)
        seen = {}

        def snmf_stub(x, cfg):
            seen["peak"] = tracemalloc.get_traced_memory()[1]
            seen["shape"] = x.shape
            return None, None

        monkeypatch.setattr(training, "train_snmf", snmf_stub)
        peaks = {}
        for name, manifest in (("split", quiet_corpus), ("doubled", doubled)):
            tracemalloc.start()
            try:
                _pretrain(manifest, settings, max_frames=400)
            finally:
                tracemalloc.stop()
            assert seen["shape"][0] == 257 and seen["shape"][1] <= 400
            peaks[name] = seen["peak"]
        assert peaks["split"] <= 0.75 * target_bytes, (peaks, target_bytes)
        assert peaks["doubled"] <= 1.10 * peaks["split"], peaks

    def test_same_bytes_on_one_and_two_workers(self, quiet_corpus, monkeypatch):
        """The codebook, as ``dictionary.nsd`` stores it, does not depend on
        how many clips are in flight."""
        blobs = []
        for n in (1, 2):
            monkeypatch.setattr(parallel, "workers", lambda: n)
            blobs.append(dictionary_to_bytes(_pretrain(quiet_corpus, FrontendSettings(), max_frames=400)))
        assert blobs[0] == blobs[1]


class TestTrain:
    def test_seeded_runs_identical(self, trained_setup):
        manifest, settings, dictionary = trained_setup
        results = []
        for _ in range(2):
            model = init_model(d=80, k=16, c=4, seed=1)
            model.attach_dictionary(dictionary)
            cfg = TrainConfig(alpha=10, beta=1, gamma=0.1, batch_size=8, epochs=2, seed=1)
            model, trace = train(model, manifest, cfg, settings)
            results.append((model, trace))
        for (_, a), (_, b) in zip(results[0][0].parameters(), results[1][0].parameters()):
            np.testing.assert_array_equal(a, b)
        assert results[0][1] == results[1][1]

    def test_loss_trace_finite(self, trained_setup):
        manifest, settings, dictionary = trained_setup
        model = init_model(d=80, k=16, c=4, seed=2)
        model.attach_dictionary(dictionary)
        cfg = TrainConfig(alpha=10, beta=1, gamma=0.1, batch_size=8, epochs=2, seed=0)
        _, trace = train(model, manifest, cfg, settings)
        for entry in trace:
            for key in ("train_total", "train_bce", "train_nmf", "train_l1", "dev_bce"):
                assert np.isfinite(entry[key]), key

    def test_dev_bce_decreases_first_three_epochs(self, trained_setup):
        # classification-only training isolates the decreasing quantity
        manifest, settings, dictionary = trained_setup
        model = init_model(d=80, k=16, c=4, seed=0)
        model.attach_dictionary(dictionary)
        cfg = TrainConfig(alpha=10, beta=0, gamma=0, batch_size=8, epochs=3, seed=0)
        _, trace = train(model, manifest, cfg, settings)
        bces = [entry["dev_bce"] for entry in trace]
        assert bces[0] > bces[1] > bces[2], bces

    def test_best_checkpoint_retained(self, trained_setup):
        manifest, settings, dictionary = trained_setup
        model = init_model(d=80, k=16, c=4, seed=3)
        model.attach_dictionary(dictionary)
        cfg = TrainConfig(alpha=10, beta=1, gamma=0.1, batch_size=8, epochs=3, seed=0)
        model, trace = train(model, manifest, cfg, settings)
        best = trace[-1]["best_epoch"]
        assert 0 <= best < 3
        best_macro = max(e["dev_macro_f1"] for e in trace)
        assert trace[best]["dev_macro_f1"] == best_macro
        assert all(arr.dtype == np.float32 for _, arr in model.parameters())
        assert_views_of_flat(model)

    def test_non_finite_adam_step_raises(self, trained_setup, monkeypatch):
        """An ADAM step that writes a NaN, in a single batch of a single epoch
        whose loss stays finite: only the check on the ADAM output can stop the run."""
        manifest, settings, dictionary = trained_setup
        model = init_model(d=80, k=16, c=4, seed=0)
        model.attach_dictionary(dictionary)
        real_step = training.adam_step

        def nan_step(params, grad, state, lr):
            real_step(params, grad, state, lr)
            params[0] = np.nan

        monkeypatch.setattr(training, "adam_step", nan_step)
        cfg = TrainConfig(batch_size=64, epochs=1, seed=0)
        with pytest.raises(NumericError, match="ADAM"):
            train(model, manifest, cfg, settings)

    def test_empty_manifest_rejected(self, trained_setup):
        _, settings, dictionary = trained_setup
        model = init_model(d=80, k=16, c=4, seed=0)
        model.attach_dictionary(dictionary)
        empty = Manifest(rows=[])
        with pytest.raises(FormatError, match="no 'train' rows"):
            train(model, empty, TrainConfig(epochs=1), settings)


def _no_read(*args, **kwargs):
    raise AssertionError("a clip was read before the dictionary was checked")


def _dictionary(bins: int, k: int = 16) -> Dictionary:
    w, _ = normalize_columns(1.0 - np.random.default_rng(0).random((bins, k)), np.ones((k, 1)))
    return Dictionary(values=w)


class TestDictionaryCheck:
    """The Gram form needs W when the train clips load, so a missing or
    mismatched dictionary fails before any clip is read."""

    def test_train_with_beta_needs_a_dictionary(self, small_corpus, monkeypatch):
        monkeypatch.setattr(training, "read_wav", _no_read)
        with pytest.raises(ConfigError, match=r"beta = 2\.5\) needs a dictionary"):
            train(init_model(d=80, k=16, c=4, seed=0), small_corpus[1], TrainConfig(beta=2.5, epochs=1))

    def test_train_at_beta_zero_needs_no_dictionary(self, small_corpus):
        cfg = TrainConfig(beta=0, batch_size=32, epochs=1)
        _, trace = train(init_model(d=80, k=16, c=4, seed=0), small_corpus[1], cfg)
        assert trace[0]["train_nmf"] == 0.0 and np.isfinite(trace[0]["train_total"])

    @pytest.mark.parametrize("stage", ["train", "reconstruction_error"])
    def test_other_bin_count_names_both(self, small_corpus, monkeypatch, stage):
        model = init_model(d=80, k=16, c=4, seed=0)
        model.attach_dictionary(_dictionary(129))
        monkeypatch.setattr(training, "read_wav", _no_read)
        with pytest.raises(DimensionError, match="129 frequency bins.* gives 257"):
            if stage == "train":
                train(model, small_corpus[1], TrainConfig(epochs=1))
            else:
                training.reconstruction_error(model, small_corpus[1], "test")

    def test_reconstruction_error_needs_a_dictionary(self, small_corpus, monkeypatch):
        monkeypatch.setattr(training, "read_wav", _no_read)
        with pytest.raises(ConfigError, match="reconstruction error needs a dictionary"):
            training.reconstruction_error(init_model(d=80, k=16, c=4, seed=0), small_corpus[1], "test")

    def test_a_clip_load_reaches_the_patched_name(self, small_corpus, monkeypatch):
        """The control of the tests that patch ``training.read_wav``: a plain
        ``load_clip`` reads its audio through that name, so a read before the
        check would fail them."""
        manifest = small_corpus[1]
        monkeypatch.setattr(training, "read_wav", _no_read)
        with pytest.raises(AssertionError, match="a clip was read"):
            load_clip(manifest, manifest.for_split("train")[0], FrontendSettings(), with_spect=False)


class _Stop(Exception):
    pass


def test_train_holds_no_split_of_targets(trained_setup, monkeypatch):
    """With one clip in flight, loading the train split for ``train`` peaks
    below 0.5x the split's float32 F x T targets beyond one ``load_clip``
    peak (the STFT blocks of the clip in flight), and every segment's target
    has K rows.  Keeping every clip's target peaked at 1.17x; 0.35x was
    measured with the targets in K-space (K = 16), nearly all of it the
    features.  One worker keeps the peak's timing fixed."""
    manifest, settings, dictionary = trained_setup
    monkeypatch.setattr(parallel, "workers", lambda: 1)
    target_bytes = sum(c.spect.nbytes for c in load_split_with_targets(manifest, "train", settings))
    in_flight = max(_peak_traced_bytes(lambda: load_clip(manifest, row, settings))
                    for row in manifest.for_split("train"))
    seen, real_load_split, real_build_segments = {}, training.load_split, training.build_segments

    def load_split_after_train(manifest, split, *args, **kwargs):
        if split == "dev":  # train loads its own split first
            seen["peak"] = tracemalloc.get_traced_memory()[1]
        return real_load_split(manifest, split, *args, **kwargs)

    def stop(clips, segment_seconds):
        seen["segments"] = real_build_segments(clips, segment_seconds)
        raise _Stop

    monkeypatch.setattr(training, "load_split", load_split_after_train)
    monkeypatch.setattr(training, "build_segments", stop)
    model = init_model(d=80, k=16, c=4, seed=0)
    model.attach_dictionary(dictionary)
    tracemalloc.start()
    try:
        with pytest.raises(_Stop):
            train(model, manifest, TrainConfig(epochs=1), settings)
    finally:
        tracemalloc.stop()
    assert seen["peak"] - in_flight < 0.5 * target_bytes, (seen["peak"], in_flight, target_bytes)
    assert seen["segments"] and all(seg.target.wtx.shape[0] == 16 for seg in seen["segments"])


class TestTrainConfig:
    def test_requires_positive_weight(self):
        with pytest.raises(ConfigError):
            TrainConfig(alpha=0, beta=0, gamma=0)

    def test_negative_weight_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig(alpha=-1, beta=1, gamma=0)

    @pytest.mark.parametrize("threshold", [0.0, 1.0, 1.5, float("nan")])
    def test_threshold_outside_unit_interval_rejected(self, threshold):
        with pytest.raises(ConfigError, match="threshold"):
            TrainConfig(threshold=threshold)

    @pytest.mark.parametrize("key, value", [
        ("lr", float("nan")), ("lr", -1.0), ("lr", 0.0), ("batch_size", 0), ("batch_size", -3),
        ("epochs", 0), ("segment_seconds", 0.0), ("seed", -1), ("gamma", float("inf")),
    ])
    def test_value_outside_range_rejected(self, key, value):
        with pytest.raises(ConfigError, match=f"{key} must be"):
            TrainConfig(**{key: value})

    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.lr == 1e-3
        assert cfg.batch_size == 64
        assert cfg.segment_seconds == 4.0
        assert cfg.threshold == 0.5
