"""The feature cache: a WAV's log-mel features, computed once and read back
from ``.nmfseg-features/`` beside it, are the bits a fresh ``featurize`` gives."""

import dataclasses
import os
import struct
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from nmfseg import frontend, parallel
from nmfseg.corpus import CorpusSpec, generate_corpus
from nmfseg.errors import IngestionError
from nmfseg.frontend import (FEATURE_CACHE_DIR, FeatureSequence, FrontendSettings, feature_key, featurize,
                             read_features, read_wav, write_features)
from nmfseg.training import load_clip, split_rows

SETTINGS = FrontendSettings()


@pytest.fixture
def corpus(tmp_path):
    """Two 3-s train clips, and the first one's row."""
    manifest = generate_corpus(CorpusSpec(seed=31, train_minutes=0.1, dev_minutes=0.05, test_minutes=0.05,
                                          clip_seconds=3.0), tmp_path / "corpus")
    return manifest, split_rows(manifest, "train")[0]


def _cache(manifest, row):
    return manifest.resolve(row.audio).parent / FEATURE_CACHE_DIR


def _files(cache) -> list:
    return sorted(p.name for p in cache.iterdir()) if cache.exists() else []


def _fresh(manifest, row, frames: int, settings=SETTINGS) -> np.ndarray:
    """The row's features from ``featurize``, without the cache."""
    return featurize(read_wav(manifest.resolve(row.audio)), settings, frames=frames)[0]


class TestLoadClip:
    def test_cold_warm_and_unwritable_caches_load_the_same_bits(self, corpus, monkeypatch):
        manifest, row = corpus
        cache = _cache(manifest, row)
        cold = load_clip(manifest, row, SETTINGS)
        assert len(_files(cache)) == 1 and _files(cache)[0].endswith(".nsf")
        warm = load_clip(manifest, row, SETTINGS)
        samples = read_wav(manifest.resolve(row.audio))
        t = cold.features.shape[1]
        direct, target = featurize(samples, SETTINGS, frames=t, target=True)
        assert cold.features.tobytes() == warm.features.tobytes() == direct.tobytes()
        assert cold.spect.tobytes() == warm.spect.tobytes() == target.tobytes()

        for name in _files(cache):
            (cache / name).unlink()

        def refuse(src, dst):
            raise PermissionError(f"read-only: {dst}")

        monkeypatch.setattr(os, "replace", refuse)
        unwritten = load_clip(manifest, row, SETTINGS, with_spect=False)
        assert unwritten.features.tobytes() == direct.tobytes()
        assert _files(cache) == []

    def test_a_hit_computes_no_frame_unless_a_target_is_asked_for(self, corpus, monkeypatch):
        manifest, row = corpus
        cold = load_clip(manifest, row, SETTINGS, with_spect=False)

        def no_frames(*args, **kwargs):
            raise AssertionError("frame_magnitudes reached")

        monkeypatch.setattr(frontend, "frame_magnitudes", no_frames)
        assert load_clip(manifest, row, SETTINGS, with_spect=False).features.tobytes() == cold.features.tobytes()
        with pytest.raises(AssertionError, match="frame_magnitudes reached"):
            load_clip(manifest, row, SETTINGS, with_spect=True)

    @pytest.mark.parametrize("spoil", ["truncated", "wrong frame count", "wrong hop"])
    def test_an_unusable_entry_is_a_miss_and_is_rewritten(self, corpus, spoil):
        manifest, row = corpus
        cold = load_clip(manifest, row, SETTINGS, with_spect=False).features
        (entry,) = _cache(manifest, row).iterdir()
        blob = entry.read_bytes()
        if spoil == "truncated":
            entry.write_bytes(blob[:len(blob) // 2])
        elif spoil == "wrong frame count":
            write_features(FeatureSequence(cold[:, :-1], SETTINGS.hop / 16000), entry)
        else:
            write_features(FeatureSequence(cold, 2 * SETTINGS.hop / 16000), entry)
        assert entry.read_bytes() != blob
        again = load_clip(manifest, row, SETTINGS, with_spect=False).features
        assert again.tobytes() == cold.tobytes()
        assert [p.name for p in _cache(manifest, row).iterdir()] == [entry.name]
        assert entry.read_bytes() == blob

    def test_a_non_finite_sample_raises_and_writes_no_entry(self, corpus):
        manifest, row = corpus
        load_clip(manifest, row, SETTINGS, with_spect=False)
        before = _files(_cache(manifest, row))
        wav = manifest.resolve(row.audio)
        blob = bytearray(wav.read_bytes())
        at = blob.index(b"data") + 8 + 4 * 1000
        blob[at:at + 4] = struct.pack("<f", float("nan"))
        wav.write_bytes(bytes(blob))
        with pytest.raises(IngestionError, match="non-finite"):
            load_clip(manifest, row, SETTINGS, with_spect=False)
        assert _files(_cache(manifest, row)) == before

    def test_two_threads_loading_one_row_leave_one_entry(self, corpus, monkeypatch):
        monkeypatch.delenv("NMFSEG_THREADS", raising=False)
        manifest, row = corpus
        first, second = parallel.map(lambda r: load_clip(manifest, r, SETTINGS, with_spect=False).features,
                                     [row, row])
        assert first.tobytes() == second.tobytes() == _fresh(manifest, row, first.shape[1]).tobytes()
        (name,) = _files(_cache(manifest, row))
        assert name.endswith(".nsf") and ".tmp" not in name

    def test_racing_loads_of_one_row_leave_one_entry(self, corpus):
        """More threads than cores load one row on a cold cache, switching often:
        every load gets the same bits, and one entry and no temporary file remain."""
        manifest, row = corpus
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(load_clip, manifest, row, SETTINGS, False) for _ in range(12)]
                loaded = [future.result(timeout=120).features.tobytes() for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert all(future.done() for future in futures)
        assert set(loaded) == {_fresh(manifest, row, len(loaded[0]) // (4 * 80)).tobytes()}
        (name,) = _files(_cache(manifest, row))
        assert name.endswith(".nsf") and ".tmp" not in name

    def test_other_settings_have_their_own_entry(self, corpus):
        manifest, row = corpus
        mels = FrontendSettings(n_mels=40)
        a = load_clip(manifest, row, SETTINGS, with_spect=False).features
        b = load_clip(manifest, row, mels, with_spect=False).features
        assert a.shape[0] == 80 and b.shape[0] == 40
        assert len(_files(_cache(manifest, row))) == 2
        assert b.tobytes() == _fresh(manifest, row, b.shape[1], mels).tobytes()
        assert read_features(_cache(manifest, row) / f"{feature_key(manifest.resolve(row.audio), mels, b.shape[1])}.nsf"
                             ).values.tobytes() == b.tobytes()


# a different valid value of every FrontendSettings field
CHANGED = {"n_fft": 1024, "win_len": 320, "hop": 160, "n_mels": 40, "f_min": 50.0, "f_max": 7000.0,
           "recon_log": True}


class TestKey:
    def test_every_field_but_recon_log_is_in_the_key(self, corpus):
        manifest, row = corpus
        wav = manifest.resolve(row.audio)
        assert set(CHANGED) == {f.name for f in dataclasses.fields(FrontendSettings)}
        base = feature_key(wav, SETTINGS, 100)
        for field in dataclasses.fields(FrontendSettings):
            key = feature_key(wav, dataclasses.replace(SETTINGS, **{field.name: CHANGED[field.name]}), 100)
            assert (key == base) == (field.name == "recon_log"), field.name
        assert feature_key(wav, SETTINGS, 99) != base
        assert feature_key(wav, FrontendSettings(), 100) == base

    def test_every_byte_of_the_wav_is_in_the_key(self, corpus, tmp_path):
        manifest, row = corpus
        blob = manifest.resolve(row.audio).read_bytes()
        copy = tmp_path / "copy.wav"
        copy.write_bytes(blob)
        base = feature_key(copy, SETTINGS, 100)
        for at in (0, len(blob) // 2, len(blob) - 1):
            flipped = bytearray(blob)
            flipped[at] ^= 0x01
            copy.write_bytes(bytes(flipped))
            assert feature_key(copy, SETTINGS, 100) != base, at
        copy.write_bytes(blob + b"\x00\x00")
        assert feature_key(copy, SETTINGS, 100) != base

    @pytest.mark.parametrize("part", ["numpy", "openblas", "source"])
    def test_numpy_openblas_and_the_frontend_source_are_in_the_key(self, corpus, monkeypatch, part):
        manifest, row = corpus
        wav = manifest.resolve(row.audio)
        base = feature_key(wav, SETTINGS, 100)
        if part == "numpy":
            monkeypatch.setattr(np, "__version__", "0.0.0")
        elif part == "openblas":
            monkeypatch.setattr(parallel, "blas_build", lambda: "another build; threads=1")
        else:
            monkeypatch.setattr(frontend, "_code_digest", lambda: b"another source")
        assert feature_key(wav, SETTINGS, 100) != base
