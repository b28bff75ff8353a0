"""Signal frontend: WAV ingestion, STFT, log-mel, and the NSF1 feature format."""

import struct

import numpy as np
import pytest
from scipy.io import wavfile

from nmfseg.corpus import CorpusSpec, synthesize_clip
from nmfseg.errors import ConfigError, DimensionError, FormatError, IngestionError, NmfsegError
from nmfseg.frontend import (STFT_BLOCK_FRAMES, AudioClip, FeatureSequence, FrontendSettings,
                             featurize, features_from_bytes, frame_count, frame_magnitudes,
                             hann_window, load_audio, log_mel, mel_filterbank, read_features,
                             read_wav, save_audio, stft_magnitude, write_features)


def _write_wav(path, samples, rate=16000, dtype=np.int16):
    wavfile.write(path, rate, np.asarray(samples, dtype=dtype))


def _save(path, samples, fmt):
    """A WAV of ``samples`` in [-1, 1]: 32-bit float through ``save_audio``, or
    16-bit PCM rounded to the nearest step of 1/32768 and clipped."""
    if fmt == "float32":
        save_audio(AudioClip(samples=samples), path)
    else:
        _write_wav(path, np.clip(np.round(samples * 32768.0), -32768, 32767))


class TestWavSamples:
    """``read_wav`` checks the file and reads no sample; its source reads
    contiguous slices of the ``data`` chunk from disk."""

    @pytest.mark.parametrize("fmt, dtype", [("int16", "<i2"), ("float32", "<f4")])
    def test_slices_are_the_stored_samples(self, tmp_path, fmt, dtype):
        p = tmp_path / "x.wav"
        _save(p, np.random.default_rng(5).uniform(-0.9, 0.9, 1000), fmt)
        source = read_wav(p)
        whole = np.asarray(source)
        assert len(source) == len(whole) == 1000 and source.dtype == whole.dtype == np.dtype(dtype)
        assert whole.tobytes() == wavfile.read(p)[1].tobytes()
        for key in (slice(0, 7), slice(993, 2000), slice(500, 400), slice(None), slice(-3, None)):
            part = source[key]
            assert part.tobytes() == whole[key].tobytes() and not part.flags.writeable

    @pytest.mark.parametrize("key", [3, slice(0, 10, 2), [1, 2]])
    def test_only_contiguous_slices_are_read(self, tmp_path, key):
        p = tmp_path / "x.wav"
        _write_wav(p, np.zeros(100, dtype=np.int16))
        with pytest.raises(TypeError, match="contiguous slices"):
            read_wav(p)[key]

    def test_samples_lost_after_the_check_raise(self, tmp_path):
        p = tmp_path / "x.wav"
        _write_wav(p, np.zeros(100, dtype=np.int16))
        source = read_wav(p)
        p.write_bytes(p.read_bytes()[:-10])
        assert source[:95].tobytes() == bytes(190)
        with pytest.raises(IngestionError, match="truncated WAV") as info:
            source[90:]
        assert str(p) in str(info.value)


class TestLoadAudio:
    def test_silence_second(self, tmp_path):
        p = tmp_path / "silence.wav"
        _write_wav(p, np.zeros(16000, dtype=np.int16))
        clip = load_audio(p)
        assert len(clip.samples) == 16000
        assert np.all(clip.samples == 0.0)

    def test_int16_scaling(self, tmp_path):
        p = tmp_path / "max.wav"
        _write_wav(p, np.array([32767, -32768, 0], dtype=np.int16))
        clip = load_audio(p)
        assert clip.samples[0] == pytest.approx(32767 / 32768)
        assert clip.samples[1] == -1.0
        assert clip.samples[2] == 0.0

    def test_float32_passthrough(self, tmp_path):
        p = tmp_path / "f32.wav"
        data = np.array([0.25, -0.5, 0.75], dtype=np.float32)
        _write_wav(p, data, dtype=np.float32)
        clip = load_audio(p)
        np.testing.assert_array_equal(clip.samples, data.astype(np.float64))

    def test_wrong_rate_rejected(self, tmp_path):
        p = tmp_path / "8k.wav"
        wavfile.write(p, 8000, np.zeros(800, dtype=np.int16))
        with pytest.raises(IngestionError, match="sample rate"):
            load_audio(p)

    def test_stereo_rejected(self, tmp_path):
        p = tmp_path / "stereo.wav"
        wavfile.write(p, 16000, np.zeros((100, 2), dtype=np.int16))
        with pytest.raises(IngestionError, match="channel"):
            load_audio(p)

    def test_wrong_rate_error_names_the_file(self, tmp_path):
        p = tmp_path / "8k.wav"
        wavfile.write(p, 8000, np.zeros(800, dtype=np.int16))
        with pytest.raises(IngestionError, match="sample rate") as info:
            read_wav(p)
        assert str(p) in str(info.value) and "8000" in str(info.value)

    def test_stereo_error_names_the_file(self, tmp_path):
        p = tmp_path / "stereo.wav"
        wavfile.write(p, 16000, np.zeros((100, 2), dtype=np.int16))
        with pytest.raises(IngestionError, match="channel count") as info:
            read_wav(p)
        assert str(p) in str(info.value) and ": 2 " in str(info.value)

    def test_save_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        samples = rng.uniform(-0.5, 0.5, 1600)
        p = tmp_path / "rt.wav"
        save_audio(AudioClip(samples=samples), p)
        back = load_audio(p)
        np.testing.assert_allclose(back.samples, samples, atol=1e-7)


def _fmt_body(tag=1, bits=16, channels=1, rate=16000):
    align = channels * bits // 8
    return struct.pack("<HHIIHH", tag, channels, rate, rate * align, align, bits)


def _extensible_fmt(tag=1, bits=16):
    guid = struct.pack("<H", tag) + b"\x00\x00\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"
    return _fmt_body(0xFFFE, bits) + struct.pack("<HHI", 22, bits, 0x4) + guid


def _riff(*chunks, magic=b"RIFF"):
    """RIFF/WAVE bytes from (id, body) pairs, each padded to an even length."""
    body = b"WAVE" + b"".join(cid + struct.pack("<I", len(data)) + data + b"\x00" * (len(data) % 2)
                              for cid, data in chunks)
    return magic + struct.pack("<I", len(body)) + body


_PCM = np.array([0, 1000, -1000, 32767, -32768], dtype="<i2")


class TestWavCodec:
    """The built-in RIFF/WAVE codec against scipy.io.wavfile as the oracle."""

    @pytest.mark.parametrize("fmt,n", [("float32", 0), ("float32", 1), ("float32", 16001)])
    def test_save_bytes_match_scipy(self, tmp_path, fmt, n):
        samples = np.random.default_rng(n).uniform(-1.2, 1.2, n)
        ours, ref = tmp_path / "ours.wav", tmp_path / "ref.wav"
        save_audio(AudioClip(samples=samples), ours)
        wavfile.write(ref, 16000, samples.astype(fmt))
        assert ours.read_bytes() == ref.read_bytes()

    @pytest.mark.parametrize("dtype,scale", [(np.int16, 32768.0), (np.float32, 1.0)])
    def test_load_matches_scipy(self, tmp_path, dtype, scale):
        p = tmp_path / "x.wav"
        rng = np.random.default_rng(1)
        raw = rng.uniform(-0.9, 0.9, 4001)
        _write_wav(p, raw * 32767 if dtype == np.int16 else raw, dtype=dtype)
        rate, data = wavfile.read(p)
        clip = load_audio(p)
        assert rate == 16000
        np.testing.assert_array_equal(clip.samples, data.astype(np.float64) / scale)

    def test_list_chunk_before_fmt_skipped(self, tmp_path):
        p = tmp_path / "list.wav"
        p.write_bytes(_riff((b"LIST", b"INFOISFT\x05\x00\x00\x00test\x00"), (b"fmt ", _fmt_body()),
                            (b"data", _PCM.tobytes())))
        np.testing.assert_array_equal(load_audio(p).samples, _PCM / 32768.0)

    def test_odd_sized_chunk_pad_byte_skipped(self, tmp_path):
        p = tmp_path / "odd.wav"
        p.write_bytes(_riff((b"fmt ", _fmt_body()), (b"junk", b"abc"), (b"data", _PCM.tobytes())))
        np.testing.assert_array_equal(load_audio(p).samples, _PCM / 32768.0)

    def test_extensible_int16_accepted(self, tmp_path):
        p = tmp_path / "ext.wav"
        p.write_bytes(_riff((b"fmt ", _extensible_fmt()), (b"data", _PCM.tobytes())))
        np.testing.assert_array_equal(load_audio(p).samples, _PCM / 32768.0)

    @pytest.mark.parametrize("dtype", [np.int32, np.uint8, np.float64])
    def test_other_sample_formats_rejected(self, tmp_path, dtype):
        p = tmp_path / "other.wav"
        _write_wav(p, np.zeros(100), dtype=dtype)
        with pytest.raises(IngestionError, match="sample format"):
            load_audio(p)

    def test_extensible_other_codec_rejected(self, tmp_path):
        p = tmp_path / "ext24.wav"
        p.write_bytes(_riff((b"fmt ", _extensible_fmt(bits=24)), (b"data", b"\x00" * 30)))
        with pytest.raises(IngestionError, match="sample format"):
            load_audio(p)

    def test_truncated_data_rejected(self, tmp_path):
        p = tmp_path / "cut.wav"
        _write_wav(p, np.arange(100), dtype=np.int16)
        p.write_bytes(p.read_bytes()[:-50])
        with pytest.raises(IngestionError, match="truncated"):
            load_audio(p)

    def test_partial_sample_rejected(self, tmp_path):
        p = tmp_path / "partial.wav"
        p.write_bytes(_riff((b"fmt ", _fmt_body()), (b"data", _PCM.tobytes() + b"\x01")))
        with pytest.raises(IngestionError, match="truncated"):
            load_audio(p)

    @pytest.mark.parametrize("chunks,missing", [(((b"data", _PCM.tobytes()),), "fmt"),
                                                (((b"fmt ", _fmt_body()),), "data")])
    def test_missing_chunk_rejected(self, tmp_path, chunks, missing):
        p = tmp_path / "missing.wav"
        p.write_bytes(_riff(*chunks))
        with pytest.raises(IngestionError, match=f"no '{missing}"):
            load_audio(p)

    @pytest.mark.parametrize("blob", [b"", b"RIFF\x04\x00\x00\x00WAV",
                                      _riff((b"fmt ", _fmt_body()), (b"data", _PCM.tobytes()), magic=b"RIFX"),
                                      _riff((b"fmt ", _fmt_body()), (b"data", _PCM.tobytes()), magic=b"RF64"),
                                      b"RIFF\x04\x00\x00\x00AVI LIST"])
    def test_short_header_or_foreign_container_rejected(self, tmp_path, blob):
        p = tmp_path / "bad.wav"
        p.write_bytes(blob)
        with pytest.raises(IngestionError, match="codec"):
            load_audio(p)


def _dft_oracle_frame(frame, n_fft):
    """Direct DFT magnitude of one windowed frame (scalar loops)."""
    padded = np.zeros(n_fft)
    padded[: len(frame)] = frame
    mags = []
    for k in range(n_fft // 2 + 1):
        re = sum(padded[n] * np.cos(-2 * np.pi * k * n / n_fft) for n in range(n_fft))
        im = sum(padded[n] * np.sin(-2 * np.pi * k * n / n_fft) for n in range(n_fft))
        mags.append(np.hypot(re, im))
    return np.array(mags)


class TestStft:
    def test_zero_clip(self):
        spec = stft_magnitude(AudioClip(samples=np.zeros(16000)))
        assert np.all(spec.values == 0.0)

    def test_frame_count_formula(self):
        clip = AudioClip(samples=np.zeros(16000))
        spec = stft_magnitude(clip)
        assert spec.frames == 1 + (16000 - 400) // 320
        assert spec.freq_bins == 257

    def test_constant_clip_bin0(self):
        clip = AudioClip(samples=np.full(2000, 0.5))
        clip.samples = np.minimum(clip.samples * 2, 1.0)  # constant 1.0
        spec = stft_magnitude(clip)
        window_sum = (0.5 - 0.5 * np.cos(2 * np.pi * np.arange(400) / 400)).sum()
        np.testing.assert_allclose(spec.values[0], window_sum, rtol=1e-10)
        for t in range(1, spec.frames):
            np.testing.assert_allclose(spec.values[:, t], spec.values[:, 0], rtol=1e-10)
        oracle = _dft_oracle_frame(np.ones(400) * hann_window(400), 512)
        np.testing.assert_allclose(spec.values[:, 0], oracle, atol=1e-8)

    def test_sine_at_bin_center(self):
        freq = 8 * 16000 / 512  # 250 Hz, exactly bin 8
        t = np.arange(4000) / 16000
        spec = stft_magnitude(AudioClip(samples=0.5 * np.sin(2 * np.pi * freq * t)))
        assert np.all(np.argmax(spec.values, axis=0) == 8)

    def test_doubling_amplitude_doubles_magnitudes(self):
        rng = np.random.default_rng(3)
        samples = rng.uniform(-0.4, 0.4, 3000)
        a = stft_magnitude(AudioClip(samples=samples))
        b = stft_magnitude(AudioClip(samples=2 * samples))
        np.testing.assert_array_equal(b.values, 2 * a.values)

    def test_nonnegative(self):
        rng = np.random.default_rng(4)
        spec = stft_magnitude(AudioClip(samples=rng.normal(size=2000) * 0.1))
        assert np.all(spec.values >= 0)

    def test_too_short(self):
        with pytest.raises(IngestionError, match="too short"):
            stft_magnitude(AudioClip(samples=np.zeros(100)))

    # the last four give block - 1, block, block + 1 and 6000 frames
    @pytest.mark.parametrize("n", [400, 401, 719, 720, 16000, 16001] + [
        400 + 320 * (frames - 1) for frames in
        (STFT_BLOCK_FRAMES - 1, STFT_BLOCK_FRAMES, STFT_BLOCK_FRAMES + 1, 6000)])
    def test_framing_matches_index_gather(self, n):
        samples = np.random.default_rng(n).standard_normal(n)
        starts = np.arange(1 + (n - 400) // 320) * 320
        frames = samples[starts[:, None] + np.arange(400)[None, :]] * hann_window(400)[None, :]
        expected = np.abs(np.fft.rfft(frames, n=512, axis=1)).T
        np.testing.assert_array_equal(stft_magnitude(AudioClip(samples=samples)).values, expected)

    def test_bad_window_config(self):
        clip = AudioClip(samples=np.zeros(1000))
        with pytest.raises(ConfigError):
            stft_magnitude(clip, n_fft=256, win_len=400)
        with pytest.raises(ConfigError):
            stft_magnitude(clip, hop=0)


class TestLogMel:
    def test_zero_spectrogram(self):
        spec = stft_magnitude(AudioClip(samples=np.zeros(16000)))
        feats = log_mel(spec, n_mels=80)
        np.testing.assert_allclose(feats.values, np.log(1e-10), rtol=1e-6)

    def test_shape_contract(self):
        spec = stft_magnitude(AudioClip(samples=np.zeros(400 + 9 * 320)))
        assert spec.frames == 10
        feats = log_mel(spec, n_mels=80)
        assert feats.values.shape == (80, 10)

    def test_matches_matrix_multiply_oracle(self):
        rng = np.random.default_rng(5)
        spec = stft_magnitude(AudioClip(samples=rng.uniform(-0.3, 0.3, 3000)))
        feats = log_mel(spec, n_mels=24)
        fb = mel_filterbank(24, 512, 0.0, 8000.0)
        oracle = np.empty((24, spec.frames))
        for m in range(24):
            for t in range(spec.frames):
                acc = 0.0
                for f in range(257):
                    acc += fb[m, f] * spec.values[f, t]
                oracle[m, t] = np.log(acc + 1e-10)
        np.testing.assert_allclose(feats.values, oracle, rtol=1e-5)

    def test_filterbank_built_once_and_read_only(self):
        fb = mel_filterbank(24, 512, 0.0, 8000.0)
        assert mel_filterbank(24, 512, 0.0, 8000.0) is fb
        with pytest.raises(ValueError):
            fb[0, 0] = 1.0

    def test_monotone_in_spectrogram(self):
        rng = np.random.default_rng(6)
        base = stft_magnitude(AudioClip(samples=rng.uniform(-0.3, 0.3, 3000)))
        bigger = type(base)(values=base.values + rng.uniform(0, 1, base.values.shape), hop=base.hop)
        a = log_mel(base, n_mels=40).values
        b = log_mel(bigger, n_mels=40).values
        assert np.all(b >= a)

    def test_invalid_band_limits(self):
        spec = stft_magnitude(AudioClip(samples=np.zeros(1000)))
        with pytest.raises(ConfigError):
            log_mel(spec, n_mels=10, f_min=5000, f_max=4000)
        with pytest.raises(ConfigError):
            log_mel(spec, n_mels=10, f_min=0, f_max=9000)


def _whole_clip_reference(path, settings):
    """Features and float32 target the whole-array steps give for a WAV file."""
    spec = stft_magnitude(load_audio(path))
    target = np.log1p(spec.values) if settings.recon_log else spec.values
    return log_mel(spec).values, np.asarray(target, dtype=np.float32)


def _speech_like(n, seed):
    """Noise under a slow envelope, so frames span a wide range of levels."""
    rng = np.random.default_rng(seed)
    envelope = np.abs(np.sin(np.arange(n) / 3000.0)) ** 3
    return np.clip(0.3 * envelope * rng.standard_normal(n), -0.99, 0.99)


@pytest.fixture(scope="module")
def corpus_clip_120s():
    """A 120-s corpus clip, as the benchmark's inference stages read them."""
    samples, _ = synthesize_clip(CorpusSpec(seed=5, clip_seconds=120.0), 2, 0)
    return samples


class TestFeaturize:
    """The blocked pass writes what the whole-array steps compute, bit for bit."""

    # win_len samples (one frame), then one block less one, one block and one
    # block plus one frame of STFT_BLOCK_FRAMES, the last with samples left over
    @pytest.mark.parametrize("n", [400] + [400 + 320 * (frames - 1) for frames in
                                           (STFT_BLOCK_FRAMES - 1, STFT_BLOCK_FRAMES)]
                             + [400 + 320 * STFT_BLOCK_FRAMES + 200])
    @pytest.mark.parametrize("fmt", ["int16", "float32"])
    @pytest.mark.parametrize("recon_log", [False, True])
    def test_matches_whole_clip_steps(self, tmp_path, n, fmt, recon_log):
        path = tmp_path / "clip.wav"
        _save(path, _speech_like(n, n), fmt)
        settings = FrontendSettings(recon_log=recon_log)
        features, target = featurize(read_wav(path), settings, target=True)
        ref_features, ref_target = _whole_clip_reference(path, settings)
        assert features.shape[1] == frame_count(n, settings) == 1 + (n - 400) // 320
        assert features.dtype == target.dtype == np.float32
        assert features.tobytes() == ref_features.tobytes()
        assert target.tobytes() == ref_target.tobytes()

    @pytest.mark.parametrize("fmt", ["int16", "float32"])
    @pytest.mark.parametrize("recon_log", [False, True])
    def test_matches_whole_clip_steps_on_120s_clip(self, tmp_path, corpus_clip_120s, fmt, recon_log):
        path = tmp_path / "long.wav"
        _save(path, corpus_clip_120s, fmt)
        settings = FrontendSettings(recon_log=recon_log)
        features, target = featurize(read_wav(path), settings, target=True)
        ref_features, ref_target = _whole_clip_reference(path, settings)
        assert features.shape == (80, 5999)
        assert features.tobytes() == ref_features.tobytes()
        assert target.tobytes() == ref_target.tobytes()
        # laid out alike, so a reduction over frequency (the SNMF frame norms) rounds alike
        assert target.strides == ref_target.strides

    def test_float64_samples_and_frame_prefix(self):
        samples = _speech_like(400 + 320 * 600, 1)
        settings = FrontendSettings()
        features, target = featurize(samples, settings, target=True)
        assert features.tobytes() == log_mel(stft_magnitude(AudioClip(samples))).values.tobytes()
        for frames in (1, 300, 600):
            head, head_target = featurize(samples, settings, frames=frames, target=True)
            assert head.tobytes() == np.ascontiguousarray(features[:, :frames]).tobytes()
            assert head_target.tobytes() == np.ascontiguousarray(target[:, :frames]).tobytes()
        assert featurize(samples, settings, mel=False) == (None, None)
        for frames in (0, 602):
            with pytest.raises(DimensionError):
                featurize(samples, settings, frames=frames)

    # the first sample, one inside the second block, and the last sample, which no frame covers
    @pytest.mark.parametrize("at", [0, 320 * STFT_BLOCK_FRAMES + 7, -1])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_float_sample_raises(self, tmp_path, at, bad):
        n = 400 + 320 * (STFT_BLOCK_FRAMES + 40) + 100
        samples = _speech_like(n, 2).astype(np.float32)
        samples[at] = bad
        path = tmp_path / "bad.wav"
        wavfile.write(path, 16000, samples)
        with pytest.raises(IngestionError, match="non-finite"):
            featurize(read_wav(path), FrontendSettings())
        with pytest.raises(IngestionError, match="non-finite"):
            featurize(read_wav(path), FrontendSettings(), frames=3, mel=False)
        with pytest.raises(IngestionError, match="non-finite"):
            load_audio(path)

    @pytest.mark.parametrize("dtype", [np.int16, np.float32])
    def test_shorter_than_window_raises(self, tmp_path, dtype):
        path = tmp_path / "short.wav"
        _write_wav(path, np.zeros(399), dtype=dtype)
        with pytest.raises(IngestionError, match="too short"):
            featurize(read_wav(path), FrontendSettings())

    def test_bad_window_config(self):
        with pytest.raises(ConfigError):
            featurize(np.zeros(1000), FrontendSettings(n_fft=256, win_len=400))
        with pytest.raises(ConfigError):
            featurize(np.zeros(1000), FrontendSettings(hop=0))
        # a one-sample periodic Hann window is zero; at n_fft = 1 the filterbank would divide by zero
        for n_fft, win_len in ((1, 1), (2, 1), (512, 1)):
            with pytest.raises(ConfigError, match="n_fft and win_len must be >= 2"):
                featurize(np.ones(1000), FrontendSettings(n_fft=n_fft, win_len=win_len),
                          mel=False, target=True)
        # the mel filterbank of an odd n_fft would be laid out for n_fft - 1
        for n_fft in (3, 401, 511):
            with pytest.raises(ConfigError, match=f"n_fft must be even, got n_fft={n_fft}"):
                featurize(np.ones(1000), FrontendSettings(n_fft=n_fft, win_len=3))
            with pytest.raises(ConfigError, match=f"n_fft={n_fft}"):
                frame_count(1000, FrontendSettings(n_fft=n_fft, win_len=3))


class TestFrameMagnitudes:
    """Picked frames' magnitudes, rounded as ``featurize`` rounds its target,
    are that target's columns bit for bit."""

    # the first frame, both sides of the first and second block ends, and the last frame
    _FRAMES = np.array([0, 1, 254, 255, 256, 257, 300, 511, 512, 600])

    @pytest.mark.parametrize("fmt", ["int16", "float32"])
    @pytest.mark.parametrize("recon_log", [False, True])
    def test_picked_frames_match_featurize_target(self, tmp_path, fmt, recon_log):
        n = 400 + 320 * 600 + 150  # 601 frames, samples left over after the last
        path = tmp_path / "clip.wav"
        _save(path, _speech_like(n, 3), fmt)
        samples = read_wav(path)
        settings = FrontendSettings(recon_log=recon_log)
        _, target = featurize(samples, settings, mel=False, target=True)
        assert target.shape[1] - 1 == self._FRAMES[-1]
        for frames in (self._FRAMES, self._FRAMES[::-1][:3], self._FRAMES[3:4]):
            mags = frame_magnitudes(samples, frames, settings)
            picked = (np.log1p(mags) if recon_log else mags).astype(np.float32)
            assert picked.T.tobytes() == np.ascontiguousarray(target[:, frames]).tobytes()


class TestFeatureFiles:
    def test_round_trip_identity(self, tmp_path):
        rng = np.random.default_rng(7)
        seq = FeatureSequence(values=rng.normal(size=(13, 31)), hop=0.02)
        p = tmp_path / "x.nsf"
        write_features(seq, p)
        back = read_features(p)
        np.testing.assert_array_equal(back.values, seq.values)
        assert back.hop == seq.hop
        assert (back.dim, back.frames) == (13, 31)

    def test_byte_layout(self, tmp_path):
        seq = FeatureSequence(values=np.arange(6, dtype=np.float32).reshape(2, 3), hop=0.02)
        p = tmp_path / "tiny.nsf"
        write_features(seq, p)
        blob = p.read_bytes()
        assert len(blob) == 4 + 4 + 4 + 8 + 24
        assert blob[:4] == b"NSF1"
        assert int.from_bytes(blob[4:8], "little") == 2
        assert int.from_bytes(blob[8:12], "little") == 3
        # column-major payload: frame 0 is (values[0,0], values[1,0])
        first = np.frombuffer(blob, dtype="<f4", count=2, offset=20)
        np.testing.assert_array_equal(first, seq.values[:, 0])

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.nsf"
        p.write_bytes(b"XXXX" + bytes(16))
        with pytest.raises(FormatError, match="magic"):
            read_features(p)

    def test_truncated_payload(self, tmp_path):
        seq = FeatureSequence(values=np.ones((4, 4)), hop=0.02)
        p = tmp_path / "trunc.nsf"
        write_features(seq, p)
        p.write_bytes(p.read_bytes()[:-8])
        with pytest.raises(FormatError):
            read_features(p)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_rejected_naming_the_file(self, tmp_path, bad):
        values = np.zeros((3, 4), dtype=np.float32)
        values[1, 2] = bad
        p = tmp_path / "bad.nsf"
        write_features(FeatureSequence(values=values, hop=0.02), p)
        with pytest.raises(FormatError, match="non-finite") as info:
            read_features(p)
        assert str(p) in str(info.value)


_NSF1 = b"".join([b"NSF1", struct.pack("<IId", 3, 4, 0.02),
                  np.random.default_rng(21).normal(size=12).astype("<f4").tobytes()])


def test_nsf1_every_single_byte_flip_parses_finite_or_raises_nmfseg_error():
    """All 68 * 255 one-byte flips of a 3 x 4 blob: a flip may still parse
    (another finite value, or hop), but never to a non-finite value, and
    nothing other than an NmfsegError escapes."""
    parsed = 0
    for pos in range(len(_NSF1)):
        for mask in range(1, 256):
            blob = bytearray(_NSF1)
            blob[pos] ^= mask
            try:
                seq = features_from_bytes(bytes(blob))
            except NmfsegError:
                continue
            assert np.isfinite(seq.values).all() and seq.values.shape == (3, 4), (pos, mask)
            parsed += 1
    assert parsed > 0


def test_nsf1_every_truncation_raises_format_error():
    for length in range(len(_NSF1)):
        with pytest.raises(FormatError):
            features_from_bytes(_NSF1[:length])


def _featurized(samples, settings) -> bytes | str:
    """The bytes of ``featurize(samples, target=True)``, or the message of the
    IngestionError it raises."""
    try:
        features, target = featurize(samples, settings, target=True)
    except IngestionError as exc:
        return str(exc)
    assert features.shape[0] == settings.n_mels and target.shape[1] == features.shape[1]
    return features.tobytes() + target.tobytes()


@pytest.mark.parametrize("fmt", ["int16", "float32"])
def test_wav_every_flip_and_truncation_reads_or_raises_nmfseg_error(tmp_path, fmt):
    """XOR 0x01, 0x80 and 0xFF at every byte of a 720-sample WAV, and every
    truncation of it: ``read_wav`` raises IngestionError, or its source, read
    in slices, holds the samples ``np.asarray`` of it holds, and featurizing
    the source and that array (``featurize(target=True)``) gives the same
    bytes or raises the same IngestionError."""
    p = tmp_path / "x.wav"
    _save(p, np.random.default_rng(31).uniform(-0.9, 0.9, 720), fmt)
    wav = p.read_bytes()
    blobs = [wav[:length] for length in range(len(wav))]
    for pos in range(len(wav)):
        for mask in (0x01, 0x80, 0xFF):
            blob = bytearray(wav)
            blob[pos] ^= mask
            blobs.append(bytes(blob))
    settings = FrontendSettings()
    read = 0
    for blob in blobs:
        p.write_bytes(blob)
        try:
            source = read_wav(p)
        except IngestionError:
            continue
        whole = np.asarray(source)
        assert b"".join(source[lo:lo + 97].tobytes() for lo in range(0, len(source), 97)) == whole.tobytes()
        streamed = _featurized(source, settings)
        assert streamed == _featurized(whole, settings)
        read += isinstance(streamed, bytes)
    assert read > 0
