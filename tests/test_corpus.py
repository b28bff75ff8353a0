"""Label files, corpus generation, and manifest handling."""

import os
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nmfseg import corpus, parallel
from nmfseg.cli import run_command
from nmfseg.corpus import (CLASS_NAMES, CorpusSpec, Manifest, ManifestRow, generate_corpus,
                           load_manifest, one_pole, save_manifest, synthesize_clip)
from nmfseg.errors import FormatError, NmfsegError
from nmfseg.frontend import SAMPLE_RATE
from nmfseg.labels import (UNANNOTATED, _read_fixed_width, _read_lines,
                           label_matrix_from_range, read_label_file, write_label_file)


class TestLabelFiles:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        frames = rng.choice([0, 1, UNANNOTATED], size=(4, 25)).astype(np.int8)
        p = tmp_path / "x.lab"
        write_label_file(p, frames, hop=0.02)
        back, hop = read_label_file(p)
        np.testing.assert_array_equal(back, frames)
        assert hop == 0.02

    def test_header_required(self, tmp_path):
        p = tmp_path / "bad.lab"
        p.write_text("0 1 0 1\n")
        with pytest.raises(FormatError, match="FRAMES"):
            read_label_file(p)

    def test_invalid_symbol(self, tmp_path):
        p = tmp_path / "bad.lab"
        p.write_text("FRAMES 0.020000 2\n0 x\n")
        with pytest.raises(FormatError, match="symbol"):
            read_label_file(p)

    @pytest.mark.parametrize("header", ["FRAMES fast 2", "FRAMES 0.02 two", "FRAMES 0.02 2.5",
                                        "FRAMES 0.02 -3", "FRAMES 0.02 1000000000000000"])
    def test_malformed_header_values(self, tmp_path, header):
        p = tmp_path / "bad.lab"
        p.write_text(header + "\n0 1\n")
        with pytest.raises(FormatError):
            read_label_file(p)

    @pytest.mark.parametrize("c", [1, 4, 7])
    @pytest.mark.parametrize("t", [0, 1, 6000])
    def test_fixed_width_path_equals_line_parser(self, tmp_path, c, t):
        frames = np.random.default_rng([c, t]).choice([0, 1, UNANNOTATED], size=(c, t)).astype(np.int8)
        p = tmp_path / "x.lab"
        write_label_file(p, frames, hop=0.02)
        fast = _read_fixed_width(p.read_bytes())
        assert fast is not None
        slow = _read_lines(p)
        for got in (fast, slow, read_label_file(p)):
            assert got[0].dtype == np.int8 and got[0].flags.c_contiguous
            np.testing.assert_array_equal(got[0], frames)
            assert got[1] == 0.02

    @pytest.mark.parametrize("text", [
        "FRAMES 0.020000 2\n0 1\n\n1 -\n",      # blank line
        "FRAMES 0.020000 2\r\n0 1\r\n1 -\r\n",  # CRLF
        "FRAMES 0.020000 2\n0  1\n1 -\n",       # extra space
        "FRAMES 0.020000 2\n0 1\n1 -",          # no final newline
        "FRAMES 0.020000 0\n\n\n",              # C = 0
    ])
    def test_other_layouts_take_the_line_parser(self, tmp_path, text):
        p = tmp_path / "x.lab"
        p.write_bytes(text.encode())
        assert _read_fixed_width(p.read_bytes()) is None
        got, want = read_label_file(p), _read_lines(p)
        np.testing.assert_array_equal(got[0], want[0])
        assert got[0].shape == want[0].shape and got[1] == want[1]

    @pytest.mark.parametrize("text", ["FRAMES 0.020000 2\n0 x\n", "FRAMES 0.020000 2\n0 1 1\n",
                                      "FRAMES 0.020000 1\n2\n"])
    def test_fixed_width_malformations_raise_from_the_line_parser(self, tmp_path, text):
        p = tmp_path / "bad.lab"
        p.write_text(text)
        assert _read_fixed_width(p.read_bytes()) is None
        with pytest.raises(FormatError, match="line 2"):
            read_label_file(p)

    @pytest.mark.parametrize("c", [1, 4])
    @pytest.mark.parametrize("t", [1, 500])
    def test_writer_bytes_equal_the_per_frame_join(self, tmp_path, c, t):
        # random symbols, the first three cells 0, 1, - where they exist, and
        # a "-" run of up to 7 frames in every class
        rng = np.random.default_rng([c, t])
        frames = rng.choice([0, 1, UNANNOTATED], size=(c, t)).astype(np.int8)
        frames.flat[:3] = [0, 1, UNANNOTATED][:frames.size]
        for row in frames:
            start = int(rng.integers(0, t))
            row[start:start + 7] = UNANNOTATED
        p = tmp_path / "x.lab"
        write_label_file(p, frames, hop=0.02)
        sym = {0: "0", 1: "1", UNANNOTATED: "-"}  # the per-frame join the grid writer replaced
        lines = [f"FRAMES {0.02:.6f} {c}"] + [" ".join(sym[int(v)] for v in frames[:, i])
                                               for i in range(t)]
        assert p.read_bytes() == ("\n".join(lines) + "\n").encode("ascii")
        assert _read_fixed_width(p.read_bytes()) is not None
        back, hop = read_label_file(p)
        np.testing.assert_array_equal(back, frames)
        assert hop == 0.02

    def test_writer_rejects_unknown_symbols(self, tmp_path):
        with pytest.raises(ValueError, match="symbols"):
            write_label_file(tmp_path / "x.lab", np.array([[0, 2]]), hop=0.02)

    def test_mask_from_range(self):
        frames = np.array([[1, 1, 0, 0], [0, UNANNOTATED, 0, 1]], dtype=np.int8)
        lab = label_matrix_from_range(frames, 0, 2)
        assert lab.mask.tolist() == [True, False]
        np.testing.assert_array_equal(lab.values[0], [1.0, 1.0])
        lab2 = label_matrix_from_range(frames, 2, 4)
        assert lab2.mask.tolist() == [True, True]


class TestSynthesizeClip:
    def test_deterministic(self):
        spec = CorpusSpec(seed=7, train_minutes=1, dev_minutes=1, test_minutes=1)
        a_samples, a_labels = synthesize_clip(spec, 0, 3)
        b_samples, b_labels = synthesize_clip(spec, 0, 3)
        np.testing.assert_array_equal(a_samples, b_samples)
        np.testing.assert_array_equal(a_labels, b_labels)

    def test_overlap_implies_speech(self):
        spec = CorpusSpec(seed=3, train_minutes=1, dev_minutes=1, test_minutes=1)
        for clip_index in range(6):
            _, labels = synthesize_clip(spec, 0, clip_index)
            assert np.all(labels[0][labels[1] == 1] == 1)

    def test_all_frames_fully_annotated(self):
        spec = CorpusSpec(seed=3, train_minutes=1, dev_minutes=1, test_minutes=1)
        _, labels = synthesize_clip(spec, 1, 0)
        assert set(np.unique(labels)) <= {0, 1}

    def test_amplitudes_bounded(self):
        spec = CorpusSpec(seed=9, train_minutes=1, dev_minutes=1, test_minutes=1)
        samples, _ = synthesize_clip(spec, 0, 0)
        assert np.abs(samples).max() <= 0.99 + 1e-9


class TestHarmonicStack:
    @staticmethod
    def _fresh_arrays(rng, n, f0, amps, vibrato):
        """The stack with fresh temporaries per harmonic, the reference for
        the reused-buffer version."""
        sr = SAMPLE_RATE
        t = np.arange(n) / sr
        drift_rate = rng.uniform(0.5, 2.0)
        drift = 1.0 + vibrato * np.sin(2 * np.pi * drift_rate * t + rng.uniform(0, 2 * np.pi))
        phase = 2 * np.pi * np.cumsum(f0 * drift) / sr
        sig = np.zeros(n)
        for k, a in enumerate(amps, start=1):
            if k * f0 >= sr / 2:
                break
            sig += a * np.sin(k * phase + rng.uniform(0, 2 * np.pi))
        return sig

    @pytest.mark.parametrize("f0, n_harm", [(4978.0, 1), (1000.0, 2), (3000.0, 5)])
    def test_bit_equal_to_fresh_temporaries(self, f0, n_harm):
        """One or two harmonics below Nyquist (3000 Hz has two) keep the ``np.sin`` loop."""
        amps = np.random.default_rng(1).random(n_harm)
        got = corpus._harmonic_stack(np.random.default_rng(2), 4001, f0, amps, 0.03)
        ref = self._fresh_arrays(np.random.default_rng(2), 4001, f0, amps, 0.03)
        assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("f0, n_harm", [(98.0, 28), (370.0, 9), (2000.0, 3)])
    def test_horner_within_1e_11_of_fresh_temporaries(self, f0, n_harm):
        amps = np.random.default_rng(1).random(n_harm)
        got = corpus._harmonic_stack(np.random.default_rng(2), 16001, f0, amps, 0.03)
        ref = self._fresh_arrays(np.random.default_rng(2), 16001, f0, amps, 0.03)
        assert got.dtype == ref.dtype and got.shape == ref.shape and got.flags.c_contiguous
        assert np.max(np.abs(got - ref)) <= 1e-11

    @pytest.mark.parametrize("f0, n_harm", [(98.0, 28), (4978.0, 1), (1000.0, 2), (98.0, 200)])
    def test_generator_state_equals_the_reference(self, f0, n_harm):
        """One draw per harmonic below Nyquist, in harmonic order, on both paths."""
        amps = np.ones(n_harm)
        ours, ref = np.random.default_rng(5), np.random.default_rng(5)
        corpus._harmonic_stack(ours, 100, f0, amps, 0.03)
        self._fresh_arrays(ref, 100, f0, amps, 0.03)
        assert ours.bit_generator.state == ref.bit_generator.state

    def test_clip_float32_bytes_move_in_few_samples_by_one_step(self, monkeypatch):
        """Against the per-harmonic ``np.sin`` and scipy's filter, a 10-s clip's
        float32 samples agree in all but 1e-4 of them, and a moved one is off
        by at most one float32 step at the clip's peak (near zero, that can be
        many steps at the sample's own magnitude)."""
        from scipy.signal import lfilter
        spec = CorpusSpec(seed=4242, train_minutes=1, dev_minutes=1, test_minutes=1)
        ours, labels = synthesize_clip(spec, 0, 7)
        monkeypatch.setattr(corpus, "_harmonic_stack", self._fresh_arrays)
        monkeypatch.setattr(corpus, "one_pole", lambda x, rho: lfilter([1.0], [1.0, -rho], x))
        ref, ref_labels = synthesize_clip(spec, 0, 7)
        np.testing.assert_array_equal(labels, ref_labels)
        a, b = ours.astype(np.float32), ref.astype(np.float32)
        moved = a != b
        assert moved.sum() <= 1e-4 * len(a)
        step = np.spacing(np.abs(b).max())
        assert np.all(np.abs(a[moved] - b[moved]) <= step)


class TestOnePole:
    @pytest.mark.parametrize("n", [0, 1, 2, corpus.POLE_BLOCK - 1, corpus.POLE_BLOCK,
                                   corpus.POLE_BLOCK + 1, 16000])
    def test_matches_lfilter_within_bound(self, n):
        """Within 1e-14 of the peak of scipy's output; the blocks sum in
        another order than the per-sample recursion."""
        from scipy.signal import lfilter
        rng = np.random.default_rng(n)
        for rho in [-0.8, 0.0, 0.8, *rng.uniform(-0.3, 0.6, size=4)]:
            x = rng.normal(size=n)
            y = one_pole(x, rho)
            ref = lfilter([1.0], [1.0, -rho], x)
            assert y.dtype == ref.dtype and y.shape == ref.shape
            assert np.all(np.abs(y - ref) <= 1e-14 * np.abs(ref).max(initial=0.0))

    @pytest.mark.parametrize("n", [0, 1, corpus.POLE_BLOCK + 1])
    def test_rho_zero_passes_the_input_through(self, n):
        x = np.random.default_rng(n).normal(size=n)
        assert one_pole(x, 0.0).tobytes() == x.tobytes()


class TestGenerateCorpus:
    def test_seeded_bytes_identical(self, tmp_path):
        spec = CorpusSpec(seed=21, train_minutes=0.5, dev_minutes=0.5, test_minutes=0.5,
                          clip_seconds=5.0)
        m1 = generate_corpus(spec, tmp_path / "a")
        m2 = generate_corpus(spec, tmp_path / "b")
        assert (tmp_path / "a" / "manifest.csv").read_text() == (tmp_path / "b" / "manifest.csv").read_text()
        for row in m1.rows:
            assert (tmp_path / "a" / row.audio).read_bytes() == (tmp_path / "b" / row.audio).read_bytes()
            assert (tmp_path / "a" / row.labels).read_bytes() == (tmp_path / "b" / row.labels).read_bytes()

    def test_manifest_round_trip_and_splits(self, small_corpus):
        _, manifest = small_corpus
        loaded = load_manifest(manifest.root / "manifest.csv")
        assert len(loaded.rows) == len(manifest.rows)
        ids = {split: {r.clip_id for r in loaded.for_split(split)}
               for split in ("train", "dev", "test")}
        assert not (ids["train"] & ids["dev"]) and not (ids["train"] & ids["test"])
        assert all(loaded.resolve(r.audio).exists() for r in loaded.rows)

    def test_missing_file_rejected(self, tmp_path):
        spec = CorpusSpec(seed=2, train_minutes=0.5, dev_minutes=0.5, test_minutes=0.5,
                          clip_seconds=5.0)
        manifest = generate_corpus(spec, tmp_path)
        (tmp_path / manifest.rows[0].audio).unlink()
        with pytest.raises(FormatError, match="missing"):
            load_manifest(tmp_path / "manifest.csv")

    def test_event_rate_statistics(self, tmp_path):
        # deterministic event counts per clip leave only duration variance,
        # which is well inside 10 percent over ten minutes
        spec = CorpusSpec(seed=11, train_minutes=10, dev_minutes=0.5, test_minutes=0.5)
        manifest = generate_corpus(spec, tmp_path / "stats")
        totals = {name: 0.0 for name in CLASS_NAMES}
        for row in manifest.for_split("train"):
            frames, hop = read_label_file(manifest.resolve(row.labels))
            for i, name in enumerate(CLASS_NAMES):
                totals[name] += float((frames[i] == 1).sum()) * hop
        for name in CLASS_NAMES:
            expected = spec.expected_class_seconds(name, 10.0)
            assert abs(totals[name] - expected) / expected < 0.10, (name, totals[name], expected)

    def test_parallel_generation_identical(self, tmp_path, monkeypatch):
        spec = CorpusSpec(seed=4, train_minutes=0.5, dev_minutes=0.5, test_minutes=0.5,
                          clip_seconds=5.0)
        monkeypatch.setattr(parallel, "workers", lambda: 1)
        m1 = generate_corpus(spec, tmp_path / "serial")
        monkeypatch.setattr(parallel, "workers", lambda: 2)
        m2 = generate_corpus(spec, tmp_path / "parallel")
        assert m1.rows == m2.rows
        for r in m1.rows:
            for rel in (r.audio, r.labels):
                assert (tmp_path / "serial" / rel).read_bytes() == (tmp_path / "parallel" / rel).read_bytes()
        assert (tmp_path / "serial" / "manifest.csv").read_bytes() == \
            (tmp_path / "parallel" / "manifest.csv").read_bytes()

    @pytest.mark.skipif(parallel._blas_threads() is None or len(os.sched_getaffinity(0)) < 2,
                        reason="needs two usable CPUs and an OpenBLAS thread-count setter")
    def test_failed_clip_write_leaves_no_corpus(self, tmp_path, monkeypatch, capsys):
        """One clip's WAV write fails while the other thread writes a clip:
        ``gen-data`` exits 1 and its clean-up leaves no ``corpus/``."""
        monkeypatch.setenv("NMFSEG_THREADS", "2")
        other_writing = threading.Event()
        real_save = corpus.save_audio

        def save_audio(clip, path):
            if Path(path).name == "train-0000.wav":
                assert other_writing.wait(timeout=30)
                raise OSError("disk full")
            other_writing.set()
            real_save(clip, path)

        monkeypatch.setattr(corpus, "save_audio", save_audio)
        cfg = tmp_path / "small.cfg"
        cfg.write_text("train_minutes = 0.25\ndev_minutes = 0.25\ntest_minutes = 0.25\nclip_seconds = 3\n")
        out = tmp_path / "run"
        assert run_command(["gen-data", "--config", str(cfg), "--out", str(out)]) == 1
        assert "disk full" in capsys.readouterr().err
        assert not (out / "corpus").exists()


class TestUndecodableText:
    """A byte that is not UTF-8 text raises FormatError naming the file."""

    def test_label_file(self, tmp_path):
        p = tmp_path / "x.lab"
        write_label_file(p, np.zeros((2, 3), dtype=np.int8), hop=0.02)
        blob = bytearray(p.read_bytes())
        blob[-2] = 0xFF
        p.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="not UTF-8") as info:
            read_label_file(p)
        assert str(p) in str(info.value)

    def test_manifest(self, tmp_path):
        p = tmp_path / "manifest.csv"
        p.write_bytes(b"id,audio,features,labels,split\nclip\xff,a.wav,,a.lab,train\n")
        with pytest.raises(FormatError, match="not UTF-8") as info:
            load_manifest(p)
        assert str(p) in str(info.value)


_LABEL_BLOB = (b"FRAMES 0.020000 4\n"
               + b"".join(f"{a} {b} {c} -\n".encode() for a, b, c in [(0, 1, 0), (1, 1, 1), (0, 0, 1)]))


@pytest.fixture(scope="module")
def manifest_dir(tmp_path_factory):
    """A manifest blob and the files its rows name; only their existence is read."""
    root = tmp_path_factory.mktemp("flip")
    rows = []
    for i, split in enumerate(("train", "dev", "test")):
        for rel in (f"audio/c{i}.wav", f"labels/c{i}.lab"):
            (root / rel).parent.mkdir(exist_ok=True)
            (root / rel).write_bytes(b"")
        rows.append(ManifestRow(f"c{i}", f"audio/c{i}.wav", "", f"labels/c{i}.lab", split))
    save_manifest(Manifest(rows=rows, root=root), root / "manifest.csv")
    return root, (root / "manifest.csv").read_bytes()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(pos=st.integers(0, len(_LABEL_BLOB) - 1), mask=st.integers(1, 255))
def test_label_single_byte_flip_parses_or_raises_nmfseg_error(tmp_path_factory, pos, mask):
    """A flipped byte may still parse (another symbol, hop or blank line), but
    nothing outside ``NmfsegError`` escapes: no ``UnicodeDecodeError``."""
    blob = bytearray(_LABEL_BLOB)
    blob[pos] ^= mask
    p = tmp_path_factory.getbasetemp() / "flipped.lab"
    p.write_bytes(bytes(blob))
    try:
        frames, _ = read_label_file(p)
    except NmfsegError:
        return
    assert set(np.unique(frames)) <= {0, 1, UNANNOTATED}


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(pos=st.integers(0, 200), mask=st.integers(1, 255))
def test_manifest_single_byte_flip_parses_or_raises_nmfseg_error(manifest_dir, pos, mask):
    root, original = manifest_dir
    blob = bytearray(original)
    blob[pos % len(blob)] ^= mask
    p = root / "flipped.csv"
    p.write_bytes(bytes(blob))
    try:
        manifest = load_manifest(p)
    except NmfsegError:
        return
    assert all((root / r.audio).exists() and (root / r.labels).exists() for r in manifest.rows)
