"""Encoder architecture: initialization, forward contract, checkpoint format."""

import struct

import numpy as np
import pytest

from conftest import make_tiny_model
from nmfseg import network
from nmfseg.errors import DimensionError, FormatError, NumericError
from nmfseg.evaluate import decide_frames
from nmfseg.network import (INPUT_CENTER, INPUT_SCALE, SegModel, _forward_cache, encode,
                            forward, init_model, load_model, model_from_bytes, save_model)
from nmfseg.nmf import Dictionary


class TestInit:
    def test_same_seed_bitwise_identical(self):
        a = init_model(80, 256, 4, seed=9)
        b = init_model(80, 256, 4, seed=9)
        for (na, pa), (nb, pb) in zip(a.parameters(), b.parameters()):
            assert na == nb
            np.testing.assert_array_equal(pa, pb)

    def test_theta_size(self):
        model = init_model(80, 256, 4, seed=0)
        assert model.theta.size == 1024

    def test_different_seeds_differ(self):
        a = init_model(16, 8, 4, seed=0)
        b = init_model(16, 8, 4, seed=1)
        assert any(not np.array_equal(pa, pb)
                   for (_, pa), (_, pb) in zip(a.parameters(), b.parameters()))

    def test_biases_zero_and_bounds(self):
        model = init_model(10, 6, 3, seed=2, channels=8)
        assert np.all(model.bneck_b == 0) and np.all(model.out_b == 0)
        assert np.abs(model.bneck_w).max() <= np.sqrt(1 / 10)
        assert np.abs(model.conv_w[0][0]).max() <= np.sqrt(1 / (8 * 3))
        assert np.abs(model.theta).max() <= np.sqrt(1 / 6)

    def test_parameter_count_depends_only_on_dims(self):
        a = init_model(12, 7, 3, seed=0)
        b = init_model(12, 7, 3, seed=99)
        assert a.parameter_count() == b.parameter_count()


def straight_line_forward(model, s):
    """Independent loop-based reimplementation of the forward pass."""
    s = (np.asarray(s, dtype=np.float64) - INPUT_CENTER) / INPUT_SCALE

    def conv1x1(x, w, b):
        return w @ x + b[:, None]

    def dconv(x, w, b, d):
        out_ch, _, _ = w.shape
        t_len = x.shape[1]
        y = np.zeros((out_ch, t_len))
        for o in range(out_ch):
            for t in range(t_len):
                acc = b[o]
                for j in range(3):
                    src = t + (j - 1) * d
                    if 0 <= src < t_len:
                        acc += float(w[o, :, j] @ x[:, src])
                y[o, t] = acc
        return y

    x = conv1x1(s, model.bneck_w, model.bneck_b)
    skip = np.zeros_like(x)
    for b in range(model.n_blocks):
        u = x.copy()
        v = u
        for l, d in enumerate(model.dilations):
            v = np.maximum(dconv(v, model.conv_w[b][l], model.conv_b[b][l], d), 0.0)
        x = u + v
        skip = skip + x
    h = np.maximum(conv1x1(skip, model.out_w, model.out_b), 0.0)
    return h, model.theta @ h


class TestForward:
    def test_zero_weights_give_zero_outputs(self):
        model = init_model(6, 5, 3, seed=0, channels=4)
        zeros = {name: np.zeros_like(arr) for name, arr in model.parameters()}
        model.load_parameters(zeros)
        h, logits = forward(model, np.random.default_rng(0).normal(size=(6, 9)))
        assert np.all(h.values == 0.0)
        assert np.all(logits == 0.0)

    def test_h_nonnegative(self):
        rng = np.random.default_rng(1)
        model = make_tiny_model()
        for _ in range(5):
            h, _ = forward(model, rng.normal(size=(8, 23)) * 5)
            assert h.values.min() >= 0.0

    def test_matches_straight_line_oracle(self):
        rng = np.random.default_rng(42)
        model = make_tiny_model(seed=3)
        for name, arr in model.parameters():
            if arr.ndim == 1:
                arr += rng.uniform(-0.2, 0.2, size=arr.shape)
        s = rng.normal(size=(8, 10))
        h, logits = forward(model, s)
        h_ref, logits_ref = straight_line_forward(model, s)
        np.testing.assert_allclose(h.values, h_ref, rtol=1e-6, atol=1e-9)
        np.testing.assert_allclose(logits, logits_ref, rtol=1e-6, atol=1e-9)

    def test_preserves_frame_count(self):
        rng = np.random.default_rng(2)
        model = make_tiny_model()
        for t in (1, 2, 3, 5, 17, 33, 200):
            h, logits = forward(model, rng.normal(size=(8, t)))
            assert h.values.shape == (12, t)
            assert logits.shape == (4, t)

    def test_dimension_mismatch(self):
        model = make_tiny_model()
        with pytest.raises(DimensionError):
            forward(model, np.zeros((9, 10)))


class TestEncode:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("batch", [1, 3])
    def test_equals_training_forward(self, dtype, batch):
        model = make_tiny_model(seed=4)
        model.load_parameters(dict(model.parameters()), dtype=dtype)
        s = np.random.default_rng(batch).normal(-11.5, 4.0, size=(batch, 8, 57)).astype(dtype)
        h, logits = encode(model, s)
        cache = _forward_cache(model, s)
        assert h.dtype == logits.dtype == dtype
        assert np.array_equal(h, cache["h"])
        assert np.array_equal(logits, cache["logits"])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_batched_equals_per_clip(self, dtype):
        model = make_tiny_model(seed=6)
        model.load_parameters(dict(model.parameters()), dtype=dtype)
        s = np.random.default_rng(7).normal(-11.5, 4.0, size=(5, 8, 50)).astype(dtype)
        h, logits = encode(model, s)
        for i in range(len(s)):
            h_i, logits_i = encode(model, s[i:i + 1])
            assert np.array_equal(h[i], h_i[0])
            assert np.array_equal(logits[i], logits_i[0])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            encode(make_tiny_model(), np.zeros((2, 9, 10)))


class TestPrecision:
    """A forward pass computes in the parameter dtype; checkpoints load float32."""

    def test_load_model_is_float32(self, tmp_path):
        p = tmp_path / "m.nsm"
        save_model(make_tiny_model(seed=5), p)
        model = load_model(p)
        assert all(arr.dtype == np.float32 for _, arr in model.parameters())
        h, logits = encode(model, np.zeros((2, 8, 11), dtype=np.float32))
        assert h.dtype == logits.dtype == np.float32

    def test_float64_input_computes_in_float32(self):
        model = make_tiny_model(seed=4)
        model.load_parameters(dict(model.parameters()), dtype=np.float32)
        s = np.random.default_rng(0).normal(-11.5, 4.0, size=(2, 8, 40))
        h, logits = encode(model, s)
        h32, logits32 = encode(model, s.astype(np.float32))
        assert h.dtype == logits.dtype == np.float32
        assert np.array_equal(h, h32) and np.array_equal(logits, logits32)
        h1, logits1 = forward(model, s[0])  # Activations widens H exactly
        assert logits1.dtype == np.float32
        assert np.array_equal(h1.values, h32[0]) and np.array_equal(logits1, logits32[0])

    def test_float32_matches_float64_at_long_t(self):
        """Same <f4-rounded parameters at desk shape and T = 6000: outputs agree
        within 64 float32 epsilons of the largest magnitude, and the decided
        frames on at least 99.9 %."""
        tol = 64 * np.finfo(np.float32).eps
        m64 = init_model(80, 64, 4, seed=1)
        rounded = {name: arr.astype(np.float32) for name, arr in m64.parameters()}
        m64.load_parameters(rounded)
        m32 = init_model(80, 64, 4, seed=1)
        m32.load_parameters(rounded, dtype=np.float32)
        s = np.random.default_rng(1).normal(-11.5, 4.0, size=(1, 80, 6000)).astype(np.float32)
        (h64, logits64), (h32, logits32) = encode(m64, s), encode(m32, s)
        assert h64.dtype == np.float64 and h32.dtype == np.float32
        np.testing.assert_allclose(h32, h64, rtol=0, atol=tol * np.abs(h64).max())
        np.testing.assert_allclose(logits32, logits64, rtol=0, atol=tol * np.abs(logits64).max())
        agree = np.mean(decide_frames(logits32[0], 0.5, 0.02).binary
                        == decide_frames(logits64[0], 0.5, 0.02).binary)
        assert agree >= 0.999, agree


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        model = make_tiny_model(seed=5)
        p = tmp_path / "m.nsm"
        save_model(model, p)
        back = load_model(p)
        assert (back.d, back.k, back.c, back.channels) == (8, 12, 4, 8)
        assert back.dilations == model.dilations
        for (_, a), (_, b) in zip(model.parameters(), back.parameters()):
            np.testing.assert_allclose(a, b, atol=1e-6)  # f32 storage
        np.testing.assert_allclose(back.w_ref.values, model.w_ref.values, atol=1e-7)

    def test_forward_equivalence_after_reload(self, tmp_path):
        rng = np.random.default_rng(3)
        model = make_tiny_model(seed=5)
        p = tmp_path / "m.nsm"
        save_model(model, p)
        back = load_model(p)
        s = rng.normal(size=(8, 14))
        h1, l1 = forward(model, s)
        h2, l2 = forward(back, s)
        np.testing.assert_allclose(l1, l2, atol=1e-4)

    def test_save_load_deterministic_bytes(self, tmp_path):
        model = make_tiny_model(seed=5)
        p1, p2 = tmp_path / "a.nsm", tmp_path / "b.nsm"
        save_model(model, p1)
        save_model(model, p2)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_parameter_rejected(self, tmp_path, bad):
        p = tmp_path / "m.nsm"
        save_model(make_tiny_model(seed=5), p)
        blob = bytearray(p.read_bytes())
        struct.pack_into("<f", blob, len(blob) - 4, bad)  # the last theta entry
        with pytest.raises(FormatError, match="non-finite"):
            model_from_bytes(bytes(blob))

    @pytest.mark.parametrize("bad", [float("nan"), 1e39])  # 1e39 overflows float32
    def test_save_refuses_non_finite(self, tmp_path, bad):
        model = make_tiny_model(seed=5)
        model.conv_w[1][2][0, 0, 0] = bad
        p = tmp_path / "m.nsm"
        with pytest.raises(NumericError, match="block1.conv2.w"), np.errstate(over="ignore"):
            save_model(model, p)
        assert not p.exists()

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "junk.nsm"
        p.write_bytes(b"JUNKJUNKJUNK" + bytes(64))
        with pytest.raises(FormatError):
            load_model(p)

    def test_without_dictionary(self, tmp_path):
        model = init_model(6, 5, 3, seed=1, channels=4)
        p = tmp_path / "nodict.nsm"
        save_model(model, p)
        back = load_model(p)
        assert back.w_ref is None

    def test_attach_dictionary_validates_k(self):
        model = init_model(6, 5, 3, seed=1, channels=4)
        with pytest.raises(DimensionError):
            model.attach_dictionary(Dictionary(values=np.full((9, 4), 0.5)))

    def test_every_truncation_rejected(self, tmp_path):
        p = tmp_path / "m.nsm"
        save_model(make_tiny_model(seed=5), p)
        blob = p.read_bytes()
        model_from_bytes(blob)
        for cut in range(len(blob)):
            with pytest.raises(FormatError):
                model_from_bytes(blob[:cut])
        with pytest.raises(FormatError):
            model_from_bytes(blob + b"\0")

    @pytest.mark.parametrize("bad", [float("nan"), -1.0])
    def test_bad_embedded_dictionary_rejected(self, tmp_path, bad):
        model = make_tiny_model(seed=5)
        p = tmp_path / "m.nsm"
        save_model(model, p)
        blob = bytearray(p.read_bytes())
        first_value = 32 + 4 * len(model.dilations) + 8 + 12  # header, dict length, NSD1 header
        struct.pack_into("<f", blob, first_value, bad)
        with pytest.raises(FormatError, match=r"\[dict\]"):
            model_from_bytes(bytes(blob))

    @pytest.mark.parametrize("field, value", [(0, 2 ** 31), (3, 2 ** 31), (0, 0), (6, 2 ** 32 - 1)])
    def test_forged_header_rejected_before_allocating(self, tmp_path, monkeypatch, field, value):
        """Header fields 0..6 are D, K, C, channels, kernel, blocks, #dilations."""
        p = tmp_path / "m.nsm"
        save_model(make_tiny_model(seed=5), p)
        blob = bytearray(p.read_bytes())
        struct.pack_into("<I", blob, 4 + 4 * field, value)

        def no_alloc(*args, **kwargs):
            raise AssertionError("init_model called on a forged header")

        monkeypatch.setattr(network, "init_model", no_alloc)
        with pytest.raises(FormatError):
            model_from_bytes(bytes(blob))
