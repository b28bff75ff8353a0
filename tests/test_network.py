"""Encoder architecture: initialization, forward contract, checkpoint format."""

import contextlib
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_views_of_flat, make_tiny_model, named_arrays
from nmfseg import network, parallel
from nmfseg.errors import DimensionError, FormatError, NmfsegError, NumericError
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
        lay = cache["layout"]
        assert np.array_equal(h, lay.to_batch(cache["h_flat"]))
        assert np.array_equal(logits, lay.to_batch(cache["logits_flat"]))

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


# the longest T whose guarded columns (T + 2P) fit in one encode pass
_ONE_PASS_FRAMES = network.ENCODE_COLUMNS - 2 * max(network.DEFAULT_DILATIONS)


def _counting_forward_cache(monkeypatch) -> list:
    """Patch ``network._forward_cache`` to record each call's batch shape."""
    calls, forward_cache = [], network._forward_cache

    def counting(model, s, *args, **kwargs):
        calls.append(s.shape)
        return forward_cache(model, s, *args, **kwargs)

    monkeypatch.setattr(network, "_forward_cache", counting)
    return calls


def _one_pass(model, s):
    """H and logits of one ``_forward_cache`` pass over the whole batch."""
    out = network._forward_cache(model, s, keep=False)
    return out["layout"].to_batch(out["h_flat"]), out["layout"].to_batch(out["logits_flat"])


class TestEncodePieces:
    """``encode`` runs passes of at most ``ENCODE_COLUMNS`` guarded columns,
    and gives the bytes of one pass over the whole batch."""

    @pytest.mark.parametrize("serial", [False, True], ids=["blas-default", "blas-1"])
    @pytest.mark.parametrize("frames, passes", [(_ONE_PASS_FRAMES - 1, 1), (_ONE_PASS_FRAMES, 1),
                                                (_ONE_PASS_FRAMES + 1, 2), (3 * network.ENCODE_COLUMNS, 4)])
    def test_time_chunks_equal_one_pass(self, monkeypatch, frames, passes, serial):
        """A sample too long for one pass is cut into chunks that carry 93
        frames of context on either side; their core frames are the one
        pass's, bit for bit, at the default and at one BLAS thread."""
        model, s, _ = _desk_model_and_batch(1, frames)
        with parallel.serial_blas() if serial else contextlib.nullcontext():
            ref_h, ref_logits = _one_pass(model, s)
            calls = _counting_forward_cache(monkeypatch)
            h, logits = encode(model, s)
        assert len(calls) == passes
        assert all(shape[2] + 2 * max(model.dilations) <= network.ENCODE_COLUMNS for shape in calls)
        assert h.tobytes() == ref_h.tobytes() and logits.tobytes() == ref_logits.tobytes()

    def test_groups_equal_one_pass(self, monkeypatch):
        """Two 2000-frame samples fill a pass, so a batch of three is two groups."""
        model, s, _ = _desk_model_and_batch(3, 2000)
        ref_h, ref_logits = _one_pass(model, s)
        calls = _counting_forward_cache(monkeypatch)
        h, logits = encode(model, s)
        assert [shape[0] for shape in calls] == [2, 1]
        assert h.tobytes() == ref_h.tobytes() and logits.tobytes() == ref_logits.tobytes()


def _desk_model_and_batch(batch: int, frames: int):
    """A float32 model at desk shape (D = 80, K = 64, C = 4, 64 channels), a
    (B, D, T) float32 batch, and the bytes of one C x N float32 array."""
    model = init_model(80, 64, 4, seed=1)
    model.load_parameters(dict(model.parameters()), dtype=np.float32)
    s = np.random.default_rng(batch).normal(-11.5, 4.0, size=(batch, 80, frames)).astype(np.float32)
    n = batch * (frames + 2 * max(model.dilations))
    return model, s, model.channels * n * 4


def _peak_units(fn, unit: int) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / unit
    finally:
        tracemalloc.stop()


class TestForwardMemory:
    """Traced peaks, in units of one C x N float32 array."""

    def test_encode_holds_five_and_a_half_arrays(self):
        """The flat input (D/C of a unit), which then holds the tap scratch,
        the residual stream, two layer buffers and the skip sum: 5.3 measured
        at B = 1, T = 6000, against 6.3 for the inline loop it replaced, which
        allocated each layer's output and tap scratch afresh."""
        model, s, unit = _desk_model_and_batch(1, 6000)
        peak = _peak_units(lambda: encode(model, s), unit)
        assert peak <= 5.5, peak

    def test_encode_memory_does_not_grow_with_t(self):
        """Beyond the H and logits it returns, ``encode`` at T = 60,000 peaks
        within 1.1 x its peak at T = 6,000: both run ``ENCODE_COLUMNS``-wide
        passes on one workspace."""
        peaks = {}
        for frames in (6000, 60000):
            model, s, _ = _desk_model_and_batch(1, frames)
            returned = (model.k + model.c) * frames * s.itemsize
            peaks[frames] = _peak_units(lambda: encode(model, s), 1) - returned
        assert peaks[60000] <= 1.1 * peaks[6000], peaks

    def test_training_cache_keeps_only_what_backward_reads(self):
        """22.3 measured at B = 8, T = 200; 25.4 while the cache also kept a
        standardized copy of the input, the head's pre-activation and the
        last block's output, which the backward pass never reads."""
        model, s, unit = _desk_model_and_batch(8, 200)
        peak = _peak_units(lambda: _forward_cache(model, s), unit)
        assert peak <= 23, peak
        assert "pre_out" not in _forward_cache(model, s)


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

    @pytest.mark.parametrize("field, value", [(0, 2 ** 31), (3, 2 ** 31), (0, 0), (6, 2 ** 32 - 1),
                                              (7, 2 ** 30), (5, 2 ** 32 - 1)])
    def test_forged_header_rejected_before_allocating(self, tmp_path, monkeypatch, field, value):
        """Header fields 0..6 are D, K, C, channels, kernel, blocks, #dilations;
        field 7 is the first dilation."""
        p = tmp_path / "m.nsm"
        save_model(make_tiny_model(seed=5), p)
        blob = bytearray(p.read_bytes())
        struct.pack_into("<I", blob, 4 + 4 * field, value)

        def no_alloc(*args, **kwargs):
            raise AssertionError("SegModel built from a forged header")

        monkeypatch.setattr(network, "SegModel", no_alloc)
        with pytest.raises(FormatError):
            model_from_bytes(bytes(blob))


@pytest.fixture(scope="module")
def tiny_blob(tmp_path_factory):
    p = tmp_path_factory.mktemp("nsm") / "m.nsm"
    save_model(make_tiny_model(seed=5), p)
    return p.read_bytes()


# header, dilation list and dictionary length, then the NSD1 header
_NSM1_HEAD = 32 + 4 * 5 + 8 + 12


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(pos=st.one_of(st.integers(0, _NSM1_HEAD + 16), st.integers(0, 20_000)), mask=st.integers(1, 255))
def test_single_byte_flip_loads_or_raises_nmfseg_error(tiny_blob, pos, mask):
    """A flipped byte may load (a parameter or dictionary value that stays
    finite) but never raises anything outside ``NmfsegError``: no
    ``struct.error``, ``IndexError``, bare ``ValueError`` or ``MemoryError``."""
    blob = bytearray(tiny_blob)
    blob[pos % len(blob)] ^= mask
    try:
        model_from_bytes(bytes(blob))
    except NmfsegError:
        pass


class TestParameterLayout:
    """One vector holds every parameter, in the order the README's NSM1 row gives."""

    def test_hand_packed_checkpoint_loads_by_name_and_saves_back(self, tmp_path):
        d, k, c, ch = 3, 2, 2, 4
        names = ["bneck_w", "bneck_b"]
        shapes = [(ch, d), (ch,)]
        for b in range(3):
            for l in range(5):
                names += [f"block{b}.conv{l}.w", f"block{b}.conv{l}.b"]
                shapes += [(ch, ch, 3), (ch,)]
        names += ["out_w", "out_b", "theta"]
        shapes += [(k, ch), (k,), (c, k)]
        values = np.arange(1, sum(math.prod(shape) for shape in shapes) + 1, dtype="<f4")  # all distinct
        blob = (b"NSM1" + struct.pack("<7I", d, k, c, ch, 3, 3, 5) + struct.pack("<5I", 1, 2, 4, 8, 16)
                + struct.pack("<Q", 0) + values.tobytes())

        model = model_from_bytes(blob)
        assert [name for name, _ in model.parameters()] == names
        off = 0
        for name, shape, arr in zip(names, shapes, named_arrays(model)):
            size = math.prod(shape)
            np.testing.assert_array_equal(arr, values[off:off + size].reshape(shape), err_msg=name)
            off += size
        p = tmp_path / "m.nsm"
        save_model(model, p)
        assert p.read_bytes() == blob

    @pytest.mark.parametrize("source", ["init_model", "load_model", "load_parameters"])
    def test_named_arrays_are_views_of_flat(self, tmp_path, source):
        model = make_tiny_model(seed=5)
        if source == "load_model":
            save_model(model, tmp_path / "m.nsm")
            model = load_model(tmp_path / "m.nsm")
        elif source == "load_parameters":
            model.load_parameters(dict(model.parameters()), dtype=np.float32)
        assert_views_of_flat(model)

    def test_gradient_vector_is_named_by_the_same_table(self):
        model = make_tiny_model(seed=5)
        grad = np.arange(model.parameter_count(), dtype=np.float64)
        for (name, g), (_, p) in zip(model.parameters(grad), model.parameters()):
            assert g.shape == p.shape and np.shares_memory(g, grad), name
        with pytest.raises(DimensionError):
            model.parameters(grad[1:])
