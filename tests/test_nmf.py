"""Sparse NMF: multiplicative updates, training behavior, and the NSD1 format."""

import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nmfseg import nmf
from nmfseg.errors import ConfigError, DimensionError, FormatError
from nmfseg.nmf import (DENOM_GUARD, Dictionary, SnmfConfig, dictionary_from_bytes,
                        dictionary_to_bytes, load_dictionary, nmf_loss,
                        normalize_columns, reconstruct, save_dictionary,
                        snmf_objective, train_snmf, update_h, update_w)

TINY = np.finfo(np.float64).tiny


class TestUpdateH:
    def test_scalar_fixed_point(self):
        h = update_h(np.array([[4.0]]), np.array([[2.0]]), np.array([[1.0]]), mu=0.0)
        assert h[0, 0] == pytest.approx(2.0, rel=1e-9)

    def test_scalar_with_sparsity(self):
        h = update_h(np.array([[4.0]]), np.array([[2.0]]), np.array([[1.0]]), mu=4.0)
        assert h[0, 0] == pytest.approx(1.0, rel=1e-9)

    def test_zero_entries_absorbing(self):
        rng = np.random.default_rng(0)
        x = rng.random((6, 8))
        w = rng.random((6, 4))
        h = rng.random((4, 8))
        h[2, 5] = 0.0
        out = update_h(x, w, h, mu=0.1)
        assert out[2, 5] == 0.0

    def test_objective_non_increasing_single_step(self):
        rng = np.random.default_rng(1)
        for mu in (0.0, 0.1, 1.0):
            x = rng.random((12, 20))
            w = rng.random((12, 5))
            h = rng.random((5, 20))
            before = snmf_objective(x, w, h, mu)
            after = snmf_objective(x, w, update_h(x, w, h, mu), mu)
            assert after <= before * (1 + 1e-9)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            update_h(np.ones((3, 4)), np.ones((3, 2)), np.ones((5, 4)), mu=0.0)

    def test_nan_survives_the_flush(self):
        h = update_h(np.array([[4.0]]), np.array([[2.0]]), np.array([[np.nan]]), mu=0.0)
        assert np.isnan(h[0, 0])


class TestUpdateW:
    def test_exact_factorization_is_fixed_point(self):
        rng = np.random.default_rng(2)
        w = rng.random((10, 4))
        h = rng.random((4, 16))
        x = w @ h
        w2 = update_w(x, w, h)
        assert np.max(np.abs(w2 - w)) / np.max(w) < 1e-6

    def test_zero_entries_absorbing(self):
        rng = np.random.default_rng(3)
        x = rng.random((6, 8))
        w = rng.random((6, 4))
        w[1, 2] = 0.0
        out = update_w(x, w, rng.random((4, 8)))
        assert out[1, 2] == 0.0

    def test_normalization_contract(self):
        rng = np.random.default_rng(4)
        w = rng.random((9, 5)) * 3.0
        h = rng.random((5, 7))
        w2, h2 = normalize_columns(w, h)
        np.testing.assert_allclose(np.linalg.norm(w2, axis=0), 1.0, atol=1e-6)
        np.testing.assert_allclose(w2 @ h2, w @ h, rtol=1e-12)


class TestReconstructAndLoss:
    def test_hand_product(self):
        x = reconstruct(np.array([[1.0], [0.0]]), np.array([[3.0, 5.0]]))
        np.testing.assert_array_equal(x, [[3.0, 5.0], [0.0, 0.0]])

    def test_zero_activations(self):
        rng = np.random.default_rng(5)
        out = reconstruct(rng.random((6, 3)), np.zeros((3, 9)))
        assert np.all(out == 0.0)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(6)
        for f, k, t in ((8, 4, 6), (64, 256, 256)):
            w = rng.random((f, k))
            h = rng.random((k, t))
            got = reconstruct(w, h)
            oracle = np.empty((f, t))
            for i in range(f):
                for j in range(t):
                    oracle[i, j] = float(np.sum(w[i] * h[:, j]))
            np.testing.assert_allclose(got, oracle, rtol=1e-6)

    def test_loss_identity_and_single_entry(self):
        rng = np.random.default_rng(7)
        w = rng.random((5, 3))
        h = rng.random((3, 4))
        assert nmf_loss(w @ h, w, h) == pytest.approx(0.0, abs=1e-18)
        assert nmf_loss(np.array([[0.0]]), np.array([[3.0]]), np.array([[1.0]])) == 9.0

    def test_loss_matches_scalar_oracle(self):
        rng = np.random.default_rng(8)
        x = rng.random((5, 6))
        w = rng.random((5, 2))
        h = rng.random((2, 6))
        wh = w @ h
        oracle = sum((x[i, j] - wh[i, j]) ** 2 for i in range(5) for j in range(6))
        assert nmf_loss(x, w, h) == pytest.approx(oracle, rel=1e-12)


class TestTrainSnmf:
    def test_low_rank_recovery(self):
        rng = np.random.default_rng(9)
        x = rng.random((64, 4)) @ rng.random((4, 256))
        d, h = train_snmf(x, SnmfConfig(k=4, mu=0.0, max_iters=500, rel_tol=1e-9, seed=0))
        err = nmf_loss(x, d.values, h.values) / np.sum(x * x)
        assert err < 0.01

    def test_sparsity_reduces_activation_mass(self):
        rng = np.random.default_rng(10)
        x = rng.random((32, 100))
        _, h0 = train_snmf(x, SnmfConfig(k=8, mu=0.0, max_iters=200, seed=3))
        _, h1 = train_snmf(x, SnmfConfig(k=8, mu=0.1, max_iters=200, seed=3))
        assert np.abs(h1.values).mean() < np.abs(h0.values).mean()

    def test_all_zero_input(self):
        d, h = train_snmf(np.zeros((10, 12)), SnmfConfig(k=3, mu=0.1, max_iters=50, seed=1))
        assert np.all(h.values == 0.0)
        assert d.objective_trace == [0.0]
        np.testing.assert_allclose(np.linalg.norm(d.values, axis=0), 1.0, atol=1e-6)

    def test_monotone_objective_trace(self):
        rng = np.random.default_rng(11)
        for seed in range(5):
            x = rng.random((20, 30))
            for mu in (0.0, 0.1):
                d, _ = train_snmf(x, SnmfConfig(k=6, mu=mu, max_iters=200, rel_tol=1e-12, seed=seed))
                tr = np.asarray(d.objective_trace)
                assert np.all(tr[1:] <= tr[:-1] * (1 + 1e-9))

    def test_nonnegativity_preserved(self):
        rng = np.random.default_rng(12)
        x = rng.random((16, 25))
        d, h = train_snmf(x, SnmfConfig(k=5, mu=0.05, max_iters=100, seed=7))
        assert np.all(d.values >= 0)
        assert np.all(h.values >= 0)

    def test_few_frames_warns(self):
        rng = np.random.default_rng(13)
        with pytest.warns(UserWarning, match="frames"):
            train_snmf(rng.random((8, 3)), SnmfConfig(k=5, mu=0.0, max_iters=5, seed=0))

    def test_deterministic(self):
        rng = np.random.default_rng(14)
        x = rng.random((12, 18))
        cfg = SnmfConfig(k=4, mu=0.1, max_iters=60, seed=42)
        d1, h1 = train_snmf(x, cfg)
        d2, h2 = train_snmf(x, cfg)
        np.testing.assert_array_equal(d1.values, d2.values)
        np.testing.assert_array_equal(h1.values, h2.values)


def _reference_snmf(x, cfg):
    """train_snmf's loop spelled out with the public single-step functions.

    Each update forms its own products and every trace point comes from the
    definitional ``snmf_objective``.  Returns normalized (W, H) and the trace.
    """
    rng = np.random.default_rng(cfg.seed)
    w = 1.0 - rng.random((x.shape[0], cfg.k))
    h = 1.0 - rng.random((cfg.k, x.shape[1]))
    w, h = normalize_columns(w, h)
    trace = [snmf_objective(x, w, h, cfg.mu)]
    for _ in range(cfg.max_iters):
        h = update_h(x, w, h, cfg.mu)
        w = update_w(x, w, h)
        trace.append(snmf_objective(x, w, h, cfg.mu))
        if abs(trace[-2] - trace[-1]) / trace[-2] < cfg.rel_tol:
            break
    w, h = normalize_columns(w, h)
    return w, h, trace


class TestSharedProductLoop:
    """train_snmf shares W^T W, X H^T and H H^T and records a Gram-form
    objective; the iterates must not change and the trace must match the
    definition."""

    @staticmethod
    def _matrix(strided):
        rng = np.random.default_rng(16)
        return rng.random((30, 360))[:, ::3] if strided else rng.random((30, 120))

    @pytest.mark.parametrize("strided", [False, True])
    @pytest.mark.parametrize("mu", [0.0, 0.1])
    def test_matches_reference_loop_to_the_cap(self, strided, mu):
        x = self._matrix(strided)
        assert x.flags.c_contiguous != strided
        cfg = SnmfConfig(k=6, mu=mu, max_iters=60, rel_tol=1e-12, seed=4)
        d, h = train_snmf(x, cfg)
        w_ref, h_ref, trace_ref = _reference_snmf(x, cfg)
        np.testing.assert_array_equal(d.values, w_ref)
        np.testing.assert_array_equal(h.values, h_ref)
        assert len(d.objective_trace) == len(trace_ref) == 61
        np.testing.assert_allclose(d.objective_trace, trace_ref, rtol=1e-12, atol=0)
        assert not d.stopped_on_tol
        assert d.dead_columns_reset == 0

    def test_stops_on_tolerance_at_the_reference_iteration(self):
        x = self._matrix(True)
        cfg = SnmfConfig(k=6, mu=0.1, max_iters=1000, rel_tol=1e-4, seed=4)
        d, h = train_snmf(x, cfg)
        w_ref, h_ref, trace_ref = _reference_snmf(x, cfg)
        np.testing.assert_array_equal(d.values, w_ref)
        np.testing.assert_array_equal(h.values, h_ref)
        assert len(d.objective_trace) == len(trace_ref) < cfg.max_iters + 1
        np.testing.assert_allclose(d.objective_trace, trace_ref, rtol=1e-12, atol=0)
        assert d.stopped_on_tol
        assert d.dead_columns_reset == 0

    def test_shared_products_give_the_same_step(self):
        rng = np.random.default_rng(17)
        x = rng.random((12, 20))
        w = rng.random((12, 5))
        h = rng.random((5, 20))
        np.testing.assert_array_equal(update_h(x, w, h, 0.1, wtw=w.T @ w), update_h(x, w, h, 0.1))
        np.testing.assert_array_equal(update_w(x, w, h, xht=x @ h.T, hht=h @ h.T), update_w(x, w, h))

    def test_dead_columns_are_counted(self):
        # a penalty this large underflows H to zero in two steps, so every
        # W column decays to zero on the next dictionary update
        x = np.random.default_rng(18).random((10, 12))
        d, h = train_snmf(x, SnmfConfig(k=3, mu=1e200, max_iters=50, seed=0))
        assert d.dead_columns_reset == 3
        assert d.stopped_on_tol
        np.testing.assert_allclose(d.values, 1.0 / np.sqrt(10))
        assert np.all(h.values == 0.0)


def _block_matrix(seed=0, f=12, t=48, blocks=3):
    """Frames that each fill one band of bins: a component tuned to one band
    gets almost no support from the others' frames, so its activations there
    shrink geometrically and pass through the subnormal range."""
    rng = np.random.default_rng(seed)
    x = np.zeros((f, t))
    width = f // blocks
    for j in range(t):
        band = j % blocks
        x[band * width:(band + 1) * width, j] = rng.random(width) + 0.5
    return x


def _unflushed_snmf(x, cfg):
    """train_snmf's float64 loop, shared products and Gram-form trace
    included, with no flush of subnormal activations.  Returns normalized
    (W, H), the trace, and the most subnormal H entries after any update."""
    rng = np.random.default_rng(cfg.seed)
    w = 1.0 - rng.random((x.shape[0], cfg.k))
    h = 1.0 - rng.random((cfg.k, x.shape[1]))
    w, h = normalize_columns(w, h)
    trace = [snmf_objective(x, w, h, cfg.mu)]
    xx = float(np.sum(x * x))
    wtw = w.T @ w
    most_subnormal = 0
    for _ in range(cfg.max_iters):
        h = h * (w.T @ x) / (wtw @ h + cfg.mu + DENOM_GUARD)
        most_subnormal = max(most_subnormal, int(np.sum((h > 0) & (h < TINY))))
        xht = x @ h.T
        hht = h @ h.T
        w = w * xht / (w @ hht + DENOM_GUARD)
        wtw = w.T @ w
        fit = xx - 2.0 * float(np.sum(w * xht)) + float(np.sum(wtw * hht))
        trace.append(0.5 * fit + cfg.mu * float(np.sum(h)))
        if abs(trace[-2] - trace[-1]) / trace[-2] < cfg.rel_tol:
            break
    w, h = normalize_columns(w, h)
    return w, h, trace, most_subnormal


class TestSubnormalFlush:
    """update_h flushes activations below the smallest normal float to zero;
    the iterates and the trace must not move while every H row lives."""

    CFG = SnmfConfig(k=6, mu=0.1, max_iters=60, rel_tol=1e-12, seed=0)

    def test_no_update_leaves_a_subnormal_entry(self, monkeypatch):
        # the case exercises the flush: without it, H does turn subnormal
        *_, most_subnormal = _unflushed_snmf(_block_matrix(), self.CFG)
        assert most_subnormal > 0
        seen = []

        def recording_update_h(*args, **kwargs):
            h = update_h(*args, **kwargs)
            seen.append(int(np.sum((h > 0) & (h < TINY))))
            return h

        monkeypatch.setattr(nmf, "update_h", recording_update_h)
        train_snmf(_block_matrix(), self.CFG)
        assert len(seen) == self.CFG.max_iters
        assert sum(seen) == 0

    def test_w_and_trace_bit_equal_to_the_unflushed_loop(self):
        x = _block_matrix()
        d, _ = train_snmf(x, self.CFG)
        w_ref, _, trace_ref, _ = _unflushed_snmf(x, self.CFG)
        assert d.dead_columns_reset == 0
        np.testing.assert_array_equal(d.values, w_ref)
        assert d.objective_trace == trace_ref

    def test_a_row_that_turns_wholly_subnormal_is_a_counted_dead_column(self):
        # mu = 1e308 scales the first update's activations to about 1e-308,
        # so row 0 (largest entry 2.17e-308) lands wholly below the smallest
        # normal float while the other rows keep normal entries
        x = 2.0 * np.random.default_rng(19).random((8, 6))
        cfg = SnmfConfig(k=4, mu=1e308, max_iters=1, rel_tol=1e-12, seed=2)
        d, h = train_snmf(x, cfg)
        assert d.dead_columns_reset == 1
        np.testing.assert_allclose(d.values[:, 0], 1.0 / np.sqrt(8))
        assert np.all(h.values[0] == 0.0) and np.all(np.any(h.values[1:] > 0, axis=1))
        # without the flush the row stays subnormal and its column is
        # normalized from values near 1e-297 instead of being reset
        w_ref, h_ref, _, most_subnormal = _unflushed_snmf(x, cfg)
        assert most_subnormal > 0 and np.all(h_ref[0] < TINY)
        assert np.all(w_ref[:, 0] > 0)


def test_sparse_nmf_demo_reports_monotone_traces():
    """The demo's near-exact rank-5 input checks monotonicity to 1e-12
    absolute, so it catches rounding drift in the recorded objective."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src"), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, str(root / "demos" / "02_sparse_nmf.py")], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.count("objective non-increasing at every iteration: True") == 2, out.stdout


class TestSnmfConfig:
    @pytest.mark.parametrize("field, value", [
        ("k", 0), ("mu", float("nan")), ("mu", -0.1), ("mu", float("inf")), ("max_iters", -5),
        ("max_iters", 0), ("rel_tol", 0.0), ("rel_tol", float("nan")), ("seed", -1),
    ])
    def test_value_outside_range_rejected(self, field, value):
        with pytest.raises(ConfigError, match=f"{field} must be"):
            SnmfConfig(**{field: value})


class TestDictionaryFile:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(15)
        w, _ = normalize_columns(rng.random((7, 3)).astype(np.float32).astype(np.float64),
                                 np.ones((3, 1)))
        d = Dictionary(values=np.asarray(w, dtype=np.float32), mu=0.25, seed=99)
        p = tmp_path / "d.nsd"
        save_dictionary(d, p)
        back = load_dictionary(p)
        np.testing.assert_allclose(back.values, d.values, rtol=1e-6)
        assert back.mu == 0.25
        assert back.seed == 99

    def test_byte_layout(self):
        d = Dictionary(values=np.eye(2), mu=0.5, seed=-3)
        blob = dictionary_to_bytes(d)
        assert blob[:4] == b"NSD1"
        assert len(blob) == 4 + 8 + 4 * 4 + 16
        back = dictionary_from_bytes(blob)
        np.testing.assert_array_equal(back.values, np.eye(2))
        assert back.seed == -3

    def test_bad_magic(self):
        with pytest.raises(FormatError, match="magic"):
            dictionary_from_bytes(b"ZZZZ" + bytes(40))

    def test_truncated(self):
        d = Dictionary(values=np.eye(3))
        with pytest.raises(FormatError):
            dictionary_from_bytes(dictionary_to_bytes(d)[:-4])

    @pytest.mark.parametrize("f, k", [(0, 3), (4, 0), (0, 0)])
    def test_zero_dimension_rejected(self, f, k):
        blob = b"NSD1" + struct.pack("<II", f, k) + bytes(4 * f * k) + struct.pack("<dq", 0.1, 0)
        with pytest.raises(FormatError, match="zero dimension"):
            dictionary_from_bytes(blob)

    @pytest.mark.parametrize("bad, match", [(float("nan"), "non-finite"), (float("inf"), "non-finite"),
                                            (-0.5, "negative")])
    def test_bad_entry_rejected(self, bad, match):
        blob = bytearray(dictionary_to_bytes(Dictionary(values=np.eye(3))))
        struct.pack_into("<f", blob, 12 + 4 * 4, bad)
        with pytest.raises(FormatError, match=match):
            dictionary_from_bytes(bytes(blob))


_NSD1 = dictionary_to_bytes(Dictionary(
    values=normalize_columns(np.random.default_rng(20).random((5, 3)), np.ones((3, 1)))[0],
    mu=0.1, seed=7))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(pos=st.integers(0, len(_NSD1) - 1), mask=st.integers(1, 255))
def test_nsd1_single_byte_flip_parses_or_raises_format_error(pos, mask):
    """A flipped byte may still parse (a value that stays finite and
    non-negative, or a footer field), but nothing other than FormatError
    escapes: no struct.error, IndexError or bare ValueError."""
    blob = bytearray(_NSD1)
    blob[pos] ^= mask
    try:
        d = dictionary_from_bytes(bytes(blob))
    except FormatError:
        return
    assert np.all(np.isfinite(d.values)) and np.all(d.values >= 0)


def test_nsd1_every_truncation_raises_format_error():
    for length in range(len(_NSD1)):
        with pytest.raises(FormatError):
            dictionary_from_bytes(_NSD1[:length])
