"""Relevance extraction, binarization, and component counting."""

import numpy as np
import pytest

from nmfseg.errors import DimensionError
from nmfseg.explain import (RelevanceRecord, binarize, component_report,
                            component_spectrum, make_record, pool_time, relevance)
from nmfseg.nmf import Dictionary, normalize_columns


class TestPoolTime:
    def test_arithmetic_mean(self):
        z = pool_time(np.array([[1.0, 3.0], [0.0, 2.0]]))
        np.testing.assert_array_equal(z, [2.0, 1.0])

    def test_zeros(self):
        assert np.all(pool_time(np.zeros((5, 7))) == 0.0)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(0)
        h = rng.random((256, 200))
        z = pool_time(h)
        oracle = np.array([sum(h[k, t] for t in range(200)) / 200 for k in range(256)])
        np.testing.assert_allclose(z, oracle, rtol=1e-12)

    def test_empty_time_axis_rejected(self):
        with pytest.raises(DimensionError):
            pool_time(np.zeros((4, 0)))


class TestRelevance:
    def test_elementwise_product(self):
        r = relevance(np.array([2.0, 1.0]), np.array([0.5, -1.0]))
        np.testing.assert_array_equal(r, [1.0, -1.0])

    def test_zero_activations(self):
        assert np.all(relevance(np.zeros(6), np.ones(6)) == 0.0)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(1)
        z = rng.random(256)
        row = rng.normal(size=256)
        r = relevance(z, row)
        oracle = np.array([z[k] * row[k] for k in range(256)])
        np.testing.assert_array_equal(r, oracle)

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            relevance(np.zeros(4), np.zeros(5))


class TestBinarize:
    def test_two_point_case(self):
        r_norm, b = binarize(np.array([1.0, -1.0]), tau=0.5)
        np.testing.assert_array_equal(r_norm, [1.0, 0.0])
        np.testing.assert_array_equal(b, [1, 0])

    def test_constant_vector_inactive(self):
        r_norm, b = binarize(np.full(8, 3.7), tau=0.5)
        assert np.all(r_norm == 0.0)
        assert np.all(b == 0)

    def test_strict_threshold(self):
        r_norm, b = binarize(np.array([0.0, 2.0, 4.0]), tau=0.5)
        np.testing.assert_allclose(r_norm, [0.0, 0.5, 1.0])
        np.testing.assert_array_equal(b, [0, 0, 1])  # exactly tau is not active

    def test_affine_invariance(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            r = rng.normal(size=32)
            a = rng.uniform(0.001, 10.0)
            c = rng.uniform(-5.0, 5.0)
            _, b1 = binarize(r)
            _, b2 = binarize(a * r + c)
            np.testing.assert_array_equal(b1, b2)


def _brute_force_report(b_matrix, samples_per_class, band, compact_limit):
    n_samples, k = b_matrix.shape
    n = [0] * k
    m = [0] * n_samples
    for i in range(n_samples):
        for comp in range(k):
            if b_matrix[i, comp]:
                n[comp] += 1
                m[i] += 1
    inactive = [comp for comp in range(k) if n[comp] == 0]
    modular = [comp for comp in range(k)
               if samples_per_class - band <= n[comp] <= samples_per_class + band]
    compact = sum(1 for i in range(n_samples) if m[i] <= compact_limit) / n_samples
    return n, m, inactive, modular, compact


def _record(sample_id, b):
    k = len(b)
    return RelevanceRecord(sample_id, 0, np.zeros(k), np.zeros(k), np.zeros(k),
                           np.asarray(b, dtype=np.int8))


class TestComponentReport:
    def test_hand_counted(self):
        b_matrix = np.array([[1, 0], [1, 0], [0, 0]], dtype=np.int8)
        recs = [_record(f"s{i}", b_matrix[i]) for i in range(3)]
        report = component_report(recs, samples_per_class=1, band=0, compact_limit=20)
        np.testing.assert_array_equal(report.n, [2, 0])
        np.testing.assert_array_equal(report.m, [1, 1, 0])
        assert report.inactive_ids == [1]

    def test_all_zero_b(self):
        recs = [_record(f"s{i}", np.zeros(4)) for i in range(5)]
        report = component_report(recs, samples_per_class=1)
        assert report.inactive_ids == [0, 1, 2, 3]
        assert report.compact_fraction == 1.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(3)
        b_matrix = (rng.random((60, 256)) > 0.8).astype(np.int8)
        recs = [_record(f"s{i}", b_matrix[i]) for i in range(60)]
        report = component_report(recs, samples_per_class=5, band=1, compact_limit=20)
        n, m, inactive, modular, compact = _brute_force_report(b_matrix, 5, 1, 20)
        np.testing.assert_array_equal(report.n, n)
        np.testing.assert_array_equal(report.m, m)
        assert report.inactive_ids == inactive
        assert report.modular_ids == modular
        assert report.compact_fraction == compact

    def test_exchange_consistency(self):
        rng = np.random.default_rng(4)
        b_matrix = (rng.random((30, 64)) > 0.7).astype(np.int8)
        recs = [_record(f"s{i}", b_matrix[i]) for i in range(30)]
        report = component_report(recs, samples_per_class=5)
        assert report.n.sum() == report.m.sum()

    def test_inconsistent_k_rejected(self):
        recs = [_record("a", np.zeros(4)), _record("b", np.zeros(5))]
        with pytest.raises(DimensionError):
            component_report(recs, samples_per_class=1)


class TestComponentSpectrum:
    def _dictionary(self):
        rng = np.random.default_rng(5)
        w = 1.0 - rng.random((257, 8))
        w, _ = normalize_columns(w, np.ones((8, 1)))
        return Dictionary(values=w)

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            component_spectrum(self._dictionary(), 8)

    def test_unit_norm_column(self):
        _, weights = component_spectrum(self._dictionary(), 3)
        assert np.linalg.norm(weights) == pytest.approx(1.0, abs=1e-6)

    def test_axis_arithmetic(self):
        d = self._dictionary()
        col = d.values[:, 2].copy()
        peak_bin = int(np.argmax(col))
        freqs, weights = component_spectrum(d, 2, n_fft=512)
        assert freqs[np.argmax(weights)] == pytest.approx(peak_bin * 16000 / 512)


class TestMakeRecord:
    def test_pipeline_composition(self):
        rng = np.random.default_rng(6)
        h = rng.random((16, 30))
        theta = rng.normal(size=(4, 16))
        rec = make_record("clip-1", 2, h, theta, tau=0.5)
        z = pool_time(h)
        r = relevance(z, theta[2])
        r_norm, b = binarize(r, tau=0.5)
        np.testing.assert_array_equal(rec.z, z)
        np.testing.assert_array_equal(rec.r, r)
        np.testing.assert_array_equal(rec.r_norm, r_norm)
        np.testing.assert_array_equal(rec.b, b)
