"""Frame decisions, segment extraction, and F1 scoring."""

import itertools

import numpy as np
import pytest

from conftest import make_tiny_model
from nmfseg.evaluate import (ClassF1, F1Report, FrameDecisions, decide_frames, f1_with_ci,
                             frames_to_segments, rasterize_segments, report_to_rows)
from nmfseg.frontend import FeatureSequence
from nmfseg.network import LabelMatrix, forward, sigmoid


class TestPredictFrames:
    """Frame decisions on the encoder's logits, as ``segment`` takes them."""

    @staticmethod
    def predict(model, seq, threshold=0.5):
        return decide_frames(forward(model, seq)[1], threshold, seq.hop)

    def test_threshold_boundary_is_strict(self):
        model = make_tiny_model()
        zeros = {name: np.zeros_like(arr) for name, arr in model.parameters()}
        model.load_parameters(zeros)
        seq = FeatureSequence(values=np.random.default_rng(0).normal(size=(8, 6)), hop=0.02)
        dec = self.predict(model, seq, threshold=0.5)
        assert np.all(dec.probs == 0.5)
        assert np.all(dec.binary == 0)  # probability exactly at threshold maps to 0

    def test_saturated_logits(self):
        model = make_tiny_model()
        model.theta[...] = 10.0
        rng = np.random.default_rng(1)
        seq = FeatureSequence(values=rng.normal(size=(8, 6)), hop=0.02)
        h, logits = forward(model, seq)
        dec = self.predict(model, seq)
        assert np.all(dec.binary[logits > 10] == 1)

    def test_matches_elementwise_oracle(self):
        model = make_tiny_model(seed=11)
        rng = np.random.default_rng(2)
        seq = FeatureSequence(values=rng.normal(size=(8, 25)), hop=0.02)
        _, logits = forward(model, seq)
        dec = self.predict(model, seq, threshold=0.3)
        probs = 1.0 / (1.0 + np.exp(-np.asarray(logits, dtype=np.float64)))
        np.testing.assert_allclose(dec.probs, probs, rtol=1e-6)
        np.testing.assert_array_equal(dec.binary, (probs > 0.3).astype(np.int8))

    def test_invalid_threshold(self):
        model = make_tiny_model()
        seq = FeatureSequence(values=np.zeros((8, 4)), hop=0.02)
        with pytest.raises(ValueError):
            self.predict(model, seq, threshold=1.0)


def _decisions(binary, hop=0.02):
    binary = np.asarray(binary, dtype=np.int8)
    return FrameDecisions(probs=binary.astype(np.float64), binary=binary, hop=hop)


class TestFramesToSegments:
    def test_single_run(self):
        segs = frames_to_segments(_decisions([[0, 1, 1, 1, 0]]), class_names=["a"])
        assert len(segs) == 1
        assert segs[0].onset == pytest.approx(0.02)
        assert segs[0].offset == pytest.approx(0.08)

    def test_all_zeros(self):
        assert frames_to_segments(_decisions([[0, 0, 0]])) == []

    def test_min_dur_drops_short_runs(self):
        segs = frames_to_segments(_decisions([[1, 0, 1]]), min_dur=0.03)
        assert segs == []

    def test_brute_force_over_length3_patterns(self):
        # enumerate all 8 binary patterns and compare with direct run extraction
        for bits in itertools.product((0, 1), repeat=3):
            segs = frames_to_segments(_decisions([list(bits)]), min_dur=0.03, class_names=["x"])
            expected = []
            run = 0
            for i, v in enumerate(list(bits) + [0]):
                if v:
                    run += 1
                elif run:
                    if run * 0.02 >= 0.03:
                        expected.append(((i - run) * 0.02, i * 0.02))
                    run = 0
            assert [(s.onset, s.offset) for s in segs] == pytest.approx(expected)

    def test_rasterization_round_trip(self):
        rng = np.random.default_rng(3)
        binary = (rng.random((3, 40)) > 0.6).astype(np.int8)
        names = ["a", "b", "c"]
        segs = frames_to_segments(_decisions(binary), min_dur=0.0, class_names=names)
        back = rasterize_segments(segs, hop=0.02, frames=40, class_names=names)
        np.testing.assert_array_equal(back, binary)


class TestF1WithCi:
    def test_perfect_prediction(self):
        rng = np.random.default_rng(4)
        values = (rng.random((2, 50)) > 0.5).astype(float)
        labels = LabelMatrix(values=values, mask=np.ones(2, bool))
        report = f1_with_ci(values.astype(np.int8), labels, class_names=["a", "b"])
        for entry in report.per_class.values():
            assert entry.f1 == 1.0
            assert entry.ci95 == 0.0

    def test_balanced_counts(self):
        entry = ClassF1(tp=1, fp=1, fn=1, tn=0)
        assert entry.precision == 0.5 and entry.recall == 0.5 and entry.f1 == 0.5

    def test_closed_form_case(self):
        entry = ClassF1(tp=80, fp=10, fn=20, tn=890)
        assert entry.n == 1000
        assert entry.f1 == pytest.approx(0.842105, abs=1e-5)
        assert entry.ci95 == pytest.approx(0.0226, abs=2e-4)

    def test_undefined_class_reported_not_zero(self):
        labels = LabelMatrix(values=np.zeros((2, 5)), mask=np.array([True, False]))
        report = f1_with_ci(np.zeros((2, 5), dtype=np.int8), labels, class_names=["a", "b"])
        assert report.per_class["a"].defined
        assert not report.per_class["b"].defined
        rows = report_to_rows(report)
        assert rows[1][1] == ""  # undefined precision stays blank

    def test_frame_permutation_invariance(self):
        rng = np.random.default_rng(5)
        pred = (rng.random((2, 60)) > 0.4).astype(np.int8)
        ref = (rng.random((2, 60)) > 0.5).astype(float)
        labels = LabelMatrix(values=ref, mask=np.ones(2, bool))
        r1 = f1_with_ci(pred, labels)
        perm = rng.permutation(60)
        labels2 = LabelMatrix(values=ref[:, perm], mask=np.ones(2, bool))
        r2 = f1_with_ci(pred[:, perm], labels2)
        for name in r1.per_class:
            assert r1.per_class[name].f1 == r2.per_class[name].f1

    def test_mask_invariance(self):
        rng = np.random.default_rng(6)
        pred = (rng.random((3, 30)) > 0.4).astype(np.int8)
        ref = (rng.random((3, 30)) > 0.5).astype(float)
        full = f1_with_ci(pred, LabelMatrix(values=ref, mask=np.ones(3, bool)))
        masked = f1_with_ci(pred, LabelMatrix(values=ref, mask=np.array([True, False, True])))
        for name in ("class0", "class2"):
            assert full.per_class[name].f1 == masked.per_class[name].f1

    def test_macro_skips_undefined(self):
        report = F1Report(per_class={"a": ClassF1(tp=5, fp=0, fn=0, tn=5),
                                     "b": ClassF1(defined=False)})
        assert report.macro_f1() == 1.0
