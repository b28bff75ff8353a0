"""Linear probes over frozen activations."""

import hashlib
import json

import numpy as np
import pytest

from conftest import make_tiny_model
from nmfseg.cli import run_command
from nmfseg.errors import FormatError
from nmfseg.frontend import FeatureSequence, log_mel, stft_magnitude, write_features
from nmfseg.network import encode, forward, init_model, save_model
from nmfseg.probing import (ProbeResult, ProbeTask, build_synthetic_task, eval_probe,
                            load_probe_manifest, synth_probe_clip, train_probe)


def _separable_task(n_per_class=30, k=16, seed=0, classes=2, offset=0):
    """Cluster class c's activation mass on axes [2c, 2c+1]."""
    rng = np.random.default_rng(seed + offset)
    items = []
    for label in range(classes):
        for _ in range(n_per_class):
            t = int(rng.integers(8, 15))
            h = rng.random((k, t)) * 0.05
            h[2 * label: 2 * label + 2, :] += rng.uniform(1.0, 2.0)
            items.append((h, label))
    return ProbeTask(name="separable", class_count=classes, items=items, pad_to=15)


def _label_shuffled_split(n_per_class=60, k=16, seed=0, shuffle_seed=1):
    """One pool with all labels permuted, split into train and held-out halves."""
    pool = _separable_task(n_per_class=n_per_class, k=k, seed=seed)
    labels = np.array([label for _, label in pool.items])
    shuffled = np.random.default_rng(shuffle_seed).permutation(labels)
    items = [(h, int(s)) for (h, _), s in zip(pool.items, shuffled)]
    order = np.random.default_rng(shuffle_seed + 1).permutation(len(items))
    half = len(items) // 2
    train = ProbeTask(name="null-train", class_count=2,
                      items=[items[i] for i in order[:half]], pad_to=pool.pad_to)
    held = ProbeTask(name="null-held", class_count=2,
                     items=[items[i] for i in order[half:]], pad_to=pool.pad_to)
    return train, held


def _frozen_h(model, seq):
    """One sequence's H from ``encode``, as the probe tasks extract it."""
    return encode(model, np.asarray(seq.values)[None])[0][0]


class TestExtractFrozenH:
    def test_equals_forward(self):
        model = make_tiny_model()
        rng = np.random.default_rng(0)
        seq = FeatureSequence(values=rng.normal(size=(8, 12)), hop=0.02)
        h1 = _frozen_h(model, seq)
        h2, _ = forward(model, seq)
        np.testing.assert_array_equal(h1, h2.values)

    def test_repeated_calls_identical(self):
        model = make_tiny_model()
        seq = FeatureSequence(values=np.random.default_rng(1).normal(size=(8, 9)), hop=0.02)
        a = _frozen_h(model, seq)
        b = _frozen_h(model, seq)
        np.testing.assert_array_equal(a, b)

    def test_never_mutates_model(self):
        model = make_tiny_model()
        def checksum():
            digest = hashlib.sha256()
            for _, arr in model.parameters():
                digest.update(arr.tobytes())
            return digest.hexdigest()
        before = checksum()
        task = _separable_task(n_per_class=5)
        train_probe(task, epochs=20, seed=0)
        _frozen_h(model, FeatureSequence(values=np.zeros((8, 6)), hop=0.02))
        assert checksum() == before


class TestProbeManifest:
    def _write(self, tmp_path, rows):
        for i, t in enumerate((7, 9, 5)):
            values = np.random.default_rng(i).normal(size=(8, t))
            write_features(FeatureSequence(values=values, hop=0.02), tmp_path / f"f{i}.nsf")
        path = tmp_path / "probe.csv"
        path.write_text("".join(line + "\n" for line in rows))
        return path

    def test_items_are_each_rows_frozen_h(self, tmp_path):
        model = make_tiny_model()
        path = self._write(tmp_path, ["# path,label", "f0.nsf,1", "", "f1.nsf,0", "f2.nsf,2"])
        task = load_probe_manifest(model, path)
        assert [label for _, label in task.items] == [1, 0, 2]
        assert task.class_count == 3 and task.pad_to == 9
        for (h, _), i in zip(task.items, range(3)):
            seq = FeatureSequence(values=np.random.default_rng(i).normal(size=(8, h.shape[1])), hop=0.02)
            np.testing.assert_array_equal(h, _frozen_h(model, seq))

    @pytest.mark.parametrize("rows,match", [
        ([], "no probe rows"),
        (["# only a comment", ""], "no probe rows"),
        (["f0.nsf,1", "f1.nsf,one"], "line 2: label 'one' is not an integer"),
        (["f0.nsf,1", "f1.nsf,0,extra"], "line 2: expected 2 columns"),
        (["f0.nsf,-1"], "line 1: label -1 is negative"),
        (["f0.nsf,0", "f1.nsf,0"], "every label is 0"),
        (["f0.nsf,2", "f1.nsf,2"], "every label is 2"),
    ])
    def test_malformed_manifest_raises_format_error(self, tmp_path, rows, match):
        path = self._write(tmp_path, rows)
        with pytest.raises(FormatError, match=match) as info:
            load_probe_manifest(make_tiny_model(), path)
        assert str(path) in str(info.value)

    def test_undecodable_byte_raises_format_error(self, tmp_path):
        path = self._write(tmp_path, ["f0.nsf,1", "f1.nsf,0"])
        path.write_bytes(path.read_bytes().replace(b"f1", b"f\xff"))
        with pytest.raises(FormatError, match="not UTF-8") as info:
            load_probe_manifest(make_tiny_model(), path)
        assert str(path) in str(info.value)

    def test_feature_file_off_the_frontend_hop_raises_format_error(self, tmp_path):
        """A feature row is checked against the frontend's hop, as ``load_clip``
        checks a manifest row's feature file."""
        path = self._write(tmp_path, ["f0.nsf,0", "f1.nsf,1", "f2.nsf,0"])
        write_features(FeatureSequence(values=np.zeros((8, 6)), hop=0.01), tmp_path / "f1.nsf")
        with pytest.raises(FormatError, match="0.01 s apart") as info:
            load_probe_manifest(make_tiny_model(), path)
        assert f"{path}: line 2: {tmp_path / 'f1.nsf'}" in str(info.value)

    def test_eval_task_takes_the_training_class_count(self, tmp_path):
        path = self._write(tmp_path, ["f0.nsf,0", "f1.nsf,1", "f2.nsf,0"])
        assert load_probe_manifest(make_tiny_model(), path, class_count=3).class_count == 3
        single = self._write(tmp_path, ["f0.nsf,0"])
        assert load_probe_manifest(make_tiny_model(), single, class_count=2).class_count == 2

    def test_eval_label_at_or_above_the_class_count_raises(self, tmp_path):
        path = self._write(tmp_path, ["f0.nsf,0", "f1.nsf,3", "f2.nsf,1"])
        with pytest.raises(FormatError, match="line 2: label 3 is not below the 3 classes") as info:
            load_probe_manifest(make_tiny_model(), path, class_count=3)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("eval_labels,status", [((0, 1, 0), 0), ((0, 3, 1), 1)])
    def test_cli_eval_manifest_with_fewer_or_unknown_classes(self, tmp_path, capsys, eval_labels, status):
        """An eval manifest whose labels stop below the task's is scored on the
        task's classes; one with a label beyond them fails with an error line."""
        task = self._write(tmp_path, ["f0.nsf,0", "f1.nsf,1", "f2.nsf,2"])
        evaluation = tmp_path / "eval.csv"
        evaluation.write_text("".join(f"f{i}.nsf,{label}\n" for i, label in enumerate(eval_labels)))
        save_model(make_tiny_model(), tmp_path / "model.nsm")
        out = tmp_path / "run"
        assert run_command(["probe", "--model", str(tmp_path / "model.nsm"), "--out", str(out),
                            "--task-manifest", str(task), "--eval-manifest", str(evaluation)]) == status
        if status == 0:
            confusion = json.loads((out / "probe_results.json").read_text())["manifest"]["confusion"]
            assert np.array(confusion).shape == (3, 3)
        else:
            assert f"{evaluation}: line 2: label 3" in capsys.readouterr().err
            assert not (out / "probe_results.json").exists()


class TestTrainProbe:
    def test_separable_data_high_accuracy(self):
        train_task = _separable_task(seed=0)
        eval_task = _separable_task(seed=0, offset=1000)
        weights = train_probe(train_task, epochs=200, lr=1e-2, seed=0)
        result = eval_probe(weights, eval_task)
        assert result.accuracy > 0.95

    def test_seed_determinism(self):
        task = _separable_task(n_per_class=10)
        w1 = train_probe(task, epochs=50, seed=3)
        w2 = train_probe(task, epochs=50, seed=3)
        np.testing.assert_array_equal(w1, w2)

    def test_shuffled_labels_near_chance(self):
        train_task, held_task = _label_shuffled_split(seed=0)
        weights = train_probe(train_task, epochs=200, lr=1e-2, seed=0)
        result = eval_probe(weights, held_task)
        assert 0.35 <= result.accuracy <= 0.65

    def test_single_class_rejected(self):
        task = _separable_task(n_per_class=4)
        task.items = [(h, 0) for h, _ in task.items]
        with pytest.raises(ValueError):
            train_probe(task, epochs=5)


class TestEvalProbe:
    def test_perfect_predictions(self):
        task = _separable_task(n_per_class=8)
        weights = train_probe(task, epochs=300, lr=1e-2, seed=0)
        result = eval_probe(weights, task)  # same items: training accuracy
        if result.accuracy == 1.0:
            assert result.uar == 1.0

    def test_uar_is_mean_recall(self):
        result = ProbeResult(accuracy=0.0, uar=0.0, per_class_recall={}, confusion=np.zeros((2, 2)))
        assert np.mean([1.0, 0.5]) == 0.75  # definition sanity

    def test_uar_equals_accuracy_on_balanced_sets(self):
        # power-of-two class sizes make the equality exact in floating point
        task = _separable_task(n_per_class=16, seed=2, offset=77)
        weights = train_probe(_separable_task(n_per_class=16, seed=2), epochs=100, lr=1e-2, seed=0)
        result = eval_probe(weights, task)
        assert result.uar == result.accuracy

    def test_confusion_matches_counting_oracle(self):
        rng = np.random.default_rng(7)
        task = _separable_task(n_per_class=12, seed=4, classes=3, k=16)
        weights = rng.normal(size=(3, 16))
        result = eval_probe(weights, task)
        x, y = task.pooled()
        pred = np.argmax(x @ weights.T, axis=1)
        oracle = np.zeros((3, 3), dtype=np.int64)
        for ref, hyp in zip(y, pred):
            oracle[ref, hyp] += 1
        np.testing.assert_array_equal(result.confusion, oracle)
        assert result.accuracy == pytest.approx(np.trace(oracle) / oracle.sum())
        recalls = [oracle[c, c] / oracle[c].sum() for c in range(3) if oracle[c].sum()]
        assert result.uar == pytest.approx(np.mean(recalls))

    def test_absent_class_warns(self):
        task = _separable_task(n_per_class=6, classes=3)
        task.items = [(h, label) for h, label in task.items if label != 2]
        weights = np.random.default_rng(0).normal(size=(3, 16))
        with pytest.warns(UserWarning, match="absent"):
            eval_probe(weights, task)

    def test_majority_predictor_baseline(self):
        # a probe that always answers class 0 scores the class-0 prior
        task = _separable_task(n_per_class=10, classes=2)
        weights = np.zeros((2, 16))
        weights[0, :] = 1.0  # class 0 wins every argmax on non-negative features
        result = eval_probe(weights, task)
        assert result.accuracy == pytest.approx(0.5)


class TestSyntheticProbeClips:
    @pytest.mark.parametrize("task,classes", [("tone-class", 3), ("noise-color", 3), ("am-rate", 3)])
    def test_deterministic_and_bounded(self, task, classes):
        for label in range(classes):
            a = synth_probe_clip(task, label, seed=5)
            b = synth_probe_clip(task, label, seed=5)
            np.testing.assert_array_equal(a.samples, b.samples)
            assert np.abs(a.samples).max() <= 1.0

    def test_unknown_task(self):
        with pytest.raises(ValueError):
            synth_probe_clip("nope", 0, seed=0)

    def test_task_matches_per_clip_extraction(self):
        model = init_model(80, 12, 4, seed=2, channels=8)
        task = build_synthetic_task(model, "noise-color", 3, 2, seed=4, seconds=0.5)
        assert [label for _, label in task.items] == [0, 0, 1, 1, 2, 2]
        for (h, label), i in zip(task.items, [0, 1] * 3):
            clip = synth_probe_clip("noise-color", label, 4 * 100003 + i, seconds=0.5)
            ref = _frozen_h(model, log_mel(stft_magnitude(clip)))
            assert np.array_equal(h, ref)
        assert task.pad_to == ref.shape[1]
        with pytest.raises(ValueError, match="no items"):
            build_synthetic_task(model, "noise-color", 3, 0, seed=4)
