"""Both cores: the sharded training engine, pooled clip loads, dev encodes
and inference rows, the one two-thread pool they share with synthesis, and
the OpenBLAS thread setting its calls run under."""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from conftest import make_tiny_model
from nmfseg import parallel
from nmfseg.cli import run_command
from nmfseg.corpus import CLASS_NAMES
from nmfseg.evaluate import F1Report, accumulate_counts, decide_frames
from nmfseg.labels import label_matrix_from_range
from nmfseg.network import (LabelMatrix, Workspace, _backward_from_cache, bce_masked, encode,
                            init_model, save_model)
from nmfseg.nmf import Dictionary, normalize_columns
from nmfseg.training import (FrontendSettings, TrainConfig, _batch_loss, _batch_loss_and_grads,
                             dev_metrics, load_clip, load_split, reduce_targets, split_rows)

needs_blas_setter = pytest.mark.skipif(parallel._blas_threads() is None,
                                       reason="no OpenBLAS thread-count setter in this NumPy build")


@pytest.fixture(scope="module")
def desk_batch():
    """A float64 desk-shape model and a B = 16, T = 200 batch with mixed masks,
    its targets reduced to K-space."""
    rng = np.random.default_rng(5)
    d, k, c, f, b, t = 80, 64, 4, 257, 16, 200
    model = init_model(d, k, c, seed=2)
    w, _ = normalize_columns(1.0 - rng.random((f, k)), np.ones((k, 1)))
    model.attach_dictionary(Dictionary(values=w))
    feats = rng.normal(-10.0, 3.0, size=(b, d, t))
    targets = reduce_targets(w, np.abs(rng.normal(size=(b, f, t))))
    labels = [LabelMatrix(values=(rng.random((c, t)) > 0.5).astype(float), mask=rng.random(c) > 0.3)
              for _ in range(b)]
    return model, feats, targets, labels, TrainConfig(batch_size=b)


def _with_workers(monkeypatch, n):
    monkeypatch.setattr(parallel, "workers", lambda: n)


class TestShardedEngine:
    def test_matches_whole_batch_reference(self, desk_batch):
        model, feats, targets, labels, cfg = desk_batch
        comps, grad = _batch_loss_and_grads(model, feats, targets, labels, cfg)
        ref_comps, cache, g_logits, g_h = _batch_loss(model, feats, targets, labels, cfg, Workspace())
        ref = _backward_from_cache(model, cache, g_logits, g_h)
        assert np.linalg.norm(grad - ref) <= 1e-12 * np.linalg.norm(ref)
        for key, value in ref_comps.items():
            assert comps[key] == pytest.approx(value, rel=1e-12, abs=0), key

    def test_bytes_do_not_depend_on_workers(self, desk_batch, monkeypatch):
        """Also with thread switches forced every 10 us, so a buffer the two
        shards shared would show up as moved bytes."""
        model, feats, targets, labels, cfg = desk_batch
        runs = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for n in (1, 2, 2, 1):
                _with_workers(monkeypatch, n)
                comps, grad = _batch_loss_and_grads(model, feats, targets, labels, cfg, Workspace())
                runs.append((comps, grad.tobytes()))
        finally:
            sys.setswitchinterval(interval)
        assert all(run == runs[0] for run in runs[1:])

    def test_single_sample_batch_is_one_shard(self, monkeypatch):
        """B = 1 runs the unsharded arithmetic, which criterion 4 rebuilds bit for bit."""
        rng = np.random.default_rng(1)
        model = make_tiny_model(seed=3)
        feats = rng.normal(size=(1, 8, 10))
        targets = reduce_targets(model.w_ref.values, np.abs(rng.normal(size=(1, 20, 10))))
        labels = [LabelMatrix(values=(rng.random((4, 10)) > 0.5).astype(float),
                              mask=np.array([True, False, True, True]))]
        cfg = TrainConfig(batch_size=1)
        calls = []
        real_map = parallel.map

        def counting_map(fn, items):
            calls.append(len(items))
            return real_map(fn, items)

        monkeypatch.setattr(parallel, "map", counting_map)
        comps, grad = _batch_loss_and_grads(model, feats, targets, labels, cfg)
        ref_comps, cache, g_logits, g_h = _batch_loss(model, feats, targets, labels, cfg)
        assert calls == [1]
        assert comps == ref_comps
        assert grad.tobytes() == _backward_from_cache(model, cache, g_logits, g_h).tobytes()


@pytest.fixture(scope="module")
def stage_inputs(small_corpus, tmp_path_factory):
    """A checkpoint with an attached dictionary, a config with small probe
    tasks, and the small corpus's manifest, for the CLI inference stages."""
    root = tmp_path_factory.mktemp("stages")
    model = init_model(d=80, k=16, c=4, seed=6)
    w, _ = normalize_columns(1.0 - np.random.default_rng(6).random((257, 16)), np.ones((16, 1)))
    model.attach_dictionary(Dictionary(values=w))
    save_model(model, root / "model.nsm")
    (root / "stage.cfg").write_text("probe_per_class = 4\nprobe_epochs = 20\nseed = 3\n")
    return root, small_corpus[1].root / "manifest.csv"


def _tree_bytes(out) -> dict:
    """Every file under ``out`` by relative path, with ``out`` masked in its bytes."""
    return {p.relative_to(out).as_posix(): p.read_bytes().replace(str(out).encode(), b"<out>")
            for p in sorted(out.rglob("*")) if p.is_file()}


class TestPooledStages:
    @pytest.mark.parametrize("command", ["eval", "segment", "explain", "probe"])
    def test_stage_bytes_do_not_depend_on_threads(self, stage_inputs, tmp_path, monkeypatch, command):
        """Two clips in flight, and probe clips made on two threads, write
        what one worker writes."""
        root, manifest = stage_inputs
        argv = [command, "--config", str(root / "stage.cfg"), "--model", str(root / "model.nsm")]
        if command != "probe":
            argv += ["--manifest", str(manifest), "--split", "test"]
        trees = []
        for threads in ("1", "2"):
            monkeypatch.setenv("NMFSEG_THREADS", threads)
            out = tmp_path / f"threads-{threads}"
            assert run_command(argv + ["--out", str(out)]) == 0
            trees.append(_tree_bytes(out))
        assert len(trees[0]) >= 2 and trees[0] == trees[1]

    def test_load_split_equals_sequential_loads(self, small_corpus, monkeypatch):
        _, manifest = small_corpus
        settings = FrontendSettings()
        _with_workers(monkeypatch, 2)
        pooled = load_split(manifest, "train", settings)
        sequential = [load_clip(manifest, row, settings, with_spect=False)
                      for row in split_rows(manifest, "train")]
        assert len(pooled) == len(sequential) > 1
        for a, b in zip(pooled, sequential):
            assert a.clip_id == b.clip_id and a.hop == b.hop
            assert a.spect is b.spect is None  # load_split loads no targets
            for name in ("features", "labels"):
                assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), (a.clip_id, name)

    def test_dev_metrics_equals_sequential_loop(self, small_corpus, monkeypatch):
        _, manifest = small_corpus
        clips = load_split(manifest, "dev", FrontendSettings())
        model = init_model(d=80, k=16, c=4, seed=4)
        model.flat = model.flat.astype(np.float32)
        report, bce_sum = F1Report(), 0.0
        for clip in clips:
            logits = encode(model, clip.features[None])[1][0]
            lab = label_matrix_from_range(clip.labels, 0, clip.labels.shape[1])
            bce_sum += bce_masked(logits, lab)
            accumulate_counts(report, decide_frames(logits, 0.5, clip.hop).binary, lab,
                              CLASS_NAMES[: lab.classes])
        _with_workers(monkeypatch, 2)
        dev = dev_metrics(model, clips, 0.5)
        assert len(clips) > 1
        assert dev["bce"] == bce_sum / len(clips)
        assert dev["macro_f1"] == report.macro_f1()
        assert dev["f1"] == {name: e.f1 for name, e in report.per_class.items() if e.defined}


class TestPool:
    @needs_blas_setter
    def test_two_workers_run_calls_at_once(self, monkeypatch):
        _with_workers(monkeypatch, 2)
        barrier = threading.Barrier(2, timeout=30)  # passes only when both calls run concurrently
        assert parallel.map(lambda x: (barrier.wait(), x * x)[1], [3, 4]) == [9, 16]

    def test_one_worker_runs_inline(self, monkeypatch):
        _with_workers(monkeypatch, 1)
        main = threading.current_thread()
        assert parallel.map(lambda x: threading.current_thread() is main, range(3)) == [True] * 3

    @needs_blas_setter
    def test_calls_run_one_blas_thread_and_count_is_restored(self, monkeypatch):
        """At a two-thread OpenBLAS, two workers still use the pool; every
        call, inline or pooled, reads one BLAS thread, and the two threads
        come back after ``map``, also when a call raises."""
        setter, getter = parallel._blas_threads()
        previous = getter()
        setter(2)
        main = threading.current_thread()

        def fail_on_two(x):
            if x == 2:
                raise KeyError(x)
            return x

        try:
            for workers in (1, 2):
                _with_workers(monkeypatch, workers)
                seen = parallel.map(lambda x: (getter(), threading.current_thread() is main), range(4))
                assert seen == [(1, workers == 1)] * 4
                assert getter() == 2
                with pytest.raises(KeyError):
                    parallel.map(fail_on_two, range(4))
                assert getter() == 2
        finally:
            setter(previous)

    def test_first_error_is_raised(self, monkeypatch):
        _with_workers(monkeypatch, 2)

        def fail_on_one(x):
            if x == 1:
                raise KeyError(x)
            return x

        with pytest.raises(KeyError):
            parallel.map(fail_on_one, [0, 1])

    @needs_blas_setter
    def test_raises_only_after_running_calls_return(self, monkeypatch):
        """Call 0 fails while call 1 runs.  Call 1 then waits up to a second
        for the test to see ``map`` raise; ``map`` must not raise before
        call 1 has returned, so call 1 never sees it."""
        _with_workers(monkeypatch, 2)
        one_running, map_raised, one_returned = threading.Event(), threading.Event(), threading.Event()
        seen = []

        def call(x):
            if x == 0:
                assert one_running.wait(timeout=30)
                raise KeyError(x)
            one_running.set()
            seen.append(map_raised.wait(timeout=1.0))
            one_returned.set()
            return x

        with pytest.raises(KeyError):
            try:
                parallel.map(call, [0, 1])
            finally:
                map_raised.set()
        assert one_returned.wait(timeout=30)
        assert seen == [False]

    @needs_blas_setter
    def test_first_error_in_item_order_is_raised(self, monkeypatch):
        _with_workers(monkeypatch, 2)
        one_raising = threading.Event()

        def call(x):
            if x == 0:
                assert one_raising.wait(timeout=30)
                raise KeyError(x)
            one_raising.set()
            raise ValueError(x)

        with pytest.raises(KeyError):
            parallel.map(call, [0, 1])


class TestSerialBlas:
    @needs_blas_setter
    def test_restores_thread_count_when_body_raises(self):
        setter, getter = parallel._blas_threads()
        previous = getter()
        setter(2)
        try:
            with pytest.raises(RuntimeError):
                with parallel.serial_blas():
                    assert getter() == 1
                    raise RuntimeError("body failed")
            assert getter() == 2
        finally:
            setter(previous)

    def test_without_setter_changes_nothing_and_pool_runs_inline(self, monkeypatch):
        found = parallel._blas_threads()
        before = found[1]() if found else None
        monkeypatch.setattr(parallel, "_blas_threads", lambda: None)
        _with_workers(monkeypatch, 2)
        main = threading.current_thread()
        with parallel.serial_blas():
            assert (found[1]() if found else None) == before
            assert parallel.map(lambda x: threading.current_thread() is main, range(2)) == [True, True]
        assert (found[1]() if found else None) == before

    @needs_blas_setter
    def test_blas_build_is_whole_when_threads_ask_at_once(self):
        """OpenBLAS writes its config string into one static buffer on every
        call, so racing calls could read it cut short; the feature cache keys
        on this string, so every thread must read it whole."""
        expected = parallel._blas_config()
        assert "OpenBLAS" in expected
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                for _ in range(100):
                    futures = [pool.submit(parallel._blas_config.__wrapped__) for _ in range(16)]
                    assert {future.result(timeout=60) for future in futures} == {expected}
        finally:
            sys.setswitchinterval(interval)
        with parallel.serial_blas():
            assert parallel.blas_build() == f"{expected}; threads=1"
