"""Acceptance gate: every release criterion with its stated tolerance.

Each test prints one [PASS]/[FAIL] line (visible with ``pytest -s`` or in the
captured output of a failing run).  The desk-scale end-to-end criterion
regenerates the default corpus and trains with the default settings, so this
module takes several minutes of CPU time.
"""

import itertools
import json
import time

import numpy as np
import pytest

from conftest import make_tiny_model, nudge_away_from_relu_kinks, to_batch
from nmfseg.cli import run_command
from nmfseg.corpus import CLASS_NAMES, CorpusSpec, generate_corpus
from nmfseg.evaluate import ClassF1
from nmfseg.explain import RelevanceRecord, binarize, component_report, make_record
from nmfseg.network import LabelMatrix, init_model, sigmoid
from nmfseg.nmf import SnmfConfig, nmf_loss, train_snmf
from nmfseg.probing import ProbeTask, eval_probe, train_probe
from nmfseg.training import (FrontendSettings, TrainConfig, _batch_loss, _batch_loss_and_grads,
                             evaluate_split, mean_activation_l1, pretrain_dictionary, reduce_targets,
                             train)


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


class TestCriterion1SnmfMonotonicity:
    def test_objective_non_increasing(self):
        start = time.time()
        worst = 0.0
        for trial in range(20):
            rng = np.random.default_rng(1000 + trial)
            x = rng.random((64, 128))
            for mu in (0.0, 0.1):
                cfg = SnmfConfig(k=32, mu=mu, max_iters=200, rel_tol=1e-12, seed=trial)
                dictionary, _ = train_snmf(x, cfg)
                trace = np.asarray(dictionary.objective_trace)
                increase = np.max((trace[1:] - trace[:-1]) / trace[:-1])
                worst = max(worst, float(increase))
        elapsed = time.time() - start
        ok = worst <= 1e-9 and elapsed < 30.0
        _verdict(1, ok, f"20 matrices, mu in {{0, 0.1}}: worst relative increase "
                        f"{worst:.2e} (tol 1e-9), {elapsed:.1f}s (< 30s)")


class TestCriterion2LowRankRecovery:
    def test_rank4_reconstruction(self):
        rng = np.random.default_rng(9)
        x = rng.random((64, 4)) @ rng.random((4, 256))
        cfg = SnmfConfig(k=4, mu=0.0, max_iters=500, rel_tol=1e-9, seed=0)
        dictionary, acts = train_snmf(x, cfg)
        err = nmf_loss(x, dictionary.values, acts.values) / float(np.sum(x * x))
        _verdict(2, err < 0.01, f"rank-4 relative reconstruction error {err:.2e} (< 1e-2)")


class TestCriterion3GradientCorrectness:
    def test_finite_difference_agreement(self):
        start = time.time()
        rng = np.random.default_rng(42)
        model = make_tiny_model(seed=3)  # D=8, K=12, C=4, 20 frequency bins
        for name, arr in model.parameters():
            if arr.ndim == 1:
                arr += rng.uniform(-0.2, 0.2, size=arr.shape)
        s = rng.normal(size=(8, 10))
        x = np.abs(rng.normal(size=(20, 10)))
        labels = LabelMatrix(values=(rng.random((4, 10)) > 0.5).astype(float),
                             mask=np.array([True, True, False, True]))
        # the training engine, run as a B = 1 batch on targets reduced to K-space as train reduces them
        feats, targets, batch_labels = s[None], reduce_targets(model.w_ref.values, x[None]), [labels]
        margin = nudge_away_from_relu_kinks(model, feats)
        assert margin > 1e-4

        worst_overall = 0.0
        for alpha, beta, gamma in ((10, 0, 0), (0, 1, 0), (0, 0, 0.1), (10, 1, 0.1)):
            cfg = TrainConfig(alpha=alpha, beta=beta, gamma=gamma, batch_size=1,
                              epochs=1, seed=0)
            grads = dict(model.parameters(_batch_loss_and_grads(model, feats, targets, batch_labels, cfg)[1]))
            for name, arr in model.parameters():
                g_fd = np.zeros_like(arr)
                flat = arr.ravel()
                for i in range(flat.size):
                    orig = flat[i]
                    flat[i] = orig + 1e-4
                    up = _batch_loss(model, feats, targets, batch_labels, cfg)[0]["total"]
                    flat[i] = orig - 1e-4
                    down = _batch_loss(model, feats, targets, batch_labels, cfg)[0]["total"]
                    flat[i] = orig
                    g_fd.ravel()[i] = (up - down) / 2e-4
                g_an = grads[name]
                denom = np.maximum(np.maximum(np.abs(g_fd), np.abs(g_an)), 1e-30)
                rel = np.abs(g_an - g_fd) / denom
                rel[np.abs(g_an - g_fd) < 1e-9] = 0.0
                worst_overall = max(worst_overall, float(rel.max()))
        elapsed = time.time() - start
        ok = worst_overall <= 1e-4 and elapsed < 60.0
        _verdict(3, ok, f"all parameters, per-term and combined: worst relative error "
                        f"{worst_overall:.2e} (tol 1e-4), {elapsed:.1f}s (< 60s)")


class TestCriterion4MaskedBce:
    def test_masked_row_zero_and_rest_bit_identical(self):
        rng = np.random.default_rng(42)
        model = make_tiny_model(seed=3)
        s = rng.normal(size=(8, 10))
        x = np.abs(rng.normal(size=(20, 10)))
        labels = LabelMatrix(values=(rng.random((4, 10)) > 0.5).astype(float),
                             mask=np.array([True, True, False, True]))
        cfg = TrainConfig(alpha=10, beta=0, gamma=0, batch_size=1, epochs=1, seed=0)
        targets = reduce_targets(model.w_ref.values, x[None])
        grads = dict(model.parameters(_batch_loss_and_grads(model, s[None], targets, [labels], cfg)[1]))
        masked_zero = bool(np.all(grads["theta"][2] == 0.0))

        from nmfseg.network import _forward_cache
        cache = _forward_cache(model, np.asarray(s, dtype=np.float64)[None])
        lay = cache["layout"]
        logits = to_batch(lay, cache["logits_flat"])[0]
        n_cells = 3 * labels.frames
        g_flat = np.zeros((4, lay.n))
        core = lay.core(g_flat)[:, 0, :]
        for c in (0, 1, 3):
            core[c] = 10.0 * ((sigmoid(logits[c]) - labels.values[c]) / n_cells)
        oracle = g_flat @ cache["h_flat"].T
        others_identical = all(np.array_equal(grads["theta"][c], oracle[c]) for c in (0, 1, 3))
        _verdict(4, masked_zero and others_identical,
                 f"masked theta row exactly zero: {masked_zero}; remaining rows "
                 f"bit-identical to the excluded-class computation: {others_identical}")


@pytest.fixture(scope="module")
def desk_pipeline(tmp_path_factory):
    """Default corpus, dictionary, and model trained with (10, 1, 0.1)."""
    start = time.time()
    out = tmp_path_factory.mktemp("desk")
    spec = CorpusSpec(seed=0)  # default 20 / 5 / 5 minutes
    manifest = generate_corpus(spec, out)
    settings = FrontendSettings()
    dictionary = pretrain_dictionary(manifest, settings, SnmfConfig(k=64, mu=0.1, max_iters=300, seed=0),
                                     max_frames=3000)
    model = init_model(d=80, k=64, c=4, seed=0)
    model.attach_dictionary(dictionary)
    cfg = TrainConfig(alpha=10, beta=1, gamma=0.1, lr=1e-3, batch_size=16,
                      epochs=120, seed=0)
    model, trace = train(model, manifest, cfg, settings)
    return manifest, settings, model, trace, time.time() - start


class TestCriterion5EndToEnd:
    def test_desk_scale_f1(self, desk_pipeline):
        manifest, settings, model, _, elapsed = desk_pipeline
        report = evaluate_split(model, manifest, "test", settings, threshold=0.5)
        f1 = {name: report.per_class[name].f1 for name in CLASS_NAMES}
        bars = {"speech": 0.90, "music": 0.90, "noise": 0.90, "overlap": 0.75}
        ok_f1 = all(f1[name] >= bar for name, bar in bars.items())
        ok_time = elapsed < 900.0  # measured single-core; the bound assumes 4 cores
        _verdict(5, ok_f1 and ok_time,
                 "test F1 " + " ".join(f"{n}={f1[n]:.3f}(>={bars[n]})" for n in CLASS_NAMES)
                 + f", pipeline {elapsed:.0f}s (< 900s)")


@pytest.fixture(scope="module")
def trend_corpora(tmp_path_factory):
    out = tmp_path_factory.mktemp("trend")
    quiet = CorpusSpec(seed=5, train_minutes=4, dev_minutes=1, test_minutes=1,
                       level_speech=(-40.0, -34.0), level_music=(-40.0, -34.0),
                       level_noise=(-40.0, -34.0))
    quiet_manifest = generate_corpus(quiet, out / "quiet")
    loud = CorpusSpec(seed=5, train_minutes=4, dev_minutes=1, test_minutes=1)
    loud_manifest = generate_corpus(loud, out / "loud")
    return quiet_manifest, loud_manifest


class TestCriterion6SparsityTrend:
    def test_activation_mass_non_increasing_in_gamma(self, trend_corpora):
        # quiet event levels put the three loss terms on a common scale, so the
        # sparsity weight's effect is visible above optimization noise
        quiet_manifest, _ = trend_corpora
        settings = FrontendSettings()
        dictionary = pretrain_dictionary(quiet_manifest, settings,
                                         SnmfConfig(k=32, mu=0.1, max_iters=200, seed=0), max_frames=2000)
        wins = 0
        details = []
        for seed in (0, 1, 2):
            masses = []
            for gamma in (0.0, 0.1, 0.5):
                model = init_model(d=80, k=32, c=4, seed=seed)
                model.attach_dictionary(dictionary)
                cfg = TrainConfig(alpha=10, beta=1, gamma=gamma, batch_size=16,
                                  epochs=30, seed=seed)
                model, _ = train(model, quiet_manifest, cfg, settings)
                masses.append(mean_activation_l1(model, quiet_manifest, "test", settings))
            wins += masses[0] >= masses[1] >= masses[2]
            details.append("[" + " ".join(f"{m:.2f}" for m in masses) + "]")
        _verdict(6, wins >= 2, f"mean ||H||_1 by gamma in {{0, 0.1, 0.5}} per seed: "
                               f"{' '.join(details)}; non-increasing for {wins}/3 seeds (need >= 2)")


class TestCriterion7BetaTradeoff:
    def test_reconstruction_improves_with_beta(self, trend_corpora, tmp_path):
        _, loud_manifest = trend_corpora
        cfg_file = tmp_path / "ablate.cfg"
        cfg_file.write_text("k = 32\ndict_iters = 200\ndict_frames = 2000\n"
                            "epochs = 30\nbatch = 16\nseed = 0\n")
        out = tmp_path / "ablation"
        manifest_path = loud_manifest.root / "manifest.csv"
        rc = run_command(["pretrain-dict", "--config", str(cfg_file),
                          "--manifest", str(manifest_path), "--out", str(out)])
        assert rc == 0
        rc = run_command(["ablate-beta", "--config", str(cfg_file),
                          "--manifest", str(manifest_path),
                          "--dict", str(out / "dictionary.nsd"), "--out", str(out)])
        driver_ok = rc == 0
        payload = json.loads((out / "ablation.json").read_text())
        recons = [row["recon_per_frame"] for row in payload["rows"]]
        trend_ok = payload["recon_non_increasing"]
        _verdict(7, driver_ok and trend_ok,
                 f"ablation driver exit 0: {driver_ok}; per-frame reconstruction loss by "
                 f"beta in {{0, 1, 5}}: {' '.join(f'{r:.1f}' for r in recons)} non-increasing: {trend_ok}")


class TestCriterion8ExplainOracle:
    def test_pipeline_matches_brute_force(self):
        rng = np.random.default_rng(88)
        mismatches = 0
        for _ in range(100):
            k = int(rng.integers(8, 33))
            samples = int(rng.integers(6, 20))
            theta = rng.normal(size=(4, k))
            records = []
            b_rows = []
            for i in range(samples):
                h = rng.random((k, int(rng.integers(3, 12)))) * rng.uniform(0.1, 4.0)
                class_id = int(rng.integers(0, 4))
                rec = make_record(f"s{i}", class_id, h, theta, tau=0.5)
                records.append(rec)
                # scalar-loop oracle for the whole extraction pipeline
                z = [sum(h[kk]) / h.shape[1] for kk in range(k)]
                r = [z[kk] * theta[class_id, kk] for kk in range(k)]
                lo, hi = min(r), max(r)
                if hi == lo:
                    b = [0] * k
                else:
                    b = [1 if (rr - lo) / (hi - lo) > 0.5 else 0 for rr in r]
                b_rows.append(b)
            spc = int(rng.integers(2, 6))
            band = int(rng.integers(0, 3))
            limit = int(rng.integers(2, k))
            report = component_report(records, samples_per_class=spc, band=band,
                                      compact_limit=limit)
            n = [sum(b_rows[i][kk] for i in range(samples)) for kk in range(k)]
            m = [sum(b_rows[i]) for i in range(samples)]
            inactive = [kk for kk in range(k) if n[kk] == 0]
            modular = [kk for kk in range(k) if spc - band <= n[kk] <= spc + band]
            compact = sum(1 for v in m if v <= limit) / samples
            same = (report.n.tolist() == n and report.m.tolist() == m
                    and report.inactive_ids == inactive and report.modular_ids == modular
                    and report.compact_fraction == compact)
            mismatches += not same
        _verdict(8, mismatches == 0,
                 f"100 randomized (H, theta) pipelines vs scalar oracle: {mismatches} mismatches")


class TestCriterion9ScaleInvariance:
    def test_binarize_affine_invariant(self):
        rng = np.random.default_rng(99)
        failures = 0
        for _ in range(1000):
            r = rng.normal(size=64) * rng.uniform(0.1, 3.0)
            a = rng.uniform(1e-6, 10.0)
            c = rng.uniform(-5.0, 5.0)
            _, b1 = binarize(r, tau=0.5)
            _, b2 = binarize(a * r + c, tau=0.5)
            failures += not np.array_equal(b1, b2)
        _verdict(9, failures == 0, f"binarize(a*r + c) == binarize(r) in 1000 trials, "
                                   f"{failures} failures")


class TestCriterion10MetricClosedForms:
    def test_f1_and_ci_closed_form(self):
        entry = ClassF1(tp=80, fp=10, fn=20, tn=890)
        f1_ok = abs(entry.f1 - 0.8421) < 1e-4
        ci_ok = abs(entry.ci95 - 0.0226) < 1e-4
        _verdict(10, f1_ok and ci_ok,
                 f"counts (80, 10, 20, N=1000): F1 {entry.f1:.4f} (expect 0.8421), "
                 f"ci95 {entry.ci95:.4f} (expect 0.0226)")


class TestCriterion11ProbeSanity:
    @staticmethod
    def _clustered(n_per_class, seed, k=16, classes=2):
        rng = np.random.default_rng(seed)
        items = []
        for label in range(classes):
            for _ in range(n_per_class):
                t = int(rng.integers(8, 15))
                h = rng.random((k, t)) * 0.05
                h[2 * label: 2 * label + 2, :] += rng.uniform(1.0, 2.0)
                items.append((h, label))
        return ProbeTask(name="sep", class_count=classes, items=items, pad_to=15)

    def test_probe_behaviors(self):
        train_task = self._clustered(32, seed=0)
        held_task = self._clustered(32, seed=4242)
        weights = train_probe(train_task, epochs=200, lr=1e-2, seed=0)
        sep_acc = eval_probe(weights, held_task).accuracy

        pool = self._clustered(60, seed=7)
        labels = np.array([label for _, label in pool.items])
        shuffled = np.random.default_rng(3).permutation(labels)
        items = [(h, int(sl)) for (h, _), sl in zip(pool.items, shuffled)]
        order = np.random.default_rng(4).permutation(len(items))
        half = len(items) // 2
        null_train = ProbeTask(name="null", class_count=2,
                               items=[items[i] for i in order[:half]], pad_to=15)
        null_held = ProbeTask(name="null-held", class_count=2,
                              items=[items[i] for i in order[half:]], pad_to=15)
        null_acc = eval_probe(train_probe(null_train, epochs=200, lr=1e-2, seed=0),
                              null_held).accuracy

        balanced = self._clustered(16, seed=11)  # power-of-two class sizes
        result = eval_probe(train_probe(balanced, epochs=100, lr=1e-2, seed=0), balanced)
        uar_exact = result.uar == result.accuracy
        ok = sep_acc > 0.95 and 0.35 <= null_acc <= 0.65 and uar_exact
        _verdict(11, ok, f"separable held-out accuracy {sep_acc:.3f} (> 0.95); "
                         f"label-shuffled held-out {null_acc:.3f} (0.5 +- 0.15); "
                         f"UAR == accuracy on balanced set: {uar_exact}")


class TestCriterion12Determinism:
    def test_byte_identical_runs(self, tmp_path):
        cfg = tmp_path / "fast.cfg"
        cfg.write_text("train_minutes = 0.5\ndev_minutes = 0.5\ntest_minutes = 0.5\n"
                       "clip_seconds = 5.0\nk = 8\ndict_iters = 40\ndict_frames = 400\n"
                       "epochs = 2\nbatch = 8\nseed = 13\n")
        blobs = {}
        for tag in ("runA", "runB"):
            out = tmp_path / tag
            assert run_command(["gen-data", "--config", str(cfg), "--out", str(out)]) == 0
            manifest = out / "corpus" / "manifest.csv"
            assert run_command(["pretrain-dict", "--config", str(cfg),
                                "--manifest", str(manifest), "--out", str(out)]) == 0
            assert run_command(["train", "--config", str(cfg), "--manifest", str(manifest),
                                "--dict", str(out / "dictionary.nsd"), "--out", str(out)]) == 0
            assert run_command(["eval", "--config", str(cfg), "--model", str(out / "model.nsm"),
                                "--manifest", str(manifest), "--split", "test",
                                "--out", str(out)]) == 0
            wavs = b"".join(p.read_bytes() for p in sorted((out / "corpus" / "audio").glob("*.wav")))
            blobs[tag] = {
                "corpus": wavs + (out / "corpus" / "manifest.csv").read_bytes(),
                "dictionary": (out / "dictionary.nsd").read_bytes(),
                "checkpoint": (out / "model.nsm").read_bytes(),
                "report": (out / "f1.csv").read_bytes() + (out / "f1.json").read_bytes(),
            }
        same = {key: blobs["runA"][key] == blobs["runB"][key] for key in blobs["runA"]}
        _verdict(12, all(same.values()),
                 "byte-identical across two runs: " +
                 " ".join(f"{key}={'yes' if val else 'NO'}" for key, val in same.items()))
