"""Loss terms and the handwritten gradients, checked against finite differences.

Every loss and gradient here comes from the training engine,
``training._batch_loss_and_grads`` and its forward-and-loss half
``_batch_loss``; single-sample cases run it at B = 1.  Targets reach the
engine reduced to K-space by ``reduce_targets``, as ``train`` reduces them;
``TestGramForm`` checks that reconstruction term against the direct form.
``TestWorkspace`` checks that reusing one workspace across steps, as
training does, changes no byte and allocates little.
"""

import tracemalloc

import numpy as np
import pytest

from conftest import make_tiny_model, nudge_away_from_relu_kinks
from nmfseg.network import LabelMatrix, Workspace, _forward_cache, bce_masked, init_model
from nmfseg.nmf import Dictionary, normalize_columns
from nmfseg.training import TrainConfig, _batch_loss, _batch_loss_and_grads, reduce_targets


def _cfg(alpha, beta, gamma):
    return TrainConfig(alpha=alpha, beta=beta, gamma=gamma, batch_size=1, epochs=1, seed=0)


def _targets(model, spects):
    """(…, F, T) targets reduced to K-space against the model's dictionary."""
    return reduce_targets(model.w_ref.values, spects)


def _loss(model, s, x, labels, cfg):
    """Loss components of one (D, T) sample, run as a B = 1 batch."""
    return _batch_loss(model, s[None], _targets(model, x[None]), [labels], cfg)[0]


def _grads(model, s, x, labels, cfg):
    """Named parameter gradients of one (D, T) sample, run as a B = 1 batch."""
    return dict(model.parameters(
        _batch_loss_and_grads(model, s[None], _targets(model, x[None]), [labels], cfg)[1]))


def _rand_case(seed=42, t=10, f=20, c=4):
    rng = np.random.default_rng(seed)
    model = make_tiny_model(seed=3, f=f)
    for name, arr in model.parameters():
        if arr.ndim == 1:
            arr += rng.uniform(-0.2, 0.2, size=arr.shape)
    s = rng.normal(size=(8, t))
    x = np.abs(rng.normal(size=(f, t)))
    labels = LabelMatrix(values=(rng.random((c, t)) > 0.5).astype(float),
                         mask=np.array([True, True, False, True]))
    return model, s, x, labels


class TestBceMasked:
    def test_logit_zero_label_one(self):
        labels = LabelMatrix(values=np.ones((1, 1)), mask=np.array([True]))
        assert bce_masked(np.zeros((1, 1)), labels) == pytest.approx(np.log(2), rel=1e-9)

    def test_all_masked_is_zero(self):
        rng = np.random.default_rng(0)
        labels = LabelMatrix(values=(rng.random((3, 8)) > 0.5).astype(float),
                             mask=np.zeros(3, bool))
        assert bce_masked(rng.normal(size=(3, 8)), labels) == 0.0

    def test_matches_per_cell_oracle(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(size=(4, 10)) * 3
        values = (rng.random((4, 10)) > 0.5).astype(float)
        mask = np.array([True, False, True, True])
        labels = LabelMatrix(values=values, mask=mask)
        total = 0.0
        count = 0
        for c in range(4):
            if not mask[c]:
                continue
            for t in range(10):
                z, y = logits[c, t], values[c, t]
                p = 1.0 / (1.0 + np.exp(-z))
                total += -(y * np.log(p) + (1 - y) * np.log(1 - p))
                count += 1
        assert bce_masked(logits, labels) == pytest.approx(total / count, rel=1e-9)

    def test_extreme_logits_finite(self):
        labels = LabelMatrix(values=np.array([[1.0, 0.0]]), mask=np.array([True]))
        val = bce_masked(np.array([[-500.0, 500.0]]), labels)
        assert np.isfinite(val) and val > 100


class TestTotalLoss:
    def test_linear_combination(self):
        model, s, x, labels = _rand_case()
        comps = _loss(model, s, x, labels, _cfg(10, 1, 0.1))
        assert comps["total"] == pytest.approx(10 * comps["bce"] + comps["nmf"] + 0.1 * comps["l1"],
                                               rel=1e-12)

    def test_weights_from_components(self):
        # components (ln 2, 9, 2) with weights (10, 1, 0.1) combine to 16.131
        total = 10 * 0.6931 + 1 * 9.0 + 0.1 * 2.0
        assert total == pytest.approx(16.131, abs=1e-3)

    def test_beta_zero_ignores_spectrogram(self):
        model, s, x, labels = _rand_case()
        t1 = _loss(model, s, x, labels, _cfg(10, 0, 0.1))["total"]
        t2 = _loss(model, s, x + 5.0, labels, _cfg(10, 0, 0.1))["total"]
        assert t1 == t2

    def test_degenerate_composition(self):
        model, s, x, labels = _rand_case()
        zeros = {name: np.zeros_like(arr) for name, arr in model.parameters()}
        model.load_parameters(zeros)
        masked = LabelMatrix(values=labels.values, mask=np.zeros(4, bool))
        comps = _loss(model, s, x, masked, _cfg(10, 1, 0.0))
        assert comps["total"] == pytest.approx(float(np.sum(x * x)), rel=1e-9)
        assert comps["bce"] == 0.0 and comps["l1"] == 0.0

    def test_batch_bce_is_mean_of_per_sample_bce_masked(self):
        model, feats, spects, labels = _batch_case()
        comps, cache, _, _ = _batch_loss(model, feats, _targets(model, spects), labels, _cfg(10, 0, 0))
        logits = cache["layout"].to_batch(cache["logits_flat"])
        per_sample = [bce_masked(logits[b], labels[b]) for b in range(3)]
        assert per_sample[2] == 0.0
        assert comps["bce"] == pytest.approx(sum(per_sample) / 3, rel=1e-12)


def _finite_difference_check(model, feats, spects, labels, cfg, step=1e-4, rtol=1e-4):
    """Engine gradients of a (B, D, T) batch against central differences of its loss."""
    targets = _targets(model, spects)
    grads = dict(model.parameters(_batch_loss_and_grads(model, feats, targets, labels, cfg)[1]))
    worst = 0.0
    for name, arr in model.parameters():
        g_an = grads[name]
        g_fd = np.zeros_like(arr)
        flat = arr.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up = _batch_loss(model, feats, targets, labels, cfg)[0]["total"]
            flat[i] = orig - step
            down = _batch_loss(model, feats, targets, labels, cfg)[0]["total"]
            flat[i] = orig
            g_fd.ravel()[i] = (up - down) / (2 * step)
        denom = np.maximum(np.maximum(np.abs(g_fd), np.abs(g_an)), 1e-30)
        rel = np.abs(g_an - g_fd) / denom
        rel[np.abs(g_an - g_fd) < 1e-9] = 0.0
        worst = max(worst, float(rel.max()))
    assert worst <= rtol, f"gradient mismatch: worst relative error {worst:.3e}"
    return worst


@pytest.fixture(scope="module")
def gradcheck_case():
    model, s, x, labels = _rand_case()
    margin = nudge_away_from_relu_kinks(model, s[None])
    assert margin > 1e-4, f"could not clear the ReLU kink band (margin {margin:.2e})"
    return model, s, x, labels


def _batch_case(seed=46, t=10, f=20):
    """Three samples with different masks: three classes annotated, one
    class annotated, and every class masked.

    At this seed the kink nudge clears every pre-activation by 1.7e-3; three
    samples give each channel more cells to clear, and some seeds stop
    near 1e-4.
    """
    rng = np.random.default_rng(seed)
    model, _, _, _ = _rand_case()
    feats = rng.normal(size=(3, 8, t))
    spects = np.abs(rng.normal(size=(3, f, t)))
    masks = ([True, False, True, True], [False, True, False, False], [False] * 4)
    labels = [LabelMatrix(values=(rng.random((4, t)) > 0.5).astype(float), mask=np.array(m))
              for m in masks]
    return model, feats, spects, labels


class TestGradients:
    @pytest.mark.parametrize("weights", [(10, 0, 0), (0, 1, 0), (0, 0, 0.1), (10, 1, 0.1)])
    def test_matches_finite_differences(self, gradcheck_case, weights):
        model, s, x, labels = gradcheck_case
        _finite_difference_check(model, s[None], x[None], [labels], _cfg(*weights))

    def test_batch_with_per_sample_masks_matches_finite_differences(self):
        model, feats, spects, labels = _batch_case()
        margin = nudge_away_from_relu_kinks(model, feats)
        assert margin > 1e-4, f"could not clear the ReLU kink band (margin {margin:.2e})"
        _finite_difference_check(model, feats, spects, labels, _cfg(10, 1, 0.1))

    def test_batch_gradient_is_mean_of_sample_gradients(self):
        # guard columns keep samples apart: no tap reads a neighbour's frames
        model, feats, spects, labels = _batch_case()
        cfg = _cfg(10, 1, 0.1)
        batch = dict(model.parameters(
            _batch_loss_and_grads(model, feats, _targets(model, spects), labels, cfg)[1]))
        singles = [_grads(model, feats[b], spects[b], labels[b], cfg) for b in range(3)]
        for name, g in batch.items():
            mean = sum(single[name] for single in singles) / 3
            np.testing.assert_allclose(g, mean, rtol=1e-12, atol=1e-12 * np.abs(mean).max(), err_msg=name)

    def test_all_masked_pure_bce_grads_zero(self):
        model, s, x, labels = _rand_case()
        masked = LabelMatrix(values=labels.values, mask=np.zeros(4, bool))
        grads = _grads(model, s, x, masked, _cfg(10, 0, 0))
        for name, g in grads.items():
            assert np.all(g == 0.0), name

    def test_alpha_linearity(self):
        model, s, x, labels = _rand_case()
        g1 = _grads(model, s, x, labels, _cfg(10, 0, 0))
        g2 = _grads(model, s, x, labels, _cfg(20, 0, 0))
        for name in g1:
            np.testing.assert_allclose(g2[name], 2.0 * g1[name], rtol=1e-12)

    def test_dictionary_receives_no_gradient(self):
        model, s, x, labels = _rand_case()
        before = model.w_ref.values.copy()
        grads = _grads(model, s, x, labels, _cfg(10, 1, 0.1))
        np.testing.assert_array_equal(model.w_ref.values, before)
        assert not any(name.startswith("w_ref") for name in grads)


class TestGramForm:
    """The engine's reconstruction term, taken in K-space, against the direct
    ``||x - W h||^2`` and its gradient ``2 beta / B * W^T (W h - x)``, in float64
    on the three-sample batch, whose shards are two samples and one and
    whose masks include a masked class and an all-masked sample."""

    def test_loss_equals_direct_form(self):
        model, feats, spects, labels = _batch_case()
        comps = _batch_loss_and_grads(model, feats, _targets(model, spects), labels, _cfg(10, 1, 0.1))[0]
        cache = _forward_cache(model, feats)
        h = cache["layout"].to_batch(cache["h_flat"])
        direct = sum(float(np.sum((model.w_ref.values @ h[b] - spects[b]) ** 2)) for b in range(3))
        assert comps["nmf"] * 3 == pytest.approx(direct, rel=1e-12, abs=0)

    @pytest.mark.parametrize("part", [slice(0, 3), slice(0, 2), slice(2, 3)])
    def test_gradient_on_h_equals_direct_form(self, part):
        model, feats, spects, labels = _batch_case()
        beta, batch = 2.5, 3
        _, cache, _, g_h_flat = _batch_loss(model, feats[part], _targets(model, spects)[part], labels[part],
                                            _cfg(0, beta, 0), batch=batch)
        lay, w = cache["layout"], model.w_ref.values
        h = lay.to_batch(cache["h_flat"])
        direct = np.stack([2 * beta / batch * w.T @ (w @ hb - x) for hb, x in zip(h, spects[part])])
        np.testing.assert_allclose(lay.to_batch(g_h_flat), direct, rtol=0, atol=1e-12 * np.abs(direct).max())
        guards = g_h_flat.reshape(g_h_flat.shape[0], lay.b, lay.s)
        assert not guards[:, :, :lay.p].any() and not guards[:, :, lay.p + lay.t:].any()

    def test_float32_targets_are_reduced_in_float64(self):
        """W^T X is computed in float64 and stored in X's float32; W^T W and
        the frame energies stay float64."""
        model, _, spects, _ = _batch_case()
        w, x = model.w_ref.values, spects.astype(np.float32)
        targets = reduce_targets(w, x)
        np.testing.assert_array_equal(targets.wtx, (w.T @ x.astype(np.float64)).astype(np.float32))
        np.testing.assert_array_equal(targets.energy, np.sum(x.astype(np.float64) ** 2, axis=1))
        np.testing.assert_array_equal(targets.gram, w.T @ w)
        assert targets.wtx.dtype == np.float32 and targets.energy.dtype == targets.gram.dtype == np.float64
        part = targets[1:, ..., 2:5]  # samples, then frames
        assert part.wtx.shape == (2, model.k, 3) and part.energy.shape == (2, 3)


class TestMaskedClassGradients:
    def test_masked_row_zero_and_others_bit_identical(self):
        model, s, x, labels = _rand_case()
        cfg = _cfg(10, 0, 0)
        grads = _grads(model, s, x, labels, cfg)  # class 2 masked
        assert np.all(grads["theta"][2] == 0.0)

        # independent reconstruction of the excluded-class computation
        from nmfseg.network import _forward_cache, sigmoid
        cache = _forward_cache(model, np.asarray(s, dtype=np.float64)[None])
        lay = cache["layout"]
        logits = lay.to_batch(cache["logits_flat"])[0]
        n_cells = 3 * labels.frames
        g_flat = np.zeros((4, lay.n))
        core = lay.core(g_flat)[:, 0, :]
        for c in (0, 1, 3):
            core[c] = 10.0 * ((sigmoid(logits[c]) - labels.values[c]) / n_cells)
        oracle_theta = g_flat @ cache["h_flat"].T
        for c in (0, 1, 3):
            np.testing.assert_array_equal(grads["theta"][c], oracle_theta[c])


def _float32_batch(model, batch, t, f, seed):
    """A float32 (B, D, T) batch with float32 spectrogram targets, reduced
    to K-space, and mixed masks."""
    rng = np.random.default_rng(seed)
    feats = rng.normal(-11.5, 4.0, size=(batch, model.d, t)).astype(np.float32)
    spects = np.abs(rng.normal(size=(batch, f, t))).astype(np.float32)
    labels = [LabelMatrix(values=(rng.random((model.c, t)) > 0.5).astype(float),
                          mask=rng.random(model.c) > 0.3) for _ in range(batch)]
    return feats, _targets(model, spects), labels


class TestWorkspace:
    """``train`` passes one workspace to every step; a step must not see
    what the step before left in it."""

    @staticmethod
    def _float32_model():
        model = make_tiny_model(seed=5)
        model.load_parameters(dict(model.parameters()), dtype=np.float32)
        return model

    def test_reused_workspace_is_bit_equal_to_a_fresh_one(self):
        # B = 6 after B = 16 puts the guard columns where payload was
        model, cfg, ws = self._float32_model(), _cfg(10, 1, 0.1), Workspace()
        for step, batch in enumerate((16, 6, 16)):
            case = _float32_batch(model, batch, t=12, f=20, seed=step)
            comps, grad = _batch_loss_and_grads(model, *case, cfg, ws=ws)
            fresh_comps, fresh_grad = _batch_loss_and_grads(model, *case, cfg)
            assert comps == fresh_comps, batch
            assert grad.tobytes() == fresh_grad.tobytes(), batch

    def test_returned_gradients_survive_the_next_step(self):
        model, cfg, ws = self._float32_model(), _cfg(10, 1, 0.1), Workspace()
        grad = _batch_loss_and_grads(model, *_float32_batch(model, 16, 12, 20, seed=0), cfg, ws=ws)[1]
        kept = grad.copy()
        _batch_loss_and_grads(model, *_float32_batch(model, 6, 12, 20, seed=1), cfg, ws=ws)
        np.testing.assert_array_equal(grad, kept)

    def test_second_step_allocates_little_at_desk_shape(self):
        """After one warm-up step on a workspace, a B = 16, T = 200 step at
        desk model shape (D = 80, K = 64, C = 4, 64 channels, F = 257) peaks
        under 8 MB of traced allocation.

        Measured with this setup: 43.9 MB when every step allocated its
        full-width arrays, 1.7 MB with the workspace; the rest is the
        per-class BCE terms and the fresh gradient vector.
        """
        rng = np.random.default_rng(0)
        model = init_model(80, 64, 4, seed=1)
        w, _ = normalize_columns(1.0 - rng.random((257, 64)), np.ones((64, 1)))
        model.attach_dictionary(Dictionary(values=w))
        model.load_parameters(dict(model.parameters()), dtype=np.float32)
        case, cfg, ws = _float32_batch(model, 16, 200, 257, seed=2), _cfg(10, 1, 0.1), Workspace()
        _batch_loss_and_grads(model, *case, cfg, ws=ws)
        tracemalloc.start()
        try:
            _batch_loss_and_grads(model, *case, cfg, ws=ws)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6, f"second step peaked at {peak / 1e6:.1f} MB of traced allocation"
