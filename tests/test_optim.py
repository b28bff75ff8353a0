"""ADAM update rules."""

import numpy as np
import pytest

from nmfseg.optim import CHUNK, adam_step, init_adam


class TestAdam:
    def test_first_step_magnitude(self):
        params = np.array([0.0])
        state = init_adam(params)
        adam_step(params, np.array([1.0]), state, lr=1e-3)
        # m_hat = v_hat = 1 at t=1, so the step is lr / (1 + eps)
        assert params[0] == pytest.approx(-1e-3 / (1 + 1e-8), rel=1e-12)

    def test_zero_gradient_no_move(self):
        params = np.array([1.5, -2.0])
        state = init_adam(params)
        adam_step(params, np.zeros(2), state, lr=1e-3)
        np.testing.assert_array_equal(params, [1.5, -2.0])

    def test_optimizes_quadratic(self):
        params = np.array([1.0])
        state = init_adam(params)
        for _ in range(100):
            adam_step(params, 2.0 * params, state, lr=5e-2)
        assert abs(params[0]) < 0.1

    def test_deterministic(self):
        rng = np.random.default_rng(0)
        g = rng.normal(size=(3, 4))
        p0 = rng.normal(size=(3, 4))
        a, b = p0.copy(), p0.copy()
        sa, sb = init_adam(a), init_adam(b)
        for _ in range(10):
            adam_step(a, g, sa, lr=1e-3)
            adam_step(b, g, sb, lr=1e-3)
        np.testing.assert_array_equal(a, b)

    def test_step_counter_advances(self):
        params = np.zeros(1)
        state = init_adam(params)
        for expected in (1, 2, 3):
            adam_step(params, np.ones(1), state, lr=1e-3)
            assert state.t == expected

    @pytest.mark.parametrize("params", [np.zeros(4, dtype=np.float32), np.zeros((4, 4))[:, ::2]])
    def test_refuses_arrays_it_cannot_update_in_place(self, params):
        with pytest.raises(TypeError):
            adam_step(params, np.zeros(params.shape), init_adam(params), lr=1e-3)


def _reference_adam(params: dict, grads: dict, m: dict, v: dict, t: int, lr: float,
                    beta1=0.9, beta2=0.999, eps=1e-8) -> dict:
    """The per-array update ADAM applied when parameters were name-keyed dicts."""
    out = {}
    for name, p in params.items():
        g = np.asarray(grads[name], dtype=np.float64)
        m[name] = beta1 * m[name] + (1.0 - beta1) * g
        v[name] = beta2 * v[name] + (1.0 - beta2) * g * g
        m_hat = m[name] / (1.0 - beta1 ** t)
        v_hat = v[name] / (1.0 - beta2 ** t)
        out[name] = np.asarray(p, dtype=np.float64) - lr * m_hat / (np.sqrt(v_hat) + eps)
    return out


def test_in_place_update_equals_per_array_formula_bit_for_bit():
    """Float32 gradients, as training passes them, over arrays that straddle
    chunk boundaries and a short last chunk."""
    rng = np.random.default_rng(5)
    sizes = {"a": 3 * CHUNK // 2, "b": 7, "c": CHUNK + 1}
    bounds = np.cumsum([0, *sizes.values()])
    params = rng.normal(size=bounds[-1])
    state = init_adam(params)
    ref = {name: params[lo:hi].copy() for name, lo, hi in zip(sizes, bounds, bounds[1:])}
    m = {name: np.zeros_like(p) for name, p in ref.items()}
    v = {name: np.zeros_like(p) for name, p in ref.items()}
    for t in range(1, 6):
        grad = rng.normal(scale=0.1, size=params.size).astype(np.float32)
        adam_step(params, grad, state, lr=1e-3)
        ref = _reference_adam(ref, {name: grad[lo:hi] for name, lo, hi in zip(sizes, bounds, bounds[1:])},
                              m, v, t, lr=1e-3)
        assert params.tobytes() == np.concatenate(list(ref.values())).tobytes(), t
        assert state.m.tobytes() == np.concatenate(list(m.values())).tobytes(), t
        assert state.v.tobytes() == np.concatenate(list(v.values())).tobytes(), t
