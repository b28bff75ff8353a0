"""ADAM (Kingma & Ba, ICLR 2015) over one float64 parameter array, updated in place.

The update runs over fixed-size chunks: a temporary the size of a desk-shape
parameter vector (1.56 MB) would be a fresh memory mapping, paged in again on
every step.  Elementwise arithmetic does not depend on how the array is split,
so the result is bit for bit the per-array formula.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

CHUNK = 8192  # elements; 64 KiB temporaries stay below the allocator's mmap threshold
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # Kingma & Ba's moment decay rates and denominator guard


@dataclass
class AdamState:
    """Float64 first/second moments, shaped like the parameters, and the step counter."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0


def init_adam(params: np.ndarray) -> AdamState:
    return AdamState(m=np.zeros(params.shape), v=np.zeros(params.shape))


def adam_step(params: np.ndarray, grads: np.ndarray, state: AdamState, lr: float) -> None:
    """One bias-corrected ADAM update of the C-contiguous float64 ``params``, in place.

    ``grads`` has the shape of ``params``; a float32 gradient is widened to
    float64 before any product.
    """
    if params.dtype != np.float64 or not params.flags.c_contiguous or grads.shape != params.shape:
        raise TypeError(f"ADAM updates C-contiguous float64 parameters with a gradient of their "
                        f"shape, got {params.dtype} {params.shape} and {grads.shape}")
    state.t += 1
    p_all, g_all, m_all, v_all = (a.reshape(-1) for a in (params, grads, state.m, state.v))
    for lo in range(0, p_all.size, CHUNK):
        part = slice(lo, lo + CHUNK)
        g = np.asarray(g_all[part], dtype=np.float64)
        m, v = m_all[part], v_all[part]
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * g * g
        m_hat = m / (1.0 - BETA1 ** state.t)
        v_hat = v / (1.0 - BETA2 ** state.t)
        p_all[part] -= lr * m_hat / (np.sqrt(v_hat) + EPS)
