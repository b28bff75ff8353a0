"""Sparse NMF: dictionary pretraining, reconstruction, NSD1 dictionary files.

The factorization X ~ WH (all entries non-negative) is fitted by alternating
multiplicative updates

    H <- H * (W^T X) / (W^T W H + mu + delta)
    W <- W * (X H^T) / (W H H^T + delta)

where ``mu`` weights an L1 penalty on H and ``delta`` guards against 0/0.
The traced objective is 0.5*||X - WH||_F^2 + mu*||H||_1; under this scaling
both updates are exact majorization-minimization steps, so the objective is
non-increasing at every iteration.

``train_snmf`` never forms WH.  It records the objective from Gram products,

    0.5*(||X||^2 - 2<W, X H^T> + <W^T W, H H^T>) + mu*sum(H),

the Frobenius identity scikit-learn's ``_beta_divergence`` uses for sparse
inputs.  ||X||^2 is taken once; X H^T and H H^T are the products the W update
needs anyway, and W^T W of the new W is shared with the next H update, so an
iteration costs six GEMMs and no F x T temporaries.  ``update_h`` forms its
quotient in the buffer of W^T X, and ``nmf_loss`` (the initial objective)
works in place in one F x T buffer for WH, so SNMF holds X and at most one
F x T temporary.  ``update_h`` and
``update_w`` accept these products as optional arguments; ``snmf_objective``
remains the definition the Gram form is tested against.  The Gram form loses
about eps*||X||^2 in absolute terms to cancellation, which only shows when the
fit is near exact.

The L1 term drives many activations towards zero geometrically, through the
subnormal range below ``np.finfo(float).tiny``, where x86 arithmetic is very
slow.  On a 2-vCPU x86 host, at the default desk shape (X 257 x 2646,
k = 64), a block of 50 iterations took 0.55 s instead of 0.26 s once H held
a few hundred subnormal entries.  ``update_h`` therefore flushes updated entries
below ``tiny`` to zero, which is already absorbing.  While any entry of its
row is normal, a subnormal entry changes no bit of W^T W H + mu + delta or of
X H^T, so W and the trace are those of the unflushed loop.  The one edge
case: a row whose entries all turn subnormal at once becomes zero, so its
column decays to zero and is reset as a dead column; without the flush the
column would be normalized from values near 1e-297.

Trained dictionaries persist as "NSD1" files: magic, F and K as little-endian
u32, F*K little-endian f32 values column by column, then a 16-byte footer
holding the training mu (f64) and seed (i64).
"""

from __future__ import annotations

import struct
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import NONNEG, POSITIVE, SEED, SIZE, DimensionError, FormatError, NumericError

DENOM_GUARD = 1e-12

DICTIONARY_MAGIC = b"NSD1"


@dataclass
class Dictionary:
    """Non-negative frequency codebook W (F x K) with unit-L2 columns."""

    values: np.ndarray
    mu: float = 0.0
    seed: int = 0
    objective_trace: list = field(default_factory=list, repr=False)
    # training diagnostics, set by train_snmf and not stored in NSD1 files
    stopped_on_tol: bool = False
    dead_columns_reset: int = 0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise DimensionError(f"dictionary must be 2-D, got shape {self.values.shape}")

    @property
    def freq_bins(self) -> int:
        return self.values.shape[0]

    @property
    def components(self) -> int:
        return self.values.shape[1]

    def validate(self, tol: float = 1e-6) -> None:
        if np.any(self.values < 0):
            raise ValueError("dictionary has negative entries")
        norms = np.linalg.norm(self.values, axis=0)
        if np.any(np.abs(norms - 1.0) > tol):
            raise ValueError(f"dictionary columns not unit-norm (max deviation {np.max(np.abs(norms - 1.0)):.2e})")


@dataclass
class Activations:
    """Non-negative activation matrix H (K x T)."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise DimensionError(f"activations must be 2-D, got shape {self.values.shape}")

    @property
    def components(self) -> int:
        return self.values.shape[0]

    @property
    def frames(self) -> int:
        return self.values.shape[1]


# the allowed range of each SnmfConfig field; config.SCHEMA checks its keys against these
SNMF_RANGES = {"k": SIZE, "mu": NONNEG, "max_iters": SIZE, "rel_tol": POSITIVE, "seed": SEED}


@dataclass
class SnmfConfig:
    """Settings for sparse-NMF dictionary training; a value out of its range
    in ``SNMF_RANGES`` raises ConfigError."""

    k: int = 256
    mu: float = 0.1
    max_iters: int = 500
    rel_tol: float = 1e-5
    seed: int = 0

    def __post_init__(self):
        for key, allowed in SNMF_RANGES.items():
            allowed.check(key, getattr(self, key))


def _check_shapes(x: np.ndarray, w: np.ndarray, h: np.ndarray) -> None:
    if w.shape[0] != x.shape[0] or h.shape[1] != x.shape[1] or w.shape[1] != h.shape[0]:
        raise DimensionError(f"shape mismatch: X {x.shape}, W {w.shape}, H {h.shape}")


def update_h(x: np.ndarray, w: np.ndarray, h: np.ndarray, mu: float,
             wtw: np.ndarray | None = None) -> np.ndarray:
    """One multiplicative activation update; zeros in H are absorbing.

    ``wtw`` is W^T W when the caller already holds it; it is formed here
    otherwise.

    Updated entries below the smallest normal float (``np.finfo.tiny``) are
    flushed to zero, so later GEMMs and ufuncs never run on subnormal
    operands, which x86 processes far more slowly.  While a row keeps one
    normal entry, a subnormal entry changes no bit of W^T W H + mu + delta
    or of X H^T, so the flush moves no iterate of W.  A row that turns
    wholly subnormal becomes zero, and ``train_snmf`` resets its column as
    dead.  A NaN stays NaN, so the divergence check still fires.
    """
    _check_shapes(x, w, h)
    if wtw is None:
        wtw = w.T @ w
    numer = w.T @ x
    denom = wtw @ h
    denom += mu
    denom += DENOM_GUARD
    h = np.multiply(h, numer, out=numer)
    h /= denom
    h *= h >= np.finfo(h.dtype).tiny
    return h


def update_w(x: np.ndarray, w: np.ndarray, h: np.ndarray,
             xht: np.ndarray | None = None, hht: np.ndarray | None = None) -> np.ndarray:
    """One multiplicative dictionary update (no normalization applied).

    ``xht`` and ``hht`` are X H^T and H H^T when the caller already holds
    them; each is formed here otherwise.
    """
    _check_shapes(x, w, h)
    if xht is None:
        xht = x @ h.T
    if hht is None:
        hht = h @ h.T
    denom = w @ hht + DENOM_GUARD
    return w * xht / denom


def normalize_columns(w: np.ndarray, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scale W columns to unit L2 norm, folding the norms into H rows.

    The product WH is unchanged.  All-zero columns are left untouched.
    """
    norms = np.linalg.norm(w, axis=0)
    safe = np.where(norms > 0, norms, 1.0)
    return w / safe, h * safe[:, None]


def reconstruct(w: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Spectrogram estimate WH."""
    if w.shape[1] != h.shape[0]:
        raise DimensionError(f"inner dimensions disagree: W {w.shape}, H {h.shape}")
    return w @ h


def nmf_loss(x: np.ndarray, w: np.ndarray, h: np.ndarray) -> float:
    """Squared reconstruction error ||X - WH||_F^2 (sum over all entries)."""
    _check_shapes(x, w, h)
    diff = w @ h
    np.subtract(x, diff, out=diff)
    return float(np.sum(np.square(diff, out=diff)))


def snmf_objective(x: np.ndarray, w: np.ndarray, h: np.ndarray, mu: float) -> float:
    """Training objective 0.5*||X - WH||_F^2 + mu*||H||_1."""
    return 0.5 * nmf_loss(x, w, h) + mu * float(np.sum(np.abs(h)))


def train_snmf(x: np.ndarray, cfg: SnmfConfig) -> tuple[Dictionary, Activations]:
    """Fit a sparse NMF dictionary to a non-negative matrix.

    Alternates activation and dictionary updates until the relative objective
    decrease falls below ``cfg.rel_tol`` or ``cfg.max_iters`` is reached.
    The per-iteration objective values are recorded on the returned
    Dictionary; both updates are majorization-minimization steps, so the
    trace is non-increasing.  Column normalization (norms folded into H)
    happens once after the loop: doing it inside the loop would perturb the
    L1 term between iterations and break that guarantee.

    X is made contiguous once, so no GEMM copies a strided view again.  Each
    iteration forms W^T W, X H^T and H H^T once: X H^T and H H^T feed
    ``update_w`` and the objective, and W^T W of the new W feeds the
    objective and the next ``update_h``.  The objective is recorded in the
    Gram form of the module docstring (the initial point by
    ``snmf_objective``).  W and H are bit-identical to calling the updates
    without the shared products.

    The returned Dictionary reports ``stopped_on_tol`` (the relative decrease
    fell below ``cfg.rel_tol``) and ``dead_columns_reset`` (columns that
    decayed to zero and were replaced by the flat unit column).

    An all-zero input short-circuits: the (normalized) initial dictionary is
    returned with H = 0 and a zero objective.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    if np.any(x < 0):
        raise ValueError("input matrix has negative entries")
    f, t = x.shape
    if t < cfg.k:
        warnings.warn(f"only {t} frames for {cfg.k} components; dictionary may be underdetermined", stacklevel=2)

    rng = np.random.default_rng(cfg.seed)
    # uniform over (0, 1]: strictly positive so no component starts locked at zero
    w = 1.0 - rng.random((f, cfg.k))
    h = 1.0 - rng.random((cfg.k, t))

    if not np.any(x):
        w, _ = normalize_columns(w, h)
        return (
            Dictionary(values=w, mu=cfg.mu, seed=cfg.seed, objective_trace=[0.0]),
            Activations(values=np.zeros((cfg.k, t))),
        )

    w, h = normalize_columns(w, h)
    trace = [snmf_objective(x, w, h, cfg.mu)]
    xx = float(np.sum(x * x))
    wtw = w.T @ w
    stopped_on_tol = False
    for it in range(cfg.max_iters):
        h = update_h(x, w, h, cfg.mu, wtw=wtw)
        xht = x @ h.T
        hht = h @ h.T
        w = update_w(x, w, h, xht=xht, hht=hht)
        wtw = w.T @ w
        fit = xx - 2.0 * float(np.sum(w * xht)) + float(np.sum(wtw * hht))
        obj = 0.5 * fit + cfg.mu * float(np.sum(h))
        if not np.isfinite(obj):
            raise NumericError(f"objective diverged at iteration {it}")
        trace.append(obj)
        prev = trace[-2]
        if prev > 0 and abs(prev - obj) / prev < cfg.rel_tol:
            stopped_on_tol = True
            break

    w, h = normalize_columns(w, h)
    # a component that decayed to exactly zero carries no information; reset
    # it to a flat unit-norm column so downstream consumers see a valid codebook
    dead = ~np.any(w > 0, axis=0)
    if np.any(dead):
        w = w.copy()
        h = h.copy()
        w[:, dead] = 1.0 / np.sqrt(f)
        h[dead, :] = 0.0

    return (
        Dictionary(values=w, mu=cfg.mu, seed=cfg.seed, objective_trace=trace,
                   stopped_on_tol=stopped_on_tol, dead_columns_reset=int(np.sum(dead))),
        Activations(values=h),
    )


def dictionary_to_bytes(dictionary: Dictionary) -> bytes:
    """Serialize to the NSD1 layout."""
    f, k = dictionary.values.shape
    parts = [
        DICTIONARY_MAGIC,
        struct.pack("<II", f, k),
        np.asarray(dictionary.values, dtype="<f4").T.tobytes(),  # column-major
        struct.pack("<dq", dictionary.mu, dictionary.seed),
    ]
    return b"".join(parts)


def dictionary_from_bytes(blob: bytes, name: str = "<bytes>") -> Dictionary:
    if len(blob) < 12 + 16:
        raise FormatError(f"{name}: truncated header ({len(blob)} bytes)")
    if blob[:4] != DICTIONARY_MAGIC:
        raise FormatError(f"{name}: bad magic {blob[:4]!r}")
    f, k = struct.unpack("<II", blob[4:12])
    if f == 0 or k == 0:
        raise FormatError(f"{name}: zero dimension in header ({f} x {k})")
    count = f * k
    expected = 12 + 4 * count + 16
    if len(blob) != expected:
        raise FormatError(f"{name}: expected {expected} bytes, got {len(blob)}")
    values = np.frombuffer(blob, dtype="<f4", count=count, offset=12).reshape(k, f).T
    if not np.all(np.isfinite(values)):
        raise FormatError(f"{name}: non-finite dictionary entries")
    if np.any(values < 0):
        raise FormatError(f"{name}: negative dictionary entries")
    mu, seed = struct.unpack("<dq", blob[-16:])
    return Dictionary(values=values.astype(np.float64), mu=mu, seed=seed)


def save_dictionary(dictionary: Dictionary, path) -> None:
    with open(path, "wb") as fh:
        fh.write(dictionary_to_bytes(dictionary))


def load_dictionary(path) -> Dictionary:
    with open(path, "rb") as fh:
        blob = fh.read()
    return dictionary_from_bytes(blob, name=str(path))
