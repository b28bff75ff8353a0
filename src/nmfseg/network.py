"""Frame-level segmentation network with handwritten reverse-mode gradients.

Architecture: a 1x1 bottleneck projects D input features to a fixed channel
width, followed by 3 blocks of 5 dilated 1-D convolutions (kernel 3,
dilations 1,2,4,8,16, ReLU after each layer).  Each block adds a residual
connection from its input to its conv-path output; the block outputs are
summed into a skip path that feeds a final 1x1 convolution whose ReLU output
is the non-negative activation matrix H.  Class logits are theta @ H with no
bias.  All convolutions zero-pad symmetrically so the frame count never
changes.

Parameters: ``parameter_table`` lays out the 35 trainable arrays in one
vector, ``SegModel.flat``, whose named arrays are views into it; gradients,
ADAM state and the checkpoint payload are vectors with the same layout.

Precision: a forward pass computes in the dtype of the model's parameters,
whatever dtype the input batch has.  Checkpoints store float32, and
``model_from_bytes`` loads float32, so every model that infers (a reloaded
checkpoint, the training worker, the model ``training.train`` returns) runs
float32.  Only models built by ``init_model`` hold float64; the
finite-difference checks use them.

Forward and gradients: ``_forward_cache`` is the one loop over the
bottleneck, the 15 dilated convs and the head.  Its cache keeps post-ReLU
outputs only (``act > 0`` is each ReLU's mask bit for bit, the head's
included): the flat input, each conv layer's input and output, the skip sum,
H and the logits.  ``encode`` is ``_forward_cache`` without the cache
(``keep`` false): it holds the flat input, which is the tap scratch once the
bottleneck has read it, the residual stream, added to in place and then
overwritten by H, two layer buffers used in turn, and the skip sum.  It runs
over pieces of at most ``ENCODE_COLUMNS`` (4,160) guarded columns, all on
one workspace: short samples in groups, and a longer one in time chunks
that overlap by twice the receptive field's reach of 93 frames (3 blocks x
(1+2+4+8+16)).  So its memory beyond the H and logits it returns stays that
of one 4,160-column pass however long the input, and its output is that of
one pass over the whole batch, bit for bit.
``_backward_from_cache`` carries loss gradients on the logits and on H back
through the cache, into each parameter's slice of one gradient vector.  Both
passes write their full-width arrays into a ``Workspace``, so a caller that
passes the same one to every step (as ``training.train`` does) allocates
them once.  Both passes only read the model, so threads may run them on
separate workspaces at once: the engine in ``training`` runs one batch shard
per thread, each on a child of its step workspace, and sums the shards'
gradient vectors.  The objective and that one loss-and-gradient engine live
in ``training``.

Checkpoints use the "NSM1" layout: magic; u32 header fields D, K, C,
channels, kernel, block count, dilation count, then the dilation list; a u64
byte length followed by an embedded "NSD1" dictionary blob (length 0 when no
dictionary is attached); then ``flat`` as little-endian f32.  The loader
accepts only this architecture's kernel, block count and dilations.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, FormatError, NumericError
from .frontend import FeatureSequence
from .nmf import Activations, Dictionary, dictionary_from_bytes, dictionary_to_bytes

MODEL_MAGIC = b"NSM1"

DEFAULT_CHANNELS = 64
DEFAULT_DILATIONS = (1, 2, 4, 8, 16)
DEFAULT_BLOCKS = 3
KERNEL = 3

# Fixed affine input standardization.  Log-compressed features with a 1e-10
# floor live in roughly [-23, 4]; mapping through (s - CENTER) / SCALE keeps
# initial activations O(1) regardless of recording gain.  The constants are
# part of the architecture, not trained state.
INPUT_CENTER = -11.5
INPUT_SCALE = 11.5

# guarded flat columns per ``encode`` forward pass, whatever the batch's B and T.
# Not 4,096: rows of a power-of-two width alias in the CPU caches, and 4,096-column
# passes took about 8 % longer per column than 4,160-column ones (float32, 2 vCPUs)
ENCODE_COLUMNS = 4160


@dataclass
class LabelMatrix:
    """Binary frame labels (C x T) with a per-class annotation mask."""

    values: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        self.mask = np.asarray(self.mask, dtype=bool)
        if self.values.ndim != 2:
            raise DimensionError(f"labels must be 2-D, got shape {self.values.shape}")
        if self.mask.shape != (self.values.shape[0],):
            raise DimensionError(f"mask shape {self.mask.shape} does not match {self.values.shape[0]} classes")
        if not np.all((self.values == 0) | (self.values == 1)):
            raise ValueError("labels must be binary")

    @property
    def classes(self) -> int:
        return self.values.shape[0]

    @property
    def frames(self) -> int:
        return self.values.shape[1]


def _conv_name(block: int, layer: int, part: str) -> str:
    return f"block{block}.conv{layer}.{part}"


def parameter_table(d: int, k: int, c: int, channels: int) -> list[tuple[str, tuple]]:
    """Name and shape of every trainable array, in NSM1 order: the one statement of the layout."""
    convs = [(_conv_name(b, l, part), shape) for b in range(DEFAULT_BLOCKS)
             for l in range(len(DEFAULT_DILATIONS))
             for part, shape in (("w", (channels, channels, KERNEL)), ("b", (channels,)))]
    return [("bneck_w", (channels, d)), ("bneck_b", (channels,)), *convs,
            ("out_w", (k, channels)), ("out_b", (k,)), ("theta", (c, k))]


def parameter_count(d: int, k: int, c: int, channels: int) -> int:
    return sum(math.prod(shape) for _, shape in parameter_table(d, k, c, channels))


class SegModel:
    """Encoder + linear head parameters, plus an optional frozen dictionary.

    ``bneck_w``, ``bneck_b``, ``conv_w``/``conv_b`` ([block][layer]), ``out_w``,
    ``out_b`` and ``theta`` are views into ``flat``, rebound when it is
    assigned, so forward passes and ``save_model`` read what a view write set.
    """

    n_blocks = DEFAULT_BLOCKS
    dilations = DEFAULT_DILATIONS
    kernel = KERNEL

    def __init__(self, d: int, k: int, c: int, channels: int, flat: np.ndarray,
                 w_ref: Dictionary | None = None):
        self.d, self.k, self.c, self.channels = d, k, c, channels
        self.flat = flat
        self.w_ref = w_ref

    @property
    def flat(self) -> np.ndarray:
        return self._flat

    @flat.setter
    def flat(self, vector: np.ndarray) -> None:
        views, n = dict(self.parameters(vector)), len(self.dilations)
        self._flat = vector
        self.conv_w = [[views.pop(_conv_name(b, l, "w")) for l in range(n)] for b in range(self.n_blocks)]
        self.conv_b = [[views.pop(_conv_name(b, l, "b")) for l in range(n)] for b in range(self.n_blocks)]
        vars(self).update(views)  # bneck_w, bneck_b, out_w, out_b, theta

    def parameters(self, vector: np.ndarray | None = None) -> list[tuple[str, np.ndarray]]:
        """(name, view) of every trainable array in checkpoint order (w_ref excluded).

        The views are into ``vector`` (default: ``flat``): any 1-D array laid
        out like ``flat``, such as a gradient.
        """
        vector = self._flat if vector is None else vector
        table = parameter_table(self.d, self.k, self.c, self.channels)
        ends = np.cumsum([math.prod(shape) for _, shape in table])
        if vector.shape != (ends[-1],):
            raise DimensionError(f"parameter vector of shape {vector.shape}, model has {ends[-1]} values")
        return [(name, part.reshape(shape)) for (name, shape), part in zip(table, np.split(vector, ends[:-1]))]

    def parameter_count(self) -> int:
        return self._flat.size

    def load_parameters(self, params: dict, dtype=np.float64) -> None:
        """Replace ``flat`` by a new ``dtype`` vector holding the named arrays."""
        vector = np.empty(self._flat.size, dtype=dtype)
        for name, view in self.parameters(vector):
            new = np.asarray(params[name])
            if new.shape != view.shape:
                raise DimensionError(f"{name}: shape {new.shape} != {view.shape}")
            view[...] = new
        self.flat = vector

    def attach_dictionary(self, dictionary: Dictionary) -> None:
        if dictionary.components != self.k:
            raise DimensionError(f"dictionary has {dictionary.components} components, model expects {self.k}")
        self.w_ref = dictionary


def init_model(d: int, k: int, c: int, seed: int, channels: int = DEFAULT_CHANNELS) -> SegModel:
    """Seeded uniform init, weights drawn in checkpoint order with bound
    sqrt(1/fan_in) (fan-in: the shape past the output axis); biases are zero."""
    if min(d, k, c) < 1:
        raise ValueError(f"dimensions must be >= 1, got D={d}, K={k}, C={c}")
    rng = np.random.default_rng(seed)
    model = SegModel(d, k, c, channels, np.zeros(parameter_count(d, k, c, channels)))
    for _, arr in model.parameters():
        if arr.ndim > 1:
            bound = np.sqrt(1.0 / math.prod(arr.shape[1:]))
            arr[...] = rng.uniform(-bound, bound, size=arr.shape)
    return model


class _Layout:
    """Guarded flat layout for a batch.

    A (B, C, T) batch is stored as one (C, B*(T + 2P)) matrix where P is the
    maximum dilation.  Each sample occupies a slot of width S = T + 2P whose
    first and last P columns are structural zeros.  Dilated taps then become
    plain column shifts of the whole matrix (one GEMM per tap, no per-sample
    bookkeeping): a tap can only ever read its own sample's guard zeros, never
    a neighbor.  Guards are re-zeroed after every bias add so they stay exact
    zeros; ReLU gates then keep guard gradients at zero as well.
    """

    def __init__(self, batch: int, frames: int, pad: int):
        self.b = batch
        self.t = frames
        self.p = pad
        self.s = frames + 2 * pad
        self.n = batch * self.s

    def core(self, flat: np.ndarray) -> np.ndarray:
        """(C, B, T) view of the payload columns."""
        return flat.reshape(flat.shape[0], self.b, self.s)[:, :, self.p:self.p + self.t]

    def zero_guards(self, flat: np.ndarray) -> None:
        view = flat.reshape(flat.shape[0], self.b, self.s)
        view[:, :, :self.p] = 0
        view[:, :, self.s - self.p:] = 0


class Workspace:
    """Reusable arrays for a forward pass or a training step, one flat buffer per role.

    ``take(role, shape, dtype)`` returns a C-contiguous view of the first
    ``prod(shape)`` elements of the role's buffer, growing the buffer on first
    use or when a larger shape asks for it, so a shorter batch reuses the same
    memory.  A view holds whatever the role's last user wrote: the caller
    writes every element it reads.  A forward cache and its backward pass
    share one workspace; the next call on that workspace overwrites both.
    ``child(i)`` is a workspace of its own, one per batch shard, so shards
    that run at the same time never share a buffer.
    """

    def __init__(self):
        self._buffers: dict = {}
        self._children: dict = {}

    def child(self, index: int) -> "Workspace":
        """The ``index``-th child workspace, created on first use."""
        if index not in self._children:
            self._children[index] = Workspace()
        return self._children[index]

    def take(self, role, shape: tuple, dtype) -> np.ndarray:
        dtype = np.dtype(dtype)
        size = math.prod(shape)
        buf = self._buffers.get((role, dtype))
        if buf is None or buf.size < size:
            buf = self._buffers[(role, dtype)] = np.empty(size, dtype=dtype)
        return buf[:size].reshape(shape)


def _taps(w: np.ndarray) -> np.ndarray:
    """Contiguous per-tap weight matrices, stacked (a strided slice would miss BLAS)."""
    return np.ascontiguousarray(w.transpose(2, 0, 1))


def _dconv_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray, d: int, lay: _Layout,
                   out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """Taps at -d, 0, +d over the guarded flat matrix.

    Writes into ``out`` (C, N); the two shifted taps share ``tmp``, a flat
    scratch of at least C * (N - d) elements.
    """
    w0, w1, w2 = _taps(w)
    y = np.matmul(w1, x, out=out)
    tmp = tmp[:len(y) * (y.shape[1] - d)].reshape(len(y), -1)
    y[:, d:] += np.matmul(w0, x[:, :-d], out=tmp)
    y[:, :-d] += np.matmul(w2, x[:, d:], out=tmp)
    y += b[:, None]
    lay.zero_guards(y)
    return y


def _dconv_grads(g_pre: np.ndarray, x: np.ndarray, w: np.ndarray, d: int, lay: _Layout, g_w: np.ndarray,
                 g_b: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """Weight and bias gradients into ``g_w`` and ``g_b``; returns the input gradient.

    ``g_pre`` must have zero guards.  The input gradient goes into ``out``
    (C, N), with ``tmp`` as tap scratch as in ``_dconv_forward``.
    """
    w0, w1, w2 = _taps(w)
    g_w[:, :, 1] = g_pre @ x.T
    g_w[:, :, 0] = g_pre[:, d:] @ x[:, :-d].T
    g_w[:, :, 2] = g_pre[:, :-d] @ x[:, d:].T
    g_x = np.matmul(w1.T, g_pre, out=out)
    tmp = tmp[:len(g_x) * (g_x.shape[1] - d)].reshape(len(g_x), -1)
    g_x[:, :-d] += np.matmul(w0.T, g_pre[:, d:], out=tmp)
    g_x[:, d:] += np.matmul(w2.T, g_pre[:, :-d], out=tmp)
    lay.zero_guards(g_x)
    g_pre.sum(axis=1, out=g_b)
    return g_x


def _check_batch(model: SegModel, s: np.ndarray) -> None:
    if s.ndim != 3 or s.shape[1] != model.d:
        raise DimensionError(f"expected batch shape (B, {model.d}, T), got {s.shape}")


def _bottleneck(model: SegModel, s: np.ndarray, ws: Workspace) -> tuple[_Layout, np.ndarray, np.ndarray]:
    """Layout, standardized flat input, and bottleneck output for a (B, D, T) batch.

    The batch is cast to the parameter dtype first, so the whole pass runs in
    the model's precision and a float64 caller never promotes a float32 model;
    it is standardized straight into the guarded core of the flat input.
    """
    s = np.asarray(s, dtype=model.bneck_w.dtype)
    _check_batch(model, s)
    lay = _Layout(s.shape[0], s.shape[2], max(model.dilations))
    s_flat = ws.take("s_flat", (model.d, lay.n), s.dtype)
    lay.zero_guards(s_flat)
    std = np.subtract(s.transpose(1, 0, 2), INPUT_CENTER, out=lay.core(s_flat))
    std *= np.asarray(1.0 / INPUT_SCALE, dtype=s.dtype)
    x = np.matmul(model.bneck_w, s_flat, out=ws.take("bneck", (model.channels, lay.n), s.dtype))
    x += model.bneck_b[:, None]
    lay.zero_guards(x)
    return lay, s_flat, x


def encode(model: SegModel, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Forward-only pass over a (B, D, T) batch: H (B, K, T) and logits (B, C, T).

    The inference entry point: ``_forward_cache`` without the cache, over
    pieces of the batch of at most ``ENCODE_COLUMNS`` guarded columns, all on
    one workspace of its own that is dropped on return.  Consecutive samples
    are grouped while their T + 2P columns fit; a sample that does not fit
    alone is cut into time chunks of ``ENCODE_COLUMNS - 2P`` frames that
    overlap by twice the receptive field's reach of 93 frames (3 blocks x
    (1+2+4+8+16)).  A chunk keeps only the frames at least 93 from a cut, and
    they see the input the whole sample gives them.  H and the logits were
    those of one pass over the whole batch, bit for bit, at every piece width
    tested (256 to 4,160 columns, at one and two OpenBLAS threads): a GEMM
    output column's bits did not depend on how many columns it ran with.
    Each piece's kept frames are written straight into the arrays returned,
    and memory beyond them stays that of one ``ENCODE_COLUMNS``-wide pass,
    however long T is.
    """
    s = np.asarray(s)
    _check_batch(model, s)
    b, _, t = s.shape
    h = np.empty((b, model.k, t), model.bneck_w.dtype)
    logits = np.empty((b, model.c, t), model.bneck_w.dtype)
    ws = Workspace()
    for rows, lo, hi, start, stop in _encode_pieces(model, b, t):
        out = _forward_cache(model, s[rows, :, lo:hi], ws, keep=False)
        lay, kept = out["layout"], slice(start - lo, stop - lo)
        h[rows, :, start:stop] = lay.core(out["h_flat"])[:, :, kept].transpose(1, 0, 2)
        logits[rows, :, start:stop] = lay.core(out["logits_flat"])[:, :, kept].transpose(1, 0, 2)
    return h, logits


def _encode_pieces(model: SegModel, batch: int, frames: int) -> list[tuple[slice, int, int, int, int]]:
    """``(samples, lo, hi, start, stop)`` of each ``encode`` pass: it runs on frames
    ``lo:hi`` of those samples and keeps frames ``start:stop``."""
    pad = max(model.dilations)
    group = ENCODE_COLUMNS // (frames + 2 * pad)
    if group:
        return [(slice(i, i + group), 0, frames, 0, frames) for i in range(0, batch, group)]
    # every chunk but the last spans the whole width, the first included, so the
    # first pass sizes the workspace; a chunk keeps its frames reach or more from a cut
    width = ENCODE_COLUMNS - 2 * pad
    reach = model.n_blocks * (model.kernel // 2) * sum(model.dilations)
    step = width - 2 * reach
    return [(slice(i, i + 1), lo, min(lo + width, frames), lo + reach if lo else 0,
             lo + width - reach if lo + width < frames else frames)
            for i in range(batch) for lo in range(0, frames - width + step, step)]


def _forward_cache(model: SegModel, s: np.ndarray, ws: Workspace | None = None, keep: bool = True) -> dict:
    """The forward pass over a (B, D, T) batch: its layout, flat H and flat logits
    (``layout.core`` gives their (K, B, T) and (C, B, T) views), and with
    ``keep`` what the backward pass reads.  Every full-width array lives in
    ``ws`` (a fresh workspace when None).
    """
    ws = Workspace() if ws is None else ws
    lay, s_flat, x = _bottleneck(model, s, ws)
    dtype, c, n, depth = x.dtype, model.channels, lay.n, len(model.dilations)
    if keep:
        tap = ws.take("tap", (c * n,), dtype)
        acts = ws.take("acts", (model.n_blocks, depth, c, n), dtype)
        # each block's output is the next block's input; the last one only feeds
        # the skip sum, so it goes into the tap scratch its block has spent
        outs = [*ws.take("blocks", (model.n_blocks - 1, c, n), dtype), tap.reshape(c, n)]
    else:  # the spent flat input is the tap scratch, and the residual stream is added to in place
        tap = ws.take("s_flat", (c * n,), dtype)
        pair = ws.take("acts", (2, c, n), dtype)
        acts = [[pair[l % 2] for l in range(depth)]] * model.n_blocks
        outs = [x] * model.n_blocks
    skip = ws.take("skip", (c, n), dtype)
    skip.fill(0)
    layer_inputs = []
    for b in range(model.n_blocks):
        u = v = x
        inputs_b = []
        for l, dil in enumerate(model.dilations):
            inputs_b.append(v)
            v = _dconv_forward(v, model.conv_w[b][l], model.conv_b[b][l], dil, lay, out=acts[b][l], tmp=tap)
            np.maximum(v, 0.0, out=v)
        x = np.add(u, v, out=outs[b])
        skip += x
        layer_inputs.append(inputs_b)
    # without the cache H goes over the spent residual stream
    h_flat = np.matmul(model.out_w, skip, out=ws.take("h" if keep else "bneck", (model.k, n), dtype))
    h_flat += model.out_b[:, None]
    lay.zero_guards(h_flat)
    np.maximum(h_flat, 0.0, out=h_flat)
    logits_flat = np.matmul(model.theta, h_flat, out=ws.take("logits", (model.c, n), dtype))
    cache = {"layout": lay, "h_flat": h_flat, "logits_flat": logits_flat}
    if keep:
        cache.update(s_flat=s_flat, skip=skip, layer_inputs=layer_inputs, layer_acts=acts)
    return cache


def _backward_from_cache(model: SegModel, cache: dict, g_logits_flat: np.ndarray,
                         g_h_extra_flat: np.ndarray | None = None, ws: Workspace | None = None):
    """Propagate flat-layout loss gradients to every trainable parameter.

    Returns a fresh gradient vector laid out like ``model.flat``, so the next
    step cannot touch it.  Both gradient inputs must carry zero guard columns.
    The full-width gradients live in ``ws`` (a fresh workspace when None).
    """
    ws = Workspace() if ws is None else ws
    lay = cache["layout"]
    h_flat = cache["h_flat"]
    dtype, width = h_flat.dtype, (model.channels, lay.n)
    grads = SegModel(model.d, model.k, model.c, model.channels, np.empty_like(model.flat))
    np.matmul(g_logits_flat, h_flat.T, out=grads.theta)
    g_h = np.matmul(model.theta.T, g_logits_flat, out=ws.take("g_h", h_flat.shape, dtype))
    if g_h_extra_flat is not None:
        g_h += g_h_extra_flat
    mask = np.greater(h_flat, 0, out=ws.take("mask", h_flat.shape, bool))  # H's ReLU mask
    g_pre_out = np.multiply(g_h, mask, out=ws.take("g_pre", h_flat.shape, dtype))
    np.matmul(g_pre_out, cache["skip"].T, out=grads.out_w)
    g_pre_out.sum(axis=1, out=grads.out_b)
    g_skip = np.matmul(model.out_w.T, g_pre_out, out=ws.take("g_skip", width, dtype))

    # every conv layer's ReLU mask, pre-activation gradient and input gradient
    # reuse one buffer each: a layer's input gradient is spent once the layer
    # below has masked it into g_pre
    mask = ws.take("mask", width, bool)
    g_pre = ws.take("g_pre", width, dtype)
    g_in = ws.take("g_in", width, dtype)
    tap = ws.take("tap", (width[0] * width[1],), dtype)
    g_xb = ws.take("g_xb", width, dtype)
    g_x = ws.take("g_x", width, dtype)  # gradient on the residual stream from blocks above
    g_x.fill(0)
    for b in range(model.n_blocks - 1, -1, -1):
        np.add(g_x, g_skip, out=g_xb)  # each block output feeds the skip sum
        g_v = g_xb
        for l in range(len(model.dilations) - 1, -1, -1):
            np.greater(cache["layer_acts"][b][l], 0, out=mask)
            np.multiply(g_v, mask, out=g_pre)
            g_v = _dconv_grads(g_pre, cache["layer_inputs"][b][l], model.conv_w[b][l],
                               model.dilations[l], lay, grads.conv_w[b][l], grads.conv_b[b][l],
                               out=g_in, tmp=tap)
        np.add(g_xb, g_v, out=g_x)
    np.matmul(g_x, cache["s_flat"].T, out=grads.bneck_w)
    g_x.sum(axis=1, out=grads.bneck_b)
    return grads.flat


def forward(model: SegModel, s) -> tuple[Activations, np.ndarray]:
    """Encode one feature sequence into (H, logits)."""
    h, logits = encode(model, np.asarray(s.values if isinstance(s, FeatureSequence) else s)[None])
    return Activations(values=h[0]), logits[0]


def sigmoid(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def bce_cells(z: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-cell BCE from logits as max(z, 0) - z*y + log(1 + exp(-|z|)), which never
    overflows; in the operands' precision, so float32 logits keep a float32 log term."""
    return np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))


def bce_masked(logits: np.ndarray, labels: LabelMatrix) -> float:
    """Binary cross-entropy from logits, averaged over annotated (class, frame) cells.

    Returns 0 when every class is masked out.
    """
    logits = np.asarray(logits, dtype=np.float64)
    if logits.shape != labels.values.shape:
        raise DimensionError(f"logits {logits.shape} vs labels {labels.values.shape}")
    n_cells = int(labels.mask.sum()) * labels.frames
    if n_cells == 0:
        return 0.0
    return float(bce_cells(logits[labels.mask], labels.values[labels.mask]).sum() / n_cells)


def save_model(model: SegModel, path) -> None:
    """Write an NSM1 checkpoint, embedding the attached dictionary verbatim.

    A parameter that is non-finite once rounded to float32 raises
    NumericError before the file is opened.
    """
    payload = np.asarray(model.flat, dtype="<f4")
    if not np.all(np.isfinite(payload)):
        bad = next(pname for pname, arr in model.parameters(payload) if not np.all(np.isfinite(arr)))
        raise NumericError(f"refusing to save non-finite parameter {bad}")
    dict_blob = dictionary_to_bytes(model.w_ref) if model.w_ref is not None else b""
    with open(path, "wb") as fh:
        fh.write(MODEL_MAGIC)
        fh.write(struct.pack("<7I", model.d, model.k, model.c, model.channels,
                             model.kernel, model.n_blocks, len(model.dilations)))
        fh.write(struct.pack(f"<{len(model.dilations)}I", *model.dilations))
        fh.write(struct.pack("<Q", len(dict_blob)))
        fh.write(dict_blob)
        fh.write(payload.tobytes())


def load_model(path) -> SegModel:
    with open(path, "rb") as fh:
        blob = fh.read()
    return model_from_bytes(blob, name=str(path))


def model_from_bytes(blob: bytes, name: str = "<bytes>") -> SegModel:
    """Parse an NSM1 checkpoint.

    Every size is checked against ``len(blob)`` before anything is unpacked
    or allocated, so a truncated or forged file raises FormatError, as does a
    non-finite parameter.  Parameters load as float32, the stored precision.
    """
    if blob[:4] != MODEL_MAGIC:
        raise FormatError(f"{name}: bad magic {blob[:4]!r}")
    if len(blob) < 4 + 28:
        raise FormatError(f"{name}: truncated header")
    d, k, c, channels, kernel, n_blocks, n_dils = struct.unpack("<7I", blob[4:32])
    off = 32
    if len(blob) < off + 4 * n_dils + 8:
        raise FormatError(f"{name}: truncated header ({n_dils} dilations)")
    dilations = struct.unpack(f"<{n_dils}I", blob[off:off + 4 * n_dils])
    off += 4 * n_dils
    (dict_len,) = struct.unpack("<Q", blob[off:off + 8])
    off += 8
    if dict_len > len(blob) - off:
        raise FormatError(f"{name}: dictionary of {dict_len} bytes overruns the file")
    w_ref = None
    if dict_len:
        w_ref = dictionary_from_bytes(blob[off:off + dict_len], name=f"{name}[dict]")
        off += dict_len

    if kernel != KERNEL:
        raise FormatError(f"{name}: unsupported kernel width {kernel}")
    if (n_blocks, dilations) != (DEFAULT_BLOCKS, DEFAULT_DILATIONS):
        raise FormatError(f"{name}: unsupported architecture: {n_blocks} blocks of dilations {dilations}")
    if min(d, k, c, channels) < 1:
        raise FormatError(f"{name}: zero dimension in header {(d, k, c, channels)}")
    count = parameter_count(d, k, c, channels)
    if 4 * count != len(blob) - off:
        raise FormatError(f"{name}: header implies {4 * count} parameter bytes, file holds {len(blob) - off}")
    payload = np.frombuffer(blob, dtype="<f4", offset=off)
    if not np.all(np.isfinite(payload)):
        raise FormatError(f"{name}: non-finite parameters")
    model = SegModel(d, k, c, channels, payload.astype(np.float32))
    if w_ref is not None:
        model.attach_dictionary(w_ref)
    return model
