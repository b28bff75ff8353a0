"""Dataset assembly and the segmentation training loop.

Clips are cut into fixed-length segments on the feature frame grid; each
batch runs one forward/backward pass through the handwritten gradient engine
and one ADAM step.  The objective of a batch of B segments is

    (1 / B) * sum over segments of  alpha * BCE + beta * ||X - W H||^2 + gamma * ||H||_1

where a segment's BCE is averaged over its annotated (class, frame) cells,
but its reconstruction term is summed over all F x T cells and its L1 term
over all K x T cells, not averaged.  The frozen dictionary W never receives
gradient.

The reconstruction term is taken in its Gram form: with G = W^T W and
b_t = W^T x_t, ||x_t - W h_t||^2 = h_t . (G h_t - 2 b_t) + ||x_t||^2.
``train`` reduces each train clip's target to b (K x T) and its frame
energies while the clip loads (``reduce_targets``) and forms G once per run,
so it never holds an F x T target or residual.  Precision: G, the reduction
and the energies are float64, and b is stored in the target's dtype
(float32 in training); the gradient on H, 2 beta / B * (G h - b), is taken
in H's dtype, and the loss in float64, since the Gram form cancels badly in
float32.  ``reconstruction_error`` keeps the direct form.

``_batch_loss_and_grads`` is the one loss-and-gradient engine: training runs
it in float32, and the finite-difference checks run it on float64 models,
taking each perturbed loss from its forward-and-loss half ``_batch_loss``.
It splits a batch into ``parallel.SHARDS`` fixed shards, runs each on its own
thread and child workspace, and sums the shards' loss components and
gradients in shard order; the split depends on the batch size alone, so no
output depends on the thread count.  ``train`` hands every step one
``network.Workspace``, which holds the stacked batch and, in one child per
shard, each full-width activation, loss buffer and gradient, so steps after the
first allocate only the shard gradient vectors and small arrays; a call
without a workspace gets a fresh one and computes the same bytes.

Every inference stage walks its manifest rows through ``encode_rows``,
which loads, encodes and hands on each clip on the ``parallel`` pool, so two
clips are in flight and each is dropped once its caller's value is made.

The two ``parallel`` threads are the shards, the clip loads of
``load_split`` (``train`` loads both its splits through it), the dev clips
of ``dev_metrics``, the two passes of ``pretrain_dictionary`` and the rows
of an inference stage; ``parallel.map`` holds OpenBLAS at one thread while
they run.

Each clip's audio is read through ``frontend.read_wav``, whose source
reads samples from disk as they are asked for, and featurized in one blocked
pass (``frontend.featurize``), which writes the float32 features and, when
asked, the float32 reconstruction target; no clip's WAV bytes, whole float64
waveform or spectrogram is held.  ``load_clip`` takes a WAV's features from
the feature cache beside it (``frontend.wav_features``), so a clip that an
earlier stage or run featurized is not featurized again, and the pass runs
only for a target.  ``pretrain_dictionary`` reads no log-mel, so it does not
use the cache, and it alone reads a clip twice: the second time it reads
only the samples of the frames it factorizes.

Feature, spectrogram, and label frame counts may disagree by at most one
frame (the STFT drops a partial frame at the clip edge); the surplus frame
is truncated, anything larger is an error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import parallel
from .corpus import CLASS_NAMES, Manifest
from .errors import (NONNEG, POSITIVE, SEED, SIZE, UNIT, ConfigError, DimensionError, FormatError,
                     NumericError)
from .evaluate import F1Report, accumulate_counts, decide_frames
from .frontend import (SAMPLE_RATE, STFT_BLOCK_FRAMES, FeatureSequence, FrontendSettings, WavSamples,
                       check_hop, featurize, frame_count, frame_magnitudes, read_features, read_wav,
                       recon_target, wav_features)
from .labels import label_matrix_from_range, read_label_file
from .network import (LabelMatrix, SegModel, Workspace, _backward_from_cache, bce_cells,
                      _forward_cache, bce_masked, encode, sigmoid)
from .nmf import Dictionary, SnmfConfig, train_snmf
from .optim import adam_step, init_adam


# the allowed range of each TrainConfig field; config.SCHEMA checks its keys against these
TRAIN_RANGES = {"alpha": NONNEG, "beta": NONNEG, "gamma": NONNEG, "lr": POSITIVE,
                "batch_size": SIZE, "segment_seconds": POSITIVE, "epochs": SIZE, "seed": SEED,
                "threshold": UNIT}


@dataclass
class TrainConfig:
    """Loss weights and optimization settings; a value out of its range in
    ``TRAIN_RANGES`` raises ConfigError, as do three zero loss weights."""

    alpha: float = 10.0
    beta: float = 1.0
    gamma: float = 0.1
    lr: float = 1e-3
    batch_size: int = 64
    segment_seconds: float = 4.0
    epochs: int = 10
    seed: int = 0
    threshold: float = 0.5

    def __post_init__(self):
        for key, allowed in TRAIN_RANGES.items():
            allowed.check(key, getattr(self, key))
        if self.alpha + self.beta + self.gamma <= 0:
            raise ConfigError("at least one loss weight must be positive")


@dataclass
class ReconTargets:
    """Reconstruction targets X reduced to K-space against a dictionary W (F x K).

    ``gram`` is W^T W (K, K) and ``energy`` the per-frame ||x_t||^2 (..., T),
    both float64; ``wtx`` is W^T X (..., K, T), computed in float64 and
    stored in X's dtype.  Indexing applies to ``wtx`` and ``energy`` alike,
    so ``targets[part]`` takes samples of a batch and ``targets[..., a:b]``
    frames of a clip.
    """

    gram: np.ndarray
    wtx: np.ndarray
    energy: np.ndarray

    def __getitem__(self, key) -> ReconTargets:
        return ReconTargets(self.gram, self.wtx[key], self.energy[key])


def reduce_targets(w: np.ndarray, spects: np.ndarray, gram: np.ndarray | None = None) -> ReconTargets:
    """Targets (..., F, T) reduced to K-space against ``w`` (F, K).

    ``gram`` is W^T W in float64, formed here when None; a caller that reduces
    many clips against one dictionary forms it once and passes it.
    """
    spects = np.asarray(spects)
    w = np.asarray(w, dtype=np.float64)
    x = spects.astype(np.float64)
    wtx = np.matmul(w.T, x).astype(spects.dtype, copy=False)
    energy = np.square(x, out=x).sum(axis=-2)
    return ReconTargets(w.T @ w if gram is None else gram, wtx, energy)


@dataclass
class ClipData:
    clip_id: str
    features: np.ndarray  # (D, T) float32
    spect: np.ndarray | None  # (F, T) float32 reconstruction target, None unless asked for
    labels: np.ndarray  # (C, T) int8 symbols with -1 for unannotated
    hop: float
    target: ReconTargets | None = None  # the target in K-space, which ``train`` keeps in place of ``spect``


@dataclass
class TrainSegment:
    features: np.ndarray
    target: ReconTargets | None  # None when the run has no reconstruction term
    labels: LabelMatrix


def _aligned_samples(manifest: Manifest, row, settings: FrontendSettings
                     ) -> tuple[WavSamples, FeatureSequence | None, np.ndarray, int]:
    """Read one row's audio and align its frame count with the row's files.

    Returns ``(samples, feats, labels, t)``: the WAV's samples as stored
    (``read_wav``'s source, which has read none of them yet), the
    row's feature file (None when the row has none), the label frames, and
    the common frame count ``t``.  The STFT frame count follows from the
    sample count alone, and without a feature file the features have that
    count too.  Both files must declare the frontend's hop (``check_hop``).
    Counts may differ by one frame; more is an error.
    """
    samples = read_wav(manifest.resolve(row.audio))
    frames = frame_count(len(samples), settings)
    feats = read_features(manifest.resolve(row.features)) if row.features else None
    labels, label_hop = read_label_file(manifest.resolve(row.labels))
    check_hop(manifest.resolve(row.labels), label_hop, settings)
    if feats is not None:
        check_hop(manifest.resolve(row.features), feats.hop, settings)

    lengths = {"features": frames if feats is None else feats.frames,
               "spectrogram": frames, "labels": labels.shape[1]}
    t = min(lengths.values())
    if max(lengths.values()) - t > 1:
        raise DimensionError(f"{row.clip_id}: frame counts differ by more than one: {lengths}")
    return samples, feats, labels, t


def load_clip(manifest: Manifest, row, settings: FrontendSettings,
              with_spect: bool = True) -> ClipData:
    """Load one manifest row, aligning features, spectrogram, and labels.

    The features are the row's feature file, or else the log-mel of its
    audio, read from or written to the WAV's feature cache
    (``frontend.wav_features``); the float32 reconstruction target is
    computed only when ``with_spect`` is true (inference reads features
    alone).  Every row's audio is checked, on a cache hit by the pass that
    wrote the entry.
    """
    samples, feats, labels, t = _aligned_samples(manifest, row, settings)
    if feats is None:
        features, spect = wav_features(samples, settings, t, target=with_spect)
    else:
        features = np.asarray(feats.values[:, :t], dtype=np.float32)
        _, spect = featurize(samples, settings, frames=t, mel=False, target=with_spect)
    return ClipData(clip_id=row.clip_id, features=features, spect=spect, labels=labels[:, :t],
                    hop=settings.hop / SAMPLE_RATE)


def split_rows(manifest: Manifest, split: str) -> list:
    """The manifest rows of one split; an empty split raises FormatError."""
    rows = manifest.for_split(split)
    if not rows:
        raise FormatError(f"manifest has no '{split}' rows")
    return rows


def load_split(manifest: Manifest, split: str, settings: FrontendSettings,
               w: np.ndarray | None = None) -> list[ClipData]:
    """Every clip of a split, held at once; for stages that revisit clips.

    The clips load on the ``parallel`` pool, in manifest order.  Without
    ``w`` no target is computed.  With ``w`` (F, K), each clip's target is
    reduced to K-space against it in the same call as its load
    (``reduce_targets``, W^T W formed once), so at most two clips' F x T
    targets exist at once, and none is kept.
    """
    gram = None if w is None else w.T @ w  # W is float64, as ``Dictionary`` holds it

    def load(row):
        clip = load_clip(manifest, row, settings, with_spect=w is not None)
        if w is not None:
            clip.target, clip.spect = reduce_targets(w, clip.spect, gram), None
        return clip

    return parallel.map(load, split_rows(manifest, split))


def check_dictionary(dictionary: Dictionary | None, settings: FrontendSettings, use: str) -> np.ndarray:
    """The dictionary's W (F, K), for ``use``, which needs it.

    Raises ConfigError naming ``use`` when there is no dictionary, and
    DimensionError naming both counts when F is not the frontend's bin
    count, so a stage can check before it reads any clip.
    """
    if dictionary is None:
        raise ConfigError(f"{use} needs a dictionary attached to the model")
    w, bins = dictionary.values, settings.n_fft // 2 + 1
    if w.shape[0] != bins:
        raise DimensionError(f"the dictionary has {w.shape[0]} frequency bins, but the frontend's "
                             f"n_fft of {settings.n_fft} gives {bins}")
    return w


def build_segments(clips: list[ClipData], segment_seconds: float) -> list[TrainSegment]:
    """Cut clips into non-overlapping fixed-length training segments; each
    segment's target is a view of its clip's K-space target, if it has one."""
    segments = []
    for clip in clips:
        seg_frames = max(1, int(round(segment_seconds / clip.hop)))
        t = clip.features.shape[1]
        for start in range(0, t - seg_frames + 1, seg_frames):
            end = start + seg_frames
            segments.append(TrainSegment(
                features=clip.features[:, start:end],
                target=None if clip.target is None else clip.target[..., start:end],
                labels=label_matrix_from_range(clip.labels, start, end),
            ))
    return segments


def _batch_loss(model: SegModel, feats: np.ndarray, targets: ReconTargets | None,
                labels: list[LabelMatrix], cfg: TrainConfig, ws: Workspace | None = None,
                batch: int | None = None):
    """Forward pass, mean-over-batch loss components, and the loss seeds.

    Returns ``(comps, cache, g_logits_flat, g_h_flat)``: the components
    "bce", "nmf", "l1" and their weighted "total", the forward cache, and the
    gradients of the total on the flat logits and on flat H (None when beta
    and gamma are both zero), both with zero guard columns.  Each sample's
    BCE averages over its own annotated cells; a sample with every class
    masked adds no BCE and no BCE gradient.  ``targets`` (read only when
    beta is nonzero) are the batch's reconstruction targets in K-space, from
    ``reduce_targets``.  The cache, the seeds and the float64 loss buffers
    live in ``ws`` (a fresh workspace when None).  When ``feats`` is one
    shard of a batch, ``batch`` is the whole batch's size, which every mean
    divides by.
    """
    ws = Workspace() if ws is None else ws
    batch = feats.shape[0] if batch is None else batch
    cache = _forward_cache(model, feats, ws)
    lay = cache["layout"]
    h_flat, logits_flat = cache["h_flat"], cache["logits_flat"]

    z = lay.core(logits_flat)  # (C, B, T) view
    annotated = np.stack([lab.mask for lab in labels], axis=1)[:, :, None]  # (C, B, 1)
    y = np.stack([lab.values for lab in labels], axis=1)
    n_cells = np.maximum(annotated.sum(axis=0) * lay.t, 1)  # (B, 1), 1 for an all-masked sample
    cells = np.where(annotated, bce_cells(z, y), 0.0)
    bce_total = float((cells.sum(axis=(0, 2)) / n_cells[:, 0]).sum())
    # in this order, at B = 1, the gradient is bit-equal to the
    # excluded-class computation that acceptance criterion 4 rebuilds
    g_bce = cfg.alpha * ((sigmoid(z) - y) / n_cells) / batch
    g_logits_flat = ws.take("g_logits", logits_flat.shape, logits_flat.dtype)
    g_logits_flat.fill(0)
    lay.core(g_logits_flat)[...] = np.where(annotated, g_bce, 0.0)

    g_h_flat = None
    nmf_total = 0.0
    if cfg.beta != 0.0:
        # ||x - W h||^2 = h.(G h - 2 b) + ||x||^2 with G = W^T W and b = W^T x; the
        # guard columns of h and b are zero, so they add nothing
        b = ws.take("b_flat", h_flat.shape, h_flat.dtype)
        lay.zero_guards(b)
        lay.core(b)[...] = targets.wtx.transpose(1, 0, 2)
        h64 = ws.take("h64", h_flat.shape, np.float64)
        np.copyto(h64, h_flat)
        r = np.matmul(targets.gram, h64, out=ws.take("gram_h64", h_flat.shape, np.float64))
        r -= b
        r -= b
        r *= h64
        nmf_total = float(r.sum()) + float(targets.energy.sum())
        g_h_flat = np.matmul(targets.gram.astype(h_flat.dtype), h_flat,
                             out=ws.take("g_h_loss", h_flat.shape, h_flat.dtype))
        g_h_flat -= b
        g_h_flat *= cfg.beta * 2.0 / batch
    l1_total = float(h_flat.sum())
    if cfg.gamma != 0.0:
        if g_h_flat is None:
            g_h_flat = ws.take("g_h_loss", h_flat.shape, h_flat.dtype)
            g_h_flat.fill(0)
        lay.core(g_h_flat)[...] += cfg.gamma / batch

    comps = {"bce": bce_total / batch, "nmf": nmf_total / batch, "l1": l1_total / batch}
    comps["total"] = cfg.alpha * comps["bce"] + cfg.beta * comps["nmf"] + cfg.gamma * comps["l1"]
    return comps, cache, g_logits_flat, g_h_flat


def _batch_loss_and_grads(model: SegModel, feats: np.ndarray, targets: ReconTargets | None,
                          labels: list[LabelMatrix], cfg: TrainConfig, ws: Workspace | None = None):
    """``(comps, grad)``: mean-over-batch loss components and the gradient vector, laid
    out like ``model.flat``; the engine ``train`` steps on.

    A batch of B samples is cut into ``parallel.SHARDS`` = 2 shards of
    consecutive samples: the first ceil(B / 2), and the rest, so a B = 1
    batch is one shard.  Each shard runs the forward, loss and backward passes on the
    ``parallel`` pool, in its own child of ``ws``, with every mean taken over
    the whole batch; ``comps`` and ``grad`` are the shard sums in shard
    order.  ``train`` passes one workspace for the whole run, so a step
    reuses the previous step's full-width arrays instead of allocating them;
    ``grad`` is a fresh vector either way.
    """
    ws = Workspace() if ws is None else ws
    batch = feats.shape[0]
    bounds = [-(-batch * i // parallel.SHARDS) for i in range(parallel.SHARDS + 1)]
    shards = [(ws.child(i), slice(lo, hi)) for i, (lo, hi) in enumerate(zip(bounds, bounds[1:])) if hi > lo]

    def run(shard):
        child, part = shard
        comps, cache, g_logits_flat, g_h_flat = _batch_loss(
            model, feats[part], None if targets is None else targets[part], labels[part], cfg, child, batch)
        return comps, _backward_from_cache(model, cache, g_logits_flat, g_h_flat, child)

    (comps, grad), *rest = parallel.map(run, shards)
    for more, g in rest:
        comps = {key: comps[key] + more[key] for key in comps}
        grad += g
    return comps, grad


def _stack_into(ws: Workspace, role: str, arrays: list) -> np.ndarray:
    """``np.stack(arrays)`` written into the workspace role ``role``."""
    return np.stack(arrays, out=ws.take(role, (len(arrays), *arrays[0].shape), arrays[0].dtype))


def _stack_targets(ws: Workspace, targets: list) -> ReconTargets | None:
    """The segments' K-space targets as one batch, in workspace roles."""
    if targets[0] is None:
        return None
    return ReconTargets(targets[0].gram, _stack_into(ws, "wtx", [t.wtx for t in targets]),
                        _stack_into(ws, "energy", [t.energy for t in targets]))


def _decide_clip(clip: ClipData, logits: np.ndarray, threshold: float) -> tuple[np.ndarray, LabelMatrix]:
    """One clip's binary frame decisions and its whole-clip label matrix."""
    binary = decide_frames(logits, threshold, clip.hop).binary
    return binary, label_matrix_from_range(clip.labels, 0, clip.labels.shape[1])


def dev_metrics(model: SegModel, clips: list[ClipData], threshold: float) -> dict:
    """Mean BCE and aggregate per-class F1 over full-length clips.

    Each clip is encoded, decided and its BCE taken in one call on the
    ``parallel`` pool; the counts and the BCE are added here, in clip order.
    """
    def score(clip):
        logits = encode(model, clip.features[None])[1][0]
        binary, lab = _decide_clip(clip, logits, threshold)
        return binary, lab, bce_masked(logits, lab)

    report = F1Report()
    bce_sum = 0.0
    for binary, lab, bce in parallel.map(score, clips):
        accumulate_counts(report, binary, lab, CLASS_NAMES[: lab.classes])
        bce_sum += bce
    f1s = {name: entry.f1 for name, entry in report.per_class.items() if entry.defined}
    return {"bce": bce_sum / len(clips), "f1": f1s, "macro_f1": report.macro_f1()}


def train(model: SegModel, manifest: Manifest, cfg: TrainConfig,
          settings: FrontendSettings | None = None) -> tuple[SegModel, list[dict]]:
    """Train on the manifest's train split, keeping the best-dev checkpoint.

    Returns the model (float32 parameters set to the best dev epoch, as the
    checkpoint stores them and as dev scored them) and one trace entry per
    epoch with train loss components and dev metrics.  A loss or an ADAM
    step that goes non-finite raises NumericError.  At nonzero beta the
    attached dictionary is checked (``check_dictionary``) before any clip is
    read.
    """
    settings = settings or FrontendSettings()
    # without a reconstruction term no target is computed
    w = None if cfg.beta == 0.0 else check_dictionary(model.w_ref, settings,
                                                       f"the reconstruction loss (beta = {cfg.beta:g})")
    train_clips = load_split(manifest, "train", settings, w)
    dev_clips = load_split(manifest, "dev", settings)
    segments = build_segments(train_clips, cfg.segment_seconds)
    if not segments:
        raise ConfigError(f"train split yields no segments: every clip is shorter than "
                          f"segment_seconds = {cfg.segment_seconds:g}")

    rng = np.random.default_rng(cfg.seed)
    # ADAM steps float64 master weights; the worker computes on their float32 copy
    master = model.flat.astype(np.float64)
    state = init_adam(master)
    worker = SegModel(model.d, model.k, model.c, model.channels, master.astype(np.float32), model.w_ref)
    best_macro = -1.0
    best = worker.flat.copy()
    best_epoch = -1
    trace = []
    ws = Workspace()  # every step's full-width arrays, allocated once per run

    for epoch in range(cfg.epochs):
        order = rng.permutation(len(segments))
        sums = {"bce": 0.0, "nmf": 0.0, "l1": 0.0, "total": 0.0}
        n_batches = 0
        for start in range(0, len(order), cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            feats = _stack_into(ws, "feats", [segments[i].features for i in idx])
            targets = _stack_targets(ws, [segments[i].target for i in idx])
            labs = [segments[i].labels for i in idx]
            comps, grad = _batch_loss_and_grads(worker, feats, targets, labs, cfg, ws)
            if not np.isfinite(comps["total"]):
                raise NumericError(f"non-finite loss at epoch {epoch}")
            adam_step(master, grad, state, cfg.lr)
            if not np.all(np.isfinite(master)):
                raise NumericError(f"non-finite parameters after the ADAM step at epoch {epoch}")
            np.copyto(worker.flat, master)
            for key in sums:
                sums[key] += comps[key]
            n_batches += 1

        dev = dev_metrics(worker, dev_clips, cfg.threshold)
        entry = {"epoch": epoch}
        entry.update({f"train_{k}": v / n_batches for k, v in sums.items()})
        entry.update({"dev_bce": dev["bce"], "dev_f1": dev["f1"], "dev_macro_f1": dev["macro_f1"]})
        trace.append(entry)
        if dev["macro_f1"] > best_macro:
            best_macro = dev["macro_f1"]
            best = worker.flat.copy()
            best_epoch = epoch

    model.flat = best
    for entry in trace:
        entry["best_epoch"] = best_epoch
    return model, trace


def pretrain_dictionary(manifest: Manifest, settings: FrontendSettings, cfg: SnmfConfig,
                        max_frames: int = 3000) -> Dictionary:
    """Fit the frequency codebook on subsampled train-split spectrogram frames.

    Frames are normalized to unit L2 before factorization so codebook
    allocation follows how often a spectral shape occurs rather than how loud
    it is; silent frames (norm <= 1e-8) drop out.  Of the n frames left,
    every ``ceil(n / max_frames)``-th is kept when n exceeds ``max_frames``.
    The returned columns are unit-norm either way, so downstream use is
    unaffected.

    The matrix SNMF factorizes is built in two passes over the train clips,
    each on the ``parallel`` pool, so at most two clips' spectra are alive
    at once and no per-clip target is kept:

    1. Each clip is read and checked as ``load_clip`` reads it, and its
       float32 reconstruction target (no log-mel) is computed in one
       blocked pass; only its frame norms are kept.  The picked frames
       follow from the norms alone.
    2. Each clip with picked frames is read again, from the first to the
       last picked frame of each block of them, and only those frames'
       magnitudes are computed (``frontend.frame_magnitudes``), made the
       float32 target by ``frontend.recon_target`` as ``featurize`` makes
       it, and divided by their norms into the clip's columns of the matrix.

    That matrix is the one the whole split, concatenated, normalized and
    strided, would give, bit for bit.
    """
    rows = split_rows(manifest, "train")

    def frame_norms(row):
        samples, _, _, t = _aligned_samples(manifest, row, settings)
        # the kept norms are allocated before the clip's block temporaries: allocated
        # after them, they sat above them in the pool thread's glibc heap, which then
        # could not return their pages (+5.6 MB of max RSS on the benchmark's build inputs)
        norms = np.empty(t)
        _, target = featurize(samples, settings, frames=t, mel=False, target=True)
        norms[:] = np.linalg.norm(target.astype(np.float64), axis=0)
        return norms

    clip_norms = parallel.map(frame_norms, rows)
    norms = np.concatenate(clip_norms)
    kept = np.flatnonzero(norms > 1e-8)
    stride = int(np.ceil(len(kept) / max_frames)) if len(kept) > max_frames else 1
    picked = kept[::stride]

    # picked is sorted, so each clip's columns are one contiguous run of it
    starts = np.cumsum([0] + [len(n) for n in clip_norms])
    bounds = np.searchsorted(picked, starts)
    x = np.empty((settings.n_fft // 2 + 1, len(picked)))

    def fill_columns(i):
        cols = picked[bounds[i]:bounds[i + 1]]
        if not len(cols):
            return
        samples = read_wav(manifest.resolve(rows[i].audio))
        for lo in range(0, len(cols), STFT_BLOCK_FRAMES):
            block = cols[lo:lo + STFT_BLOCK_FRAMES]
            mags = frame_magnitudes(samples, block - starts[i], settings)
            at = bounds[i] + lo
            np.divide(recon_target(mags, settings).T, norms[block], out=x[:, at:at + len(block)])

    parallel.map(fill_columns, range(len(rows)))
    dictionary, _ = train_snmf(x, cfg)
    return dictionary


def encode_rows(model: SegModel, manifest: Manifest, rows: list, settings: FrontendSettings,
                fn, with_spect: bool = False) -> list:
    """``[fn(clip, h, logits) for each row]``, in row order: the one inference loop.

    Each row is loaded by ``load_clip`` and encoded alone; ``fn`` gets the
    clip, its H (K, T) and its logits (C, T), and should return only what
    the caller keeps.  Load, encode and ``fn`` run inside one call per row,
    on the ``parallel`` pool, so at most ``parallel.SHARDS`` clips are alive
    at once and each is dropped when its ``fn`` returns.  ``fn`` runs on a
    pool thread: it must not change state that another row's call reads or
    writes, so a caller that accumulates does so over the returned list.
    """
    def one(row):
        clip = load_clip(manifest, row, settings, with_spect)
        h, logits = encode(model, clip.features[None])
        return fn(clip, h[0], logits[0])

    return parallel.map(one, rows)


def evaluate_split(model: SegModel, manifest: Manifest, split: str,
                   settings: FrontendSettings | None = None,
                   threshold: float = 0.5) -> F1Report:
    """Aggregate frame counts over a whole split and score per class.

    Clips are loaded, encoded and decided through ``encode_rows``, so memory
    holds at most two clips' features; their counts are added here, in row
    order.
    """
    decided = encode_rows(model, manifest, split_rows(manifest, split), settings or FrontendSettings(),
                          lambda clip, h, logits: _decide_clip(clip, logits, threshold))
    report = F1Report()
    for binary, lab in decided:
        accumulate_counts(report, binary, lab, CLASS_NAMES[: lab.classes])
    return report


def mean_activation_l1(model: SegModel, manifest: Manifest, split: str,
                       settings: FrontendSettings | None = None) -> float:
    """Mean per-frame ||H||_1 over a split."""
    sums = encode_rows(model, manifest, split_rows(manifest, split), settings or FrontendSettings(),
                       lambda clip, h, logits: (float(h.sum()), h.shape[1]))
    return sum(total for total, _ in sums) / sum(frames for _, frames in sums)


def reconstruction_error(model: SegModel, manifest: Manifest, split: str,
                         settings: FrontendSettings | None = None) -> float:
    """Mean per-frame ||X - WH||^2 over a split, in the direct form; the
    attached dictionary is checked (``check_dictionary``) before any clip is read."""
    settings = settings or FrontendSettings()
    w = check_dictionary(model.w_ref, settings, "the reconstruction error")

    def squared_error(clip, h, logits):
        diff = w @ h - clip.spect
        return float(np.sum(diff * diff)), h.shape[1]

    sums = encode_rows(model, manifest, split_rows(manifest, split), settings, squared_error, with_spect=True)
    return sum(total for total, _ in sums) / sum(frames for _, frames in sums)
