"""Shared fixtures: tiny models, a small corpus, and a kink-free gradcheck point."""

import numpy as np
import pytest

from nmfseg.corpus import CorpusSpec, generate_corpus
from nmfseg.network import SegModel, _dconv_forward, _forward_cache, init_model
from nmfseg.nmf import Dictionary, normalize_columns
from nmfseg.training import load_clip, split_rows


def make_tiny_model(seed=3, d=8, k=12, c=4, channels=8, f=20, dict_seed=7):
    """Small model with an attached random unit-column dictionary."""
    model = init_model(d, k, c, seed=seed, channels=channels)
    rng = np.random.default_rng(dict_seed)
    w = 1.0 - rng.random((f, k))
    w, _ = normalize_columns(w, np.ones((k, 1)))
    model.attach_dictionary(Dictionary(values=w))
    return model


def named_arrays(model: SegModel) -> list:
    """The model's named parameter attributes, in the NSM1 order the README gives."""
    convs = [arr for b in range(model.n_blocks) for l in range(len(model.dilations))
             for arr in (model.conv_w[b][l], model.conv_b[b][l])]
    return [model.bneck_w, model.bneck_b, *convs, model.out_w, model.out_b, model.theta]


def assert_views_of_flat(model: SegModel) -> None:
    """Every named parameter is the table's view into ``model.flat``, so a
    forward pass and ``save_model`` read the same numbers."""
    table = model.parameters()
    arrays = named_arrays(model)
    assert len(arrays) == len(table) == 35
    for (name, view), arr in zip(table, arrays):
        assert np.shares_memory(arr, model.flat), name
        assert arr.shape == view.shape and arr.ctypes.data == view.ctypes.data, name


def to_batch(layout, flat: np.ndarray) -> np.ndarray:
    """The (B, C, T) batch of a forward pass's flat (C, N) array: its payload
    columns, without the guards."""
    return np.ascontiguousarray(layout.core(flat).transpose(1, 0, 2))


def load_split_with_targets(manifest, split: str, settings) -> list:
    """Every clip of a split with its float32 reconstruction target, one
    ``load_clip`` per row; ``load_split`` loads features and labels alone."""
    return [load_clip(manifest, row, settings, with_spect=True) for row in split_rows(manifest, split)]


def _conv_pres(model: SegModel, cache: dict) -> list:
    """Each conv layer's (C, B, T) pre-activation, [block][layer].

    The forward cache keeps post-ReLU outputs only; re-running each layer on
    its cached input gives the pre-activation bit for bit.
    """
    lay, skip = cache["layout"], cache["skip"]
    return [[lay.core(_dconv_forward(cache["layer_inputs"][b][l], model.conv_w[b][l], model.conv_b[b][l],
                                     dil, lay, out=np.empty_like(skip), tmp=np.empty(skip.size, skip.dtype)))
             for l, dil in enumerate(model.dilations)] for b in range(model.n_blocks)]


def _head_pre(model: SegModel, cache: dict) -> np.ndarray:
    """The head's (K, B, T) pre-activation, recomputed from the cached skip sum."""
    pre = model.out_w @ cache["skip"]
    pre += model.out_b[:, None]
    return cache["layout"].core(pre)


def _min_pre_margin(model: SegModel, s: np.ndarray) -> float:
    cache = _forward_cache(model, s)
    pres = [p for block in _conv_pres(model, cache) for p in block]
    pres.append(_head_pre(model, cache))
    return min(float(np.abs(p).min()) for p in pres)


def _nudge_worst_channel(pre: np.ndarray, bias: np.ndarray, margin: float) -> bool:
    """Move the first channel of a (C, B, T) pre-activation that sits within
    ``margin`` of zero, by 2 * margin away from its worst cell."""
    pre = pre.reshape(pre.shape[0], -1)
    bad = np.abs(pre).min(axis=1) < margin
    if not bad.any():
        return False
    ch = int(np.argmax(bad))
    worst = pre[ch, np.argmin(np.abs(pre[ch]))]
    bias[ch] += 2 * margin if worst >= 0 else -2 * margin
    return True


def nudge_away_from_relu_kinks(model: SegModel, s: np.ndarray, margin: float = 2e-2,
                               rounds: int = 200) -> float:
    """Adjust biases until no pre-activation of the (B, D, T) batch ``s`` sits
    within ``margin`` of zero.

    Central finite differences straddle the ReLU kink whenever a perturbation
    can flip a gate; moving every pre-activation away from zero makes the
    checked point locally smooth.  One worst channel per layer is nudged per
    round (against a stale forward pass, which converges well enough in
    practice).  Returns the final minimum margin.
    """
    for _ in range(rounds):
        cache = _forward_cache(model, s)
        pres = _conv_pres(model, cache)
        moved = False
        for b in range(model.n_blocks):
            for l in range(len(model.dilations)):
                moved |= _nudge_worst_channel(pres[b][l], model.conv_b[b][l], margin)
        moved |= _nudge_worst_channel(_head_pre(model, cache), model.out_b, margin)
        if not moved:
            break
    return _min_pre_margin(model, s)


@pytest.fixture(scope="session")
def small_corpus(tmp_path_factory):
    """1.5 min train / 0.5 min dev / 0.5 min test synthetic corpus."""
    out = tmp_path_factory.mktemp("corpus")
    spec = CorpusSpec(seed=123, train_minutes=1.5, dev_minutes=0.5, test_minutes=0.5)
    manifest = generate_corpus(spec, out)
    return spec, manifest
