"""The benchmark's contract with the package: every function it traces exists.

``perfbench/layers.py`` names each function it wraps by its defining module
(``layers.WRAPS``).  ``layers.install`` skips a name that no longer exists,
so a traced run still exits 0 with ``correct: true`` but lacks every
per-layer metric built on that span.  A rename or a deletion of a wrapped
name fails here instead.  The attribute hooks of some wraps also read
arguments by name; a renamed parameter makes the hook raise, and its span
carries ``hook_error`` in place of its metric, so those names are pinned
here too.  ``layers`` is only imported; nothing under ``perfbench/`` is
written.
"""

import importlib
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import layers  # noqa: E402  (perfbench/ must be on the path first)

WRAPPED = [(module, attr) for module, attr, _, _ in layers.WRAPS]


def test_wraps_are_listed():
    assert len(WRAPPED) == len(set(WRAPPED)) > 0


@pytest.mark.parametrize("module, attr", WRAPPED, ids=[f"{m}.{a}" for m, a in WRAPPED])
def test_wrapped_name_resolves(module, attr):
    target = importlib.import_module(f"nmfseg.{module}")
    for part in attr.split("."):  # "SegModel.load_parameters" names a method
        target = getattr(target, part, None)
    assert callable(target), f"perfbench wraps nmfseg.{module}.{attr}, which does not exist"


# Argument names each attribute hook reads from the bound call; the hook
# binds them with ``inspect.signature``, so a renamed parameter makes it raise
# and its span carries ``hook_error`` instead of ``flops``/``live_bytes``.
HOOK_ARGS = {
    ("network", "_dconv_forward"): ("x", "w", "d"),
    ("network", "_dconv_grads"): ("x", "w", "d"),
    ("network", "_forward_cache"): (),  # reads only the returned cache
    ("nmf", "update_h"): ("x", "w"),
    ("nmf", "update_w"): ("x", "w"),
    ("nmf", "snmf_objective"): ("x", "w"),
    ("nmf", "train_snmf"): ("cfg",),
    ("training", "build_segments"): ("clips",),
}


def test_hook_table_covers_every_hooked_wrap():
    hooked = {(module, attr) for module, attr, _, hook in layers.WRAPS if hook is not None}
    assert hooked == set(HOOK_ARGS)


@pytest.mark.parametrize("module, attr", sorted(HOOK_ARGS), ids=[f"{m}.{a}" for m, a in sorted(HOOK_ARGS)])
def test_hooked_arguments_keep_their_names(module, attr):
    fn = getattr(importlib.import_module(f"nmfseg.{module}"), attr)
    params = inspect.signature(fn).parameters
    missing = [name for name in HOOK_ARGS[(module, attr)] if name not in params]
    assert not missing, f"perfbench's hook on nmfseg.{module}.{attr} reads {missing}, which it no longer takes"


def test_train_steps_through_adam_step(small_corpus, monkeypatch):
    """``training.step_ms.*`` are the gaps between ``optim.adam_step`` returns
    inside ``training.train``: a loop that updated its parameters some other
    way would leave them at 0 while the run still reads ``correct: true``.
    The benchmark wraps the name where ``training`` looks it up, as here."""
    from nmfseg import training
    from nmfseg.network import init_model
    from nmfseg.nmf import Dictionary, normalize_columns

    assert ("optim", "adam_step") in WRAPPED
    calls, segments = [], []
    adam_step, build_segments = training.adam_step, training.build_segments

    def counting_adam_step(*args, **kwargs):
        calls.append(1)
        return adam_step(*args, **kwargs)

    def recording_build_segments(*args, **kwargs):
        segments.extend(build_segments(*args, **kwargs))
        return segments

    monkeypatch.setattr(training, "adam_step", counting_adam_step)
    monkeypatch.setattr(training, "build_segments", recording_build_segments)

    _, manifest = small_corpus
    model = init_model(d=80, k=16, c=4, seed=0)
    w, _ = normalize_columns(1.0 - np.random.default_rng(0).random((257, 16)), np.ones((16, 1)))
    model.attach_dictionary(Dictionary(values=w))
    training.train(model, manifest, training.TrainConfig(batch_size=8, epochs=1, seed=0))
    assert segments and len(calls) == -(-len(segments) // 8)


def test_inference_goes_through_forward_cache(monkeypatch):
    """``network.forward.*`` are the spans of ``network._forward_cache``, which
    the benchmark wraps where ``network`` looks it up, as here.  ``encode``
    and ``network.forward`` each go through it once, so a traced run sees
    every inference forward; a loop of their own would drop those spans."""
    from conftest import make_tiny_model
    from nmfseg import network

    assert ("network", "_forward_cache") in WRAPPED
    calls, forward_cache = [], network._forward_cache

    def counting_forward_cache(*args, **kwargs):
        calls.append(1)
        return forward_cache(*args, **kwargs)

    monkeypatch.setattr(network, "_forward_cache", counting_forward_cache)
    model, s = make_tiny_model(), np.zeros((2, 8, 11))
    network.encode(model, s)
    assert len(calls) == 1
    network.forward(model, s[0])
    assert len(calls) == 2
