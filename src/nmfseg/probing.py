"""Linear probes over frozen activations.

A probe task holds labeled activation sequences; each is zero-padded (or
truncated) to a fixed frame count and averaged over time into one K-vector,
then a single no-bias linear layer is trained with softmax cross-entropy.
Scores are accuracy and unweighted average recall (mean of per-class
recalls).  Probing reads the segmentation model but never writes to it.

Desk-scale probe tasks are synthetic (tone pitch class, noise spectral tilt,
AM rate); externally supplied audio can be probed through a CSV manifest of
(path, label) rows.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import parallel
from .corpus import one_pole
from .errors import FormatError, open_text, write_json
from .frontend import SAMPLE_RATE, AudioClip, FrontendSettings, check_hop, featurize, read_features, read_wav
from .network import SegModel, encode
from .optim import adam_step, init_adam


@dataclass
class ProbeTask:
    """Labeled activation sequences padded to a common length."""

    name: str
    class_count: int
    items: list  # (H matrix (K, T), int label)
    pad_to: int

    def __post_init__(self):
        if self.class_count < 2:
            raise ValueError(f"{self.name}: need at least 2 classes, got {self.class_count}")
        for h, label in self.items:
            if not (0 <= label < self.class_count):
                raise ValueError(f"{self.name}: label {label} out of range")

    def pooled(self) -> tuple[np.ndarray, np.ndarray]:
        """Zero-pad/truncate to ``pad_to`` frames, then average over time."""
        vecs, labels = [], []
        for h, label in self.items:
            h = np.asarray(h, dtype=np.float64)
            t = min(h.shape[1], self.pad_to)
            padded = np.zeros((h.shape[0], self.pad_to))
            padded[:, :t] = h[:, :t]
            vecs.append(padded.mean(axis=1))
            labels.append(label)
        return np.stack(vecs), np.asarray(labels, dtype=np.int64)


@dataclass
class ProbeResult:
    accuracy: float
    uar: float
    per_class_recall: dict  # class index -> recall (absent classes omitted)
    confusion: np.ndarray  # (class_count, class_count), rows = reference


def _softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def train_probe(task: ProbeTask, epochs: int = 200, lr: float = 1e-2, seed: int = 0) -> np.ndarray:
    """Fit the probe weights (class_count x K) by full-batch ADAM."""
    if not task.items:
        raise ValueError(f"{task.name}: no items")
    x, y = task.pooled()
    present = np.unique(y)
    if len(present) < 2:
        raise ValueError(f"{task.name}: training items cover a single class")
    k = x.shape[1]
    rng = np.random.default_rng(seed)
    bound = np.sqrt(1.0 / k)
    w = rng.uniform(-bound, bound, size=(task.class_count, k))
    state = init_adam(w)
    onehot = np.zeros((len(y), task.class_count))
    onehot[np.arange(len(y)), y] = 1.0
    for _ in range(epochs):
        probs = _softmax(x @ w.T)
        adam_step(w, (probs - onehot).T @ x / len(y), state, lr)
    return w


def eval_probe(weights: np.ndarray, task: ProbeTask) -> ProbeResult:
    """Accuracy, UAR, per-class recalls, and the confusion matrix."""
    x, y = task.pooled()
    pred = np.argmax(x @ np.asarray(weights, dtype=np.float64).T, axis=1)
    c = task.class_count
    confusion = np.zeros((c, c), dtype=np.int64)
    for ref, hyp in zip(y, pred):
        confusion[ref, hyp] += 1
    accuracy = float(np.mean(pred == y))
    recalls = {}
    for cls in range(c):
        support = confusion[cls].sum()
        if support > 0:
            recalls[cls] = float(confusion[cls, cls] / support)
    if len(recalls) < c:
        warnings.warn(f"{task.name}: {c - len(recalls)} classes absent from evaluation; "
                      "UAR averages the defined recalls only", stacklevel=2)
    uar = float(np.mean(list(recalls.values()))) if recalls else 0.0
    return ProbeResult(accuracy=accuracy, uar=uar, per_class_recall=recalls, confusion=confusion)


def result_to_dict(result: ProbeResult) -> dict:
    return {
        "accuracy": result.accuracy,
        "uar": result.uar,
        "per_class_recall": {str(k): v for k, v in result.per_class_recall.items()},
        "confusion": result.confusion.tolist(),
    }


def write_result_json(results: dict, path) -> None:
    """Serialize {task name -> ProbeResult} to JSON."""
    write_json(path, {name: result_to_dict(res) for name, res in results.items()})


# --- synthetic probe material -----------------------------------------------

def _tone(rng, n: int, freq: float) -> np.ndarray:
    t = np.arange(n) / SAMPLE_RATE
    return np.sin(2 * np.pi * freq * t + rng.uniform(0, 2 * np.pi))


def synth_probe_clip(task: str, label: int, seed: int, seconds: float = 1.0) -> AudioClip:
    """One labeled probe clip; classes are separated by construction.

    tone-class: pure tones in disjoint frequency bands per label.
    noise-color: white noise with per-label first-order spectral tilt.
    am-rate: amplitude-modulated tone, modulation rate band per label.
    """
    rng = np.random.default_rng([seed, label])
    n = int(seconds * SAMPLE_RATE)
    t = np.arange(n) / SAMPLE_RATE
    if task == "tone-class":
        base = 250.0 * (2.0 ** label)  # octave-spaced bands
        sig = _tone(rng, n, rng.uniform(base, base * 1.4))
    elif task == "noise-color":
        rho = (-0.8, 0.0, 0.8)[label % 3]
        sig = one_pole(rng.normal(size=n), rho)
    elif task == "am-rate":
        rate = (2.0, 8.0, 24.0)[label % 3] * rng.uniform(0.85, 1.15)
        carrier = _tone(rng, n, rng.uniform(400, 1200))
        sig = carrier * (0.5 + 0.5 * np.sin(2 * np.pi * rate * t))
    else:
        raise ValueError(f"unknown probe task {task!r}")
    rms = np.sqrt(np.mean(sig * sig))
    sig = sig / rms * 10 ** (rng.uniform(-44.0, -40.0) / 20.0)
    return AudioClip(samples=sig)


def build_synthetic_tasks(model: SegModel, specs: list, settings=None,
                          seconds: float = 1.0) -> list[ProbeTask]:
    """One ProbeTask per ``(task, n_classes, per_class, seed)`` in ``specs``.

    Every clip of every task is synthesised and featurized up front on the
    ``parallel`` pool, one call per task and label.  Then each task's clips,
    all of one length, go through one batched ``encode``; the guarded
    layout keeps the clips from reading each other.
    """
    settings = settings or FrontendSettings()
    for task, n_classes, per_class, _ in specs:
        if min(n_classes, per_class) < 1:
            raise ValueError(f"{task}: no items")

    def label_features(job):
        task, label, seed, per_class = job
        return [featurize(synth_probe_clip(task, label, seed * 100003 + i, seconds=seconds).samples,
                          settings)[0]
                for i in range(per_class)]

    jobs = [(task, label, seed, per_class)
            for task, n_classes, per_class, seed in specs for label in range(n_classes)]
    feats = iter(parallel.map(label_features, jobs))
    tasks = []
    for task, n_classes, per_class, _ in specs:
        by_label = [next(feats) for _ in range(n_classes)]
        h, _ = encode(model, np.stack([f for clips in by_label for f in clips]))
        labels = [label for label in range(n_classes) for _ in range(per_class)]
        tasks.append(ProbeTask(name=task, class_count=n_classes, items=list(zip(h, labels)),
                               pad_to=h.shape[2]))
    return tasks


def build_synthetic_task(model: SegModel, task: str, n_classes: int, per_class: int,
                         seed: int, settings=None, seconds: float = 1.0) -> ProbeTask:
    """Generate clips, extract frozen activations, and assemble one ProbeTask."""
    return build_synthetic_tasks(model, [(task, n_classes, per_class, seed)], settings, seconds)[0]


def load_probe_manifest(model: SegModel, path, name: str = "manifest", settings=None,
                        class_count: int | None = None) -> ProbeTask:
    """Build a task from CSV rows of (audio-or-feature path, integer label >= 0).

    The task has ``class_count`` classes, or one more than its largest label
    when None; an evaluation task takes the count of the task its probe was
    trained on.  Blank rows and rows starting with ``#`` are skipped.  A row
    without two columns, a label that is not a non-negative integer or not
    below ``class_count``, a file with no rows, and, without
    ``class_count``, labels that cover fewer than two classes raise
    FormatError naming the file (and the line, for a row); so does a
    feature file off the frontend's hop (``frontend.check_hop``).
    """
    settings = settings or FrontendSettings()
    root = Path(path).parent
    items = []
    reader = csv.reader(open_text(path, newline=""))
    for row in reader:
        if not row or row[0].startswith("#"):
            continue
        where = f"{path}: line {reader.line_num}"
        if len(row) != 2:
            raise FormatError(f"{where}: expected 2 columns (path, label), got {len(row)}")
        try:
            label = int(row[1])
        except ValueError:
            raise FormatError(f"{where}: label {row[1]!r} is not an integer") from None
        if label < 0:
            raise FormatError(f"{where}: label {label} is negative")
        if class_count is not None and label >= class_count:
            raise FormatError(f"{where}: label {label} is not below the {class_count} classes "
                              "the probe was trained on")
        src = root / row[0]
        if str(src).endswith(".nsf"):
            seq = read_features(src)
            check_hop(f"{where}: {src}", seq.hop, settings)
            feats = seq.values
        else:
            feats, _ = featurize(read_wav(src), settings)
        h, _ = encode(model, feats[None])
        items.append((h[0], label))
    if not items:
        raise FormatError(f"{path}: no probe rows")
    if class_count is None:
        present = {label for _, label in items}
        if len(present) < 2:
            raise FormatError(f"{path}: every label is {present.pop()}; a probe needs at least 2 classes")
        class_count = max(present) + 1
    return ProbeTask(name=name, class_count=class_count, items=items,
                     pad_to=max(h.shape[1] for h, _ in items))
