"""Frame decisions, segment extraction, and per-class F1 with confidence intervals.

Evaluation is frame-based: each class is scored independently over all
annotated frames, with a 95% interval from the normal approximation
1.96 * sqrt(f1 * (1 - f1) / N).  Segment output follows the line format
``SEG <file-id> <onset> <duration> <class>``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, write_csv, write_json
from .network import LabelMatrix, sigmoid


@dataclass
class FrameDecisions:
    """Sigmoid probabilities and thresholded binary decisions, C x T."""

    probs: np.ndarray
    binary: np.ndarray
    hop: float
    threshold: float = 0.5


@dataclass
class Segment:
    onset: float
    offset: float
    label: str

    @property
    def duration(self) -> float:
        return self.offset - self.onset


@dataclass
class ClassF1:
    """Per-class frame counts and derived scores; undefined when N == 0."""

    tp: int = 0
    fp: int = 0
    fn: int = 0
    tn: int = 0
    defined: bool = True

    @property
    def n(self) -> int:
        return self.tp + self.fp + self.fn + self.tn

    @property
    def precision(self) -> float:
        denom = self.tp + self.fp
        return self.tp / denom if denom else 0.0

    @property
    def recall(self) -> float:
        denom = self.tp + self.fn
        return self.tp / denom if denom else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2.0 * p * r / (p + r) if p + r > 0 else 0.0

    @property
    def ci95(self) -> float:
        if self.n == 0:
            return 0.0
        f = self.f1
        return 1.96 * np.sqrt(f * (1.0 - f) / self.n)


@dataclass
class F1Report:
    per_class: dict = field(default_factory=dict)  # name -> ClassF1

    def macro_f1(self) -> float:
        defined = [c.f1 for c in self.per_class.values() if c.defined]
        return float(np.mean(defined)) if defined else 0.0


def decide_frames(logits: np.ndarray, threshold: float, hop: float) -> FrameDecisions:
    """The frame decision: sigmoid(logits), positive only strictly above threshold."""
    if not (0.0 < threshold < 1.0):
        raise ValueError(f"threshold must lie in (0, 1), got {threshold}")
    probs = sigmoid(logits)
    return FrameDecisions(probs=probs, binary=(probs > threshold).astype(np.int8),
                          hop=hop, threshold=threshold)


def frames_to_segments(decisions: FrameDecisions, min_dur: float = 0.0,
                       class_names=None) -> list[Segment]:
    """Convert maximal runs of positive frames to [onset, offset) segments.

    Runs whose duration falls below ``min_dur`` seconds are dropped.
    """
    binary = np.asarray(decisions.binary)
    hop = decisions.hop
    names = class_names or [f"class{i}" for i in range(binary.shape[0])]
    segments = []
    for c in range(binary.shape[0]):
        row = binary[c].astype(np.int8)
        edges = np.flatnonzero(np.diff(np.concatenate(([0], row, [0]))))
        for start, end in zip(edges[::2], edges[1::2]):
            duration = (end - start) * hop
            if duration >= min_dur:
                segments.append(Segment(onset=start * hop, offset=end * hop, label=names[c]))
    return segments


def rasterize_segments(segments: list[Segment], hop: float, frames: int,
                       class_names) -> np.ndarray:
    """Inverse of frames_to_segments on the same hop grid."""
    index = {name: i for i, name in enumerate(class_names)}
    binary = np.zeros((len(class_names), frames), dtype=np.int8)
    for seg in segments:
        start = int(round(seg.onset / hop))
        end = int(round(seg.offset / hop))
        binary[index[seg.label], start:end] = 1
    return binary


def accumulate_counts(report: F1Report, binary: np.ndarray, reference: LabelMatrix,
                      class_names) -> None:
    """Add one sample's frame counts into a running report; masked classes skipped."""
    if binary.shape != reference.values.shape:
        raise DimensionError(f"predictions {binary.shape} vs reference {reference.values.shape}")
    for c, name in enumerate(class_names):
        entry = report.per_class.setdefault(name, ClassF1(defined=False))
        if not reference.mask[c]:
            continue
        pred = binary[c].astype(bool)
        ref = reference.values[c].astype(bool)
        entry.tp += int(np.sum(pred & ref))
        entry.fp += int(np.sum(pred & ~ref))
        entry.fn += int(np.sum(~pred & ref))
        entry.tn += int(np.sum(~pred & ~ref))
        entry.defined = True


def f1_with_ci(binary: np.ndarray, reference: LabelMatrix, class_names=None) -> F1Report:
    """Score one prediction matrix against its reference."""
    names = class_names or [f"class{i}" for i in range(reference.classes)]
    report = F1Report()
    accumulate_counts(report, np.asarray(binary), reference, names)
    return report


def write_segments(path, file_id: str, segments: list[Segment]) -> None:
    with open(path, "w") as fh:
        for seg in segments:
            fh.write(f"SEG {file_id} {seg.onset:.3f} {seg.duration:.3f} {seg.label}\n")


def report_to_rows(report: F1Report) -> list[list]:
    rows = []
    for name, entry in report.per_class.items():
        if entry.defined:
            rows.append([name, f"{entry.precision:.6f}", f"{entry.recall:.6f}",
                         f"{entry.f1:.6f}", f"{entry.ci95:.6f}", str(entry.n)])
        else:
            rows.append([name, "", "", "", "", "0"])
    return rows


def write_f1_csv(report: F1Report, path) -> None:
    write_csv(path, ["class", "precision", "recall", "f1", "ci95", "N"], report_to_rows(report))


def report_to_dict(report: F1Report) -> dict:
    out = {}
    for name, entry in report.per_class.items():
        if entry.defined:
            out[name] = {"precision": entry.precision, "recall": entry.recall,
                         "f1": entry.f1, "ci95": float(entry.ci95), "n": entry.n,
                         "tp": entry.tp, "fp": entry.fp, "fn": entry.fn, "tn": entry.tn}
        else:
            out[name] = {"defined": False}
    return out


def write_f1_json(report: F1Report, path) -> None:
    write_json(path, report_to_dict(report))
