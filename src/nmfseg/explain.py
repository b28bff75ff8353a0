"""Component-level analysis of the activation matrix.

For a sample, activations are pooled over time (z), multiplied elementwise by
the head weights of the sample's class (the relevance vector r), min-max
normalized, and thresholded into a binary active-component vector b.  Across a
collection of samples, per-component active-sample counts n_k and per-sample
active-component counts m_i quantify how modular (one component, one class)
and how compact (few components per sample) the representation is.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, write_csv, write_json
from .frontend import SAMPLE_RATE
from .nmf import Dictionary


@dataclass
class RelevanceRecord:
    """One sample's pooled activations and thresholded component relevances."""

    sample_id: str
    class_id: int
    z: np.ndarray
    r: np.ndarray
    r_norm: np.ndarray
    b: np.ndarray


@dataclass
class ComponentReport:
    """Counting summary across a set of relevance records."""

    n: np.ndarray  # per-component active-sample counts
    m: np.ndarray  # per-sample active-component counts
    sample_ids: list
    inactive_ids: list
    modular_ids: list
    compact_fraction: float
    samples_per_class: int
    band: int
    compact_limit: int


def pool_time(h: np.ndarray) -> np.ndarray:
    """Average activations over the time axis: z_k = mean_t H[k, t]."""
    h = np.asarray(h, dtype=np.float64)
    if h.ndim != 2 or h.shape[1] == 0:
        raise DimensionError(f"expected a K x T matrix with T >= 1, got shape {h.shape}")
    return h.mean(axis=1)


def relevance(z: np.ndarray, theta_row: np.ndarray) -> np.ndarray:
    """Per-component contribution to a class logit: r_k = z_k * theta_k."""
    z = np.asarray(z, dtype=np.float64)
    theta_row = np.asarray(theta_row, dtype=np.float64)
    if z.shape != theta_row.shape:
        raise DimensionError(f"length mismatch: z {z.shape} vs theta row {theta_row.shape}")
    return z * theta_row


def binarize(r: np.ndarray, tau: float = 0.5) -> tuple[np.ndarray, np.ndarray]:
    """Min-max normalize r and threshold strictly above ``tau``.

    A constant r has no spread; it normalizes to all zeros and therefore to no
    active components.
    """
    if not (0.0 < tau < 1.0):
        raise ValueError(f"tau must lie in (0, 1), got {tau}")
    r = np.asarray(r, dtype=np.float64)
    lo, hi = r.min(), r.max()
    if hi == lo:
        r_norm = np.zeros_like(r)
    else:
        r_norm = (r - lo) / (hi - lo)
    return r_norm, (r_norm > tau).astype(np.int8)


def make_record(sample_id: str, class_id: int, h: np.ndarray, theta: np.ndarray,
                tau: float = 0.5) -> RelevanceRecord:
    """Full extraction pipeline for one sample against its class's head row."""
    z = pool_time(h)
    r = relevance(z, np.asarray(theta, dtype=np.float64)[class_id])
    r_norm, b = binarize(r, tau=tau)
    return RelevanceRecord(sample_id=sample_id, class_id=class_id, z=z, r=r,
                           r_norm=r_norm, b=b)


def component_report(records: list[RelevanceRecord], samples_per_class: int,
                     band: int = 1, compact_limit: int = 20) -> ComponentReport:
    """Count component activity across records.

    A component is inactive when no sample activates it, and modular when its
    active-sample count lies within ``band`` of ``samples_per_class`` (one
    class's worth of samples).  A sample is compact when it activates at most
    ``compact_limit`` components.
    """
    if not records:
        raise ValueError("no records")
    k = len(records[0].b)
    for rec in records:
        if len(rec.b) != k:
            raise DimensionError(f"record {rec.sample_id} has {len(rec.b)} components, expected {k}")
    if samples_per_class < 1:
        raise ValueError("samples_per_class must be >= 1")
    b_matrix = np.stack([rec.b for rec in records])  # (samples, K)
    n = b_matrix.sum(axis=0)
    m = b_matrix.sum(axis=1)
    lo, hi = samples_per_class - band, samples_per_class + band
    return ComponentReport(
        n=n,
        m=m,
        sample_ids=[rec.sample_id for rec in records],
        inactive_ids=[int(i) for i in np.flatnonzero(n == 0)],
        modular_ids=[int(i) for i in np.flatnonzero((n >= lo) & (n <= hi))],
        compact_fraction=int(np.sum(m <= compact_limit)) / len(records),
        samples_per_class=samples_per_class,
        band=band,
        compact_limit=compact_limit,
    )


def component_spectrum(dictionary: Dictionary, k: int, n_fft: int = 512) -> tuple[np.ndarray, np.ndarray]:
    """Column k of the codebook with its frequency axis in Hz."""
    if not (0 <= k < dictionary.components):
        raise IndexError(f"component {k} out of range [0, {dictionary.components})")
    freqs = np.arange(dictionary.freq_bins) * (SAMPLE_RATE / n_fft)
    return freqs, dictionary.values[:, k].copy()


def write_component_csv(report: ComponentReport, path) -> None:
    """Per-component counts with modular/inactive flags."""
    modular, inactive = set(report.modular_ids), set(report.inactive_ids)
    write_csv(path, ["component", "n_active_samples", "modular", "inactive"],
              ([k, int(n), int(k in modular), int(k in inactive)] for k, n in enumerate(report.n)))


def write_sample_csv(report: ComponentReport, path) -> None:
    """Per-sample active-component counts with the compactness flag."""
    write_csv(path, ["sample", "m_active_components", "compact"],
              ([sid, int(m), int(m <= report.compact_limit)] for sid, m in zip(report.sample_ids, report.m)))


def report_summary(report: ComponentReport) -> dict:
    k = len(report.n)
    return {
        "components": k,
        "inactive": len(report.inactive_ids),
        "inactive_fraction": len(report.inactive_ids) / k,
        "modular": len(report.modular_ids),
        "modular_fraction": len(report.modular_ids) / k,
        "compact_fraction": report.compact_fraction,
        "samples": len(report.m),
        "samples_per_class": report.samples_per_class,
        "band": report.band,
        "compact_limit": report.compact_limit,
    }


def write_summary_json(report: ComponentReport, path) -> None:
    write_json(path, report_summary(report))


def write_spectrum_csv(dictionary: Dictionary, k: int, path, n_fft: int = 512) -> None:
    freqs, weights = component_spectrum(dictionary, k, n_fft)
    write_csv(path, ["hz", "weight"], ([f"{f:.3f}", f"{w:.8f}"] for f, w in zip(freqs, weights)))
