"""Signal frontend: WAV ingestion, magnitude STFT, log-mel features, feature files.

The STFT uses a periodic Hann window of ``win_len`` samples, zero-padded to
``n_fft``, with no boundary padding, so the frame count is
``1 + (n_samples - win_len) // hop``.  Defaults (n_fft=512, win_len=400,
hop=320 at 16 kHz) give 257 frequency bins on a 20 ms frame grid.

Feature matrices round-trip through the "NSF1" binary format: magic, D and T
as little-endian u32, the hop in seconds as little-endian f64, then D*T
little-endian f32 values stored frame by frame (column-major).
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass, field

import numpy as np
from scipy.io import wavfile

from .errors import ConfigError, DimensionError, FormatError, IngestionError

SAMPLE_RATE = 16000
LOG_FLOOR = 1e-10

FEATURE_MAGIC = b"NSF1"


@dataclass
class AudioClip:
    """Mono audio at 16 kHz with samples normalized to [-1, 1]."""

    samples: np.ndarray
    sample_rate: int = SAMPLE_RATE
    channel_count: int = 1

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise IngestionError(f"unsupported channel count: expected mono, got shape {self.samples.shape}")
        if not np.all(np.isfinite(self.samples)):
            raise IngestionError("non-finite samples")

    @property
    def duration(self) -> float:
        return len(self.samples) / self.sample_rate


@dataclass
class Spectrogram:
    """Non-negative magnitude spectrogram, F x T."""

    values: np.ndarray
    hop: float
    sample_rate: int = SAMPLE_RATE

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise DimensionError(f"spectrogram must be 2-D, got shape {self.values.shape}")

    @property
    def freq_bins(self) -> int:
        return self.values.shape[0]

    @property
    def frames(self) -> int:
        return self.values.shape[1]

    @property
    def n_fft(self) -> int:
        return 2 * (self.freq_bins - 1)


@dataclass
class FeatureSequence:
    """Real-valued acoustic features, D x T on a fixed frame grid.

    Values are held as float32, matching the on-disk payload, so the file
    round-trip is the identity for any instance.
    """

    values: np.ndarray
    hop: float

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values, dtype=np.float32)
        if self.values.ndim != 2:
            raise DimensionError(f"feature matrix must be 2-D, got shape {self.values.shape}")

    @property
    def dim(self) -> int:
        return self.values.shape[0]

    @property
    def frames(self) -> int:
        return self.values.shape[1]


def load_audio(path) -> AudioClip:
    """Read a 16 kHz mono WAV file (PCM 16-bit or 32-bit float).

    Integer samples are scaled by 1/32768; float samples are taken as-is.
    Anything else (sample rate, channel layout, codec) is rejected rather
    than converted.
    """
    try:
        rate, data = wavfile.read(path)
    except FileNotFoundError:
        raise
    except Exception as exc:
        raise IngestionError(f"unsupported codec in {path}: {exc}") from exc
    if rate != SAMPLE_RATE:
        raise IngestionError(f"unsupported sample rate: {rate} (expected {SAMPLE_RATE})")
    if data.ndim != 1:
        raise IngestionError(f"unsupported channel count: {data.shape[1]} (expected mono)")
    if data.dtype == np.int16:
        samples = data.astype(np.float64) / 32768.0
    elif data.dtype == np.float32:
        samples = data.astype(np.float64)
    else:
        raise IngestionError(f"unsupported sample format: {data.dtype} (expected int16 or float32)")
    return AudioClip(samples=samples, sample_rate=rate, channel_count=1)


def save_audio(clip: AudioClip, path, fmt: str = "int16") -> None:
    """Write a clip as WAV, either 16-bit PCM or 32-bit float."""
    if fmt == "int16":
        scaled = np.clip(np.round(clip.samples * 32768.0), -32768, 32767).astype(np.int16)
    elif fmt == "float32":
        scaled = clip.samples.astype(np.float32)
    else:
        raise ConfigError(f"unsupported wav format {fmt!r}")
    wavfile.write(path, clip.sample_rate, scaled)


def hann_window(win_len: int) -> np.ndarray:
    """Periodic Hann window: 0.5 - 0.5*cos(2*pi*n/win_len)."""
    n = np.arange(win_len)
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * n / win_len)


def stft_magnitude(clip: AudioClip, n_fft: int = 512, win_len: int = 400, hop: int = 320) -> Spectrogram:
    """Magnitude STFT without boundary padding.

    Frames start at multiples of ``hop``; each is Hann-windowed over
    ``win_len`` samples and zero-padded to ``n_fft`` before the real FFT.
    """
    if win_len > n_fft:
        raise ConfigError(f"win_len {win_len} exceeds n_fft {n_fft}")
    if hop <= 0:
        raise ConfigError(f"hop must be positive, got {hop}")
    samples = clip.samples
    if len(samples) < win_len:
        raise IngestionError(f"clip too short: {len(samples)} samples < window of {win_len}")
    n_frames = 1 + (len(samples) - win_len) // hop
    window = hann_window(win_len)
    starts = np.arange(n_frames) * hop
    frames = samples[starts[:, None] + np.arange(win_len)[None, :]] * window[None, :]
    spectrum = np.fft.rfft(frames, n=n_fft, axis=1)
    return Spectrogram(values=np.abs(spectrum).T, hop=hop / clip.sample_rate, sample_rate=clip.sample_rate)


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


@functools.lru_cache(maxsize=16)
def mel_filterbank(n_mels: int, n_fft: int, sample_rate: int, f_min: float, f_max: float) -> np.ndarray:
    """Triangular mel filterbank, shape (n_mels, n_fft//2 + 1), peak weight 1.

    Built once per argument tuple and shared, so the array is read-only.
    """
    if n_mels < 1:
        raise ConfigError(f"n_mels must be >= 1, got {n_mels}")
    if not (0 <= f_min < f_max <= sample_rate / 2):
        raise ConfigError(f"invalid band limits: f_min={f_min}, f_max={f_max}, nyquist={sample_rate / 2}")
    n_freqs = n_fft // 2 + 1
    freqs = np.arange(n_freqs) * (sample_rate / n_fft)
    mel_pts = np.linspace(hz_to_mel(f_min), hz_to_mel(f_max), n_mels + 2)
    hz_pts = mel_to_hz(mel_pts)
    fb = np.zeros((n_mels, n_freqs))
    for m in range(n_mels):
        lo, ctr, hi = hz_pts[m], hz_pts[m + 1], hz_pts[m + 2]
        up = (freqs - lo) / max(ctr - lo, 1e-12)
        down = (hi - freqs) / max(hi - ctr, 1e-12)
        fb[m] = np.clip(np.minimum(up, down), 0.0, None)
    fb.flags.writeable = False
    return fb


def log_mel(spec: Spectrogram, n_mels: int = 80, f_min: float = 0.0, f_max: float | None = None) -> FeatureSequence:
    """Mel-filtered log magnitudes: log(fb @ |X| + 1e-10)."""
    if f_max is None:
        f_max = spec.sample_rate / 2
    fb = mel_filterbank(n_mels, spec.n_fft, spec.sample_rate, f_min, f_max)
    return FeatureSequence(values=np.log(fb @ spec.values + LOG_FLOOR), hop=spec.hop)


def write_features(seq: FeatureSequence, path) -> None:
    """Serialize a feature matrix to the NSF1 binary layout."""
    d, t = seq.values.shape
    payload = np.asarray(seq.values, dtype="<f4").T.tobytes()  # frame-major
    with open(path, "wb") as fh:
        fh.write(FEATURE_MAGIC)
        fh.write(struct.pack("<II", d, t))
        fh.write(struct.pack("<d", seq.hop))
        fh.write(payload)


def read_features(path) -> FeatureSequence:
    """Read an NSF1 feature file back into a FeatureSequence."""
    with open(path, "rb") as fh:
        blob = fh.read()
    return features_from_bytes(blob, name=str(path))


def features_from_bytes(blob: bytes, name: str = "<bytes>") -> FeatureSequence:
    if len(blob) < 20:
        raise FormatError(f"{name}: truncated header ({len(blob)} bytes)")
    if blob[:4] != FEATURE_MAGIC:
        raise FormatError(f"{name}: bad magic {blob[:4]!r}")
    d, t = struct.unpack("<II", blob[4:12])
    (hop,) = struct.unpack("<d", blob[12:20])
    count = d * t
    if count > (len(blob) - 20) // 4:
        raise FormatError(f"{name}: payload holds {(len(blob) - 20) // 4} values, header promises {count}")
    if len(blob) != 20 + 4 * count:
        raise FormatError(f"{name}: expected {20 + 4 * count} bytes, file has {len(blob)}")
    values = np.frombuffer(blob, dtype="<f4", count=count, offset=20).reshape(t, d).T
    return FeatureSequence(values=values, hop=hop)
