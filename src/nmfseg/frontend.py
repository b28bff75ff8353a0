"""Signal frontend: WAV ingestion, magnitude STFT, log-mel features, feature files.

All audio is mono at ``SAMPLE_RATE`` (16 kHz): this is the one place that
rate is stated, and nothing converts or resamples.  WAV files are read by a
small RIFF/WAVE codec that accepts one subset: little-endian ``RIFF``,
16 kHz, mono, and either 16-bit PCM (format tag 1) or 32-bit IEEE float
(tag 3), also when carried in a ``WAVE_FORMAT_EXTENSIBLE`` (tag 0xFFFE)
``fmt `` chunk.  Unknown chunks such as ``LIST`` are skipped, with the pad
byte after an odd-sized chunk.  Every other file (RIFX, RF64, other codecs,
bit depths, rates or channel counts, truncated or chunk-less files) raises
``IngestionError``.  ``read_wav`` checks a file by seeking from chunk header
to chunk header, and returns a ``WavSamples``: the ``data`` chunk's sample
count and type, and reads of contiguous sample ranges from disk when they
are asked for, so no reader holds a clip's bytes unless it asks for all of
them.  The writer emits 32-bit float only, in the same bytes
as ``scipy.io.wavfile.write``: an 18-byte ``fmt `` chunk (``cbSize`` = 0), a
``fact`` chunk, then ``data``.

The STFT uses a periodic Hann window of ``win_len`` samples, zero-padded to
``n_fft``, with no boundary padding, so the frame count is
``1 + (n_samples - win_len) // hop``.  Defaults (n_fft=512, win_len=400,
hop=320 at 16 kHz) give 257 frequency bins on a 20 ms frame grid.

``featurize`` is the frontend every stage runs: one pass over a clip's
samples as the WAV stores them (``read_wav``), ``STFT_BLOCK_FRAMES`` frames at
a time.  Each block's samples are read from disk once, checked, widened to
float64, windowed and transformed, and the block's magnitudes are written
straight into the preallocated float32 log-mel features and, when asked
for, the float32 reconstruction target.  So neither the WAV's bytes (7.7 MB
for a 120-s float32 clip), a whole float64 waveform (15.4 MB) nor a whole
spectrogram (12.3 MB) exists: the pass holds the clip's 1.9 MB of features,
one block's stored samples (0.3 MB) and about 3 MB of float64 block
temporaries (samples, windowed frames, complex spectrum and magnitudes of
256 frames).  Asked for neither features nor a target, it only checks the
samples.  ``load_audio``, ``stft_magnitude`` and
``log_mel`` are the same steps over whole arrays; tests compare ``featurize``
against them.

``wav_features`` is ``featurize`` for a WAV file, with the features
cached beside it: each WAV's log-mel is computed once and read back by every
later stage or run that asks for the same frames with the same settings.
An entry is an NSF1 file in ``FEATURE_CACHE_DIR`` in the WAV's directory,
named by ``feature_key``, a SHA-256 of the WAV's bytes, the frame count, the
settings the log-mel reads, NumPy's version, the OpenBLAS build and thread
count, and this module's source.  A hit reads the WAV only for that digest:
an entry is written only after ``featurize`` has checked every sample of
exactly those bytes.  The reconstruction target is never cached.  Deleting
the directory is always safe, and a corpus that cannot be written to is
read as if it had no cache.

``frame_magnitudes`` holds the per-frame steps (widen, Hann window, ``rfft``,
``abs``) for the frames it is given: ``featurize`` passes each block as a
slice, and ``training.pretrain_dictionary`` passes the indices of the few
frames it factorizes.  ``rfft`` transforms each frame on its own, so a
frame's magnitudes are the same bits either way.

Feature matrices round-trip through the "NSF1" binary format: magic, D and T
as little-endian u32, the hop in seconds as little-endian f64, then D*T
little-endian f32 values stored frame by frame (column-major).
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import os
import struct
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import parallel
from .errors import ConfigError, DimensionError, FormatError, IngestionError

SAMPLE_RATE = 16000
LOG_FLOOR = 1e-10
# a label file's hop, written to 6 decimals, reads back within half a unit there, plus binary rounding
HOP_TOLERANCE = 0.5e-6 + 1e-12

FEATURE_MAGIC = b"NSF1"
# the directory, beside a WAV file, that holds the cached log-mel features of WAVs there
FEATURE_CACHE_DIR = ".nmfseg-features"

# frames windowed and transformed per block in featurize and stft_magnitude, and per
# frame_magnitudes call in training.pretrain_dictionary
STFT_BLOCK_FRAMES = 256

_WAVE_FORMAT_PCM = 0x0001
_WAVE_FORMAT_IEEE_FLOAT = 0x0003
_WAVE_FORMAT_EXTENSIBLE = 0xFFFE
# the 14 bytes after the format tag in an EXTENSIBLE SubFormat GUID
_KSDATAFORMAT_TAIL = b"\x00\x00\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"
# (format tag, bits per sample, block align) -> little-endian sample dtype
_WAV_SAMPLE_TYPES = {(_WAVE_FORMAT_PCM, 16, 2): "<i2", (_WAVE_FORMAT_IEEE_FLOAT, 32, 4): "<f4"}


@dataclass
class FrontendSettings:
    """STFT/mel configuration shared by every pipeline stage."""

    n_fft: int = 512
    win_len: int = 400
    hop: int = 320
    n_mels: int = 80
    f_min: float = 0.0
    f_max: float | None = None
    recon_log: bool = False  # reconstruct log1p-compressed magnitudes instead of linear


@dataclass
class AudioClip:
    """Mono audio at 16 kHz with samples normalized to [-1, 1]."""

    samples: np.ndarray

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise IngestionError(f"unsupported channel count: expected mono, got shape {self.samples.shape}")
        if not np.all(np.isfinite(self.samples)):
            raise IngestionError("non-finite samples")


@dataclass
class Spectrogram:
    """Non-negative magnitude spectrogram, F x T."""

    values: np.ndarray
    hop: float

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
    than converted, and so is a file whose chunks run past its end.
    """
    return AudioClip(samples=_widen(np.asarray(read_wav(path))))


class WavSamples:
    """The samples of a WAV file's ``data`` chunk, read from disk when asked for.

    ``len`` is the sample count and ``dtype`` the stored sample type
    (little-endian int16 or float32).  ``samples[a:b]`` reads those samples
    from the file, unscaled and read-only; only contiguous slices are taken.
    ``np.asarray(samples)`` reads them all, read-only too, and
    ``np.array(samples)`` returns them writable.  A file that has lost samples
    since ``read_wav`` checked it raises IngestionError when they are read.
    """

    def __init__(self, path, dtype: str, offset: int, count: int):
        self.path, self.dtype = path, np.dtype(dtype)
        self._offset, self._count = offset, count

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, key) -> np.ndarray:
        if not isinstance(key, slice) or key.step not in (None, 1):
            raise TypeError(f"a WAV's samples are read by contiguous slices, not {key!r}")
        start, stop, _ = key.indices(self._count)
        width = self.dtype.itemsize
        want = max(stop - start, 0) * width
        with open(self.path, "rb") as fh:
            fh.seek(self._offset + start * width)
            blob = fh.read(want)
        if len(blob) != want:
            raise IngestionError(f"truncated WAV {self.path}: {len(blob)} of {want} sample bytes "
                                 f"at sample {start}")
        return np.frombuffer(blob, dtype=self.dtype)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        data = self[:]
        if dtype is not None:
            return data.astype(dtype)
        return data.copy() if copy else data


def read_wav(path) -> WavSamples:
    """A 16 kHz mono WAV file's samples as stored (int16 or float32), read from
    disk when asked for.  The file's chunks are walked and checked as
    ``load_audio`` checks them; no sample is read here."""
    name = str(path)
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(12)
        if len(head) < 12:
            raise IngestionError(f"unsupported codec in {name}: truncated header ({len(head)} bytes)")
        if head[:4] != b"RIFF" or head[8:12] != b"WAVE":
            raise IngestionError(f"unsupported codec in {name}: {head[:4]!r}/{head[8:12]!r} "
                                 "is not a little-endian RIFF/WAVE file")
        chunks = {}  # id -> (body offset, size, the first 40 body bytes of a 'fmt ' chunk)
        pos = 12
        while pos + 8 <= size:
            fh.seek(pos)
            chunk_id, chunk_size = struct.unpack("<4sI", _read_exact(fh, 8, name))
            body = pos + 8
            if body + chunk_size > size:
                raise IngestionError(f"truncated WAV {name}: {chunk_id!r} chunk declares {chunk_size} bytes, "
                                     f"{size - body} remain")
            if chunk_id not in chunks:
                fmt = _read_exact(fh, min(chunk_size, 40), name) if chunk_id == b"fmt " else b""
                chunks[chunk_id] = (body, chunk_size, fmt)
            pos = body + chunk_size + (chunk_size & 1)
    for required in (b"fmt ", b"data"):
        if required not in chunks:
            raise IngestionError(f"unsupported codec in {name}: no {required.decode()!r} chunk")

    _, fmt_size, fmt = chunks[b"fmt "]
    if fmt_size < 16:
        raise IngestionError(f"unsupported codec in {name}: {fmt_size}-byte 'fmt ' chunk")
    tag, channels, rate, _, block_align, bits = struct.unpack_from("<HHIIHH", fmt)
    if tag == _WAVE_FORMAT_EXTENSIBLE:
        guid = fmt[24:40] if fmt_size >= 40 else b""
        if not guid.endswith(_KSDATAFORMAT_TAIL):
            raise IngestionError(f"unsupported codec in {name}: "
                                 "malformed WAVE_FORMAT_EXTENSIBLE 'fmt ' chunk")
        (tag,) = struct.unpack_from("<H", guid)
    if rate != SAMPLE_RATE:
        raise IngestionError(f"unsupported sample rate in {name}: {rate} (expected {SAMPLE_RATE})")
    if channels != 1:
        raise IngestionError(f"unsupported channel count in {name}: {channels} (expected mono)")
    dtype = _WAV_SAMPLE_TYPES.get((tag, bits, block_align))
    if dtype is None:
        raise IngestionError(f"unsupported sample format in {name}: format tag {tag:#06x}, "
                             f"{bits} bits, {block_align}-byte blocks "
                             "(expected 16-bit PCM or 32-bit float)")
    data_at, data_size, _ = chunks[b"data"]
    if data_size % block_align:
        raise IngestionError(f"truncated WAV {name}: {data_size}-byte 'data' chunk "
                             f"is not a whole number of {block_align}-byte samples")
    return WavSamples(name, dtype, data_at, data_size // block_align)


def _read_exact(fh, n: int, name: str) -> bytes:
    """``n`` bytes from ``fh``; fewer (the file shrank while it was read) raise IngestionError."""
    blob = fh.read(n)
    if len(blob) != n:
        raise IngestionError(f"truncated WAV {name}: read {len(blob)} of {n} bytes")
    return blob


def _widen(data: np.ndarray) -> np.ndarray:
    """Samples as float64: int16 scaled by 1/32768, float taken as is."""
    if data.dtype.kind == "i":
        return np.divide(data, 32768.0, dtype=np.float64)
    return np.asarray(data, dtype=np.float64)


def save_audio(clip: AudioClip, path) -> None:
    """Write a clip as a 32-bit float WAV."""
    data = clip.samples.astype("<f4")
    width = data.itemsize
    fmt_body = struct.pack("<HHIIHH", _WAVE_FORMAT_IEEE_FLOAT, 1, SAMPLE_RATE, SAMPLE_RATE * width,
                           width, 8 * width) + b"\x00\x00"  # cbSize = 0
    header = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt_body)) + fmt_body
    header += b"fact" + struct.pack("<II", 4, len(data))
    header += b"data" + struct.pack("<I", data.nbytes)
    riff_size = len(header) + data.nbytes
    if riff_size > 0xFFFFFFFF:
        raise ConfigError(f"{len(data)} samples do not fit in a RIFF/WAVE file")
    with open(path, "wb") as fh:
        fh.write(b"RIFF" + struct.pack("<I", riff_size) + header)
        fh.write(data)


def hann_window(win_len: int) -> np.ndarray:
    """Periodic Hann window: 0.5 - 0.5*cos(2*pi*n/win_len)."""
    n = np.arange(win_len)
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * n / win_len)


def stft_magnitude(clip: AudioClip, n_fft: int = 512, win_len: int = 400, hop: int = 320) -> Spectrogram:
    """Magnitude STFT without boundary padding.

    Frames start at multiples of ``hop``; each is Hann-windowed over
    ``win_len`` samples and zero-padded to ``n_fft`` before the real FFT.
    """
    samples = clip.samples
    frame_count(len(samples), FrontendSettings(n_fft=n_fft, win_len=win_len, hop=hop))
    # every hop-th window, so 1 + (n_samples - win_len) // hop frames
    windows = np.lib.stride_tricks.sliding_window_view(samples, win_len)[::hop]
    window = hann_window(win_len)
    # frame-major, as one whole-clip rfft would lay it out; returned transposed
    mags = np.empty((windows.shape[0], n_fft // 2 + 1))
    for start in range(0, windows.shape[0], STFT_BLOCK_FRAMES):
        block = windows[start:start + STFT_BLOCK_FRAMES]
        np.abs(np.fft.rfft(block * window, n=n_fft, axis=1), out=mags[start:start + len(block)])
    return Spectrogram(values=mags.T, hop=hop / SAMPLE_RATE)


def check_hop(path, hop: float, settings: FrontendSettings) -> None:
    """A file's frame grid, ``hop`` seconds, is the frontend's, up to ``HOP_TOLERANCE``;
    any other raises FormatError naming ``path``."""
    if not abs(hop - settings.hop / SAMPLE_RATE) <= HOP_TOLERANCE:
        raise FormatError(f"{path}: frames are {hop!r} s apart, but the frontend's hop of "
                          f"{settings.hop} samples puts them {settings.hop / SAMPLE_RATE!r} s apart")


def frame_count(n_samples: int, settings: FrontendSettings) -> int:
    """STFT frames of an ``n_samples`` clip: ``1 + (n_samples - win_len) // hop``.

    A clip shorter than one window raises IngestionError, and a window longer
    than ``n_fft``, an ``n_fft`` or window below 2 (a one-sample periodic
    Hann window is zero), an odd ``n_fft`` (the mel filterbank is laid out
    for ``2 * (n_fft // 2)``, the size ``Spectrogram.n_fft`` reads back) or a
    hop below 1 raises ConfigError.
    """
    win_len, hop = settings.win_len, settings.hop
    if min(win_len, settings.n_fft) < 2:
        raise ConfigError(f"n_fft and win_len must be >= 2, got n_fft={settings.n_fft}, win_len={win_len}")
    if settings.n_fft % 2:
        raise ConfigError(f"n_fft must be even, got n_fft={settings.n_fft}")
    if win_len > settings.n_fft:
        raise ConfigError(f"win_len {win_len} exceeds n_fft {settings.n_fft}")
    if hop <= 0:
        raise ConfigError(f"hop must be positive, got {hop}")
    if n_samples < win_len:
        raise IngestionError(f"clip too short: {n_samples} samples < window of {win_len}")
    return 1 + (n_samples - win_len) // hop


def frame_magnitudes(samples: np.ndarray | WavSamples, frames, settings: FrontendSettings) -> np.ndarray:
    """``|rfft|`` of some STFT frames of a clip: float64, (number of frames, F).

    ``samples`` is an array or a ``WavSamples``; only the samples from the
    first frame's to the last frame's are read.  ``frames`` is a
    ``slice(start, stop)`` of consecutive frames or an integer array of
    frame indices, each below ``frame_count``.  The frames' samples are
    widened to float64 as ``load_audio`` widens them, Hann-windowed, and
    transformed one frame per row, so a frame's magnitudes do not depend on
    which other frames are asked for with it.
    """
    win_len, hop = settings.win_len, settings.hop
    if isinstance(frames, slice):  # consecutive frames overlap: widen each sample once
        block = _widen(samples[frames.start * hop:(frames.stop - 1) * hop + win_len])
        windows = np.lib.stride_tricks.sliding_window_view(block, win_len)[::hop]
    else:
        frames = np.asarray(frames)
        first = frames.min()
        span = samples[first * hop:frames.max() * hop + win_len]
        windows = _widen(np.lib.stride_tricks.sliding_window_view(span, win_len)[(frames - first) * hop])
    return np.abs(np.fft.rfft(windows * hann_window(win_len), n=settings.n_fft, axis=1))


def recon_target(mags: np.ndarray, settings: FrontendSettings) -> np.ndarray:
    """The float32 reconstruction target of float64 magnitudes |X|: ``log1p |X|``
    under ``recon_log``, else |X|.  ``mags`` is overwritten."""
    return (np.log1p(mags, out=mags) if settings.recon_log else mags).astype(np.float32)


def featurize(samples: np.ndarray | WavSamples, settings: FrontendSettings, frames: int | None = None,
              mel: bool = True, target: bool = False) -> tuple[np.ndarray | None, np.ndarray | None]:
    """``(features, target)`` of a clip, in one blocked pass over its samples.

    ``samples`` are int16 or float32 as ``read_wav`` reads them, or an array
    of float64 in [-1, 1].  The first ``frames`` STFT frames are computed (all
    ``frame_count`` of them when None).  ``features`` is the float32
    (n_mels, frames) ``log(fb @ |X| + LOG_FLOOR)``, when ``mel`` is set;
    ``target`` is the float32 (F, frames) reconstruction target
    (``recon_target``), when ``target`` is set; it is the
    transpose of a frame-major array, as ``stft_magnitude``'s values are.
    Either is None when not asked for; when neither is, no frame is
    transformed, and the samples are only checked.

    Per block of ``STFT_BLOCK_FRAMES`` frames, the block's samples are read
    once, checked, widened to float64 as ``load_audio`` widens them, and
    windowed and transformed as ``stft_magnitude`` does it.  A non-finite
    float sample raises IngestionError; the checks cover every sample, the
    ones after the last frame included.  Every FFT, ``log`` and ``log1p`` is
    elementwise, so the target equals the whole-clip one bit for bit.  The
    float64 mel product of a block can differ in its last bit from the
    whole-clip product, because OpenBLAS picks its kernels by the frame
    count; after the float32 rounding, the features were bit-equal to
    ``log_mel(stft_magnitude(load_audio(...)))`` at every size tested.
    """
    n = len(samples)
    total = frame_count(n, settings)
    frames = total if frames is None else frames
    if not 1 <= frames <= total:
        raise DimensionError(f"cannot take {frames} frames of a {n}-sample clip")
    win_len, hop = settings.win_len, settings.hop
    n_bins = settings.n_fft // 2 + 1
    features = np.empty((settings.n_mels, frames), dtype=np.float32) if mel else None
    # frame-major, so the (F, frames) view returned is laid out as a whole-clip
    # spectrogram is: summing over its frequency axis then rounds alike
    spect = np.empty((frames, n_bins), dtype=np.float32) if target else None
    if mel:
        f_max = SAMPLE_RATE / 2 if settings.f_max is None else settings.f_max
        # the n_fft that Spectrogram.n_fft reads back from the bin count, as log_mel uses it
        fb = mel_filterbank(settings.n_mels, 2 * (n_bins - 1), settings.f_min, f_max)
    check = samples.dtype.kind == "f"
    if not (check or mel or target):
        return None, None
    for start in range(0, frames, STFT_BLOCK_FRAMES):
        stop = min(start + STFT_BLOCK_FRAMES, frames)
        # the block's frames, and the samples up to the next block's first one
        block = samples[start * hop:max((stop - 1) * hop + win_len, stop * hop)]
        if check and not np.isfinite(block).all():
            raise IngestionError("non-finite samples")
        if not (mel or target):
            continue
        mags = frame_magnitudes(block, slice(0, stop - start), settings)  # (frames, F)
        if mel:
            banded = fb @ mags.T
            banded += LOG_FLOOR
            features[:, start:stop] = np.log(banded, out=banded)
        if target:
            spect[start:stop] = recon_target(mags, settings)
    # and the samples after the last block's, in block-sized reads
    step = STFT_BLOCK_FRAMES * hop
    for lo in range(max((frames - 1) * hop + win_len, frames * hop), n if check else 0, step):
        if not np.isfinite(samples[lo:lo + step]).all():
            raise IngestionError("non-finite samples")
    return features, None if spect is None else spect.T


def wav_features(samples: WavSamples, settings: FrontendSettings, frames: int | None = None,
                 target: bool = False) -> tuple[np.ndarray, np.ndarray | None]:
    """``featurize(samples, settings, frames, target=target)`` of a WAV file,
    with the features cached beside it.

    ``samples`` is ``read_wav``'s source.  The entry is the NSF1 file
    ``FEATURE_CACHE_DIR/<feature_key>.nsf`` in the WAV's directory.  On a
    hit (an entry that parses, holds (n_mels, frames) values and declares
    the frontend's hop) the features are read from it, and the WAV is read
    only for its digest; with ``target`` the target is still computed
    (``featurize(..., mel=False, target=True)``).  On a miss, or an entry
    that is not usable, ``featurize`` runs, so every sample is checked, and
    then the features are written under a unique temporary name and moved
    into place, unless the WAV's size or modification time changed since
    it was digested.  A write that fails (a read-only corpus) is skipped
    and leaves no file.  The target is never cached.
    """
    path = Path(samples.path)
    frames = frame_count(len(samples), settings) if frames is None else frames
    stamp = os.stat(path)
    entry = path.parent / FEATURE_CACHE_DIR / f"{feature_key(path, settings, frames)}.nsf"
    try:
        seq = read_features(entry)
        hit = seq.values.shape == (settings.n_mels, frames) and seq.hop == settings.hop / SAMPLE_RATE
    except (OSError, FormatError):
        hit = False
    if hit:
        return seq.values, featurize(samples, settings, frames, mel=False, target=True)[1] if target else None
    features, spect = featurize(samples, settings, frames, target=target)
    now = os.stat(path)
    if (now.st_size, now.st_mtime_ns) == (stamp.st_size, stamp.st_mtime_ns):
        _store(entry, FeatureSequence(features, settings.hop / SAMPLE_RATE))
    return features, spect


def feature_key(path, settings: FrontendSettings, frames: int) -> str:
    """The hex SHA-256 that names the cached features of ``frames`` frames of
    the WAV file at ``path``.

    It covers everything the log-mel bits depend on: the file's bytes (read
    in 1-MB blocks), ``frames``, every ``FrontendSettings`` field but
    ``recon_log``, NumPy's version, this module's source, and the OpenBLAS
    build and thread count (``parallel.blas_build``), since those pick the
    mel product's kernel.
    """
    digest = hashlib.sha256(_code_digest())
    digest.update(repr((frames, np.__version__, parallel.blas_build(),
                        [(f.name, getattr(settings, f.name)) for f in fields(settings)
                         if f.name != "recon_log"])).encode())
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


@functools.lru_cache(maxsize=1)
def _code_digest() -> bytes:
    """SHA-256 of this module's source, read once per process."""
    return hashlib.sha256(Path(__file__).read_bytes()).digest()


def _store(entry: Path, seq: FeatureSequence) -> None:
    """Write ``seq`` to ``entry`` through a unique temporary file in its
    directory; on an OSError write nothing and remove the temporary file."""
    tmp = entry.with_name(f"{entry.stem}.{os.urandom(8).hex()}.tmp")
    try:
        entry.parent.mkdir(exist_ok=True)
        write_features(seq, tmp)
        os.replace(tmp, entry)
    except OSError:
        with contextlib.suppress(OSError):
            tmp.unlink(missing_ok=True)


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


@functools.lru_cache(maxsize=16)
def mel_filterbank(n_mels: int, n_fft: int, f_min: float, f_max: float) -> np.ndarray:
    """Triangular mel filterbank, shape (n_mels, n_fft//2 + 1), peak weight 1.

    Built once per argument tuple and shared, so the array is read-only.
    """
    if n_mels < 1:
        raise ConfigError(f"n_mels must be >= 1, got {n_mels}")
    if not (0 <= f_min < f_max <= SAMPLE_RATE / 2):
        raise ConfigError(f"invalid band limits: f_min={f_min}, f_max={f_max}, nyquist={SAMPLE_RATE / 2}")
    n_freqs = n_fft // 2 + 1
    freqs = np.arange(n_freqs) * (SAMPLE_RATE / n_fft)
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
        f_max = SAMPLE_RATE / 2
    fb = mel_filterbank(n_mels, spec.n_fft, f_min, f_max)
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
    """Parse an NSF1 blob; a malformed one, or one holding a non-finite value,
    raises FormatError naming ``name``."""
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
    if not np.isfinite(values).all():
        raise FormatError(f"{name}: non-finite feature values")
    return FeatureSequence(values=values, hop=hop)
