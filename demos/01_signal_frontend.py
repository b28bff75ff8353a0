"""Walk through the signal frontend: WAV in, spectrogram, log-mel, feature files.

Run from the repository root:  python demos/01_signal_frontend.py
"""

import tempfile
from pathlib import Path

import numpy as np

from nmfseg import (AudioClip, load_audio, log_mel, read_features, save_audio,
                    stft_magnitude, write_features)
from nmfseg.frontend import SAMPLE_RATE

work = Path(tempfile.mkdtemp(prefix="nmfseg-demo-"))
print(f"working under {work}\n")

# --- build a one-second test tone and round-trip it through WAV ingestion ---
t = np.arange(SAMPLE_RATE) / SAMPLE_RATE
tone = 0.25 * np.sin(2 * np.pi * 250.0 * t)  # 250 Hz sits exactly on STFT bin 8
clip = AudioClip(samples=tone)
save_audio(clip, work / "tone.wav")
clip = load_audio(work / "tone.wav")
print(f"loaded {len(clip.samples)} samples at {SAMPLE_RATE} Hz, "
      f"peak {np.abs(clip.samples).max():.3f}")

# --- magnitude STFT on the 20 ms grid -----------------------------------
spec = stft_magnitude(clip)  # n_fft=512, 25 ms window, 20 ms hop
print(f"spectrogram: {spec.freq_bins} bins x {spec.frames} frames, hop {spec.hop*1000:.0f} ms")
peak_bins = np.argmax(spec.values, axis=0)
print(f"per-frame argmax bin: {peak_bins[0]} (250 Hz = bin 8); "
      f"all frames agree: {bool(np.all(peak_bins == 8))}")

# --- log-mel features ----------------------------------------------------
feats = log_mel(spec, n_mels=80)
print(f"log-mel features: {feats.dim} x {feats.frames}, "
      f"value range [{feats.values.min():.1f}, {feats.values.max():.1f}]")

# --- binary feature files -------------------------------------------------
write_features(feats, work / "tone.nsf")
back = read_features(work / "tone.nsf")
print(f"feature file round-trip identical: {bool(np.array_equal(back.values, feats.values))}")
print(f"file size: {(work / 'tone.nsf').stat().st_size} bytes "
      f"(= 20-byte header + {feats.dim}x{feats.frames} float32)")
