"""Flat key=value experiment configuration.

A config file holds one ``key = value`` pair per line ('#' starts a comment).
Every key has a typed default and an allowed range; unknown keys and values
outside their range are rejected.  So are frontend settings that no STFT or
mel filterbank accepts: ``n_fft`` or ``win_len`` below 2, an odd ``n_fft``,
``win_len`` above ``n_fft``, or band limits outside
``0 <= f_min < f_max <= 8000`` (the Nyquist frequency); ``gen-data``
also refuses a ``hop`` off its 0.02-s label grid.  The
resolved configuration (defaults plus overrides) is what runs, what lands in
run logs, and what the config hash covers.
"""

from __future__ import annotations

import hashlib

from .corpus import HOP_SECONDS, CorpusSpec
from .errors import BOOL, FFT_SIZE, NONNEG, POSITIVE, SIZE, WINDOW, ConfigError, open_text
from .frontend import HOP_TOLERANCE, SAMPLE_RATE, FrontendSettings
from .nmf import SNMF_RANGES, SnmfConfig
from .training import TRAIN_RANGES, TrainConfig

_TRUE = {"1", "true", "yes"}
_FALSE = {"0", "false", "no"}


def _parse_bool(raw: str) -> bool:
    low = raw.lower()
    if low in _TRUE:
        return True
    if low in _FALSE:
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


# key -> (type constructor, default, allowed range)
SCHEMA = {
    "seed": (int, 0, TRAIN_RANGES["seed"]),
    # loss weights and optimization, range-checked again by TrainConfig
    "alpha": (float, 10.0, TRAIN_RANGES["alpha"]),
    "beta": (float, 1.0, TRAIN_RANGES["beta"]),
    "gamma": (float, 0.1, TRAIN_RANGES["gamma"]),
    "lr": (float, 1e-3, TRAIN_RANGES["lr"]),
    "batch": (int, 16, TRAIN_RANGES["batch_size"]),
    "epochs": (int, 120, TRAIN_RANGES["epochs"]),
    "segment_seconds": (float, 4.0, TRAIN_RANGES["segment_seconds"]),
    "threshold": (float, 0.5, TRAIN_RANGES["threshold"]),
    # model
    "k": (int, 64, SNMF_RANGES["k"]),
    "channels": (int, 64, SIZE),
    # dictionary pretraining, range-checked again by SnmfConfig
    "mu": (float, 0.1, SNMF_RANGES["mu"]),
    "dict_iters": (int, 300, SNMF_RANGES["max_iters"]),
    "dict_tol": (float, 1e-5, SNMF_RANGES["rel_tol"]),
    "dict_frames": (int, 3000, SIZE),
    # frontend
    "n_fft": (int, 512, FFT_SIZE),
    "win_len": (int, 400, WINDOW),
    "hop": (int, 320, SIZE),
    "n_mels": (int, 80, SIZE),
    "f_min": (float, 0.0, NONNEG),
    "f_max": (float, SAMPLE_RATE / 2, NONNEG),
    "recon_log": (_parse_bool, False, BOOL),
    # corpus generation
    "train_minutes": (float, 20.0, POSITIVE),
    "dev_minutes": (float, 5.0, POSITIVE),
    "test_minutes": (float, 5.0, POSITIVE),
    "clip_seconds": (float, 10.0, POSITIVE),
    "rate_speech": (float, 6.0, NONNEG),
    "rate_overlap": (float, 6.0, NONNEG),
    "rate_music": (float, 6.0, NONNEG),
    "rate_noise": (float, 6.0, NONNEG),
    # inference / reporting
    "min_dur": (float, 0.0, NONNEG),
    # probes
    "probe_epochs": (int, 300, SIZE),
    "probe_lr": (float, 1e-2, POSITIVE),
    "probe_per_class": (int, 20, SIZE),
    "probe_seconds": (float, 1.0, POSITIVE),
}


def default_config() -> dict:
    return {key: default for key, (_, default, _) in SCHEMA.items()}


def parse_config(path) -> dict:
    """Read a config file and return the fully resolved configuration."""
    cfg = default_config()
    for lineno, raw in enumerate(open_text(path, ConfigError), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in SCHEMA:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        ctor = SCHEMA[key][0]
        try:
            cfg[key] = ctor(value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    for key, (_, _, allowed) in SCHEMA.items():
        allowed.check(key, cfg[key], where=f"{path}: ")
    if cfg["win_len"] > cfg["n_fft"]:
        raise ConfigError(f"{path}: win_len must be <= n_fft, got win_len={cfg['win_len']}, "
                          f"n_fft={cfg['n_fft']}")
    nyquist = SAMPLE_RATE / 2
    if not 0.0 <= cfg["f_min"] < cfg["f_max"] <= nyquist:
        raise ConfigError(f"{path}: f_min and f_max must satisfy 0 <= f_min < f_max <= {nyquist:g} "
                          f"(Nyquist), got f_min={cfg['f_min']}, f_max={cfg['f_max']}")
    return cfg


def serialize_config(cfg: dict) -> str:
    lines = []
    for key in sorted(cfg):
        value = cfg[key]
        if isinstance(value, bool):
            value = int(value)
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def config_hash(cfg: dict) -> str:
    return hashlib.sha256(serialize_config(cfg).encode()).hexdigest()


def corpus_spec(cfg: dict) -> CorpusSpec:
    """The ``gen-data`` settings.  The corpus labels frames ``HOP_SECONDS``
    apart, so a ``hop`` off that grid raises ConfigError: the label files
    would not fit the frontend's frames."""
    if not abs(cfg["hop"] / SAMPLE_RATE - HOP_SECONDS) <= HOP_TOLERANCE:
        raise ConfigError(f"hop = {cfg['hop']} puts frames {cfg['hop'] / SAMPLE_RATE!r} s apart, "
                          f"but gen-data labels them {HOP_SECONDS} s apart "
                          f"(hop = {round(HOP_SECONDS * SAMPLE_RATE)})")
    return CorpusSpec(
        seed=cfg["seed"],
        train_minutes=cfg["train_minutes"],
        dev_minutes=cfg["dev_minutes"],
        test_minutes=cfg["test_minutes"],
        clip_seconds=cfg["clip_seconds"],
        rate_speech=cfg["rate_speech"],
        rate_overlap=cfg["rate_overlap"],
        rate_music=cfg["rate_music"],
        rate_noise=cfg["rate_noise"],
    )


def frontend_settings(cfg: dict) -> FrontendSettings:
    return FrontendSettings(
        n_fft=cfg["n_fft"],
        win_len=cfg["win_len"],
        hop=cfg["hop"],
        n_mels=cfg["n_mels"],
        f_min=cfg["f_min"],
        f_max=cfg["f_max"],
        recon_log=cfg["recon_log"],
    )


def train_config(cfg: dict) -> TrainConfig:
    return TrainConfig(
        alpha=cfg["alpha"],
        beta=cfg["beta"],
        gamma=cfg["gamma"],
        lr=cfg["lr"],
        batch_size=cfg["batch"],
        segment_seconds=cfg["segment_seconds"],
        epochs=cfg["epochs"],
        seed=cfg["seed"],
        threshold=cfg["threshold"],
    )


def snmf_config(cfg: dict) -> SnmfConfig:
    return SnmfConfig(
        k=cfg["k"],
        mu=cfg["mu"],
        max_iters=cfg["dict_iters"],
        rel_tol=cfg["dict_tol"],
        seed=cfg["seed"],
    )
