"""Flat key = value run configuration with typed coercion, override
handling, and strict unknown-key rejection."""

from __future__ import annotations

import typing
from dataclasses import dataclass, fields
from pathlib import Path

from .model import ModelConfig
from .skip import SkipSchedule
from .train import TrainConfig


@dataclass
class RunConfig:
    """Paths and run plumbing that sit outside the model/optimizer maths."""

    corpus: str | None = None
    level: str = "char"
    checkpoint: str | None = None
    log: str | None = None
    checkpoint_every: int = 0
    eval_split: float = 0.0

    def __post_init__(self):
        if self.level not in ("char", "word"):
            raise ValueError(f"level must be char or word, got {self.level!r}")
        if not 0.0 <= self.eval_split < 1.0:
            raise ValueError(f"eval_split must be in [0, 1), got {self.eval_split}")
        if self.checkpoint_every < 0:
            raise ValueError(f"checkpoint_every must be nonnegative, got {self.checkpoint_every}")


def _split_kv(item: str) -> tuple[str, str] | None:
    """``key = value`` split at the first ``=`` and stripped; None if a side is empty or there is no ``=``."""
    key, _, value = (part.strip() for part in item.partition("="))
    return (key, value) if key and value else None


def parse_kv(text: str) -> dict[str, str]:
    """``key = value`` per line; blank lines and # comments ignored."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        pair = _split_kv(line)
        if pair is None:
            raise ValueError(f"config line {lineno}: expected key = value, no empty key or value, got {raw.strip()!r}")
        out[pair[0]] = pair[1]
    return out


def read_config(path) -> dict[str, str]:
    return parse_kv(Path(path).read_text(encoding="utf-8"))


def apply_overrides(kv: dict[str, str], overrides: list[str]) -> dict[str, str]:
    out = dict(kv)
    for item in overrides:
        pair = _split_kv(item)
        if pair is None:
            raise ValueError(f"override must look like key=value, got {item!r}")
        out[pair[0]] = pair[1]
    return out


def _field_types(cls, exclude: tuple[str, ...] = ()) -> dict[str, type]:
    """Config keys and their value types, read from a config dataclass in
    field order; an optional ``X | None`` field takes values of type X."""
    hints = typing.get_type_hints(cls)
    out = {}
    for f in fields(cls):
        if f.name in exclude:
            continue
        kinds = [k for k in typing.get_args(hints[f.name]) if k is not type(None)]
        out[f.name] = kinds[0] if kinds else hints[f.name]
    return out


MODEL_KEYS = _field_types(ModelConfig)

MODEL_DEFAULTS = {
    "n_layers": 4,
    "d_model": 64,
    "d_inner": 256,
    "n_heads": 4,
    "d_head": 16,
    "mem_len": 32,
    "block_len": 32,
}

# the schedule comes from its own keys, see build_schedule
TRAIN_KEYS = _field_types(TrainConfig, exclude=("schedule",))

SCHEDULE_KEYS = {"schedule": str, "schedule_p": float}

RUN_KEYS = _field_types(RunConfig)

KNOWN_KEYS = {**MODEL_KEYS, **TRAIN_KEYS, **SCHEDULE_KEYS, **RUN_KEYS}


def _coerce(kv: dict[str, str], keys: dict[str, type]) -> dict:
    out = {}
    for key, kind in keys.items():
        if key not in kv:
            continue
        try:
            out[key] = kind(kv[key])
        except ValueError as e:
            raise ValueError(f"config key {key}: {e}") from None
    return out


def build_schedule(kv: dict[str, str]) -> SkipSchedule:
    values = _coerce(kv, SCHEDULE_KEYS)
    variant = values.get("schedule", "none")
    return SkipSchedule(variant=variant, p=values.get("schedule_p"))


def build_configs(
    kv: dict[str, str],
    vocab_size: int | None = None,
) -> tuple[ModelConfig, TrainConfig, RunConfig]:
    """Materialize all three configs from one flat mapping.

    ``vocab_size`` supplies the corpus-derived vocabulary when the file
    does not pin one explicitly.
    """
    unknown = sorted(set(kv) - set(KNOWN_KEYS))
    if unknown:
        raise ValueError(f"unknown config keys {unknown}; known keys: {sorted(KNOWN_KEYS)}")

    model_kwargs = {**MODEL_DEFAULTS, **_coerce(kv, MODEL_KEYS)}
    if "vocab_size" not in model_kwargs:
        if vocab_size is None:
            raise ValueError("vocab_size missing: set it in the config or load a corpus first")
        model_kwargs["vocab_size"] = vocab_size
    model_cfg = ModelConfig(**model_kwargs)

    train_kwargs = _coerce(kv, TRAIN_KEYS)
    train_kwargs.setdefault("steps", 1000)
    train_cfg = TrainConfig(schedule=build_schedule(kv), **train_kwargs)

    run_cfg = RunConfig(**_coerce(kv, RUN_KEYS))
    return model_cfg, train_cfg, run_cfg
