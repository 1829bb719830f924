"""Layered run configuration: packaged defaults < config file < CLI flags."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from importlib import resources
from pathlib import Path

from .errors import ConfigError, open_text
from .retrieval import DEFAULT_TOP_K
from .revision import DEFAULT_CHAR_BUDGET, PROVIDER_MOCK, ProviderConfig

MIN_BUDGET = 1000

_OPTIONAL_STR = (str, type(None))
_KIND_NAMES = {int: "an integer", float: "a finite number", str: "a string", _OPTIONAL_STR: "a string or null"}


def _check(name: str, value, kind, least: float | None = None) -> None:
    """Raise ConfigError unless `value` is a `kind` (bool is no number) and not below `least`."""
    if kind is float:
        ok = type(value) in (int, float) and math.isfinite(value)
    else:
        ok = type(value) is int if kind is int else isinstance(value, kind)
    if not ok:
        raise ConfigError(f"{name} must be {_KIND_NAMES[kind]}, got {value!r}")
    if least is not None and value < least:
        raise ConfigError(f"{name} must be >= {least}, got {value}")


def default_data_path(name: str) -> Path:
    """Filesystem path of a packaged data file (keywords, CWE map, ...)."""
    return Path(str(resources.files("sosec").joinpath(f"data/{name}")))


@dataclass
class GlobalConfig:
    keyword_path: str = str(default_data_path("keywords.txt"))
    cwe_map_path: str = str(default_data_path("cwe_map.json"))
    supported_cwes_path: str = str(default_data_path("supported_cwes.txt"))
    adapters_path: str = str(default_data_path("adapters.json"))
    provider: ProviderConfig = field(default_factory=lambda: ProviderConfig(kind=PROVIDER_MOCK))
    k: int = DEFAULT_TOP_K
    budget: int = DEFAULT_CHAR_BUDGET
    workers: int = 1

    def validate(self) -> "GlobalConfig":
        for f in fields(self):
            if f.name.endswith("_path"):
                _check(f.name, getattr(self, f.name), str)
        _check("k", self.k, int, 1)
        _check("budget", self.budget, int, MIN_BUDGET)
        _check("workers", self.workers, int, 1)
        provider = self.provider
        _check("provider.max_retries", provider.max_retries, int, 0)
        _check("provider.max_in_flight", provider.max_in_flight, int, 1)
        for name in ("temperature", "retry_base_delay", "min_request_interval"):
            _check(f"provider.{name}", getattr(provider, name), float, 0)
        for name in ("kind", "mock_behavior"):
            _check(f"provider.{name}", getattr(provider, name), str)
        for name in ("endpoint", "model_name", "transcript_path"):
            _check(f"provider.{name}", getattr(provider, name), _OPTIONAL_STR)
        return self


def load_config(path: str | Path | None = None) -> GlobalConfig:
    """Read a JSON config file on top of packaged defaults.

    The result is not validated yet: call `validate()` once any flags are set over it.
    """
    config = GlobalConfig()
    if path is None:
        return config
    try:
        with open_text(path) as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")

    provider_obj = obj.pop("provider", None)
    if provider_obj is not None:
        try:
            config.provider = ProviderConfig(**provider_obj)
        except TypeError as exc:
            raise ConfigError(f"config file {path}: bad provider section: {exc}") from exc
    names = {f.name for f in fields(config)}
    for key, value in obj.items():
        if key not in names:
            raise ConfigError(f"config file {path}: unknown key {key!r}")
        setattr(config, key, value)
    return config
