"""Layered run configuration: packaged defaults < config file < CLI flags."""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from importlib import resources
from pathlib import Path

from .errors import ConfigError
from .revision import PROVIDER_MOCK, ProviderConfig

MIN_BUDGET = 1000


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
    k: int = 5
    budget: int = 8000
    workers: int = 1

    def validate(self) -> "GlobalConfig":
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name in ("k", "budget", "workers") and type(value) is not int:  # bool is refused too
                raise ConfigError(f"{f.name} must be an integer, got {value!r}")
            if f.name.endswith("_path") and not isinstance(value, str):
                raise ConfigError(f"{f.name} must be a string, got {value!r}")
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")
        if self.budget < MIN_BUDGET:
            raise ConfigError(f"budget must be >= {MIN_BUDGET}, got {self.budget}")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        return self


def load_config(path: str | Path | None = None) -> GlobalConfig:
    """Read a JSON config file on top of packaged defaults.

    The result is not validated yet: call `validate()` once any flags are set over it.
    """
    config = GlobalConfig()
    if path is None:
        return config
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
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
    for key, value in obj.items():
        if not hasattr(config, key):
            raise ConfigError(f"config file {path}: unknown key {key!r}")
        setattr(config, key, value)
    return config
