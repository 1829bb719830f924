"""Layered run configuration: packaged defaults < config file < CLI flags."""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from importlib import resources
from pathlib import Path

from .errors import ConfigError, check_value, read_json
from .retrieval import DEFAULT_TOP_K
from .revision import DEFAULT_CHAR_BUDGET, ProviderConfig

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
    provider: ProviderConfig = field(default_factory=lambda: ProviderConfig(kind="mock"))
    k: int = DEFAULT_TOP_K
    budget: int = DEFAULT_CHAR_BUDGET
    workers: int = 1

    def validate(self) -> "GlobalConfig":
        for f in fields(self):
            if f.name.endswith("_path"):
                check_value(f.name, getattr(self, f.name), str)
        check_value("k", self.k, int, 1)
        check_value("budget", self.budget, int, MIN_BUDGET)
        check_value("workers", self.workers, int, 1)
        self.provider.validate()
        return self


def load_config(path: str | Path | None = None) -> GlobalConfig:
    """Read a JSON config file on top of packaged defaults.

    The result is not validated yet: call `validate()` once any flags are set over it.
    """
    config = GlobalConfig()
    if path is None:
        return config
    obj = read_json(path, "config file")
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
