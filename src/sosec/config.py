"""Layered run configuration: packaged defaults < config file < CLI flags."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
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
    """The settings of one run; a bad value raises ConfigError naming its key."""

    keyword_path: str = str(default_data_path("keywords.txt"))
    cwe_map_path: str = str(default_data_path("cwe_map.json"))
    supported_cwes_path: str = str(default_data_path("supported_cwes.txt"))
    adapters_path: str = str(default_data_path("adapters.json"))
    provider: ProviderConfig = field(default_factory=lambda: ProviderConfig(kind="mock"))
    k: int = DEFAULT_TOP_K
    budget: int = DEFAULT_CHAR_BUDGET
    workers: int = 1

    def __post_init__(self):
        for f in fields(self):
            if f.name.endswith("_path"):
                check_value(f.name, getattr(self, f.name), str)
        check_value("k", self.k, int, 1)
        check_value("budget", self.budget, int, MIN_BUDGET)
        check_value("workers", self.workers, int, 1)


def load_config(path: str | Path | None = None, flags: dict | None = None) -> GlobalConfig:
    """The packaged defaults, then the JSON config file at `path`, then each of `flags` that is not None.

    `flags` maps argparse dests to values: those that name a config key, and
    `provider`, a provider kind, and `transcript`. The file's provider section
    applies unless the `provider` flag names another kind; its keys are
    checked even then.
    """
    merged = asdict(GlobalConfig())
    if path is not None:
        obj = read_json(path, "config file")
        if not isinstance(obj, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
        for key in obj:
            if key not in merged:
                raise ConfigError(f"config file {path}: unknown key {key!r}")
        section = obj.get("provider", merged["provider"])  # its keys here, its values in ProviderConfig
        if not isinstance(section, dict):
            raise ConfigError(f"config file {path}: bad provider section: not a JSON object")
        for key in section:
            if key not in merged["provider"]:
                raise ConfigError(f"config file {path}: bad provider section: unknown key {key!r}")
        if "kind" not in section:
            raise ConfigError(f"config file {path}: bad provider section: missing key 'kind'")
        merged.update(obj)
    flags = {key: value for key, value in (flags or {}).items() if value is not None}
    provider = merged.pop("provider")
    if flags.get("provider", provider["kind"]) != provider["kind"]:
        provider = {"kind": flags["provider"]}
    if "transcript" in flags:
        provider["transcript_path"] = flags["transcript"]
    merged.update((key, flags[key]) for key in merged.keys() & flags.keys())
    return GlobalConfig(**merged, provider=ProviderConfig(**provider))
