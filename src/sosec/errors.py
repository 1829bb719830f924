"""Exception hierarchy shared across the pipeline, the one way text inputs are opened, and
the one check of a config value's type and lower bound."""

from __future__ import annotations

import math
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterator


class SosecError(Exception):
    """Base class for all runtime failures raised by this package."""


class ConfigError(SosecError):
    """A config artifact (keyword file, CWE map, provider config, ...) is invalid."""


class DumpParseError(SosecError):
    """Fatal XML error while reading a data-dump file."""


class PromptBudgetError(SosecError):
    """The character budget cannot fit the mandatory prompt sections."""


class ProviderError(SosecError):
    """A provider call failed permanently."""


class TransientProviderError(SosecError):
    """A retryable transport failure (connection reset, 5xx, rate limit)."""


class ToolMissingError(SosecError):
    """An external analyzer binary is not installed on this host."""


class AdapterError(SosecError):
    """An external analyzer ran but failed or produced unparseable output."""


@contextmanager
def open_text(path: str | Path) -> Iterator[IO[str]]:
    """Open a UTF-8 text input, less a leading byte-order mark; bytes not UTF-8 raise ConfigError naming the file."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8 text: {exc}") from exc


OPTIONAL_STR = (str, type(None))
_KIND_NAMES = {int: "an integer", float: "a finite number", str: "a string", OPTIONAL_STR: "a string or null"}


def check_value(name: str, value, kind, least: float | None = None) -> None:
    """Raise ConfigError unless `value` is a `kind` (bool is no number) and not below `least`."""
    if kind is float:
        ok = type(value) in (int, float) and math.isfinite(value)
    else:
        ok = type(value) is int if kind is int else isinstance(value, kind)
    if not ok:
        raise ConfigError(f"{name} must be {_KIND_NAMES[kind]}, got {value!r}")
    if least is not None and value < least:
        raise ConfigError(f"{name} must be >= {least}, got {value}")
