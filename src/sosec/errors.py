"""Exception hierarchy shared across the pipeline, and the one way text inputs are opened."""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterator


class SosecError(Exception):
    """Base class for all runtime failures raised by this package."""


class ConfigError(SosecError):
    """A config artifact (keyword file, CWE map, provider config, ...) is invalid."""


class DumpParseError(SosecError):
    """Fatal XML error while reading a data-dump file."""

    def __init__(self, message: str, byte_offset: int = -1):
        super().__init__(message)
        self.byte_offset = byte_offset


class PromptBudgetError(SosecError):
    """The character budget cannot fit the mandatory prompt sections."""


class ProviderError(SosecError):
    """A provider call failed permanently."""

    def __init__(self, message: str, sample_id: str = ""):
        super().__init__(message)
        self.sample_id = sample_id


class TransientProviderError(SosecError):
    """A retryable transport failure (connection reset, 5xx, rate limit)."""


class ToolMissingError(SosecError):
    """An external analyzer binary is not installed on this host."""


class AdapterError(SosecError):
    """An external analyzer ran but failed or produced unparseable output."""


@contextmanager
def open_text(path: str | Path) -> Iterator[IO[str]]:
    """Open a UTF-8 text input; bytes that are not UTF-8 raise ConfigError naming the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8 text: {exc}") from exc
