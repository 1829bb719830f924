"""Exception hierarchy shared across the pipeline, the one way text, line-list, JSON and JSONL inputs
are read, and the tests of the values read from them."""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Callable, Iterator


class SosecError(Exception):
    """Base class for all runtime failures raised by this package."""


class ConfigError(SosecError):
    """A config artifact (keyword file, CWE map, provider config, ...) is invalid."""


class DumpParseError(SosecError):
    """Fatal XML error while reading a data-dump file."""


class PromptBudgetError(SosecError):
    """The character budget cannot fit the mandatory prompt sections."""


class ProviderError(SosecError):
    """A provider call failed, after any retries the provider makes itself."""


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


def read_json(path: str | Path, what: str):
    """The JSON value in a UTF-8 file; ConfigError `cannot read {what} {path}: ...` if it cannot be read or parsed."""
    try:
        with open_text(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc


def read_lines(path: str | Path) -> list[str]:
    """The lines of a UTF-8 line-list file, each stripped, less blank lines and `#` comment lines."""
    with open_text(path) as fh:
        lines = fh.read().splitlines()
    return [line for line in map(str.strip, lines) if line and not line.startswith("#")]


def jsonl_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """(line number from 1, line stripped) for each line of a UTF-8 JSONL file that is not blank.

    Lines end where file iteration ends them, at a line feed or carriage
    return only: a record may hold a raw U+2028, U+2029 or U+0085.
    """
    with open_text(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            if line := line.strip():
                yield line_no, line


def is_int(value) -> bool:
    """An int, but not a bool: JSON's `true` is no count, id or score."""
    return type(value) is int


def is_number(value) -> bool:
    """A finite int or float, but not a bool."""
    return type(value) in (int, float) and math.isfinite(value)


def is_str(value) -> bool:
    """A str, the one string type JSON decodes to."""
    return type(value) is str


def list_of(test: Callable[[object], bool]) -> Callable[[object], bool]:
    """The test that a value is a list whose every item passes `test`."""
    return lambda value: type(value) is list and all(map(test, value))


OPTIONAL_STR = (str, type(None))
_KIND_NAMES = {int: "an integer", float: "a finite number", str: "a string", OPTIONAL_STR: "a string or null"}


def check_value(name: str, value, kind, least: float | None = None) -> None:
    """Raise ConfigError unless `value` is a `kind` (see `is_int`, `is_number`) and not below `least`."""
    if not (is_int(value) if kind is int else is_number(value) if kind is float else isinstance(value, kind)):
        raise ConfigError(f"{name} must be {_KIND_NAMES[kind]}, got {value!r}")
    if least is not None and value < least:
        raise ConfigError(f"{name} must be >= {least}, got {value}")
