"""Line-oriented sectioned key-value experiment configs.

Grammar (one statement per line):

    # comment                     blank lines and comments are ignored
    seed = 42                     top-level keys come before any section
    [system]                      sections: system, command, output
    kind = toral    # a comment   '#' starts a comment at the start of a line
    matrix = 2 1; 1 1             or after whitespace: 'out#1' keeps its '#'

Values are raw strings; typed access goes through ConfigSection.take, which
records consumption so unknown keys can be rejected with their exact path and
line number.  The (converter, description) pairs below name the value types.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

from .errors import ConfigError

KNOWN_SECTIONS = ("system", "command", "output")
_COMMENT = re.compile(r"(^|\s)#.*")


def _checked(conv, accept):
    """``conv``, then a ValueError for a value ``accept`` rejects."""

    def convert(text: str):
        value = conv(text)
        if not accept(value):
            raise ValueError(text)
        return value

    return convert


# every float-valued type reads its numbers through this: nan and +-inf are rejected
_number = _checked(float, math.isfinite)


def _decreasing(values: list[float]) -> bool:
    return len(values) >= 3 and values[-1] > 0 and all(a > b for a, b in zip(values, values[1:]))


def _rows(text: str) -> list[list[float]]:
    return [[_number(v) for v in r.split()] for r in text.split(";") if r.strip()]


def _square(rows: list[list[float]]) -> bool:
    return bool(rows) and all(len(r) == len(rows) for r in rows)


TEXT = (str, "text")
INT = (int, "an integer")
POSITIVE_INT = (_checked(int, lambda v: v >= 1), "a positive integer")
NONNEGATIVE_INT = (_checked(int, lambda v: v >= 0), "a non-negative integer")
FLOAT = (_number, "a number")
POSITIVE = (_checked(_number, lambda v: v > 0), "a positive number")
NONNEGATIVE = (_checked(_number, lambda v: v >= 0), "a number >= 0")
AT_LEAST_ONE = (_checked(_number, lambda v: v >= 1), "a number >= 1")
FLOATS = (lambda s: [_number(v) for v in s.split()], "numbers")
DECREASING = (_checked(FLOATS[0], _decreasing), "at least 3 positive, strictly decreasing numbers")
INTS = (lambda s: [int(v) for v in s.split()], "integers")
MATRIX = (_checked(_rows, _square), "a square matrix like '2 1; 1 1'")


def sized(kind, n: int):
    """The list type ``kind`` (FLOATS or INTS) restricted to exactly ``n`` values."""
    return _checked(kind[0], lambda v: len(v) == n), f"{n} {kind[1]}"


@dataclass
class ConfigEntry:
    value: str
    line: int
    used: bool = False


@dataclass
class ConfigSection:
    name: str
    path: str
    entries: dict[str, ConfigEntry] = field(default_factory=dict)
    line: int | None = None  # of the section header

    def _entry(self, key: str) -> ConfigEntry | None:
        entry = self.entries.get(key)
        if entry is not None:
            entry.used = True
        return entry

    def _keypath(self, key: str) -> str:
        return f"{self.name}.{key}" if self.name else key

    def error(self, key: str, message: str) -> ConfigError:
        """A config error at the line of ``key``, which must be present."""
        return ConfigError(message, self.path, self.entries[key].line)

    def take(self, key: str, conv, what: str, default=None, required: bool = False):
        """The value of ``key`` converted by ``conv``; ``default`` when absent.

        A value ``conv`` rejects is reported as not being ``what``.
        """
        entry = self._entry(key)
        if entry is None:
            if required:
                raise ConfigError(f"missing required key '{self._keypath(key)}'", self.path)
            return default
        try:
            return conv(entry.value)
        except ValueError as exc:
            message = f"key '{self._keypath(key)}' must be {what}, got {entry.value!r}"
            raise self.error(key, message) from exc

    def reject_unused(self) -> None:
        for key, entry in self.entries.items():
            if not entry.used:
                raise self.error(key, f"unknown key '{self._keypath(key)}'")


@dataclass
class Config:
    path: str
    top: ConfigSection
    sections: dict[str, ConfigSection]

    def section(self, name: str) -> ConfigSection:
        if name not in self.sections:
            self.sections[name] = ConfigSection(name, self.path)
        return self.sections[name]

    def reject_unused(self) -> None:
        self.top.reject_unused()
        for section in self.sections.values():
            section.reject_unused()


def parse_config(path) -> Config:
    path = str(path)
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(str(exc), path) from exc
    top = ConfigSection("", path)
    sections: dict[str, ConfigSection] = {}
    current = top
    for lineno, raw in enumerate(lines, start=1):
        line = _COMMENT.sub("", raw).strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in KNOWN_SECTIONS:
                raise ConfigError(f"unknown section '[{name}]'", path, lineno)
            if name in sections:
                raise ConfigError(f"duplicate section '[{name}]'", path, lineno)
            current = ConfigSection(name, path, line=lineno)
            sections[name] = current
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError("expected 'key = value' or '[section]'", path, lineno)
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError("empty key", path, lineno)
        if key in current.entries:
            raise ConfigError(
                f"duplicate key '{current._keypath(key)}'", path, lineno
            )
        current.entries[key] = ConfigEntry(value, lineno)
    return Config(path=path, top=top, sections=sections)
