"""Run-configuration text format: INI sections mirroring ProtocolConfig.

Sections, keys, value types and defaults are all read off ProtocolConfig: each
sub-config field is a section, [run] holds n_signals and master_seed, [source]
the three intensity_probs.  Unknown sections or keys are hard errors (a
misspelled security threshold must not silently fall back to a default).
"""

from __future__ import annotations

import configparser
import re
from dataclasses import fields, is_dataclass, replace
from types import NoneType
from typing import get_args, get_type_hints

from .harness import ProtocolConfig


class ConfigError(ValueError):
    """Malformed run configuration; message carries a line/field diagnostic."""


_DEFAULTS = ProtocolConfig()
_SOURCE_KEYS = ("p_signal", "p_decoy", "p_vacuum")


def _parse_types(cls, names) -> dict[str, type]:
    """Key -> type its text is parsed as; an optional `float | None` parses as float."""
    hints = get_type_hints(cls)
    return {name: next((t for t in get_args(hints[name]) if t is not NoneType), hints[name])
            for name in names}


def _schema() -> dict[str, dict[str, type]]:
    """INI section -> key -> parse type, in ProtocolConfig field order."""
    schema = {"run": _parse_types(ProtocolConfig, ("n_signals", "master_seed"))}
    for f in fields(ProtocolConfig):
        sub = getattr(_DEFAULTS, f.name)
        if f.name == "intensity_probs":
            schema["source"] = dict.fromkeys(_SOURCE_KEYS, float)
        elif is_dataclass(sub):
            schema[f.name] = _parse_types(type(sub), [g.name for g in fields(sub)])
    return schema


_SCHEMA = _schema()


def _section_values(cfg: ProtocolConfig, section: str) -> dict:
    if section == "source":
        return dict(zip(_SOURCE_KEYS, cfg.intensity_probs))
    owner = cfg if section == "run" else getattr(cfg, section)
    return {key: getattr(owner, key) for key in _SCHEMA[section]}


def _render(cfg: ProtocolConfig) -> str:
    lines = [
        "# wmqkd run configuration (all keys optional; unknown keys are errors)",
        "# A key shown as '# key =' is unset: [thresholds] g_sec / sigma_sec_sq and",
        "# [attack] g_eve / sigma_eve then follow the [pointer] device at run time.",
    ]
    for section in _SCHEMA:
        lines.append(f"\n[{section}]")
        for key, value in _section_values(cfg, section).items():
            lines.append(f"# {key} =" if value is None else f"{key} = {value}")
    return "\n".join(lines) + "\n"


DEFAULT_CONFIG = _render(_DEFAULTS)


def _line_of(text: str, section: str, key: str | None) -> int:
    """Best-effort line number of a section header or key for diagnostics."""
    header = None
    for i, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if stripped.startswith("["):
            header = stripped
            if key is None and header == f"[{section}]":
                return i
        elif header == f"[{section}]" and re.split("[=:]", stripped, maxsplit=1)[0].strip() == key:
            return i
    return 0


def parse_config_text(text: str) -> ProtocolConfig:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc

    given: dict[str, dict] = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(
                f"line {_line_of(text, section, None)}: unknown section [{section}]")
        given[section] = {}
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(
                    f"line {_line_of(text, section, key)}: unknown key {key!r} in [{section}]")
            try:
                given[section][key] = _SCHEMA[section][key](raw)
            except ValueError as exc:
                raise ConfigError(
                    f"line {_line_of(text, section, key)}: bad value for "
                    f"[{section}] {key}: {raw!r} ({exc})") from exc

    try:
        probs = _section_values(_DEFAULTS, "source") | given.pop("source", {})
        run = given.pop("run", {})
        subs = {name: replace(getattr(_DEFAULTS, name), **values) for name, values in given.items()}
        return replace(_DEFAULTS, **run, **subs, intensity_probs=tuple(probs.values()))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid configuration: {exc}") from exc


def parse_config(path) -> ProtocolConfig:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text)


def config_with_seed(cfg: ProtocolConfig, seed: int | None) -> ProtocolConfig:
    return cfg if seed is None else replace(cfg, master_seed=seed)
