"""Configuration state.

Stateful accelerators such as Gemmini expose *configuration registers* that
must be written before compute instructions are issued (e.g. the load stride
or the activation function).  The object language models this with ``Config``
objects: named records of scalar fields that can be read inside expressions
(``cfg.stride``) and written by ``WriteConfig`` statements (``cfg.stride = e``).

Configs are created by user code (typically a machine/instruction library)
with :func:`new_config`.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .types import ScalarType

__all__ = ["Config", "new_config", "config_by_name", "register_config"]


# Registry of every Config created in this process, keyed by name; used by
# the schedule-trace machinery (repro.api) to reference configs symbolically.
_CONFIG_REGISTRY: Dict[str, "Config"] = {}


class Config:
    """A named record of configuration fields."""

    def __init__(self, name: str, fields: List[Tuple[str, ScalarType]]):
        self._name = name
        self._fields: Dict[str, ScalarType] = dict(fields)
        register_config(self)

    def name(self) -> str:
        return self._name

    def has_field(self, field: str) -> bool:
        return field in self._fields

    def field_type(self, field: str) -> ScalarType:
        return self._fields[field]

    def __repr__(self) -> str:
        return f"Config({self._name})"

    def __str__(self) -> str:
        return self._name


def new_config(name: str, fields: List[Tuple[str, ScalarType]]) -> Config:
    """Create a new configuration record (user-facing helper)."""
    return Config(name, fields)


def register_config(cfg: Config) -> Config:
    """Register ``cfg`` for by-name lookup (done automatically on creation;
    last registration wins when names collide)."""
    _CONFIG_REGISTRY[cfg.name()] = cfg
    return cfg


def config_by_name(name: str) -> Config:
    """Look up a configuration record created earlier in this process."""
    try:
        return _CONFIG_REGISTRY[name]
    except KeyError:
        raise KeyError(f"no Config named {name!r} has been created") from None
