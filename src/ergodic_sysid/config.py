"""Experiment configuration: JSON documents checked at load time, so that
a config mistake exits with code 2 naming its key before any work.

``SCHEMA`` gives each key its type and its bound or list of choices.
``READERS`` names the keys that only some values of a section's selector
(``data.kind``, ``fit.driver``, ``eval.kind``, ``delay.mode``) read;
``SELECTORS`` gives each selector's default, and ``SECTION_READERS`` the
sections that only some values of a selector read. ``validate_config``
rejects unknown keys, wrong types, values out of bounds or choices, and
keys or sections the selected value does not read. Checks that compare
two keys or look at the data stay with the command."""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Callable, NamedTuple

from .delay import MMD_MAX_POINTS


class ConfigError(ValueError):
    """Configuration file is malformed or violates the schema."""


class Bound(NamedTuple):
    """A bound on a number; ``text`` completes "must be ..." in messages."""

    text: str
    holds: Callable


_NONNEG = Bound(">= 0", lambda v: v >= 0)
_POSITIVE = Bound("> 0", lambda v: v > 0)
_ONE_UP = Bound(">= 1", lambda v: v >= 1)
_TWO_UP = Bound(">= 2", lambda v: v >= 2)
_UNIT = Bound("in (0, 1]", lambda v: 0 < v <= 1)
_MMD_POINTS = Bound(f"in 1..{MMD_MAX_POINTS}",
                    lambda v: 1 <= v <= MMD_MAX_POINTS)
_SQUARE = Bound("a square >= 1", lambda v: v >= 1 and math.isqrt(v) ** 2 == v)

# section -> key -> type, or (type, bound or tuple of choices). A float
# entry takes any number and stores it as a float; a list entry with a
# bound takes a nonempty list of ints, each within it; None marks a
# free-form numeric dict.
SCHEMA = {
    "name": str,
    "seed": (int, _NONNEG),
    "out": str,
    "system": {
        "name": str,
        "params": None,
    },
    "data": {
        "kind": (str, ("ode", "sde", "map")),
        "x0": list,
        "dt": (float, _POSITIVE),
        "n_steps": (int, _ONE_UP),
        "substeps": (int, _ONE_UP),
        "diffusion": (float, _NONNEG),
        "burn_in": (int, _NONNEG),
        "seed": (int, _NONNEG),
    },
    "grid": {
        "lo": list,
        "hi": list,
        "n_per_dim": (list, _TWO_UP),
        "auto_box_margin": (float, _NONNEG),
        "clip": bool,
    },
    "mesh": {
        "n_cells": (int, _ONE_UP),
        "pou_eps": (float, _POSITIVE),
        "build_subsample": (int, _ONE_UP),
        "seed": (int, _NONNEG),
    },
    "model": {
        "hidden": (list, _ONE_UP),
        "seed": (int, _NONNEG),
    },
    "fit": {
        "driver": (str, ("fvm", "pfo", "delay")),
        "objective": (str, ("l2", "kl")),
        "lr": (float, _POSITIVE),
        "n_iters": (int, _NONNEG),
        "eps_tele": (float, _UNIT),
        "diffusion": (float, _NONNEG),
        "flow_dt": (float, _POSITIVE),
        "substeps": (int, _ONE_UP),
        "n_sources": (int, _ONE_UP),
        "loss": (str, ("j1", "j2")),
        "m": (int, _ONE_UP),
        "lag": (int, _ONE_UP),
        "observable": (int, _NONNEG),
        "max_points": (int, _MMD_POINTS),
        "checkpoint_every": (int, _NONNEG),
        "clip_norm": (float, _NONNEG),
        "seed": (int, _NONNEG),
        "resume_from": str,
        "target": str,
    },
    "eval": {
        "kind": (str, ("fvm_density", "catmap_compare", "refinement")),
        "n_sim_steps": (int, _ONE_UP),
        "sim_dt": (float, _POSITIVE),
        "sim_burn_in": (int, _NONNEG),
        "diffusion": (float, _NONNEG),
        "seed": (int, _NONNEG),
        "n_projections": (int, _ONE_UP),
        "max_points": (int, _ONE_UP),
        "n_cells": (int, _SQUARE),
        "n_initial": (int, _ONE_UP),
        "n_iters": (int, _ONE_UP),
        "quad_points": (int, _ONE_UP),
        "grids": (list, _TWO_UP),
        "eps_tele": (float, _UNIT),
        "n_sde_steps": (int, _ONE_UP),
        "sde_dt": (float, _POSITIVE),
    },
    "delay": {
        "mode": (str, ("torus_pair", "embed")),
        "pair_a": list,
        "pair_b": list,
        "n_steps": (int, _ONE_UP),
        "m": (int, _ONE_UP),
        "lag": (int, _ONE_UP),
        "observable": (int, _NONNEG),
        "hist_bins": (int, _TWO_UP),
        "seed": (int, _NONNEG),
        "trajectory": str,
    },
}

# section -> (its selector key, the selector's default)
SELECTORS = {
    "data": ("kind", "ode"),
    "fit": ("driver", "fvm"),
    "eval": ("kind", "fvm_density"),
    "delay": ("mode", "embed"),
}

# section -> value of its selector -> the keys, of those that only some
# values read, that this value reads. A key no value names is read under
# every value. data.seed is named by none, although only the "sde" kind
# reads it: configs in use set it on "ode".
READERS = {
    "data": {"ode": ("dt", "substeps"), "sde": ("dt", "diffusion"),
             "map": ()},
    "fit": {"fvm": ("objective", "eps_tele", "diffusion", "target"),
            "pfo": ("flow_dt", "substeps", "n_sources"),
            "delay": ("loss", "m", "lag", "observable", "max_points")},
    "eval": {"fvm_density": ("n_sim_steps", "sim_dt", "sim_burn_in",
                             "n_projections", "max_points", "diffusion"),
             "catmap_compare": ("n_cells", "n_initial", "n_iters",
                                "quad_points"),
             "refinement": ("grids", "eps_tele", "n_sde_steps", "sde_dt",
                            "max_points", "diffusion")},
    "delay": {"torus_pair": ("pair_a", "pair_b", "n_steps", "hist_bins",
                             "seed"),
              "embed": ("trajectory",)},
}

# section -> (the section whose selector decides, the values that read
# it), for a whole section that only some of that selector's values read
SECTION_READERS = {"mesh": ("fit", ("pfo",))}


def _check_value(value, allowed, path):
    """The value, checked against its schema entry; numbers a schema entry
    types as float come back as floats."""
    if allowed is None:
        if not isinstance(value, dict):
            raise ConfigError(f"{path}: expected an object")
        for k, v in value.items():
            if not isinstance(v, (int, float)) or isinstance(v, bool):
                raise ConfigError(f"{path}.{k}: expected a number")
        return value
    if isinstance(allowed, dict):
        if not isinstance(value, dict):
            raise ConfigError(f"{path}: expected an object")
        checked = {}
        for key, sub in value.items():
            if key not in allowed:
                raise ConfigError(f"{path}.{key}: unknown key")
            checked[key] = _check_value(sub, allowed[key], f"{path}.{key}")
        return checked
    kind, rule = allowed if isinstance(allowed, tuple) else (allowed, None)
    types = (int, float) if kind is float else kind
    if not isinstance(value, types) or (isinstance(value, bool)
                                        and kind is not bool):
        name = "a number" if kind is float else kind.__name__
        raise ConfigError(
            f"{path}: expected {name}, got {type(value).__name__}")
    if kind is float:
        value = float(value)
    if kind is list and rule is not None:
        if not value:
            raise ConfigError(f"{path}: must hold at least one element")
        return [_check_value(v, (int, rule), f"{path}[{i}]")
                for i, v in enumerate(value)]
    if isinstance(rule, Bound):
        if not rule.holds(value):
            raise ConfigError(f"{path}: {value} must be {rule.text}")
    elif rule is not None and value not in rule:
        raise ConfigError(f"{path}: {value!r} is not one of "
                          + ", ".join(map(repr, rule)))
    return value


def _check_readers(cfg: dict):
    """Set each present section's selector to its default if the config
    leaves it out, and reject the keys and sections that the selected
    value does not read."""
    for name, (selector, default) in SELECTORS.items():
        if name not in cfg:
            continue
        value = cfg[name].setdefault(selector, default)
        restricted = {k for keys in READERS[name].values() for k in keys}
        unread = [f"{name}.{key}" for key in cfg[name]
                  if key in restricted and key not in READERS[name][value]]
        if unread:
            raise ConfigError(
                f"{', '.join(unread)}: {name}.{selector} {value!r} does not "
                "read " + ("it" if len(unread) == 1 else "them"))
    for name, (owner, values) in SECTION_READERS.items():
        selector, default = SELECTORS[owner]
        value = cfg.get(owner, {}).get(selector, default)
        if name in cfg and value not in values:
            raise ConfigError(
                f"{name}: {owner}.{selector} {value!r} does not read it")


def validate_config(cfg: dict) -> dict:
    """A checked copy of the config: float values turned into floats and
    each present section's selector set; ``system.params`` keeps the
    numbers as written."""
    if not isinstance(cfg, dict):
        raise ConfigError("top-level config must be an object")
    for key in cfg:
        if key not in SCHEMA:
            raise ConfigError(f"unknown top-level key {key!r}")
    checked = {key: _check_value(value, SCHEMA[key], key)
               for key, value in cfg.items()}
    _check_readers(checked)
    return checked


def load_config(path) -> dict:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    try:
        cfg = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    return validate_config(cfg)


class Section(dict):
    """One config section; reading a missing key is a config error."""

    def __init__(self, name: str, items: dict):
        super().__init__(items)
        self.name = name

    def __missing__(self, key):
        raise ConfigError(f"{self.name}.{key}: required key is missing")


def section(cfg: dict, name: str, required: bool = True) -> Section:
    if name not in cfg:
        if required:
            raise ConfigError(f"config section {name!r} is required "
                              "for this command")
        return Section(name, {})
    return Section(name, cfg[name])
