"""Experiment configuration: JSON documents checked at load time, so that
a config mistake exits with code 2 naming its key before any work.

``SCHEMA`` is the one table of what a config may say: each key's type and
its bound or list of choices. A section whose selector (``data.kind``,
``fit.driver``, ``eval.kind``, ``delay.mode``) picks what it does is a
``Selected`` entry: the selector's key and default, the keys every value
reads, and, per value, the keys only that value reads; the values are the
selector's choices. ``SECTION_READERS`` names the whole sections that
only some values of a selector read. ``validate_config`` rejects unknown
keys, wrong types and values out of bounds or choices, and after all of
those, keys or sections the selected value does not read. Checks that
compare two keys or look at the data stay with the command."""

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


class Selected(NamedTuple):
    """A section whose ``key`` selects what it reads: ``common`` under every
    value and ``by_value[v]`` under value v; the values are the choices,
    and ``default`` stands in when the config leaves ``key`` out."""

    key: str
    default: str
    common: dict
    by_value: dict


# Schema entries: a type, or (type, bound or tuple of choices). A float
# entry takes any finite number and stores it as a float; (list, entry)
# takes a nonempty list whose elements each meet the entry; None marks a
# free-form dict of finite numbers.
_INT0 = (int, Bound(">= 0", lambda v: v >= 0))
_INT1 = (int, Bound(">= 1", lambda v: v >= 1))
_INT2 = (int, Bound(">= 2", lambda v: v >= 2))
_NONNEG = (float, Bound(">= 0", lambda v: v >= 0))
_POSITIVE = (float, Bound("> 0", lambda v: v > 0))
_UNIT = (float, Bound("in (0, 1]", lambda v: 0 < v <= 1))
_MMD_POINTS = (int, Bound(f"in 1..{MMD_MAX_POINTS}",
                          lambda v: 1 <= v <= MMD_MAX_POINTS))
_SQUARE = (int, Bound("a square >= 4",
                      lambda v: v >= 4 and math.isqrt(v) ** 2 == v))

# data.seed is common although only the "sde" kind draws from it: configs
# in use set it on "ode", and the simulate command warns that it is unused.
SCHEMA = {
    "name": str,
    "seed": _INT0,
    "out": str,
    "system": {"name": str, "params": None},
    "data": Selected("kind", "ode", {
        "x0": list, "n_steps": _INT1, "burn_in": _INT0, "seed": _INT0,
    }, {
        "ode": {"dt": _POSITIVE, "substeps": _INT1},
        "sde": {"dt": _POSITIVE, "diffusion": _NONNEG},
        "map": {},
    }),
    "grid": {"lo": (list, float), "hi": (list, float),
             "n_per_dim": (list, _INT2),
             "auto_box_margin": _NONNEG, "clip": bool},
    "mesh": {"n_cells": _INT1, "pou_eps": _POSITIVE,
             "build_subsample": _INT1, "seed": _INT0},
    "model": {"hidden": (list, _INT1), "seed": _INT0},
    "fit": Selected("driver", "fvm", {
        "lr": _POSITIVE, "n_iters": _INT0, "checkpoint_every": _INT0,
        "clip_norm": _NONNEG, "seed": _INT0, "resume_from": str,
    }, {
        "fvm": {"objective": (str, ("l2", "kl")), "eps_tele": _UNIT,
                "diffusion": _NONNEG, "target": str},
        "pfo": {"flow_dt": _POSITIVE, "substeps": _INT1, "n_sources": _INT1},
        "delay": {"loss": (str, ("j1", "j2")), "m": _INT1, "lag": _INT1,
                  "observable": _INT0, "max_points": _MMD_POINTS},
    }),
    "eval": Selected("kind", "fvm_density", {"seed": _INT0}, {
        "fvm_density": {"n_sim_steps": _INT1, "sim_dt": _POSITIVE,
                        "sim_burn_in": _INT0, "n_projections": _INT1,
                        "max_points": _INT1, "diffusion": _NONNEG},
        "catmap_compare": {"n_cells": _SQUARE, "n_initial": _INT1,
                           "n_iters": _INT1, "quad_points": _INT1},
        "refinement": {"grids": (list, _INT2), "eps_tele": _UNIT,
                       "n_sde_steps": _INT1, "sde_dt": _POSITIVE,
                       "max_points": _INT1, "diffusion": _NONNEG},
    }),
    "delay": Selected("mode", "embed", {
        "m": _INT1, "lag": _INT1, "observable": _INT0,
    }, {
        "torus_pair": {"pair_a": (list, float), "pair_b": (list, float),
                       "n_steps": _INT1, "hist_bins": _INT2, "seed": _INT0},
        "embed": {"trajectory": str},
    }),
}

# section -> (the section whose selector decides, the values that read
# it), for a whole section that only some of that selector's values read
SECTION_READERS = {"mesh": ("fit", ("pfo",))}


def _select(value: dict, entry: Selected, path: str, held: list):
    """The section with its selector set and without the keys that only
    another value reads, and the schema of the keys the selected value
    reads. A message naming the keys left out goes to ``held``."""
    choices = (str, tuple(entry.by_value))
    chosen = _check_value(value.get(entry.key, entry.default), choices,
                          f"{path}.{entry.key}", held)
    reads = {entry.key: choices, **entry.common, **entry.by_value[chosen]}
    others = {k for keys in entry.by_value.values() for k in keys} - set(reads)
    unread = [f"{path}.{key}" for key in value if key in others]
    if unread:
        held.append(f"{', '.join(unread)}: {path}.{entry.key} {chosen!r} "
                    "does not read " + ("it" if len(unread) == 1 else "them"))
    kept = {k: v for k, v in value.items() if k not in others}
    return {**kept, entry.key: chosen}, reads


def _check_value(value, allowed, path, held):
    """The value, checked against its schema entry; numbers a schema entry
    types as float come back as floats. Mistakes that only show once every
    value is known to be well formed go to ``held``."""
    if allowed is None:
        if not isinstance(value, dict):
            raise ConfigError(f"{path}: expected an object")
        for k, v in value.items():
            if not isinstance(v, (int, float)) or isinstance(v, bool):
                raise ConfigError(f"{path}.{k}: expected a number")
            if not math.isfinite(v):
                raise ConfigError(f"{path}.{k}: {v} is not finite")
        return value
    if isinstance(allowed, (dict, Selected)):
        if not isinstance(value, dict):
            raise ConfigError(f"{path}: expected an object")
        if isinstance(allowed, Selected):
            value, allowed = _select(value, allowed, path, held)
        checked = {}
        for key, sub in value.items():
            if key not in allowed:
                raise ConfigError(f"{path}.{key}: unknown key")
            checked[key] = _check_value(sub, allowed[key], f"{path}.{key}",
                                        held)
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
        if not math.isfinite(value):
            raise ConfigError(f"{path}: {value} is not finite")
    if kind is list and rule is not None:
        if not value:
            raise ConfigError(f"{path}: must hold at least one element")
        return [_check_value(v, rule, f"{path}[{i}]", held)
                for i, v in enumerate(value)]
    if isinstance(rule, Bound):
        if not rule.holds(value):
            raise ConfigError(f"{path}: {value} must be {rule.text}")
    elif rule is not None and value not in rule:
        raise ConfigError(f"{path}: {value!r} is not one of "
                          + ", ".join(map(repr, rule)))
    return value


def validate_config(cfg: dict) -> dict:
    """A checked copy of the config: float values turned into floats and
    each present section's selector set; ``system.params`` keeps the
    numbers as written. Keys and sections that the selected value does
    not read are reported only when nothing else is wrong."""
    if not isinstance(cfg, dict):
        raise ConfigError("top-level config must be an object")
    for key in cfg:
        if key not in SCHEMA:
            raise ConfigError(f"unknown top-level key {key!r}")
    held = []
    checked = {key: _check_value(value, SCHEMA[key], key, held)
               for key, value in cfg.items()}
    for name, (owner, values) in SECTION_READERS.items():
        entry = SCHEMA[owner]
        value = checked.get(owner, {}).get(entry.key, entry.default)
        if name in checked and value not in values:
            held.append(f"{name}: {owner}.{entry.key} {value!r} does not "
                        "read it")
    if held:
        raise ConfigError(held[0])
    return checked


def load_config(path) -> dict:
    try:
        cfg = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise ConfigError(f"config {path}: {exc}")
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
