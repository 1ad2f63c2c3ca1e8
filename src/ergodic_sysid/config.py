"""Experiment configuration: JSON documents validated against a fixed
schema. Unknown keys are rejected so typos fail fast with exit code 2."""

from __future__ import annotations

import json
from pathlib import Path


class ConfigError(ValueError):
    """Configuration file is malformed or violates the schema."""


_NUM = (int, float)

# section -> key -> allowed types (None marks a free-form numeric dict)
SCHEMA = {
    "name": str,
    "seed": int,
    "out": str,
    "system": {
        "name": str,
        "params": None,
    },
    "data": {
        "kind": str,          # ode | sde | map
        "x0": list,
        "dt": _NUM,
        "n_steps": int,
        "substeps": int,
        "diffusion": _NUM,
        "burn_in": int,
        "seed": int,          # noise of the sde kind
    },
    "grid": {
        "lo": list,
        "hi": list,
        "n_per_dim": list,
        "auto_box_margin": _NUM,
        "clip": bool,
    },
    "mesh": {
        "n_cells": int,
        "pou_eps": _NUM,
        "build_subsample": int,
        "seed": int,
    },
    "model": {
        "hidden": list,
        "seed": int,
    },
    "fit": {
        "driver": str,        # fvm | pfo | delay
        "objective": str,     # l2 | kl
        "lr": _NUM,
        "n_iters": int,
        "eps_tele": _NUM,
        "diffusion": _NUM,
        "flow_dt": _NUM,
        "substeps": int,
        "n_sources": int,
        "loss": str,          # j1 | j2
        "m": int,
        "lag": int,
        "observable": int,
        "max_points": int,
        "checkpoint_every": int,
        "clip_norm": _NUM,
        "seed": int,
        "resume_from": str,
        "target": str,
    },
    "eval": {
        "kind": str,          # fvm_density | catmap_compare | refinement
        "n_sim_steps": int,
        "sim_dt": _NUM,
        "sim_burn_in": int,
        "diffusion": _NUM,
        "seed": int,
        "n_projections": int,
        "max_points": int,
        "n_cells": int,
        "n_initial": int,
        "n_iters": int,
        "quad_points": int,
        "grids": list,
        "eps_tele": _NUM,
        "n_sde_steps": int,
        "sde_dt": _NUM,
    },
    "delay": {
        "mode": str,          # torus_pair | embed
        "pair_a": list,
        "pair_b": list,
        "n_steps": int,
        "m": int,
        "lag": int,
        "observable": int,
        "hist_bins": int,
        "seed": int,
        "trajectory": str,
    },
}


def _check_types(value, allowed, path):
    """The value, checked against its schema entry; numbers a schema entry
    types as _NUM come back as floats."""
    if allowed is None:
        if not isinstance(value, dict):
            raise ConfigError(f"{path}: expected an object")
        for k, v in value.items():
            if not isinstance(v, _NUM) or isinstance(v, bool):
                raise ConfigError(f"{path}.{k}: expected a number")
        return value
    if isinstance(allowed, dict):
        if not isinstance(value, dict):
            raise ConfigError(f"{path}: expected an object")
        checked = {}
        for key, sub in value.items():
            if key not in allowed:
                raise ConfigError(f"{path}.{key}: unknown key")
            checked[key] = _check_types(sub, allowed[key], f"{path}.{key}")
        return checked
    allowed_tuple = allowed if isinstance(allowed, tuple) else (allowed,)
    if isinstance(value, bool) and bool not in allowed_tuple:
        raise ConfigError(f"{path}: expected {allowed}, got bool")
    if not isinstance(value, allowed):
        raise ConfigError(
            f"{path}: expected {allowed}, got {type(value).__name__}")
    return float(value) if allowed is _NUM else value


def validate_config(cfg: dict) -> dict:
    """A checked copy of the config, _NUM values turned into floats;
    ``system.params`` keeps the numbers as written."""
    if not isinstance(cfg, dict):
        raise ConfigError("top-level config must be an object")
    for key in cfg:
        if key not in SCHEMA:
            raise ConfigError(f"unknown top-level key {key!r}")
    return {key: _check_types(value, SCHEMA[key], key)
            for key, value in cfg.items()}


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
