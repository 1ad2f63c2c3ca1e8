import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import ergodic_sysid
from ergodic_sysid import io
from ergodic_sysid.cli import main
from ergodic_sysid.config import (SCHEMA, SECTION_READERS, Selected,
                                  load_config, validate_config)
from ergodic_sysid.experiments import _max_box_escape, fit_problem
from ergodic_sysid.measure import (Grid, Measure, SampleCloud,
                                   occupation_measure)
from ergodic_sysid.optim import finite_difference_check
from ergodic_sysid.pfo import UlamMatrix, UnstructuredMesh
from ergodic_sysid.systems import (Trajectory, integrate_ode, integrate_sde,
                                   iterate_map_batch, make_system)


def _write(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def _smoke_config(out):
    return {
        "name": "smoke",
        "seed": 0,
        "out": out,
        "system": {"name": "van_der_pol", "params": {"c": 1.0}},
        "data": {"kind": "ode", "x0": [1.5, 0.0], "dt": 0.5, "n_steps": 300,
                 "substeps": 10, "burn_in": 40, "seed": 0},
        "grid": {"n_per_dim": [8, 8], "auto_box_margin": 0.08},
        "model": {"hidden": [8], "seed": 1},
        "fit": {"driver": "fvm", "objective": "l2", "diffusion": 0.05,
                "eps_tele": 0.001, "n_iters": 10, "lr": 0.01, "seed": 2,
                "checkpoint_every": 5},
    }


def test_simulate_writes_csv(tmp_path):
    cfg = _smoke_config(str(tmp_path / "run"))
    code = main(["simulate", "--config", _write(tmp_path, cfg)])
    assert code == 0
    traj = io.read_trajectory_csv(tmp_path / "run" / "trajectory.csv")
    assert traj.dim == 2
    assert len(traj) == 301


def test_simulate_deterministic_bytes(tmp_path):
    cfg = _smoke_config(str(tmp_path / "run"))
    cfg_path = _write(tmp_path, cfg)
    assert main(["simulate", "--config", cfg_path]) == 0
    first = (tmp_path / "run" / "trajectory.csv").read_bytes()
    assert main(["simulate", "--config", cfg_path]) == 0
    assert (tmp_path / "run" / "trajectory.csv").read_bytes() == first


def test_simulate_map_writes_the_iterates_after_burn_in(tmp_path):
    cfg = {"seed": 0, "out": str(tmp_path / "run"),
           "system": {"name": "torus_rotation",
                      "params": {"alpha": 0.31, "beta": 0.17}},
           "data": {"kind": "map", "x0": [0.1, 0.7], "n_steps": 50,
                    "burn_in": 7}}
    assert main(["simulate", "--config", _write(tmp_path, cfg)]) == 0
    traj = io.read_trajectory_csv(tmp_path / "run" / "trajectory.csv")
    orbit = iterate_map_batch(make_system("torus_rotation", alpha=0.31,
                                          beta=0.17), np.array([0.1, 0.7]),
                              57)
    assert np.array_equal(traj.states, orbit[7:])
    assert traj.dt == 0.0


def test_simulate_sde_writes_the_euler_maruyama_path(tmp_path):
    cfg = _smoke_config(str(tmp_path / "run"))
    cfg["data"].update(kind="sde", diffusion=0.1, dt=0.01, n_steps=300,
                       burn_in=20, seed=4)
    cfg["data"].pop("substeps")
    assert main(["simulate", "--config", _write(tmp_path, cfg)]) == 0
    traj = io.read_trajectory_csv(tmp_path / "run" / "trajectory.csv")
    path = integrate_sde(make_system("van_der_pol", c=1.0), 0.1, [1.5, 0.0],
                         0.01, 320, seed=4)
    assert np.array_equal(traj.states, path[20:])


def test_cli_module_exit_codes_as_a_process(tmp_path):
    # runs ``python -m ergodic_sysid.cli``, so the ``sys.exit(main())``
    # wiring is what sets each exit code
    src = Path(ergodic_sysid.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))

    def simulate(edit):
        cfg = _smoke_config(str(tmp_path / "run"))
        edit(cfg["data"])
        return subprocess.run(
            [sys.executable, "-m", "ergodic_sysid.cli", "simulate",
             "--config", _write(tmp_path, cfg)],
            capture_output=True, text=True, env=env, timeout=120)

    ok = simulate(lambda data: None)
    assert ok.returncode == 0, ok.stderr
    assert json.loads(ok.stdout)["n_samples"] == 301
    unknown = simulate(lambda data: data.update(step_count=10))
    assert unknown.returncode == 2
    assert "data.step_count: unknown key" in unknown.stderr
    blowup = simulate(lambda data: data.update(x0=[1e6, 1e6]))
    assert blowup.returncode == 3
    assert "non-finite state at step 1" in blowup.stderr


def test_simulate_lorenz96_dimension(tmp_path):
    cfg = {
        "seed": 0, "out": str(tmp_path / "l96"),
        "system": {"name": "lorenz96", "params": {"dim": 30}},
        "data": {"kind": "ode", "x0": [8.0] * 29 + [8.01], "dt": 0.05,
                 "n_steps": 50, "substeps": 2},
    }
    assert main(["simulate", "--config", _write(tmp_path, cfg)]) == 0
    header = (tmp_path / "l96" / "trajectory.csv").read_text().splitlines()[0]
    assert len(header.split(",")) == 31


def test_simulate_lorenz96_of_a_whole_float_dimension(tmp_path):
    # JSON may write the dimension 6 as 6.0; it is the same system
    cfg = {
        "seed": 0, "out": str(tmp_path / "l96"),
        "system": {"name": "lorenz96", "params": {"dim": 6.0}},
        "data": {"kind": "ode", "x0": [8.0] * 5 + [8.01], "dt": 0.05,
                 "n_steps": 20},
    }
    assert main(["simulate", "--config", _write(tmp_path, cfg)]) == 0
    traj = io.read_trajectory_csv(tmp_path / "l96" / "trajectory.csv")
    assert traj.states.shape == (21, 6)


def test_histogram_weights_sum_to_one(tmp_path):
    cfg = _smoke_config(str(tmp_path / "run"))
    cfg_path = _write(tmp_path, cfg)
    assert main(["simulate", "--config", cfg_path]) == 0
    assert main(["histogram", "--config", cfg_path]) == 0
    m = io.read_measure_json(tmp_path / "run" / "measure.json")
    assert abs(m.weights.sum() - 1.0) < 1e-12


def test_histogram_out_of_box_strict_exits_3(tmp_path):
    cfg = _smoke_config(str(tmp_path / "run"))
    cfg["grid"] = {"lo": [-0.1, -0.1], "hi": [0.1, 0.1],
                   "n_per_dim": [4, 4], "clip": False}
    cfg_path = _write(tmp_path, cfg)
    assert main(["simulate", "--config", cfg_path]) == 0
    assert main(["histogram", "--config", cfg_path]) == 3


def test_histogram_of_a_fixed_point_exits_2_naming_the_box(tmp_path,
                                                           capsys):
    # every state equals x0, so the automatic box has no width to pad
    cfg = _smoke_config(str(tmp_path / "run"))
    cfg["data"]["x0"] = [0.0, 0.0]
    cfg_path = _write(tmp_path, cfg)
    assert main(["simulate", "--config", cfg_path]) == 0
    capsys.readouterr()
    assert main(["histogram", "--config", cfg_path]) == 2
    assert "grid.lo, grid.hi" in capsys.readouterr().err
    assert not (tmp_path / "run" / "measure.json").exists()


def test_unknown_config_key_exits_2(tmp_path):
    cfg = _smoke_config(str(tmp_path / "run"))
    cfg["fit"]["learning_rate"] = 0.1  # not a schema key
    assert main(["simulate", "--config", _write(tmp_path, cfg)]) == 2


def _measure_file(cfg, blob):
    """The measure file ``blob``, in the config's output directory."""
    path = Path(cfg["out"]) / "target.json"
    path.write_text(json.dumps(blob))
    return str(path)


def _gridless_measure(cfg):
    return _measure_file(cfg, {"weights": [0.5, 0.5], "cells": [0, 1]})


def _map_data(cfg) -> np.ndarray:
    """Torus-rotation map data (dt 0) in the config's output directory."""
    orbit = iterate_map_batch(make_system("torus_rotation", alpha=0.31,
                                          beta=0.17), np.array([0.1, 0.7]),
                              200)
    io.write_trajectory_csv(Path(cfg["out"]) / "trajectory.csv",
                            Trajectory(orbit, 0.0))
    return orbit


def _pfo_fit_of_map_data(cfg):
    """A pfo fit of map data, with no fit.flow_dt."""
    _map_data(cfg)
    cfg.update(fit={"driver": "pfo"}, mesh={"n_cells": 4, "pou_eps": 0.05})


def _fvm_fit_of_map_data(cfg):
    """An fvm fit of map data and of its histogram."""
    grid = Grid([0.0, 0.0], [1.0, 1.0], [8, 8])
    io.write_measure_json(Path(cfg["out"]) / "measure.json",
                          occupation_measure(_map_data(cfg), grid))


def _fvm_fit_of_a_1d_target(cfg):
    """An fvm fit of a 1-D target next to 2-D van der Pol data."""
    target = _measure_file(cfg, {"grid": {"lo": [-3.0], "hi": [3.0],
                                          "n_per_dim": [8]},
                                 "weights": [0.125] * 8})
    cfg["fit"]["target"] = target


_RUNS = Path(__file__).resolve().parents[1] / "runs"
_CONFIGS = _RUNS.parent / "configs"


def _resume_delay_fit_from(name, hidden=(8,)):
    """A delay fit of a model of the hidden sizes, resumed from the
    committed smoke run's file ``name``."""
    return lambda c: c.update(
        model={"hidden": list(hidden)},
        fit={"driver": "delay", "resume_from": str(_RUNS / "smoke" / name)})


def _resume_from_an_edited_checkpoint(edit):
    """A delay fit, of a model that the committed smoke checkpoint fits,
    resumed from that checkpoint after ``edit``; the edited copy is
    written next to the run's outputs."""
    def prepare(cfg):
        blob = json.loads(
            (_RUNS / "smoke" / "checkpoint_000005.json").read_text())
        edit(blob)
        path = Path(cfg["out"]) / "edited.json"
        path.write_text(json.dumps(blob))
        cfg.update(model={"hidden": [8]},
                   fit={"driver": "delay", "resume_from": str(path)})

    return prepare


def _resume_from_a_text_file(cfg):
    path = Path(cfg["out"]) / "notes.txt"
    path.write_text("not a checkpoint\n")
    cfg["fit"]["resume_from"] = str(path)


_GRID_8X8 = {"lo": [-2.0, -3.0], "hi": [2.0, 3.0], "n_per_dim": [8, 8]}


def _weightless_measure(cfg):
    return _measure_file(cfg, {"grid": _GRID_8X8})


def _short_measure(cfg):
    return _measure_file(cfg, {"weights": [1.0 / 59] * 59, "grid": _GRID_8X8})


@pytest.mark.parametrize("key, edit, command", [
    ("system.name", lambda c: c["system"].update(name="vanderpol"),
     "simulate"),
    ("system.params", lambda c: c["system"]["params"].update(k=1.0),
     "simulate"),
    ("data.n_steps", lambda c: c["data"].pop("n_steps"), "simulate"),
    ("mesh.n_cells", lambda c: c.update(mesh={"pou_eps": 0.05},
                                        fit={"driver": "pfo"}), "fit"),
    ("fit.observable", lambda c: c.update(fit={"driver": "delay",
                                               "observable": 5}), "fit"),
    ("fit.observable", lambda c: c["fit"].update(driver="delay",
                                                 observable=-1), "fit"),
    ("model.kind", lambda c: c["model"].update(kind="mlp"), "simulate"),
    ("delay.observable", lambda c: c.update(delay={"observable": -1}),
     "delay"),
    ("delay.observable", lambda c: c.update(delay={
        "mode": "torus_pair", "pair_a": [0.1, 0.2], "pair_b": [0.2, 0.1],
        "observable": 2}), "delay"),
    ("eval.model", lambda c: c.update(eval={"model": "m.json"}), "simulate"),
    ("mesh.balanced", lambda c: c.update(mesh={"n_cells": 4,
                                               "balanced": True}), "fit"),
    ("eval.balanced", lambda c: c.update(eval={"kind": "catmap_compare",
                                               "balanced": True}), "eval"),
    ("fit.solver", lambda c: c["fit"].update(solver="direct"), "simulate"),
    ("fit.objective", lambda c: c["fit"].update(objective="l1"), "fit"),
    ("model.init", lambda c: (c["model"].update(init="he"),
                              c["fit"].update(driver="delay")), "fit"),
    ("fit.loss", lambda c: c["fit"].update(driver="delay", loss="j3"),
     "fit"),
    ("fit.m", lambda c: c["fit"].update(driver="delay", m=0), "fit"),
    ("fit.lag", lambda c: c["fit"].update(driver="delay", lag=0), "fit"),
    ("delay.m", lambda c: c.update(delay={"m": 0}), "delay"),
    ("delay.lag", lambda c: c.update(delay={
        "mode": "torus_pair", "pair_a": [0.1, 0.2], "pair_b": [0.2, 0.1],
        "lag": 0}), "delay"),
    ("fit.max_points", lambda c: c["fit"].update(driver="delay",
                                                 max_points=0), "fit"),
    ("fit.max_points", lambda c: c["fit"].update(driver="delay",
                                                 max_points=4001), "fit"),
    ("fit.n_sources", lambda c: (c.update(mesh={"n_cells": 4}),
                                 c["fit"].update(driver="pfo", n_sources=0)),
     "fit"),
    ("mesh.build_subsample", lambda c: (
        c.update(mesh={"n_cells": 4, "build_subsample": 0}),
        c["fit"].update(driver="pfo")), "fit"),
    ("eval.max_points", lambda c: c.update(eval={"max_points": 0}), "eval"),
    ("eval.max_points", lambda c: c.update(eval={"kind": "refinement",
                                                 "max_points": 0}), "eval"),
    ("fit.n_iters", lambda c: c["fit"].update(driver="delay", n_iters=-1),
     "fit"),
    ("mesh.pou_eps", lambda c: c.update(mesh={"n_cells": 4},
                                        fit={"driver": "pfo"}), "fit"),
    ("mesh.pou_eps", lambda c: (c.update(mesh={"n_cells": 4, "pou_eps": -1}),
                                c["fit"].update(driver="pfo")), "fit"),
    ("fit.resume_from", lambda c: c["fit"].update(
        resume_from="no_such_checkpoint.json"), "fit"),
    ("fit.target", lambda c: c["fit"].update(target="no_such_measure.json"),
     "fit"),
    ("eval.sim_burn_in", lambda c: c.update(eval={
        "n_sim_steps": 100, "sim_burn_in": 100}), "eval"),
    ("fit.eps_tele", lambda c: c["fit"].update(eps_tele=0), "fit"),
    ("fit.eps_tele", lambda c: c["fit"].update(eps_tele=1.5), "fit"),
    ("fit.diffusion", lambda c: c["fit"].update(diffusion=-0.1), "fit"),
    ("eval.diffusion", lambda c: c.update(eval={"diffusion": -0.1}), "eval"),
    ("data.diffusion", lambda c: c["data"].update(kind="sde", diffusion=-0.1),
     "simulate"),
    ("eval.eps_tele", lambda c: c.update(eval={"kind": "refinement",
                                               "eps_tele": 0}), "eval"),
    ("eval.eps_tele", lambda c: c.update(eval={"kind": "refinement",
                                               "eps_tele": 1.5}), "eval"),
    ("fit.target", lambda c: c["fit"].update(target=_gridless_measure(c)),
     "fit"),
    ("fit.target", lambda c: c["fit"].update(target=_weightless_measure(c)),
     "fit"),
    ("fit.target", lambda c: c["fit"].update(target=_short_measure(c)),
     "fit"),
    ("model.mask_learned", lambda c: c["model"].update(mask_learned=[0]),
     "fit"),
    ("model.whiten", lambda c: c["model"].update(whiten=False), "fit"),
    ("fit.objective", lambda c: c["fit"].update(objective="quadratic"),
     "fit"),
    ("data.x0", lambda c: c["data"].update(x0="auto"), "simulate"),
    ("data.x0", lambda c: c["data"].update(x0=[1.5]), "simulate"),
    ("data.substeps", lambda c: c["data"].update(substeps=-1), "simulate"),
    ("data.substeps", lambda c: c["data"].update(substeps=0), "simulate"),
    ("fit.substeps", lambda c: (c.update(mesh={"n_cells": 4,
                                               "pou_eps": 0.05}),
                                c["fit"].update(driver="pfo", substeps=0)),
     "fit"),
    ("data.n_steps", lambda c: c["data"].update(n_steps=0), "simulate"),
    ("data.burn_in", lambda c: c["data"].update(burn_in=-5), "simulate"),
    ("data.kind", lambda c: c["data"].update(kind="map"), "simulate"),
    ("data.kind", lambda c: c.update(system={"name": "torus_rotation"}),
     "simulate"),
    ("data.kind", lambda c: c["data"].update(kind="pde"), "simulate"),
    ("data.dt", lambda c: c["data"].update(dt=0), "simulate"),
    ("fit.substeps", lambda c: c["fit"].update(substeps=2), "fit"),
    ("fit.flow_dt", lambda c: c["fit"].update(flow_dt=0.1), "fit"),
    ("fit.n_sources", lambda c: c["fit"].update(n_sources=100), "fit"),
    ("fit.substeps", lambda c: c["fit"].update(driver="delay", substeps=2),
     "fit"),
    ("fit.flow_dt", lambda c: c["fit"].update(driver="delay", flow_dt=0.1),
     "fit"),
    ("fit.n_sources", lambda c: c["fit"].update(driver="delay",
                                                n_sources=100), "fit"),
    ("data.diffusion", lambda c: c["data"].update(diffusion=0.3),
     "simulate"),
    ("data.diffusion", lambda c: (c.update(system={"name": "torus_rotation"}),
                                  c["data"].update(kind="map",
                                                   diffusion=0.3)),
     "simulate"),
    ("data.dt", lambda c: (c.update(system={"name": "torus_rotation"}),
                           c["data"].update(kind="map")), "simulate"),
    ("data.substeps", lambda c: (c.update(system={"name": "torus_rotation"}),
                                 c["data"].update(kind="map"),
                                 c["data"].pop("dt")), "simulate"),
    ("data.substeps", lambda c: c["data"].update(kind="sde"), "simulate"),
    ("fit.lr", lambda c: c["fit"].update(lr=-1), "simulate"),
    ("fit.flow_dt", lambda c: c.update(fit={"driver": "pfo", "flow_dt": 0}),
     "simulate"),
    ("fit.clip_norm", lambda c: c["fit"].update(clip_norm=-1), "simulate"),
    ("fit.checkpoint_every", lambda c: c["fit"].update(checkpoint_every=-1),
     "simulate"),
    ("mesh.n_cells", lambda c: c.update(mesh={"n_cells": 0, "pou_eps": 0.05}),
     "simulate"),
    ("mesh.pou_eps", lambda c: c.update(mesh={"n_cells": 4, "pou_eps": 0}),
     "simulate"),
    ("eval.sim_dt", lambda c: c.update(eval={"sim_dt": 0}), "simulate"),
    ("eval.n_projections", lambda c: c.update(eval={"n_projections": 0}),
     "simulate"),
    ("eval.n_sim_steps", lambda c: c.update(eval={"n_sim_steps": 0}),
     "simulate"),
    ("eval.sde_dt", lambda c: c.update(eval={"kind": "refinement",
                                             "sde_dt": 0}), "simulate"),
    ("eval.n_sde_steps", lambda c: c.update(eval={"kind": "refinement",
                                                  "n_sde_steps": 0}),
     "simulate"),
    ("eval.n_cells", lambda c: c.update(eval={"kind": "catmap_compare",
                                              "n_cells": 10}), "simulate"),
    ("eval.n_initial", lambda c: c.update(eval={"kind": "catmap_compare",
                                                "n_initial": 0}), "simulate"),
    ("eval.n_iters", lambda c: c.update(eval={"kind": "catmap_compare",
                                              "n_iters": 0}), "simulate"),
    ("eval.quad_points", lambda c: c.update(eval={"kind": "catmap_compare",
                                                  "quad_points": 0}),
     "simulate"),
    ("grid.auto_box_margin", lambda c: c["grid"].update(auto_box_margin=-1),
     "simulate"),
    ("delay.n_steps", lambda c: c.update(delay={
        "mode": "torus_pair", "pair_a": [0.1, 0.2], "pair_b": [0.2, 0.1],
        "n_steps": 0}), "simulate"),
    ("delay.hist_bins", lambda c: c.update(delay={
        "mode": "torus_pair", "pair_a": [0.1, 0.2], "pair_b": [0.2, 0.1],
        "hist_bins": 1}), "simulate"),
    ("fit.eps_tele", lambda c: c.update(fit={"driver": "pfo",
                                             "eps_tele": 0.001}), "simulate"),
    ("fit.target", lambda c: c.update(fit={"driver": "delay",
                                           "target": "measure.json"}),
     "simulate"),
    ("eval.eps_tele", lambda c: c.update(eval={"eps_tele": 0.001}),
     "simulate"),
    ("eval.max_points", lambda c: c.update(eval={"kind": "catmap_compare",
                                                 "max_points": 100}),
     "simulate"),
    ("delay.hist_bins", lambda c: c.update(delay={"hist_bins": 8}),
     "simulate"),
    ("delay.seed", lambda c: c.update(delay={"seed": 3}), "simulate"),
    ("data.seed", lambda c: c["data"].update(kind="sde", seed=-1),
     "simulate"),
    ("model.seed", lambda c: c["model"].update(seed=-1), "simulate"),
    ("grid.n_per_dim", lambda c: c["grid"].update(n_per_dim=[1, 1]),
     "simulate"),
    ("model.hidden", lambda c: c["model"].update(hidden=[0]), "simulate"),
    ("eval.grids", lambda c: c.update(eval={"kind": "refinement",
                                            "grids": [25, 1]}), "simulate"),
    ("grid.hi", lambda c: c["grid"].update(lo=[-3.0, -3.0]), "histogram"),
    ("grid.lo", lambda c: c["grid"].update(hi=[3.0, 3.0]), "histogram"),
    ("grid.n_per_dim", lambda c: c["grid"].update(n_per_dim=[8]),
     "histogram"),
    ("grid.lo, grid.hi", lambda c: c["grid"].update(lo=[3.0, 3.0],
                                                    hi=[-3.0, -3.0]),
     "histogram"),
    ("grid.lo, grid.hi", lambda c: c["grid"].update(lo=[-3.0], hi=[3.0]),
     "histogram"),
    ("mesh: fit.driver 'fvm'", lambda c: c.update(mesh={"n_cells": 4,
                                                        "pou_eps": 0.05}),
     "simulate"),
    ("eval.grids", lambda c: c.update(eval={"kind": "refinement",
                                            "grids": []}), "simulate"),
    ("grid.n_per_dim", lambda c: c["grid"].update(n_per_dim=[]),
     "simulate"),
    ("model.hidden", lambda c: c["model"].update(hidden=[]), "simulate"),
    ("fit.flow_dt", _pfo_fit_of_map_data, "fit"),
    ("fit.driver", _fvm_fit_of_map_data, "fit"),
    ("fit.target", _fvm_fit_of_a_1d_target, "fit"),
    ("fit.resume_from", _resume_delay_fit_from("checkpoint_000005.json",
                                               hidden=[4]), "fit"),
    ("fit.resume_from", _resume_delay_fit_from("model.json"), "fit"),
    ("system.params", lambda c: c.update(system={"name": "lorenz96",
                                                 "params": {"dim": 3}}),
     "simulate"),
    ("system.params", lambda c: c["system"]["params"].update(
        c=float("inf")), "simulate"),
    ("fit.lr", lambda c: c.update(fit={"driver": "delay",
                                       "lr": float("inf")}), "fit"),
    ("grid.lo", lambda c: c["grid"].update(lo=[-float("inf"), -3.0],
                                           hi=[3.0, 3.0]), "histogram"),
    ("fit.resume_from", _resume_from_a_text_file, "fit"),
    ("fit.resume_from", lambda c: c["fit"].update(resume_from=c["out"]),
     "fit"),
    ("fit.target", lambda c: c["fit"].update(target=c["out"]), "fit"),
    ("mesh.n_cells", lambda c: c.update(mesh={"n_cells": 5000,
                                              "pou_eps": 0.05},
                                        fit={"driver": "pfo"}), "fit"),
    ("fit.m, fit.lag", lambda c: c.update(fit={"driver": "delay", "m": 400}),
     "fit"),
    ("eval.n_cells", lambda c: c.update(eval={
        "kind": "catmap_compare", "n_cells": 10000, "n_initial": 10,
        "n_iters": 10}), "eval"),
    ("fit.resume_from", _resume_from_an_edited_checkpoint(
        lambda b: b["adam"].pop("m")), "fit"),
    ("fit.resume_from", _resume_from_an_edited_checkpoint(
        lambda b: b.update(params=5)), "fit"),
    ("fit.resume_from", _resume_from_an_edited_checkpoint(
        lambda b: b["history"].__setitem__(0, "x")), "fit"),
    ("fit.resume_from", _resume_from_an_edited_checkpoint(
        lambda b: b["params"].__setitem__(0, "a")), "fit"),
    ("eval.n_cells", lambda c: c.update(eval={"kind": "catmap_compare",
                                              "n_cells": 1}), "simulate"),
    ("system.params", lambda c: c.update(system={"name": "lorenz96",
                                                 "params": {"dim": 6.5}}),
     "simulate"),
], ids=["unknown-system", "unknown-param", "missing-n_steps",
        "missing-n_cells", "observable-too-large", "observable-negative",
        "model-kind", "embed-observable-negative", "torus-observable",
        "eval-model", "mesh-balanced", "eval-balanced", "fit-solver",
        "fit-objective", "model-init", "fit-loss", "fit-m", "fit-lag",
        "embed-m", "torus-lag", "fit-max_points-zero",
        "fit-max_points-over-limit", "fit-n_sources-zero",
        "mesh-build_subsample-zero", "eval-max_points-zero",
        "refinement-max_points-zero", "fit-n_iters-negative",
        "pfo-pou_eps-missing", "pfo-pou_eps-negative", "missing-resume_from",
        "missing-target", "eval-sim_burn_in-past-n_sim_steps",
        "fit-eps_tele-zero", "fit-eps_tele-above-one",
        "fit-diffusion-negative", "eval-diffusion-negative",
        "sde-diffusion-negative", "refinement-eps_tele-zero",
        "refinement-eps_tele-above-one", "target-without-grid",
        "target-without-weights", "target-weights-short-of-grid",
        "model-mask_learned", "model-whiten", "fit-objective-quadratic",
        "data-x0-auto", "data-x0-wrong-length", "data-substeps-negative",
        "data-substeps-zero", "fit-substeps-zero", "data-n_steps-zero",
        "data-burn_in-negative", "map-kind-of-an-ode", "ode-kind-of-a-map",
        "data-kind-unknown", "data-dt-zero", "fvm-fit-substeps",
        "fvm-fit-flow_dt", "fvm-fit-n_sources", "delay-fit-substeps",
        "delay-fit-flow_dt", "delay-fit-n_sources", "ode-data-diffusion",
        "map-data-diffusion", "map-data-dt", "map-data-substeps",
        "sde-data-substeps", "fit-lr-negative", "fit-flow_dt-zero",
        "fit-clip_norm-negative", "fit-checkpoint_every-negative",
        "mesh-n_cells-zero", "mesh-pou_eps-zero", "eval-sim_dt-zero",
        "eval-n_projections-zero", "eval-n_sim_steps-zero",
        "refinement-sde_dt-zero", "refinement-n_sde_steps-zero",
        "catmap-n_cells-not-square", "catmap-n_initial-zero",
        "catmap-n_iters-zero", "catmap-quad_points-zero",
        "grid-auto_box_margin-negative", "torus-n_steps-zero",
        "torus-hist_bins-one", "pfo-fit-eps_tele", "delay-fit-target",
        "fvm_density-eps_tele", "catmap-max_points", "embed-hist_bins",
        "embed-seed", "data-seed-negative", "model-seed-negative",
        "grid-n_per_dim-one", "model-hidden-zero", "refinement-grids-one",
        "grid-lo-without-hi", "grid-hi-without-lo",
        "grid-n_per_dim-wrong-length", "grid-lo-above-hi",
        "grid-lo-hi-wrong-length", "fvm-fit-mesh", "refinement-grids-empty",
        "grid-n_per_dim-empty", "model-hidden-empty",
        "pfo-map-data-default-flow_dt", "fvm-map-data",
        "fvm-target-of-another-dimension",
        "resume-other-architecture", "resume-not-a-checkpoint",
        "lorenz96-dim-below-four", "system-param-infinite",
        "fit-lr-infinite", "grid-lo-infinite", "resume-not-json",
        "resume-a-directory", "target-a-directory",
        "pfo-n_cells-above-build-points", "j2-span-past-trajectory",
        "catmap-n_cells-above-build-points", "resume-adam-without-m",
        "resume-params-a-number", "resume-history-entry-a-string",
        "resume-param-a-string", "catmap-n_cells-one",
        "lorenz96-dim-fraction"])
def test_config_mistake_exits_2_naming_the_key(key, edit, command, tmp_path,
                                               capsys):
    good = _smoke_config(str(tmp_path / "run"))
    assert main(["simulate", "--config", _write(tmp_path, good, "ok.json")]) \
        == 0
    bad = _smoke_config(str(tmp_path / "run"))
    edit(bad)
    written = sorted((tmp_path / "run").iterdir())
    capsys.readouterr()
    assert main([command, "--config", _write(tmp_path, bad)]) == 2
    assert key in capsys.readouterr().err
    assert sorted((tmp_path / "run").iterdir()) == written


def test_failed_fit_on_a_fresh_out_leaves_no_directory(tmp_path, capsys):
    fresh = tmp_path / "fresh"
    assert main(["fit", "--config", str(_CONFIGS / "smoke_delay.json"),
                 "--out", str(fresh)]) == 2
    assert "run simulate first" in capsys.readouterr().err
    assert not fresh.exists()


def test_outputs_are_read_through_the_io_module(tmp_path, monkeypatch):
    # each read looks its reader up on io, so a wrapper installed there
    # after import, as a tracer's, sees it
    cfg_path = _write(tmp_path, _smoke_config(str(tmp_path / "run")))
    assert main(["simulate", "--config", cfg_path]) == 0
    calls = []
    read = io.read_trajectory_csv
    monkeypatch.setattr(io, "read_trajectory_csv",
                        lambda path: calls.append(path) or read(path))
    assert main(["histogram", "--config", cfg_path]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("name", ["smoke_fit", "smoke_pfo", "smoke_delay"])
def test_fit_problem_closure_passes_fd_check_and_writes_nothing(name,
                                                               tmp_path):
    # the closure that the CLI fits, checked on coordinates whose gradient
    # is at least 1% of the largest, where the central difference is far
    # above its rounding error
    cfg = json.loads((_CONFIGS / f"{name}.json").read_text())
    cfg["out"] = str(tmp_path / "run")
    cfg_path = _write(tmp_path, cfg)
    for cmd in ("simulate", "histogram"):
        assert main([cmd, "--config", cfg_path]) == 0
    written = sorted((tmp_path / "run").iterdir())
    problem = fit_problem(load_config(cfg_path), tmp_path / "run")
    theta = problem.model.get_params()
    _, grad = problem.loss_and_grad(theta)
    big = np.flatnonzero(np.abs(grad) >= 1e-2 * np.abs(grad).max())
    coords = np.random.default_rng(0).choice(big, 3, replace=False)
    errors = finite_difference_check(problem.loss_and_grad, theta, coords)
    assert max(errors.values()) < 1e-3
    assert sorted((tmp_path / "run").iterdir()) == written


def test_fvm_density_eval_of_a_delay_fit_exits_2(tmp_path, capsys):
    cfg = json.loads((Path(__file__).resolve().parents[1] / "configs"
                      / "smoke_delay.json").read_text())
    cfg["out"] = str(tmp_path / "run")
    cfg["eval"] = {"kind": "fvm_density", "n_sim_steps": 2000}
    cfg_path = _write(tmp_path, cfg)
    for cmd in ("simulate", "histogram", "fit"):
        assert main([cmd, "--config", cfg_path]) == 0
    capsys.readouterr()
    assert main(["eval", "--config", cfg_path]) == 2
    assert "eval.kind" in capsys.readouterr().err
    assert not (tmp_path / "run" / "metrics.json").exists()


def test_pfo_fit_of_map_data_whitens_by_fit_flow_dt(tmp_path):
    # the output affine of the velocity model holds the statistics of the
    # finite-difference velocities over fit.flow_dt, not over the dt 0 of
    # the map data
    cfg = _smoke_config(str(tmp_path / "run"))
    (tmp_path / "run").mkdir()
    orbit = _map_data(cfg)
    cfg.update(fit={"driver": "pfo", "flow_dt": 0.1, "n_iters": 1},
               mesh={"n_cells": 4, "pou_eps": 0.05})
    assert main(["fit", "--config", _write(tmp_path, cfg)]) == 0
    model = io.read_checkpoint(tmp_path / "run" / "model.json")
    v = np.diff(orbit, axis=0) / 0.1
    assert np.allclose(model["out_shift"], v.mean(axis=0), rtol=1e-12)
    assert np.allclose(model["out_scale"], v.std(axis=0), rtol=1e-12)


def test_fvm_density_eval_before_fit_exits_2(tmp_path, capsys):
    cfg = _smoke_config(str(tmp_path / "run"))
    cfg["eval"] = {"kind": "fvm_density", "n_sim_steps": 2000}
    cfg_path = _write(tmp_path, cfg)
    for cmd in ("simulate", "histogram"):
        assert main([cmd, "--config", cfg_path]) == 0
    capsys.readouterr()
    assert main(["eval", "--config", cfg_path]) == 2
    assert "report.json not found; run fit first" in capsys.readouterr().err
    assert not (tmp_path / "run" / "metrics.json").exists()


def test_refinement_eval_writes_one_row_per_grid(tmp_path):
    cfg = {"out": str(tmp_path / "run"),
           "eval": {"kind": "refinement", "grids": [8, 12],
                    "n_sde_steps": 4000, "sde_dt": 0.01, "max_points": 500,
                    "diffusion": 0.05, "seed": 3}}
    assert main(["eval", "--config", _write(tmp_path, cfg)]) == 0
    table = np.loadtxt(tmp_path / "run" / "refinement.csv", delimiter=",",
                       skiprows=1, ndmin=2)
    assert table[:, 0].tolist() == [8.0, 12.0]
    assert np.all(np.isfinite(table[:, 1])) and np.all(table[:, 1] > 0)
    metrics = json.loads((tmp_path / "run" / "metrics.json").read_text())
    assert metrics["monotone"] in (True, False)
    assert [r["w2"] for r in metrics["rows"]] == table[:, 1].tolist()


def test_pfo_fit_with_empty_source_cells_exits_2(tmp_path, capsys):
    cfg = json.loads((Path(__file__).resolve().parents[1] / "configs"
                      / "smoke_pfo.json").read_text())
    cfg["out"] = str(tmp_path / "run")
    cfg["mesh"]["n_cells"] = 60
    cfg["fit"]["n_sources"] = 40
    cfg_path = _write(tmp_path, cfg)
    assert main(["simulate", "--config", cfg_path]) == 0
    capsys.readouterr()
    assert main(["fit", "--config", cfg_path]) == 2
    err = capsys.readouterr().err
    assert "mesh.n_cells: 60" in err and "fit.n_sources: 40" in err
    empty = re.search(r"leave (\d+) source cells empty", err)
    assert empty and int(empty.group(1)) >= 20
    assert not (tmp_path / "run" / "report.json").exists()


def _nan_row_in_trajectory(cfg, tmp_path):
    assert main(["simulate", "--config", _write(tmp_path, cfg)]) == 0
    path = tmp_path / "run" / "trajectory.csv"
    lines = path.read_text().splitlines()
    lines[5] = ",".join(["nan"] * len(lines[5].split(",")))
    path.write_text("\n".join(lines) + "\n")


def test_pfo_fit_with_a_non_finite_sample_exits_3(tmp_path, capsys):
    # nearest-centre assignment rejects non-finite points; the trajectory
    # reader refuses them first, so the fit exits 3 before any assignment
    cfg = json.loads((Path(__file__).resolve().parents[1] / "configs"
                      / "smoke_pfo.json").read_text())
    cfg["out"] = str(tmp_path / "run")
    _nan_row_in_trajectory(cfg, tmp_path)
    capsys.readouterr()
    assert main(["fit", "--config", _write(tmp_path, cfg)]) == 3
    assert "non-finite states" in capsys.readouterr().err
    assert not (tmp_path / "run" / "report.json").exists()


def _simulate_and_histogram(cfg, tmp_path):
    for cmd in ("simulate", "histogram"):
        assert main([cmd, "--config", _write(tmp_path, cfg)]) == 0


@pytest.mark.parametrize("prepare, edit, command, message", [
    (_nan_row_in_trajectory, lambda c: None, "histogram",
     "non-finite states"),
    (lambda c, p: None, lambda c: c["data"].update(x0=[1e6, 1e6], dt=0.5),
     "simulate", "non-finite state at step 1"),
], ids=["nan-trajectory-row", "simulate-blowup"])
def test_runtime_failure_exits_3(prepare, edit, command, message, tmp_path,
                                 capsys):
    cfg = _smoke_config(str(tmp_path / "run"))
    prepare(cfg, tmp_path)
    edit(cfg)
    capsys.readouterr()
    assert main([command, "--config", _write(tmp_path, cfg)]) == 3
    assert message in capsys.readouterr().err


def test_validate_config_makes_numbers_floats_once():
    cfg = validate_config({"system": {"name": "lorenz96",
                                      "params": {"dim": 30}},
                           "fit": {"lr": 1, "n_iters": 5}})
    assert cfg["fit"]["lr"] == 1.0 and type(cfg["fit"]["lr"]) is float
    assert type(cfg["fit"]["n_iters"]) is int
    assert type(cfg["system"]["params"]["dim"]) is int


def test_selector_sections_give_each_key_one_home():
    selected = {name for name, entry in SCHEMA.items()
                if isinstance(entry, Selected)}
    assert selected == {"data", "fit", "eval", "delay"}
    for name in selected:
        entry = SCHEMA[name]
        assert entry.default in entry.by_value
        for keys in entry.by_value.values():
            assert not set(keys) & (set(entry.common) | {entry.key})
    for name, (owner, values) in SECTION_READERS.items():
        assert name in SCHEMA and owner in selected
        assert set(values) <= set(SCHEMA[owner].by_value)


def test_seed_that_draws_nothing_is_logged(tmp_path, caplog):
    cfg = _smoke_config(str(tmp_path / "run"))
    cfg_path = _write(tmp_path, cfg)
    unused = lambda: [r.getMessage().split(":")[0] for r in caplog.records
                      if r.levelname == "WARNING"]
    assert main(["simulate", "--config", cfg_path]) == 0
    assert unused() == ["data.seed"]
    caplog.clear()
    assert main(["histogram", "--config", cfg_path]) == 0
    assert main(["fit", "--config", cfg_path]) == 0
    assert unused() == ["fit.seed"]
    caplog.clear()
    cfg["data"].update(kind="sde", diffusion=0.1, dt=0.01)
    cfg["data"].pop("substeps")
    cfg["fit"].pop("seed")
    cfg_path = _write(tmp_path, cfg)
    assert main(["simulate", "--config", cfg_path]) == 0
    assert main(["fit", "--config", cfg_path]) == 0
    assert unused() == []


def test_catmap_compare_with_empty_uniform_cells_exits_0(tmp_path):
    # 10 x 31 points leave cells of the 8 x 8 grid without a source
    cfg = {"out": str(tmp_path / "run"),
           "eval": {"kind": "catmap_compare", "n_cells": 64, "n_initial": 10,
                    "n_iters": 30, "quad_points": 2000, "seed": 7}}
    assert main(["eval", "--config", _write(tmp_path, cfg)]) == 0
    metrics = json.loads((tmp_path / "run" / "metrics.json").read_text())
    assert 0 < metrics["empty_cells_uniform"] < 64
    assert 0 <= metrics["empty_cells_unstructured"] < 64
    assert np.isfinite(metrics["l1_uniform"])
    assert np.isfinite(metrics["l1_unstructured"])


def test_unknown_flag_exits_2(tmp_path, capsys):
    cfg_path = _write(tmp_path, _smoke_config(str(tmp_path / "run")))
    for flag in (["--threads", "2"], ["--seed", "0"]):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--config", cfg_path, *flag])
        assert exc.value.code == 2
        assert flag[0] in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_missing_config_exits_2(tmp_path):
    assert main(["simulate", "--config", str(tmp_path / "nope.json")]) == 2


def test_config_path_of_a_directory_exits_2(tmp_path, capsys):
    assert main(["simulate", "--config", str(tmp_path)]) == 2
    assert f"config error: config {tmp_path}: " in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_fvm_fit_of_an_external_target_without_trajectory(tmp_path):
    # nothing to whiten by: the model's affines stay identities
    target = tmp_path / "target.json"
    points = np.random.default_rng(0).normal(size=(500, 2))
    io.write_measure_json(target, occupation_measure(
        points, Grid([-3.0, -3.0], [3.0, 3.0], [8, 8]), clip=True))
    cfg = {"out": str(tmp_path / "run"), "model": {"hidden": [8], "seed": 1},
           "fit": {"driver": "fvm", "target": str(target), "n_iters": 3,
                   "diffusion": 0.05, "eps_tele": 1e-3}}
    assert main(["fit", "--config", _write(tmp_path, cfg)]) == 0
    model = json.loads((tmp_path / "run" / "model.json").read_text())
    assert model["in_shift"] == [0.0, 0.0] and model["in_scale"] == [1.0, 1.0]
    assert model["out_shift"] == [0.0, 0.0]
    assert model["out_scale"] == [1.0, 1.0]
    report = io.read_report_json(tmp_path / "run" / "report.json")
    assert len(report["loss_history"]) == 3
    assert np.all(np.isfinite(report["loss_history"]))


def test_j1_fit_takes_a_delay_span_past_the_trajectory(tmp_path):
    # j1 matches images only and never embeds, so m and lag go unused
    cfg = _smoke_config(str(tmp_path / "run"))
    cfg["fit"] = {"driver": "delay", "loss": "j1", "m": 400, "n_iters": 1,
                  "max_points": 50}
    cfg_path = _write(tmp_path, cfg)
    assert main(["simulate", "--config", cfg_path]) == 0
    assert main(["fit", "--config", cfg_path]) == 0


def test_fit_smoke_under_five_seconds(tmp_path):
    cfg = _smoke_config(str(tmp_path / "run"))
    cfg["grid"]["n_per_dim"] = [8, 8]
    cfg_path = _write(tmp_path, cfg)
    assert main(["simulate", "--config", cfg_path]) == 0
    assert main(["histogram", "--config", cfg_path]) == 0
    start = time.perf_counter()
    assert main(["fit", "--config", cfg_path]) == 0
    assert time.perf_counter() - start < 5.0
    report = io.read_report_json(tmp_path / "run" / "report.json")
    assert len(report["loss_history"]) == 10
    assert {"config", "seed", "final_params", "meta"} <= set(report)


def test_fit_determinism_and_resume(tmp_path):
    cfg = _smoke_config(str(tmp_path / "run"))
    cfg_path = _write(tmp_path, cfg)
    assert main(["simulate", "--config", cfg_path]) == 0
    assert main(["histogram", "--config", cfg_path]) == 0
    assert main(["fit", "--config", cfg_path]) == 0
    first = io.read_report_json(tmp_path / "run" / "report.json")

    # rerun: identical loss history
    assert main(["fit", "--config", cfg_path]) == 0
    second = io.read_report_json(tmp_path / "run" / "report.json")
    assert first["loss_history"] == second["loss_history"]

    # resume from the midpoint checkpoint reproduces the tail
    ckpt = tmp_path / "run" / "checkpoint_000005.json"
    assert ckpt.exists()
    cfg["fit"]["resume_from"] = str(ckpt)
    assert main(["fit", "--config", _write(tmp_path, cfg, "resume.json")]) == 0
    resumed = io.read_report_json(tmp_path / "run" / "report.json")
    assert resumed["loss_history"] == first["loss_history"]


def test_resume_past_fit_n_iters_exits_2(tmp_path, capsys):
    # the committed smoke checkpoint holds 5 iterations; a fit of 3 cannot
    # resume from it
    root = Path(__file__).resolve().parents[1]
    cfg = json.loads((root / "configs" / "smoke_fit.json").read_text())
    cfg["out"] = str(tmp_path / "run")
    cfg_path = _write(tmp_path, cfg)
    for cmd in ("simulate", "histogram"):
        assert main([cmd, "--config", cfg_path]) == 0
    cfg["fit"].update(n_iters=3, resume_from=str(
        root / "runs" / "smoke" / "checkpoint_000005.json"))
    capsys.readouterr()
    assert main(["fit", "--config", _write(tmp_path, cfg, "resume.json")]) \
        == 2
    assert "fit.resume_from" in capsys.readouterr().err
    assert not (tmp_path / "run" / "report.json").exists()


def test_eval_ground_truth_model_at_noise_floor(tmp_path):
    # fit initialized at a stationary target generated by the model itself:
    # evaluation should sit at the sampling noise floor
    out = tmp_path / "run"
    cfg = _smoke_config(str(out))
    cfg["data"]["n_steps"] = 2000
    cfg["grid"]["n_per_dim"] = [12, 12]
    cfg["fit"].update(n_iters=60, lr=0.02)
    cfg["eval"] = {"kind": "fvm_density", "n_sim_steps": 30000,
                   "sim_dt": 0.02, "seed": 5, "max_points": 1500}
    cfg_path = _write(tmp_path, cfg)
    for cmd in ("simulate", "histogram", "fit", "eval"):
        assert main([cmd, "--config", cfg_path]) == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["w2_sim_vs_observed"] < 30 * metrics[
        "self_w2_noise_floor"] + 1.0
    density = np.loadtxt(out / "density.csv", delimiter=",", skiprows=1)
    assert density.shape == (144, 3)


def test_max_box_escape_of_hand_built_paths():
    # observed box: x in [-1, 1], y in [0, 2]
    observed = np.array([[0.0, 0.0], [1.0, 2.0], [-1.0, 1.0]])
    inside = np.array([[[0.0, 1.0], [1.0, 2.0]], [[-1.0, 0.0], [0.5, 0.5]]])
    assert _max_box_escape(inside, observed) == 0.0
    paths = inside.copy()
    paths[0, 1] = [0.5, -0.5]   # 0.5 below the box
    paths[1, 0] = [4.0, 6.0]    # (3, 4) beyond a corner
    assert _max_box_escape(paths, observed) == 5.0
    paths[1, 0] = [-1.5, 1.0]   # 0.5 left of the box
    assert _max_box_escape(paths, observed) == 0.5


def test_delay_torus_pair_diagnostics(tmp_path):
    out = tmp_path / "torus"
    cfg = {
        "seed": 0, "out": str(out),
        "delay": {"mode": "torus_pair",
                  "pair_a": [0.41421356, 0.73205081],
                  "pair_b": [0.73205081, 0.41421356],
                  "n_steps": 60000, "m": 3, "hist_bins": 10, "seed": 4},
    }
    assert main(["delay", "--config", _write(tmp_path, cfg)]) == 0
    diag = json.loads((out / "diagnostics.json").read_text())
    assert diag["state_l1"] < 0.05
    assert diag["ratio"] > 10.0
    assert (out / "delay_a.csv").exists()


def test_delay_embed_m1_degenerates_to_series(tmp_path):
    out = tmp_path / "emb"
    out.mkdir()
    sys = make_system("lorenz63")
    traj = integrate_ode(sys, [1.0, 1.0, 20.0], 0.02, 100)
    io.write_trajectory_csv(out / "trajectory.csv", traj)
    cfg = {"seed": 0, "out": str(out),
           "delay": {"mode": "embed", "m": 1, "observable": 2}}
    assert main(["delay", "--config", _write(tmp_path, cfg)]) == 0
    cloud = np.loadtxt(out / "delay.csv", delimiter=",", skiprows=1, ndmin=2)
    assert np.allclose(cloud[:, 0], traj.states[:, 2])


def test_delay_bad_observable_exits_2(tmp_path):
    out = tmp_path / "emb2"
    out.mkdir()
    sys = make_system("van_der_pol")
    io.write_trajectory_csv(out / "trajectory.csv",
                            integrate_ode(sys, [1.0, 0.0], 0.05, 50))
    cfg = {"seed": 0, "out": str(out),
           "delay": {"mode": "embed", "m": 2, "observable": 7}}
    assert main(["delay", "--config", _write(tmp_path, cfg)]) == 2


def _torus_pair(**pairs):
    return lambda tmp_path: {"mode": "torus_pair", "pair_a": [0.1, 0.2],
                             "pair_b": [0.2, 0.1], "n_steps": 1000, **pairs}


def _embed(row, **keys):
    """Embed mode on a three-state trajectory whose middle row is ``row``."""
    def delay(tmp_path):
        traj = tmp_path / "three_states.csv"
        traj.write_text(f"t,x1,x2\n0,0.5,0.5\n1,{row}\n2,0.5,0.5\n")
        return {"mode": "embed", "trajectory": str(traj), **keys}
    return delay


@pytest.mark.parametrize("key, delay", [
    ("delay.pair_a", _torus_pair(pair_a=[0.1, 0.2, 0.3])),
    ("delay.pair_b", _torus_pair(pair_b=["a", "b"])),
    ("delay.pair_a", _torus_pair(pair_a=[float("inf"), 0.2])),
    ("delay.trajectory", _embed("nan,nan")),
    ("delay.trajectory", lambda tmp_path: {"mode": "embed",
                                           "trajectory": str(tmp_path)}),
    ("delay.m, delay.lag", _embed("0.25,0.75", m=2, lag=3)),
    ("delay.m, delay.lag", _torus_pair(m=1001)),
    ("delay.n_steps, delay.m, delay.lag", lambda tmp_path: {
        "mode": "torus_pair", "pair_a": [0.41, 0.73], "pair_b": [0.73, 0.41],
        "m": 2000000}),
    ("delay.n_steps, delay.m, delay.lag: the split baseline needs at least "
     "two delay vectors", _torus_pair(n_steps=1, m=1)),
], ids=["pair_a-three-numbers", "pair_b-strings", "pair_a-infinite",
        "trajectory-nan-row", "trajectory-a-directory", "embed-span",
        "torus-span", "torus-span-default-steps", "torus-one-vector"])
def test_delay_config_mistake_exits_2_before_any_output(key, delay, tmp_path,
                                                       capsys):
    out = tmp_path / "delay_out"
    cfg = {"seed": 0, "out": str(out), "delay": delay(tmp_path)}
    assert main(["delay", "--config", _write(tmp_path, cfg)]) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


def test_round_trips_through_library_readers(tmp_path):
    rng = np.random.default_rng(0)
    traj = Trajectory(rng.normal(size=(40, 3)), 0.25)
    io.write_trajectory_csv(tmp_path / "t.csv", traj)
    back = io.read_trajectory_csv(tmp_path / "t.csv")
    assert np.array_equal(back.states, traj.states)
    assert back.dt == traj.dt

    cloud = SampleCloud(rng.normal(size=(30, 2)))
    io.write_cloud_csv(tmp_path / "c.csv", cloud)
    assert np.array_equal(np.loadtxt(tmp_path / "c.csv", delimiter=",",
                                     skiprows=1, ndmin=2), cloud.points)

    grid = Grid([0.0, -1.0], [1.0, 1.0], [4, 5])
    w = rng.random(20)
    m = Measure(w / w.sum(), grid)
    io.write_measure_json(tmp_path / "m.json", m)
    back_m = io.read_measure_json(tmp_path / "m.json")
    assert np.array_equal(back_m.weights, m.weights)
    assert back_m.support.matches(grid)

    mesh = UnstructuredMesh(rng.normal(size=(6, 2)),
                            np.arange(6) + 1)
    io.write_mesh_json(tmp_path / "mesh.json", mesh)
    back_mesh = io.read_mesh_json(tmp_path / "mesh.json")
    assert np.array_equal(back_mesh.centers, mesh.centers)

    mat = rng.random((4, 4))
    mat /= mat.sum(axis=1, keepdims=True)
    M = UlamMatrix(mat, eps=0.5)
    io.write_ulam_matrix(tmp_path / "M.txt", M)
    assert (tmp_path / "M.txt").read_text().startswith(
        "# orientation=row n=4 eps=0.5\n")
    back_M = io.read_ulam_matrix(tmp_path / "M.txt")
    assert np.array_equal(back_M.matrix, mat)
    assert back_M.eps == 0.5


@pytest.mark.parametrize("n_rows", [io._WRITE_BLOCK + 5, 1])
def test_table_writer_matches_savetxt(tmp_path, n_rows):
    # -0.0, a subnormal, the largest decade and integral floats, over more
    # rows than one write block and over a single row
    rng = np.random.default_rng(7)
    table = rng.normal(size=(n_rows, 3)) * 10.0 ** rng.integers(-300, 300,
                                                                 (n_rows, 3))
    table[0] = [-0.0, 5e-324, 1e308]
    table[-1, 1:] = [3.0, -12.0]
    io._write_table(tmp_path / "t.csv", ["a", "b", "c"], table)
    with open(tmp_path / "ref.csv", "w") as fh:
        fh.write("a,b,c\n")
        np.savetxt(fh, table, fmt="%.17g", delimiter=",")
    assert (tmp_path / "t.csv").read_bytes() == \
        (tmp_path / "ref.csv").read_bytes()


def test_ulam_writer_matches_line_by_line_reference(tmp_path):
    # 90 x 90 with zeros: more entries than one write block, and a last
    # block that is partly full
    rng = np.random.default_rng(12)
    mat = rng.random((90, 90)) * (rng.random((90, 90)) < 0.7)
    mat /= mat.sum(axis=1, keepdims=True)
    M = UlamMatrix(mat, eps=0.05)
    io.write_ulam_matrix(tmp_path / "M.txt", M)
    nz = np.nonzero(mat)
    assert nz[0].size > io._WRITE_BLOCK
    expected = "# orientation=row n=90 eps=0.05\n" + "".join(
        f"{r} {c} {io.FLOAT_FMT % mat[r, c]}\n" for r, c in zip(*nz))
    assert (tmp_path / "M.txt").read_text() == expected
    assert np.array_equal(io.read_ulam_matrix(tmp_path / "M.txt").matrix,
                          mat)


def test_ulam_reader_rejects_column_orientation(tmp_path):
    path = tmp_path / "M.txt"
    path.write_text("# orientation=column n=2 eps=0.0\n0 0 1.0\n1 1 1.0\n")
    with pytest.raises(ValueError, match="orientation=row"):
        io.read_ulam_matrix(path)
