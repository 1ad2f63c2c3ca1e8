import json
import re
import time
from pathlib import Path

import numpy as np
import pytest

from ergodic_sysid import io
from ergodic_sysid.cli import main
from ergodic_sysid.config import validate_config
from ergodic_sysid.measure import Grid, Measure, SampleCloud
from ergodic_sysid.pfo import UlamMatrix, UnstructuredMesh
from ergodic_sysid.systems import Trajectory, make_system, integrate_ode


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


def test_unknown_config_key_exits_2(tmp_path):
    cfg = _smoke_config(str(tmp_path / "run"))
    cfg["fit"]["learning_rate"] = 0.1  # not a schema key
    assert main(["simulate", "--config", _write(tmp_path, cfg)]) == 2


@pytest.mark.parametrize("key, edit, command", [
    ("system.name", lambda c: c["system"].update(name="vanderpol"),
     "simulate"),
    ("system.params", lambda c: c["system"]["params"].update(k=1.0),
     "simulate"),
    ("data.n_steps", lambda c: c["data"].pop("n_steps"), "simulate"),
    ("mesh.n_cells", lambda c: c.update(mesh={"pou_eps": 0.05},
                                        fit={"driver": "pfo"}), "fit"),
    ("fit.observable", lambda c: c["fit"].update(driver="delay",
                                                 observable=5), "fit"),
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
], ids=["unknown-system", "unknown-param", "missing-n_steps",
        "missing-n_cells", "observable-too-large", "observable-negative",
        "model-kind", "embed-observable-negative", "torus-observable",
        "eval-model", "mesh-balanced", "eval-balanced", "fit-solver",
        "fit-objective", "model-init", "fit-loss", "fit-m", "fit-lag",
        "embed-m", "torus-lag"])
def test_config_mistake_exits_2_naming_the_key(key, edit, command, tmp_path,
                                               capsys):
    good = _smoke_config(str(tmp_path / "run"))
    assert main(["simulate", "--config", _write(tmp_path, good, "ok.json")]) \
        == 0
    bad = _smoke_config(str(tmp_path / "run"))
    edit(bad)
    capsys.readouterr()
    assert main([command, "--config", _write(tmp_path, bad)]) == 2
    assert key in capsys.readouterr().err


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


def _simulate_and_histogram(cfg, tmp_path):
    for cmd in ("simulate", "histogram"):
        assert main([cmd, "--config", _write(tmp_path, cfg)]) == 0


@pytest.mark.parametrize("prepare, edit, command, message", [
    (_nan_row_in_trajectory, lambda c: None, "histogram",
     "non-finite states"),
    (_simulate_and_histogram, lambda c: c["fit"].update(eps_tele=0),
     "fit", "requires eps > 0"),
    (lambda c, p: None, lambda c: c["data"].update(x0=[1e6, 1e6], dt=0.5),
     "simulate", "non-finite state at step 1"),
], ids=["nan-trajectory-row", "eps-tele-zero-direct", "simulate-blowup"])
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


def test_unknown_flag_exits_2(tmp_path):
    cfg_path = _write(tmp_path, _smoke_config(str(tmp_path / "run")))
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--config", cfg_path, "--threads", "2"])
    assert exc.value.code == 2


def test_missing_config_exits_2(tmp_path):
    assert main(["simulate", "--config", str(tmp_path / "nope.json")]) == 2


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


def test_ulam_reader_rejects_column_orientation(tmp_path):
    path = tmp_path / "M.txt"
    path.write_text("# orientation=column n=2 eps=0.0\n0 0 1.0\n1 1 1.0\n")
    with pytest.raises(ValueError, match="orientation=row"):
        io.read_ulam_matrix(path)
