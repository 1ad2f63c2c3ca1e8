"""Benchmark workloads: generated configs, output checks, gradient gate.

Each workload is one ``simulate -> histogram -> fit [-> eval]`` pipeline
of the CLI at fixed problem sizes. The bench seed sets every seed in the
generated config (initial-state jitter, model, mesh, fit and eval seeds);
the program receives only the config.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from ergodic_sysid import io, optim
from ergodic_sysid.delay import DelayMapConfig
from ergodic_sysid.measure import SampleCloud, subsample_stride
from ergodic_sysid.pfo import PartitionOfUnity

# Relative-error bound of the finite-difference tests in tests/.
FD_RTOL = 1e-3
FD_COORDS = 3


# Commands of each workload's pipeline, in order. Only the fvm fit has an
# eval kind that applies to it.
WORKLOADS = {
    "fvm_vdp128": ("simulate", "histogram", "fit", "eval"),
    "pfo_vdp400": ("simulate", "histogram", "fit"),
    "delay_l63": ("simulate", "histogram", "fit"),
}

# Problem sizes. "full" defines the benchmark; "tiny" runs the same
# pipelines in about a second for the harness self-tests.
SIZES = {
    "full": {
        "vdp_steps": 20000, "vdp_substeps": 5, "vdp_burn": 200,
        "grid": 128, "fvm_hidden": [64, 64], "fvm_iters": 10,
        "sim_steps": 50000, "eval_points": 4000,
        "n_cells": 400, "n_sources": 4000, "pfo_hidden": [32, 32],
        "pfo_iters": 10,
        "l63_steps": 5000, "l63_burn": 500, "l63_grid": 32,
        "max_points": 2000, "delay_hidden": [32, 32], "delay_iters": 10,
    },
    "tiny": {
        "vdp_steps": 1500, "vdp_substeps": 2, "vdp_burn": 50,
        "grid": 12, "fvm_hidden": [8], "fvm_iters": 3,
        "sim_steps": 600, "eval_points": 200,
        "n_cells": 12, "n_sources": 300, "pfo_hidden": [8],
        "pfo_iters": 3,
        "l63_steps": 300, "l63_burn": 50, "l63_grid": 6,
        "max_points": 80, "delay_hidden": [8], "delay_iters": 3,
    },
}


def make_config(name: str, seed: int, out: str, size: str = "full") -> dict:
    """The CLI config of one workload for one bench seed."""
    z = SIZES[size]
    rng = np.random.default_rng(seed)
    jitter = lambda n: rng.uniform(-0.1, 0.1, n)
    cfg = {"name": f"bench_{name}", "seed": seed, "out": out}
    if name in ("fvm_vdp128", "pfo_vdp400"):
        cfg["system"] = {"name": "van_der_pol", "params": {"c": 1.0}}
        cfg["data"] = {"kind": "ode",
                       "x0": (np.array([1.5, 0.0]) + jitter(2)).tolist(),
                       "dt": 0.05, "n_steps": z["vdp_steps"],
                       "substeps": z["vdp_substeps"],
                       "burn_in": z["vdp_burn"], "seed": seed}
        cfg["grid"] = {"n_per_dim": [z["grid"], z["grid"]],
                       "auto_box_margin": 0.08}
    if name == "fvm_vdp128":
        cfg["model"] = {"hidden": z["fvm_hidden"], "seed": seed + 1}
        cfg["fit"] = {"driver": "fvm", "objective": "l2", "diffusion": 0.05,
                      "eps_tele": 1e-3, "n_iters": z["fvm_iters"],
                      "lr": 1e-3, "seed": seed + 2}
        cfg["eval"] = {"kind": "fvm_density", "n_sim_steps": z["sim_steps"],
                       "sim_dt": 0.01, "max_points": z["eval_points"],
                       "seed": seed + 3}
    elif name == "pfo_vdp400":
        cfg["model"] = {"hidden": z["pfo_hidden"], "seed": seed + 1}
        cfg["mesh"] = {"n_cells": z["n_cells"], "pou_eps": 0.05,
                       "seed": seed + 4}
        cfg["fit"] = {"driver": "pfo", "n_sources": z["n_sources"],
                      "n_iters": z["pfo_iters"], "lr": 1e-3,
                      "seed": seed + 2}
    elif name == "delay_l63":
        x0 = np.array([1.0, 1.0, 20.0]) + 10.0 * jitter(3)
        cfg["system"] = {"name": "lorenz63"}
        cfg["data"] = {"kind": "ode", "x0": x0.tolist(), "dt": 0.02,
                       "n_steps": z["l63_steps"], "substeps": 4,
                       "burn_in": z["l63_burn"], "seed": seed}
        cfg["grid"] = {"n_per_dim": [z["l63_grid"]] * 3,
                       "auto_box_margin": 0.05}
        cfg["model"] = {"hidden": z["delay_hidden"], "seed": seed + 1}
        cfg["fit"] = {"driver": "delay", "loss": "j2", "m": 3, "lag": 1,
                      "observable": 0, "max_points": z["max_points"],
                      "n_iters": z["delay_iters"], "lr": 1e-3,
                      "seed": seed + 2}
    elif name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}")
    return cfg


# ---------------------------------------------------------------------------
# Output gate


def check_outputs(name: str, cfg: dict, outdir: Path) -> tuple[dict, list]:
    """Read the pipeline's outputs; return (values, problems)."""
    problems = []
    report = io.read_report_json(outdir / "report.json")
    hist = report["loss_history"]
    n_iters = cfg["fit"]["n_iters"]
    if len(hist) != n_iters:
        problems.append(f"loss_history has {len(hist)} entries, "
                        f"config asks for {n_iters}")
    if not all(math.isfinite(v) for v in hist):
        problems.append("loss_history is not finite")
    values = {"final_loss": hist[-1] if hist else float("nan"),
              "loop_s": report["meta"]["wall_clock_s"],
              "iterations": len(hist)}
    if "eval" in WORKLOADS[name]:
        metrics = io.read_checkpoint(outdir / "metrics.json")
        bad = [k for k, v in metrics.items() if not math.isfinite(v)]
        if bad:
            problems.append(f"eval metrics not finite: {bad}")
        values["w2_sim_vs_observed"] = metrics["w2_sim_vs_observed"]
    return values, problems


# ---------------------------------------------------------------------------
# Gradient gate


def gradient_closure(name: str, cfg: dict, outdir: Path):
    """(loss_and_grad, theta) of the workload's driver at its own sizes,
    rebuilt from the pipeline's outputs at the fitted parameters."""
    model = io.load_model(io.read_checkpoint(outdir / "model.json"))
    fit = cfg["fit"]
    if name == "fvm_vdp128":
        target = io.read_measure_json(outdir / "measure.json")
        lng, _ = optim.make_fvm_loss(target, model, target.support,
                                     fit["diffusion"], fit["eps_tele"],
                                     fit["objective"])
    elif name == "pfo_vdp400":
        traj = io.read_trajectory_csv(outdir / "trajectory.csv")
        mesh = io.read_mesh_json(outdir / "mesh.json")
        target = io.read_ulam_matrix(outdir / "target_matrix.txt")
        pou = PartitionOfUnity(mesh.centers, cfg["mesh"]["pou_eps"])
        sources = subsample_stride(SampleCloud(traj.states[:-1]),
                                   fit["n_sources"])
        lng = optim.make_pfo_loss(target, model, mesh, pou, sources, traj.dt)
    elif name == "delay_l63":
        traj = io.read_trajectory_csv(outdir / "trajectory.csv")
        dcfg = DelayMapConfig(fit["observable"], fit["m"], fit["lag"])
        lng, *_ = optim.make_delay_loss(traj, model, dcfg, fit["loss"],
                                        fit["max_points"])
    else:
        raise KeyError(f"unknown workload {name!r}")
    return lng, model.get_params()


def gradient_gate(name: str, cfg: dict, outdir: Path, seed: int) -> dict:
    """Finite-difference check of the analytic gradient.

    The coordinates are drawn among those whose gradient is at least 1% of
    the largest: there the central difference is far above its rounding
    error, so the tests' bound applies at these problem sizes too.
    """
    lng, theta = gradient_closure(name, cfg, outdir)
    _, grad = lng(theta)
    big = np.flatnonzero(np.abs(grad) >= 1e-2 * np.abs(grad).max())
    rng = np.random.default_rng(seed)
    coords = rng.choice(big, min(FD_COORDS, big.size), replace=False)
    errors = optim.finite_difference_check(lng, theta, coords)
    worst = max(errors.values())
    return {"coords": [int(c) for c in coords],
            "max_rel_error": float(worst), "passed": bool(worst < FD_RTOL)}
