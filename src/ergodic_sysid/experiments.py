"""Experiment pipelines behind the CLI commands.

Each command is a function of a validated config dict and an output
directory. ``fit_problem`` builds, without writing, the fit that ``fit``
runs, so a gradient check runs the CLI's own closure. Seeds flow from the
config; nothing here touches global RNG state.
"""

from __future__ import annotations

import logging
import math
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import delay as delay_mod
from . import fvm, io, optim, pfo
from .config import ConfigError, Section, section
from .measure import (Grid, SampleCloud, energy_mmd, occupation_measure,
                      subsample_stride, wasserstein2)
from .systems import (CatalogMissError, DiscreteMap, OdeSystem, Trajectory,
                      integrate_ode, integrate_sde, iterate_map_batch,
                      make_system)
from .velocity_models import MlpModel

log = logging.getLogger("ergodic_sysid")

# Independent Euler-Maruyama paths stepped as one batch by the fvm eval and
# the refinement study. One path pays numpy dispatch on every step of a
# batch-1 model call; 8 to 32 paths all cost about the same on the bench's
# 2-64-64-2 field, a quarter of one path's time for the same pooled steps.
SIM_PATHS = 16
MESH_BUILD_POINTS = 20000  # strided states the pfo mesh is clustered from
# teleport weight of the refinement and cat-map reference densities
REF_EPS_TELE = 1e-8


def _given(sec: dict, *keys, **renamed) -> dict:
    """Keyword arguments for the keys that the config section sets, so the
    signature of the function called is the only home of each default.
    ``renamed`` maps a parameter name to a config key of another name."""
    kwargs = {k: sec[k] for k in keys if k in sec}
    kwargs.update((p, sec[k]) for p, k in renamed.items() if k in sec)
    return kwargs


def _seed_of(cfg: dict, sec: dict) -> dict:
    """``seed`` keyword argument: the section's seed, else the top-level
    one, else none, so that the callee's default applies."""
    return _given(sec, "seed") or _given(cfg, "seed")


def _system_of(cfg: dict):
    """The catalog system named by the config's system section."""
    sys_cfg = section(cfg, "system")
    try:
        return make_system(sys_cfg["name"], **sys_cfg.get("params", {}))
    except CatalogMissError as exc:
        raise ConfigError(f"system.name: {exc.args[0]}")
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"system.params: {exc}")


def _checked(key: str, call, *args, **kwargs):
    """``call(*args, **kwargs)``, an OSError or ValueError it raises reported
    as a config error on ``key``. Wrap only a reader of a config value or
    file, or a builder whose only ValueError is its own precondition on the
    config sizes ``key`` names, so the rule has one home. The fit loop is
    never wrapped, so its failures keep exit code 3."""
    try:
        return call(*args, **kwargs)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{key}: {exc}")


def _delay_config(sec: dict, name: str, dim: int):
    """The delay map of the section's observable, m and lag, its observable
    index checked against dim. The span (m - 1) lag is checked where the
    map embeds a series, by ``delay_embed``, reached through ``_checked``."""
    kwargs = _given(sec, "observable", "m", "lag")
    if kwargs.get("observable", 0) >= dim:
        raise ConfigError(f"{name}.observable: index {kwargs['observable']} "
                          f"out of range for dim {dim}")
    return delay_mod.DelayMapConfig(**kwargs)


def _sde_paths(system: OdeSystem, diffusion_d: float, x0: np.ndarray,
               dt: float, n_steps: int, burn_in: int,
               seed: int) -> np.ndarray:
    """Euler-Maruyama paths from the K rows of x0, stepped as one batch.
    Each path discards ``burn_in`` steps and then records
    ceil((n_steps - burn_in) / K) steps, so together they record at least
    the n_steps - burn_in of one path of n_steps. Returns the recorded
    states path-major, shape (K, steps per path, d)."""
    per_path = math.ceil((n_steps - burn_in) / x0.shape[0])
    states = integrate_sde(system, diffusion_d, x0, dt, burn_in + per_path,
                           seed=seed)
    return states[burn_in + 1:].swapaxes(0, 1)


def _max_box_escape(states: np.ndarray, observed: np.ndarray) -> float:
    """Largest Euclidean distance from one of ``states`` (..., d) to the
    bounding box of the ``observed`` states (n, d); 0 when all lie in it."""
    lo, hi = observed.min(axis=0), observed.max(axis=0)
    gap = np.maximum(np.maximum(lo - states, states - hi), 0.0)
    return float(np.sqrt(np.max(np.sum(gap * gap, axis=-1))))


def unit_torus_grid(bins: int) -> Grid:
    """Cells exactly tiling [0,1]^2 (centers at (k + 1/2)/bins)."""
    half = 0.5 / bins
    return Grid([half, half], [1.0 - half, 1.0 - half], [bins, bins])


# ---------------------------------------------------------------------------
# simulate / histogram


def generate_trajectory(cfg: dict) -> Trajectory:
    data = section(cfg, "data")
    system = _system_of(cfg)
    kind = data["kind"]
    is_map = isinstance(system, DiscreteMap)
    if (kind == "map") != is_map:
        raise ConfigError(
            f"data.kind: {kind!r} does not apply to {system.name}; expected "
            + ("'map'" if is_map else "'ode' or 'sde'"))
    x0 = _checked("data.x0", np.asarray, data["x0"], dtype=float)
    if x0.shape != (system.dim,) or not np.all(np.isfinite(x0)):
        raise ConfigError(f"data.x0: expected {system.dim} finite numbers, "
                          f"got {data['x0']}")
    n_steps = data["n_steps"]
    burn = data.get("burn_in", 0)
    dt = 0.0 if kind == "map" else data["dt"]
    if kind != "sde" and "seed" in data:
        log.warning("data.seed: data.kind %r draws no random numbers, so "
                    "the seed is unused", kind)
    if kind == "map":
        states = iterate_map_batch(system, x0, n_steps + burn)
    elif kind == "ode":
        states = integrate_ode(system, x0, dt, n_steps + burn,
                               **_given(data, "substeps")).states
    else:
        D = data.get("diffusion", 0.0)
        seed = _seed_of(cfg, data).get("seed", 0)
        states = integrate_sde(system, D, x0, dt, n_steps + burn, seed=seed)
    return Trajectory(states[burn:], dt)


def cmd_simulate(cfg: dict, outdir: Path) -> dict:
    traj = generate_trajectory(cfg)
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / "trajectory.csv"
    io.write_trajectory_csv(path, traj)
    log.info("wrote %s (%d samples, dim %d)", path, len(traj), traj.dim)
    return {"trajectory": str(path), "n_samples": len(traj),
            "dim": traj.dim}


def build_grid(grid_cfg: Section, states: np.ndarray) -> Grid:
    """The config's box grid over the states: ``grid.lo`` and ``grid.hi``
    come as a pair, else the states' box padded by the margin is used."""
    n_per_dim = grid_cfg["n_per_dim"]
    if len(n_per_dim) != states.shape[1]:
        raise ConfigError(f"grid.n_per_dim: {len(n_per_dim)} entries for "
                          f"{states.shape[1]}-dimensional data")
    if "lo" in grid_cfg or "hi" in grid_cfg:
        return _checked("grid.lo, grid.hi", Grid, grid_cfg["lo"],
                        grid_cfg["hi"], n_per_dim)
    margin = grid_cfg.get("auto_box_margin", 0.05)
    lo = states.min(axis=0)
    hi = states.max(axis=0)
    if np.any(hi <= lo):  # a fixed point: a relative margin pads by 0
        raise ConfigError("grid.lo, grid.hi: the states span no box; give one")
    pad = margin * (hi - lo)
    return Grid(lo - pad, hi + pad, n_per_dim)


# each output a later command reads: its writing command, its io reader
_OUTPUTS = {"trajectory.csv": ("simulate", "read_trajectory_csv"),
            "measure.json": ("histogram", "read_measure_json"),
            "report.json": ("fit", "read_report_json"),
            "model.json": ("fit", "read_checkpoint")}


def _read_output(outdir: Path, name: str):
    """The output ``name``, read by its ``io`` reader as bound at call
    time; a missing one is a config error naming the command that writes it."""
    path = outdir / name
    command, reader = _OUTPUTS[name]
    if not path.exists():
        raise ConfigError(f"{path} not found; run {command} first")
    return getattr(io, reader)(path)


def cmd_histogram(cfg: dict, outdir: Path) -> dict:
    grid_cfg = section(cfg, "grid")
    traj = _read_output(outdir, "trajectory.csv")
    grid = build_grid(grid_cfg, traj.states)
    m = occupation_measure(traj.states, grid)
    path = outdir / "measure.json"
    io.write_measure_json(path, m)
    log.info("wrote %s (%d cells)", path, m.n)
    return {"measure": str(path), "n_cells": m.n,
            "total_weight": float(m.weights.sum())}


# ---------------------------------------------------------------------------
# model construction


def make_model(cfg: dict, dim_in: int, traj=None, step=None):
    """The Xavier-initialised MLP of the config's model section, from
    dim_in states to dim_in values.

    With a trajectory, its fixed whitening affines are frozen from the
    data: the input side from the state statistics, the output side from
    the finite-difference velocities over ``step``, the step the fit flows
    over, or from the state statistics when ``step`` is None (a map).
    Without one (an fvm fit of an external target), both are identities.
    """
    model_cfg = section(cfg, "model", required=False)
    in_shift = in_scale = out_shift = out_scale = None
    if traj is not None:
        in_shift = traj.states.mean(axis=0)
        in_scale = np.maximum(traj.states.std(axis=0), 1e-8)
        if step is None:
            out_shift, out_scale = in_shift, in_scale
        else:
            # Column-major, so that numpy sums each component pairwise
            # along contiguous memory rather than row by row.
            v = np.asfortranarray((traj.states[1:] - traj.states[:-1]) / step)
            out_shift = v.mean(axis=0)
            out_scale = np.maximum(v.std(axis=0), 1e-8)
    mlp = MlpModel([dim_in, *model_cfg.get("hidden", [64, 64]), dim_in],
                   in_shift, in_scale, out_shift, out_scale)
    mlp.init_params(**_seed_of(cfg, model_cfg))
    return mlp


# ---------------------------------------------------------------------------
# fit


class FitProblem(NamedTuple):
    """A configured fit: the closure, the model it moves, the report's
    config and extras, and the (file name, writer, object) inputs to save."""

    loss_and_grad: Callable
    model: MlpModel
    config: dict
    extras: dict
    files: tuple = ()


def fit_problem(cfg: dict, outdir: Path) -> FitProblem:
    """The fit of the config's fit section on the outputs in ``outdir``:
    its inputs read and checked, its model and closure built. Each default
    that the report records, bar the loop's n_iters, lr and clip norm, is
    set here. The pfo driver flows over the trajectory's dt, which spaces
    the pairs of its target matrix. Writes nothing."""
    fit_cfg = section(cfg, "fit")
    driver = fit_cfg["driver"]
    traj = _read_output(outdir, "trajectory.csv") if driver != "fvm" or (
        outdir / "trajectory.csv").exists() else None
    if driver != "delay" and traj is not None and traj.dt <= 0:
        raise ConfigError(f"fit.driver: {driver!r} fits a velocity field, "
                          f"and map data (dt {traj.dt}) has none")
    if driver == "fvm":
        target = _checked("fit.target", io.read_measure_json,
                          fit_cfg.get("target", outdir / "measure.json"))
        grid = target.support
        if traj is not None and traj.dim != grid.dim:
            raise ConfigError(
                f"fit.target: its grid is {grid.dim}-D, but the model is "
                f"whitened by the {traj.dim}-D states of trajectory.csv")
        model = make_model(cfg, grid.dim, traj, getattr(traj, "dt", None))
        config = {"driver": "fvm", "D": fit_cfg.get("diffusion", 0.0),
                  "objective": fit_cfg.get("objective", "l2"),
                  "eps_tele": fit_cfg.get("eps_tele", 1e-4),
                  "solver": "direct"}
        loss_and_grad, dt = optim.make_fvm_loss(
            target, model, grid, config["D"], config["eps_tele"],
            config["objective"])
        return FitProblem(loss_and_grad, model, config, {"dt": dt})
    if driver == "pfo":
        mesh_cfg = section(cfg, "mesh")
        pou_eps = mesh_cfg["pou_eps"]
        build_cloud = subsample_stride(SampleCloud(traj.states),
                                       MESH_BUILD_POINTS)
        mesh = _checked("mesh.n_cells", pfo.build_mesh, build_cloud,
                        mesh_cfg["n_cells"], **_seed_of(cfg, mesh_cfg))
        sources = subsample_stride(SampleCloud(traj.states[:-1]),
                                   **_given(fit_cfg, max_points="n_sources"))
        pou = pfo.PartitionOfUnity(mesh.centers, pou_eps)
        pairs = (traj.states[:-1], traj.states[1:])
        target = pfo.estimate_markov(pairs, mesh, pou)
        model = make_model(cfg, traj.dim, traj, traj.dt)
        config = {"driver": "pfo", "flow_dt": traj.dt,
                  "substeps": fit_cfg.get("substeps", 1), "n_cells": mesh.n,
                  "pou_eps": pou.eps}
        loss_and_grad = _checked(
            "mesh.n_cells, fit.n_sources", optim.make_pfo_loss, target,
            model, mesh, pou, sources, traj.dt, config["substeps"])
        images = subsample_stride(SampleCloud(pairs[1]), 1000).points
        extras = {"pou_neighbours": pou.k,
                  "pou_dropped_mass": pfo.dropped_mass(pou, images)}
        return FitProblem(loss_and_grad, model, config, extras, (
            ("mesh.json", io.write_mesh_json, mesh),
            ("target_matrix.txt", io.write_ulam_matrix, target)))
    loss = fit_cfg.get("loss", "j2")
    dcfg = _delay_config(fit_cfg, "fit", traj.dim)
    model = make_model(cfg, traj.dim, traj)
    loss_and_grad, *_ = _checked(  # j2 embeds the series; j1 takes any span
        "fit.m, fit.lag", optim.make_delay_loss, traj, model, dcfg, loss,
        fit_cfg.get("max_points", 2000))
    return FitProblem(loss_and_grad, model, {
        "driver": "delay", "loss": loss, "m": dcfg.m, "lag": dcfg.lag,
        "observable": dcfg.observable}, {})


def cmd_fit(cfg: dict, outdir: Path) -> dict:
    fit_cfg = section(cfg, "fit")
    path = fit_cfg.get("resume_from")
    checkpoint = _checked("fit.resume_from", io.read_checkpoint, path) \
        if path else None
    if "seed" in fit_cfg:
        log.warning("fit.seed: no fit draws random numbers; the seed is "
                    "only recorded in report.json")
    problem = fit_problem(cfg, outdir)
    resume = None if checkpoint is None else _checked(
        "fit.resume_from", optim.parse_checkpoint, checkpoint,
        problem.model.n_params, fit_cfg.get("n_iters", optim.N_ITERS))
    outdir.mkdir(parents=True, exist_ok=True)
    report = optim._run_loop(
        problem.loss_and_grad, problem.model, problem.config,
        **_given(fit_cfg, "n_iters", "lr", "checkpoint_every"),
        **_seed_of(cfg, fit_cfg),
        save=lambda blob: io.write_checkpoint(
            outdir / f"checkpoint_{blob['iteration']:06d}.json", blob),
        resume=resume)
    report["extras"].update(problem.extras)
    for name, write, value in problem.files:
        write(outdir / name, value)
    io.write_report_json(outdir / "report.json", report)
    io.write_checkpoint(outdir / "model.json", problem.model.checkpoint())
    history = report["loss_history"]
    final_loss = history[-1] if history else report["initial_loss"]
    log.info("fit %s: %d iterations, final loss %s", problem.config["driver"],
             len(history), final_loss)
    return {"report": str(outdir / "report.json"), "final_loss": final_loss,
            "n_iters": len(history)}


# ---------------------------------------------------------------------------
# eval


def eval_fvm_density(cfg: dict, outdir: Path) -> dict:
    """Simulate the fitted field and compare occupation statistics against
    the observed samples; also dump the surrogate stationary density.

    The simulation runs ``SIM_PATHS`` independent paths at the fit's D,
    started from observed states strided along the trajectory. Each path
    discards b = min(5000, n // 10) steps, n being ``eval.n_sim_steps``.
    After that the paths together record the n - b steps of one path of n
    steps (rounded up to a multiple of the path count), and their states
    are pooled. The noise floor is the distance between the pooled states
    of one half of the paths and those of the other half.
    The pooled W2 of many short paths hides a field that leaves the data
    slowly, so ``sim_max_escape`` reports the largest distance of a
    recorded state from the observed states' bounding box.
    """
    ev = section(cfg, "eval")
    thin = _given(ev, "max_points")
    sim_dt = ev.get("sim_dt", 0.01)
    n_sim = ev.get("n_sim_steps", 200000)
    burn = min(5000, n_sim // 10)
    traj = _read_output(outdir, "trajectory.csv")
    b = subsample_stride(SampleCloud(traj.states), **thin)
    report = _read_output(outdir, "report.json")
    fit_cfg = report["config"]
    if fit_cfg["driver"] != "fvm":
        raise ConfigError(f"eval.kind: fvm_density evaluates an fvm fit, "
                          f"and {outdir / 'report.json'} holds a "
                          f"{fit_cfg['driver']} fit")
    model = io.load_model(_read_output(outdir, "model.json"))
    grid = _read_output(outdir, "measure.json").support
    D = fit_cfg["D"]
    seed = _seed_of(cfg, ev).get("seed", 1)
    starts = subsample_stride(SampleCloud(traj.states), SIM_PATHS).points
    fitted = OdeSystem("fitted", traj.dim, {}, model.eval_batch)
    paths = _sde_paths(fitted, D, starts, sim_dt, n_sim, burn, seed)
    pooled = lambda p: SampleCloud(p.reshape(-1, traj.dim))
    half = len(paths) // 2

    nproj = ev.get("n_projections", 64)  # reported in metrics.json
    a = subsample_stride(pooled(paths), **thin)
    w2 = wasserstein2(a, b, n_projections=nproj, seed=seed)
    self_w2 = wasserstein2(
        subsample_stride(pooled(paths[:half]), **thin),
        subsample_stride(pooled(paths[half:]), **thin),
        n_projections=nproj, seed=seed)

    face_v, _ = fvm.face_velocities(grid, model)
    op = fvm.assemble_K(grid, face_v, D, report["extras"]["dt"])
    rho = fvm.stationary_density(fvm.teleport(op, fit_cfg["eps_tele"]))
    heat = np.column_stack([grid.centers(), rho])
    io._write_table(outdir / "density.csv",
                    [f"x{i+1}" for i in range(grid.dim)] + ["weight"], heat)

    metrics = {"w2_sim_vs_observed": float(w2),
               "w2_squared": float(w2**2),
               "self_w2_noise_floor": float(self_w2),
               "n_sim_samples": int(a.n), "n_observed_samples": int(b.n),
               "n_projections": nproj, "n_sim_paths": len(paths),
               "sim_burn_in": int(burn),
               "sim_max_escape": _max_box_escape(paths, traj.states)}
    io.write_checkpoint(outdir / "metrics.json", metrics)
    return metrics


def catmap_dataset(n_initial: int, n_iters: int, seed: int):
    """Iterates of the skewed cat map from uniform initial conditions.

    Returns (all states flattened, source points, image points).
    """
    system = make_system("cat_modified")
    rng = np.random.default_rng(seed)
    x0 = rng.random((n_initial, 2))
    orbit = iterate_map_batch(system, x0, n_iters)  # (n_iters+1, n, 2)
    states = orbit.reshape(-1, 2)
    src = orbit[:-1].reshape(-1, 2)
    dst = orbit[1:].reshape(-1, 2)
    return states, src, dst


def _l1_density_error(pi: np.ndarray, centers: np.ndarray, quad: np.ndarray,
                      density) -> float:
    """Monte-Carlo L1 distance between a piecewise-constant density on
    nearest-center cells and a reference density, cell volumes estimated
    from the same quadrature points."""
    assign = pfo.assign_nearest(quad, centers)
    counts = np.bincount(assign, minlength=centers.shape[0])
    vol = counts / quad.shape[0]
    dens = np.zeros(centers.shape[0])
    nz = vol > 0
    dens[nz] = pi[nz] / vol[nz]
    return float(np.mean(np.abs(dens[assign] - density(quad))))


def eval_catmap_compare(cfg: dict, outdir: Path) -> dict:
    """Uniform vs data-adaptive cells for the skewed cat map density."""
    ev = section(cfg, "eval")
    n_cells = ev.get("n_cells", 400)
    n_initial = ev.get("n_initial", 10000)
    n_iters = ev.get("n_iters", 1000)
    seed = _seed_of(cfg, ev).get("seed", 7)
    quad_points = ev.get("quad_points", 2000000)

    states, src, dst = catmap_dataset(n_initial, n_iters, seed)
    build = subsample_stride(SampleCloud(states), 200000)
    mesh_u = _checked("eval.n_cells", pfo.build_mesh, build, n_cells,
                      seed=seed)
    m_unstructured = pfo.estimate_markov((src, dst), mesh_u)
    pi_u = pfo.invariant_density(m_unstructured, REF_EPS_TELE)

    grid = unit_torus_grid(math.isqrt(n_cells))
    mesh_g = pfo.UnstructuredMesh(grid.centers())
    m_uniform = pfo.estimate_markov((src, dst), mesh_g)
    pi_g = pfo.invariant_density(m_uniform, REF_EPS_TELE)

    rng = np.random.default_rng(seed + 1)
    quad = rng.random((quad_points, 2))
    density = lambda u: 10.0 * u[:, 0] ** 9
    err_u = _l1_density_error(pi_u.weights, mesh_u.centers, quad, density)
    err_g = _l1_density_error(pi_g.weights, mesh_g.centers, quad, density)

    out = {"l1_unstructured": err_u, "l1_uniform": err_g,
           "unstructured_wins": bool(err_u < err_g),
           "n_cells": n_cells, "n_pairs": int(src.shape[0]),
           "empty_cells_unstructured": m_unstructured.empty_cells,
           "empty_cells_uniform": m_uniform.empty_cells}
    outdir.mkdir(parents=True, exist_ok=True)
    io.write_checkpoint(outdir / "metrics.json", out)
    io.write_mesh_json(outdir / "mesh.json", mesh_u)
    return out


def vdp_refinement_study(grids=(25, 50, 100), diffusion: float = 1e-3,
                         n_sde_steps: int = 1000000, sde_dt: float = 1e-3,
                         seed: int = 11, max_points: int = 4000) -> dict:
    """Stationary-density error of the true field across grid resolutions.

    The reference is the pooled occupation measure of ``SIM_PATHS``
    stochastically forced paths from (1.5, 0); each burns in for
    int(0.05 n_sde_steps) steps, as one path of n_sde_steps would. The
    error is the sample-cloud Wasserstein-2 distance.
    """
    system = make_system("van_der_pol", c=1.0)
    x0 = np.tile([1.5, 0.0], (SIM_PATHS, 1))
    paths = _sde_paths(system, diffusion, x0, sde_dt, n_sde_steps,
                       int(0.05 * n_sde_steps), seed)
    cloud = SampleCloud(paths.reshape(-1, 2))
    ref = subsample_stride(cloud, max_points)
    lo = cloud.points.min(axis=0) - 0.2
    hi = cloud.points.max(axis=0) + 0.2
    rows = []
    for n in grids:
        n = int(n)
        grid = Grid(lo, hi, [n, n])
        face_v, _ = fvm.face_velocities(grid, system)
        op = fvm.assemble_K(grid, face_v, diffusion,
                            fvm.frozen_dt(grid, system, diffusion))
        rho = fvm.stationary_density(fvm.teleport(op, REF_EPS_TELE))
        keep = rho > 0
        dens_cloud = SampleCloud(grid.centers()[keep], rho[keep])
        w2 = wasserstein2(dens_cloud, ref, seed=seed)
        rows.append({"n_per_dim": n, "w2": float(w2)})
    w2s = [r["w2"] for r in rows]
    return {"rows": rows, "monotone": bool(np.all(np.diff(w2s) < 0)),
            "diffusion": diffusion, "n_sde_steps": n_sde_steps}


def eval_refinement(cfg: dict, outdir: Path) -> dict:
    ev = section(cfg, "eval")
    result = vdp_refinement_study(
        **_given(ev, "grids", "diffusion", "n_sde_steps", "sde_dt",
                 "max_points"), **_seed_of(cfg, ev))
    outdir.mkdir(parents=True, exist_ok=True)
    io.write_checkpoint(outdir / "metrics.json", result)
    table = np.array([[r["n_per_dim"], r["w2"]] for r in result["rows"]])
    io._write_table(outdir / "refinement.csv", ["n_per_dim", "w2"], table)
    return result


def cmd_eval(cfg: dict, outdir: Path) -> dict:
    kind = section(cfg, "eval")["kind"]
    if kind == "fvm_density":
        return eval_fvm_density(cfg, outdir)
    if kind == "catmap_compare":
        return eval_catmap_compare(cfg, outdir)
    return eval_refinement(cfg, outdir)


# ---------------------------------------------------------------------------
# delay diagnostics


def torus_pair_diagnostics(pair_a, pair_b,
                           cfg=delay_mod.DelayMapConfig(),
                           n_steps: int = 1000000, hist_bins: int = 16,
                           seed: int = 3) -> dict:
    """State histograms cannot separate two torus rotations; their
    delay-coordinate measures under the delay map ``cfg`` can. Returns both
    diagnostics and a same-system baseline, which needs two delay vectors."""
    rng = np.random.default_rng(seed)
    x0a, x0b = rng.random(2), rng.random(2)
    # closed-form orbits: z_k = z_0 + k (alpha, beta) mod 1
    k = np.arange(n_steps)[:, None]
    orbit_a = (x0a + k * np.asarray(pair_a)) % 1.0
    orbit_b = (x0b + k * np.asarray(pair_b)) % 1.0
    cloud_a = delay_mod.delay_embed(orbit_a, cfg)
    cloud_b = delay_mod.delay_embed(orbit_b, cfg)
    if cloud_a.n < 2:
        raise ValueError(f"the split baseline needs at least two delay "
                         f"vectors, got {cloud_a.n}")
    grid = unit_torus_grid(hist_bins)
    hist_a = occupation_measure(orbit_a, grid, clip=True)
    hist_b = occupation_measure(orbit_b, grid, clip=True)
    state_l1 = float(np.abs(hist_a.weights - hist_b.weights).sum())

    ca = subsample_stride(cloud_a)
    cb = subsample_stride(cloud_b)
    delay_mmd = energy_mmd(ca, cb)

    def split_mmd(cloud):
        half = subsample_stride(cloud, 8000)
        even = SampleCloud(half.points[0::2])
        odd = SampleCloud(half.points[1::2])
        return energy_mmd(even, odd)

    baseline = max(split_mmd(cloud_a), split_mmd(cloud_b), 1e-12)
    return {
        "state_l1": state_l1,
        "delay_mmd": float(delay_mmd),
        "baseline_mmd": float(baseline),
        "ratio": float(delay_mmd / baseline),
        "pair_a": list(map(float, pair_a)),
        "pair_b": list(map(float, pair_b)),
        "m": cfg.m, "lag": cfg.lag, "n_steps": n_steps,
        "clouds": (ca, cb),
    }


def cmd_delay(cfg: dict, outdir: Path) -> dict:
    dcfg = section(cfg, "delay")
    if dcfg["mode"] == "torus_pair":
        for key in ("pair_a", "pair_b"):
            if len(dcfg[key]) != 2:
                raise ConfigError(f"delay.{key}: expected two numbers, got "
                                  f"{dcfg[key]}")
        result = _checked(
            "delay.n_steps, delay.m, delay.lag", torus_pair_diagnostics,
            dcfg["pair_a"], dcfg["pair_b"], _delay_config(dcfg, "delay", 2),
            **_given(dcfg, "n_steps", "hist_bins"), **_seed_of(cfg, dcfg))
        outdir.mkdir(parents=True, exist_ok=True)
        ca, cb = result.pop("clouds")
        io.write_cloud_csv(outdir / "delay_a.csv", ca)
        io.write_cloud_csv(outdir / "delay_b.csv", cb)
        io.write_checkpoint(outdir / "diagnostics.json", result)
        return result
    traj = _checked("delay.trajectory", io.read_trajectory_csv,
                    dcfg.get("trajectory", outdir / "trajectory.csv"))
    cfg_d = _delay_config(dcfg, "delay", traj.dim)
    cloud = _checked("delay.m, delay.lag", delay_mod.delay_embed,
                     traj.states, cfg_d)
    outdir.mkdir(parents=True, exist_ok=True)
    io.write_cloud_csv(outdir / "delay.csv", cloud)
    return {"delay": str(outdir / "delay.csv"), "n_vectors": cloud.n,
            "m": cfg_d.m}
