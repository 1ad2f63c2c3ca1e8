"""Experiment pipelines behind the CLI commands.

Each pipeline is an ordinary function over a validated config dict plus an
output directory, so batch runs, tests, and the CLI all execute the same
code. Seeds flow from the config; nothing here touches global RNG state.
"""

from __future__ import annotations

import logging
from pathlib import Path

import numpy as np

from . import delay as delay_mod
from . import fvm, io, pfo
from .config import ConfigError, section
from .measure import (Grid, SampleCloud, energy_mmd, grid_objective,
                      occupation_measure, subsample_stride, wasserstein2)
from .optim import AdamState, fit_delay, fit_fvm, fit_pfo, has_delay_term
from .systems import (CatalogMissError, DiscreteMap, OdeSystem, Trajectory,
                      integrate_ode, integrate_sde, iterate_map_batch,
                      make_system)
from .velocity_models import MaskedVelocity, MlpModel

log = logging.getLogger("ergodic_sysid")

# fit.eps_tele when neither the config nor the fit report sets it
_EPS_TELE = 1e-4


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
    except TypeError as exc:
        raise ConfigError(f"system.params: {exc}")


def _checked(key: str, call, *args, **kwargs):
    """``call(*args, **kwargs)``, a ValueError it raises reported as a
    config error on ``key``. For the call that reads a config value only;
    a fit is never wrapped, so its runtime failures keep exit code 3."""
    try:
        return call(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}")


def _delay_config(sec: dict, name: str, dim: int):
    """The delay map of the section's observable, m and lag, the
    observable's coordinate index checked against the data."""
    kwargs = _given(sec, "observable", "m", "lag")
    obs = kwargs.get("observable")
    if obs is not None and not 0 <= obs < dim:
        raise ConfigError(f"{name}.observable: index {obs} out of range "
                          f"for dim {dim}")
    try:
        return delay_mod.DelayMapConfig(**kwargs)
    except ValueError as exc:  # its message starts with the field's name
        raise ConfigError(f"{name}.{exc}")


def model_as_system(model, dim: int, name: str = "fitted") -> OdeSystem:
    """Wrap a velocity model so the integrators can consume it."""

    def rhs(x):
        if x.ndim == 1:
            return model.eval_batch(x[None])[0]
        return model.eval_batch(x)

    return OdeSystem(name, dim, {}, rhs)


def unit_torus_grid(bins: int) -> Grid:
    """Cells exactly tiling [0,1]^2 (centers at (k + 1/2)/bins)."""
    half = 0.5 / bins
    return Grid([half, half], [1.0 - half, 1.0 - half], [bins, bins])


# ---------------------------------------------------------------------------
# simulate / histogram


def generate_trajectory(cfg: dict) -> Trajectory:
    data = section(cfg, "data")
    system = _system_of(cfg)
    kind = data.get("kind", "ode")
    burn = data.get("burn_in", 0)
    n_steps = data["n_steps"]
    seed = _seed_of(cfg, data).get("seed", 0)
    x0 = data.get("x0", "auto")
    if isinstance(x0, str):
        if not isinstance(system, DiscreteMap):
            raise ConfigError("x0 'auto' is only supported for maps")
        rng = np.random.default_rng(seed)
        x0 = rng.uniform(system.lo, system.hi)
    x0 = np.asarray(x0, dtype=float)
    if kind == "map":
        traj = Trajectory(iterate_map_batch(system, x0, n_steps + burn), 0.0)
    elif kind == "ode":
        traj = integrate_ode(system, x0, data["dt"], n_steps + burn,
                             **_given(data, "substeps"))
    elif kind == "sde":
        traj = integrate_sde(system, data.get("diffusion", 0.0), x0,
                             data["dt"], n_steps + burn, seed=seed)
    else:
        raise ConfigError(f"unknown data kind {kind!r}")
    if burn:
        traj = Trajectory(traj.states[burn:], traj.dt, seed=traj.seed)
    return traj


def cmd_simulate(cfg: dict, outdir: Path) -> dict:
    traj = generate_trajectory(cfg)
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / "trajectory.csv"
    io.write_trajectory_csv(path, traj)
    log.info("wrote %s (%d samples, dim %d)", path, len(traj), traj.dim)
    return {"trajectory": str(path), "n_samples": len(traj),
            "dim": traj.dim}


def build_grid(grid_cfg: dict, states=None) -> Grid:
    n_per_dim = grid_cfg["n_per_dim"]
    if "lo" in grid_cfg and "hi" in grid_cfg:
        return Grid(grid_cfg["lo"], grid_cfg["hi"], n_per_dim)
    if states is None:
        raise ConfigError("grid needs lo/hi or trajectory data for auto box")
    margin = grid_cfg.get("auto_box_margin", 0.05)
    lo = states.min(axis=0)
    hi = states.max(axis=0)
    pad = margin * (hi - lo)
    return Grid(lo - pad, hi + pad, n_per_dim)


def _load_trajectory(outdir: Path) -> Trajectory:
    path = outdir / "trajectory.csv"
    if not path.exists():
        raise ConfigError(f"{path} not found; run simulate first")
    return io.read_trajectory_csv(path)


def cmd_histogram(cfg: dict, outdir: Path) -> dict:
    grid_cfg = section(cfg, "grid")
    traj = _load_trajectory(outdir)
    grid = build_grid(grid_cfg, traj.states)
    m = occupation_measure(traj, grid, **_given(grid_cfg, "clip"))
    path = outdir / "measure.json"
    io.write_measure_json(path, m)
    log.info("wrote %s (%d cells)", path, m.n)
    return {"measure": str(path), "n_cells": m.n,
            "total_weight": float(m.weights.sum())}


# ---------------------------------------------------------------------------
# model construction


def _fd_velocity_stats(traj: Trajectory, columns) -> tuple:
    diffs = (traj.states[1:] - traj.states[:-1]) / max(traj.dt, 1e-12)
    sel = diffs[:, columns]
    return sel.mean(axis=0), np.maximum(sel.std(axis=0), 1e-8)


def make_model(cfg: dict, dim_in: int, traj=None, purpose: str = "velocity"):
    """Build the velocity/map model named by the config.

    Whitening affines are frozen from the observed data (state statistics
    on the input side; finite-difference velocity or state statistics on
    the output side depending on purpose).
    """
    model_cfg = section(cfg, "model", required=False)
    hidden = [int(h) for h in model_cfg.get("hidden", [64, 64])]
    learned = model_cfg.get("mask_learned")
    whiten = model_cfg.get("whiten", True)
    out_dim = len(learned) if learned is not None else dim_in
    in_shift = in_scale = out_shift = out_scale = None
    if whiten and traj is not None:
        in_shift = traj.states.mean(axis=0)
        in_scale = np.maximum(traj.states.std(axis=0), 1e-8)
        cols = learned if learned is not None else list(range(dim_in))
        if purpose == "map":
            out_shift, out_scale = in_shift[cols], in_scale[cols]
        else:
            out_shift, out_scale = _fd_velocity_stats(traj, cols)
    mlp = MlpModel([dim_in] + hidden + [out_dim], in_shift, in_scale,
                   out_shift, out_scale)
    _checked("model.init", mlp.init_params, **_given(model_cfg, "init"),
             **_seed_of(cfg, model_cfg))
    if learned is None:
        return mlp
    system = _system_of(cfg)
    return MaskedVelocity(mlp, learned, system.rhs, system.jac_vjp,
                          dim=dim_in)


def _checkpoint_callback(outdir: Path, every: int):
    if every <= 0:
        return None
    hist = []

    def callback(it, loss, params, state: AdamState):
        hist.append(loss)
        if (it + 1) % every == 0:
            io.write_checkpoint(outdir / f"checkpoint_{it + 1:06d}.json", {
                "iteration": it + 1,
                "params": np.asarray(params).tolist(),
                "adam": state.to_dict(),
                "history": list(hist),
            })

    return callback


def _load_resume(fit_cfg: dict):
    path = fit_cfg.get("resume_from")
    if not path:
        return None
    blob = io.read_checkpoint(path)
    return {"params": np.asarray(blob["params"]),
            "adam": blob["adam"], "history": blob["history"]}


# ---------------------------------------------------------------------------
# fit


def cmd_fit(cfg: dict, outdir: Path) -> dict:
    fit_cfg = section(cfg, "fit")
    driver = fit_cfg.get("driver", "fvm")
    outdir.mkdir(parents=True, exist_ok=True)
    every = fit_cfg.get("checkpoint_every", 0)
    common = dict(**_given(fit_cfg, "n_iters", "lr", "clip_norm"),
                  **_seed_of(cfg, fit_cfg), resume=_load_resume(fit_cfg),
                  callback=_checkpoint_callback(outdir, every))

    if driver == "fvm":
        if "objective" in fit_cfg:
            _checked("fit.objective", grid_objective, fit_cfg["objective"])
        target_path = fit_cfg.get("target", str(outdir / "measure.json"))
        target = io.read_measure_json(target_path)
        if not isinstance(target.support, Grid):
            raise ConfigError("fvm fit target must be grid-supported")
        grid = target.support
        traj = _load_trajectory(outdir) if (outdir / "trajectory.csv").exists() \
            else None
        model = make_model(cfg, grid.dim, traj, purpose="velocity")
        report = fit_fvm(
            target, model, grid,
            D=fit_cfg.get("diffusion", 0.0),
            eps_tele=fit_cfg.get("eps_tele", _EPS_TELE),
            **_given(fit_cfg, "objective"), **common)
    elif driver == "pfo":
        traj = _load_trajectory(outdir)
        mesh_cfg = section(cfg, "mesh")
        build_cloud = subsample_stride(
            SampleCloud(traj.states), mesh_cfg.get("build_subsample", 20000))
        mesh = pfo.build_mesh(build_cloud, mesh_cfg["n_cells"],
                              **_seed_of(cfg, mesh_cfg))
        sources = subsample_stride(SampleCloud(traj.states[:-1]),
                                   **_given(fit_cfg, max_points="n_sources"))
        empty = int(np.count_nonzero(np.bincount(
            mesh.assign(sources.points), minlength=mesh.n) == 0))
        if empty:
            raise ConfigError(
                f"mesh.n_cells: {mesh.n} cells for fit.n_sources: "
                f"{sources.n} sources leave {empty} source cells empty; "
                "lower mesh.n_cells or raise fit.n_sources")
        pou = pfo.PartitionOfUnity(mesh.centers,
                                   **_given(mesh_cfg, eps="pou_eps"))
        pairs = (traj.states[:-1], traj.states[1:])
        target = pfo.estimate_markov(pairs, mesh, pou)
        model = make_model(cfg, traj.dim, traj, purpose="velocity")
        report = fit_pfo(
            target, model, mesh, pou, sources,
            flow_dt=fit_cfg.get("flow_dt", traj.dt),
            **_given(fit_cfg, "substeps"), **common)
        io.write_mesh_json(outdir / "mesh.json", mesh)
        io.write_ulam_matrix(outdir / "target_matrix.txt", target)
    elif driver == "delay":
        traj = _load_trajectory(outdir)
        dcfg = _delay_config(fit_cfg, "fit", traj.dim)
        if "loss" in fit_cfg:
            _checked("fit.loss", has_delay_term, fit_cfg["loss"])
        model = make_model(cfg, traj.dim, traj, purpose="map")
        report = fit_delay(traj, model, dcfg,
                           **_given(fit_cfg, "loss", "max_points"), **common)
    else:
        raise ConfigError(f"unknown fit driver {driver!r}")

    io.write_report_json(outdir / "report.json", report)
    inner = model.inner if isinstance(model, MaskedVelocity) else model
    io.write_checkpoint(outdir / "model.json", inner.checkpoint())
    log.info("fit %s: %d iterations, final loss %s", driver,
             len(report.loss_history), report.final_loss)
    return {"report": str(outdir / "report.json"),
            "final_loss": report.final_loss,
            "n_iters": len(report.loss_history)}


def _rebuild_fit_model(cfg: dict, outdir: Path, dim: int):
    """Model with trained parameters from model.json, mask reapplied."""
    blob = io.read_checkpoint(outdir / "model.json")
    inner = io.load_model(blob)
    learned = section(cfg, "model", required=False).get("mask_learned")
    if learned is None:
        return inner
    system = _system_of(cfg)
    return MaskedVelocity(inner, learned, system.rhs, system.jac_vjp,
                          dim=dim)


# ---------------------------------------------------------------------------
# eval


def eval_fvm_density(cfg: dict, outdir: Path) -> dict:
    """Simulate the fitted field and compare occupation statistics against
    the observed samples; also dump the surrogate stationary density."""
    ev = section(cfg, "eval")
    traj = _load_trajectory(outdir)
    observed = SampleCloud(traj.states)
    report = io.read_report_json(outdir / "report.json")
    fit_cfg = report["config"]
    model = _rebuild_fit_model(cfg, outdir, traj.dim)
    D = ev.get("diffusion", fit_cfg.get("D", 0.0))
    seed = _seed_of(cfg, ev).get("seed", 1)
    sim_dt = ev.get("sim_dt", 0.01)
    n_sim = ev.get("n_sim_steps", 200000)
    burn = ev.get("sim_burn_in", min(5000, n_sim // 10))
    fitted = model_as_system(model, traj.dim)
    x0 = observed.points[0]
    sim = integrate_sde(fitted, D, x0, sim_dt, n_sim, seed=seed)
    sim_cloud = SampleCloud(sim.states[burn:])

    thin = _given(ev, "max_points")
    nproj = ev.get("n_projections", 64)  # reported in metrics.json
    a = subsample_stride(sim_cloud, **thin)
    b = subsample_stride(observed, **thin)
    w2 = wasserstein2(a, b, n_projections=nproj, seed=seed)
    half = sim_cloud.n // 2
    self_w2 = wasserstein2(
        subsample_stride(SampleCloud(sim_cloud.points[:half]), **thin),
        subsample_stride(SampleCloud(sim_cloud.points[half:]), **thin),
        n_projections=nproj, seed=seed)

    target = io.read_measure_json(outdir / "measure.json")
    grid = target.support
    dt = report["extras"].get("dt") or fvm.frozen_dt(grid, model, D)
    op = fvm.assemble_K(grid, model, D, dt)
    M = fvm.teleport(op, fit_cfg.get("eps_tele", _EPS_TELE))
    rho = fvm.stationary_density(M)
    heat = np.column_stack([grid.centers(), rho.weights])
    io._write_table(outdir / "density.csv",
                    [f"x{i+1}" for i in range(grid.dim)] + ["weight"], heat)

    metrics = {"w2_sim_vs_observed": float(w2),
               "w2_squared": float(w2**2),
               "self_w2_noise_floor": float(self_w2),
               "n_sim_samples": int(a.n), "n_observed_samples": int(b.n),
               "n_projections": nproj}
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
    mesh_u = pfo.build_mesh(build, n_cells, seed=seed)
    pou0 = pfo.PartitionOfUnity(mesh_u.centers, 0.0)
    m_unstructured = pfo.estimate_markov((src, dst), mesh_u, pou0)
    pi_u = pfo.invariant_density(m_unstructured, eps_tele=1e-8)

    k = int(round(np.sqrt(n_cells)))
    if k * k != n_cells:
        raise ConfigError("catmap comparison needs a square cell count")
    grid = unit_torus_grid(k)
    mesh_g = pfo.UnstructuredMesh(grid.centers())
    pou_g = pfo.PartitionOfUnity(mesh_g.centers, 0.0)
    m_uniform = pfo.estimate_markov((src, dst), mesh_g, pou_g)
    pi_g = pfo.invariant_density(m_uniform, eps_tele=1e-8)

    rng = np.random.default_rng(seed + 1)
    quad = rng.random((quad_points, 2))
    density = lambda u: 10.0 * u[:, 0] ** 9
    err_u = _l1_density_error(pi_u.weights, mesh_u.centers, quad, density)
    err_g = _l1_density_error(pi_g.weights, mesh_g.centers, quad, density)

    out = {"l1_unstructured": err_u, "l1_uniform": err_g,
           "unstructured_wins": bool(err_u < err_g),
           "n_cells": n_cells, "n_pairs": int(src.shape[0])}
    outdir.mkdir(parents=True, exist_ok=True)
    io.write_checkpoint(outdir / "metrics.json", out)
    io.write_mesh_json(outdir / "mesh.json", mesh_u)
    return out


def vdp_refinement_study(grids=(25, 50, 100), diffusion: float = 1e-3,
                         eps_tele: float = 1e-8, n_sde_steps: int = 1000000,
                         sde_dt: float = 1e-3, seed: int = 11,
                         max_points: int = 4000, c: float = 1.0) -> dict:
    """Stationary-density error of the true field across grid resolutions.

    The reference is the occupation measure of a long stochastically forced
    trajectory; the error is the sample-cloud Wasserstein-2 distance.
    """
    system = make_system("van_der_pol", c=c)
    sde = integrate_sde(system, diffusion, np.array([1.5, 0.0]), sde_dt,
                        n_sde_steps, seed=seed)
    burn = int(0.05 * n_sde_steps)
    cloud = SampleCloud(sde.states[burn:])
    ref = subsample_stride(cloud, max_points)
    lo = cloud.points.min(axis=0) - 0.2
    hi = cloud.points.max(axis=0) + 0.2
    rows = []
    for n in grids:
        n = int(n)
        grid = Grid(lo, hi, [n, n])
        dt = fvm.cfl_dt(grid, diffusion, float(np.abs(
            system.rhs(grid.centers())).max()), safety=0.9)
        op = fvm.assemble_K(grid, system, diffusion, dt)
        M = fvm.teleport(op, eps_tele)
        rho = fvm.stationary_density(M)
        keep = rho.weights > 0
        dens_cloud = SampleCloud(grid.centers()[keep], rho.weights[keep])
        w2 = wasserstein2(dens_cloud, ref, seed=seed)
        rows.append({"n_per_dim": n, "w2": float(w2)})
    w2s = [r["w2"] for r in rows]
    return {"rows": rows, "monotone": bool(np.all(np.diff(w2s) < 0)),
            "diffusion": diffusion, "n_sde_steps": n_sde_steps}


def eval_refinement(cfg: dict, outdir: Path) -> dict:
    ev = section(cfg, "eval")
    result = vdp_refinement_study(
        **_given(ev, "grids", "diffusion", "eps_tele", "n_sde_steps",
                 "sde_dt", "max_points"), **_seed_of(cfg, ev))
    outdir.mkdir(parents=True, exist_ok=True)
    io.write_checkpoint(outdir / "metrics.json", result)
    table = np.array([[r["n_per_dim"], r["w2"]] for r in result["rows"]])
    io._write_table(outdir / "refinement.csv", ["n_per_dim", "w2"], table)
    return result


def cmd_eval(cfg: dict, outdir: Path) -> dict:
    kind = section(cfg, "eval").get("kind", "fvm_density")
    if kind == "fvm_density":
        return eval_fvm_density(cfg, outdir)
    if kind == "catmap_compare":
        return eval_catmap_compare(cfg, outdir)
    if kind == "refinement":
        return eval_refinement(cfg, outdir)
    raise ConfigError(f"unknown eval kind {kind!r}")


# ---------------------------------------------------------------------------
# delay diagnostics


def torus_pair_diagnostics(pair_a, pair_b,
                           cfg=delay_mod.DelayMapConfig(),
                           n_steps: int = 1000000, hist_bins: int = 16,
                           seed: int = 3) -> dict:
    """State histograms cannot separate two torus rotations; their
    delay-coordinate measures under the delay map ``cfg`` can. Returns
    both diagnostics plus a same-system baseline for the delay mismatch."""
    rng = np.random.default_rng(seed)
    x0a, x0b = rng.random(2), rng.random(2)
    # closed-form orbits: z_k = z_0 + k (alpha, beta) mod 1
    k = np.arange(n_steps)[:, None]
    orbit_a = (x0a + k * np.asarray(pair_a)) % 1.0
    orbit_b = (x0b + k * np.asarray(pair_b)) % 1.0
    grid = unit_torus_grid(hist_bins)
    hist_a = occupation_measure(orbit_a, grid, clip=True)
    hist_b = occupation_measure(orbit_b, grid, clip=True)
    state_l1 = float(np.abs(hist_a.weights - hist_b.weights).sum())

    cloud_a = delay_mod.delay_embed(Trajectory(orbit_a, 0.0), cfg)
    cloud_b = delay_mod.delay_embed(Trajectory(orbit_b, 0.0), cfg)
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
    mode = dcfg.get("mode", "embed")
    outdir.mkdir(parents=True, exist_ok=True)
    if mode == "torus_pair":
        result = torus_pair_diagnostics(
            dcfg["pair_a"], dcfg["pair_b"], _delay_config(dcfg, "delay", 2),
            **_given(dcfg, "n_steps", "hist_bins"), **_seed_of(cfg, dcfg))
        ca, cb = result.pop("clouds")
        io.write_cloud_csv(outdir / "delay_a.csv", ca)
        io.write_cloud_csv(outdir / "delay_b.csv", cb)
        io.write_checkpoint(outdir / "diagnostics.json", result)
        return result
    if mode == "embed":
        path = dcfg.get("trajectory", str(outdir / "trajectory.csv"))
        if not Path(path).exists():
            raise ConfigError(f"{path} not found; run simulate first")
        traj = io.read_trajectory_csv(path)
        cfg_d = _delay_config(dcfg, "delay", traj.dim)
        cloud = delay_mod.delay_embed(traj, cfg_d)
        io.write_cloud_csv(outdir / "delay.csv", cloud)
        return {"delay": str(outdir / "delay.csv"), "n_vectors": cloud.n,
                "m": cfg_d.m}
    raise ConfigError(f"unknown delay mode {mode!r}")
