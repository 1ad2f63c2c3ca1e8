"""Adam optimizer and the experiment drivers.

Three drivers share one loop: the stationary-density fit (assemble the
transport chain, solve for its fixed point, propagate the objective
gradient back through the adjoint system), the transition-matrix fit
(differentiable flow-map Markov matrix against an observed one), and the
delay-measure fit (map-matching losses on sample clouds). Each driver is
built around a ``loss_and_grad(theta)`` closure so the gradients can be
finite-difference checked in isolation. The loop always runs the full
iteration count; a resumed run executes only the remaining iterations.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import adjoint as adj
from . import delay as delay_mod
from . import fvm
from .measure import Measure, SampleCloud, grid_objective
from .pfo import PartitionOfUnity, UlamMatrix, UnstructuredMesh, \
    flowmap_markov_grad
from .systems import Trajectory


@dataclass
class AdamState:
    """First/second moment accumulators of the Adam update."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def for_params(cls, params: np.ndarray, lr: float = 1e-3) -> "AdamState":
        return cls(np.zeros_like(params), np.zeros_like(params), lr=lr)

    def to_dict(self) -> dict:
        return {"m": self.m.tolist(), "v": self.v.tolist(), "t": self.t,
                "lr": self.lr, "beta1": self.beta1, "beta2": self.beta2,
                "eps": self.eps}

    @classmethod
    def from_dict(cls, blob: dict) -> "AdamState":
        return cls(np.asarray(blob["m"]), np.asarray(blob["v"]),
                   int(blob["t"]), blob["lr"], blob["beta1"], blob["beta2"],
                   blob["eps"])


def adam_step(state: AdamState, params: np.ndarray,
              grads: np.ndarray) -> np.ndarray:
    """Standard bias-corrected Adam update; mutates state, returns params."""
    if params.shape != grads.shape or params.shape != state.m.shape:
        raise ValueError("parameter/gradient/state shape mismatch")
    state.t += 1
    state.m = state.beta1 * state.m + (1.0 - state.beta1) * grads
    state.v = state.beta2 * state.v + (1.0 - state.beta2) * grads**2
    mhat = state.m / (1.0 - state.beta1**state.t)
    vhat = state.v / (1.0 - state.beta2**state.t)
    return params - state.lr * mhat / (np.sqrt(vhat) + state.eps)


def clip_by_global_norm(grads: np.ndarray, max_norm: float) -> np.ndarray:
    norm = float(np.linalg.norm(grads))
    if max_norm > 0 and norm > max_norm:
        return grads * (max_norm / norm)
    return grads


@dataclass
class FitReport:
    """Outcome of one optimization run."""

    loss_history: list
    final_params: np.ndarray
    wall_clock_s: float
    config: dict
    seed: int
    initial_loss: Optional[float] = None
    events: list = field(default_factory=list)
    extras: dict = field(default_factory=dict)

    @property
    def final_loss(self) -> Optional[float]:
        return self.loss_history[-1] if self.loss_history else self.initial_loss

    def to_dict(self) -> dict:
        return {
            "loss_history": [float(v) for v in self.loss_history],
            "final_params": np.asarray(self.final_params).tolist(),
            "config": self.config,
            "seed": self.seed,
            "initial_loss": self.initial_loss,
            "events": self.events,
            "extras": self.extras,
            "meta": {"wall_clock_s": self.wall_clock_s},
        }


def _run_loop(loss_and_grad: Callable, params: np.ndarray, n_iters: int,
              lr: float, clip_norm: float, config: dict, seed: int,
              callback: Optional[Callable] = None,
              resume: Optional[dict] = None) -> FitReport:
    """Adam loop until len(history) reaches n_iters (total, so a resumed
    run executes only the remaining iterations)."""
    start = time.perf_counter()
    history = []
    state = None
    if resume:
        params = np.asarray(resume["params"], dtype=float)
        state = AdamState.from_dict(resume["adam"])
        state.lr = lr
        history = [float(v) for v in resume.get("history", [])]
    state = state or AdamState.for_params(params, lr=lr)
    initial_loss = history[0] if history else None
    if n_iters == 0 and initial_loss is None:
        initial_loss, _ = loss_and_grad(params)
    while len(history) < n_iters:
        loss, grad = loss_and_grad(params)
        if not np.isfinite(loss) or not np.all(np.isfinite(grad)):
            raise FloatingPointError(
                f"non-finite loss or gradient at iteration {len(history)}")
        history.append(float(loss))
        if initial_loss is None:
            initial_loss = float(loss)
        grad = clip_by_global_norm(grad, clip_norm)
        params = adam_step(state, params, grad)
        if callback is not None:
            callback(len(history) - 1, float(loss), params, state)
    return FitReport(history, params, time.perf_counter() - start, config,
                     seed, initial_loss=initial_loss)


# ---------------------------------------------------------------------------
# Stationary-density fit


def make_fvm_loss(target: Measure, velocity, grid, D: float, eps_tele: float,
                  objective: str = "l2", dt: Optional[float] = None):
    """Closure computing the density-matching loss and its gradient.

    The time step is frozen up front (half the CFL bound at the initial
    field) so the objective stays fixed across iterations; if the field
    grows past the bound the step is halved and the event recorded. Each
    call factorizes the teleported chain once; the stationary and adjoint
    solves share that LU, so eps_tele must be positive.
    """
    if not target.support.matches(grid):
        raise ValueError("target measure does not live on the fit grid")
    obj = grid_objective(objective)
    state = {"dt": dt or fvm.frozen_dt(grid, velocity, D), "events": []}

    def loss_and_grad(theta):
        velocity.set_params(theta)
        step = state["dt"]
        while True:
            try:
                op = fvm.assemble_K(grid, velocity, D, step)
                break
            except fvm.AssemblyError:
                step *= 0.5
                state["dt"] = step
                state["events"].append(f"halved dt to {step:.3e}")
                if step < 1e-16:
                    raise
        M = fvm.teleport(op, eps_tele)
        rho = fvm.stationary_density(M)
        value, djdrho = obj(rho.weights, target.weights, grid.cell_volume)
        sol = adj.solve_adjoint(M, rho, djdrho)
        face_grads = adj.grad_face_velocities(op, M, rho, sol)
        grad = adj.grad_parameters(face_grads, velocity, op)
        return value, grad

    return loss_and_grad, state


def fit_fvm(target: Measure, velocity, grid, D: float, eps_tele: float,
            objective: str = "l2", n_iters: int = 500, lr: float = 1e-3,
            seed: int = 0, clip_norm: float = 10.0, callback=None,
            resume: Optional[dict] = None) -> FitReport:
    """Fit a velocity so the stationary density matches a target measure."""
    loss_and_grad, state = make_fvm_loss(target, velocity, grid, D, eps_tele,
                                         objective)
    config = {"driver": "fvm", "objective": objective, "D": D,
              "eps_tele": eps_tele, "n_iters": n_iters, "lr": lr,
              "clip_norm": clip_norm, "solver": "direct"}
    report = _run_loop(loss_and_grad, velocity.get_params(), n_iters, lr,
                       clip_norm, config, seed, callback=callback,
                       resume=resume)
    report.events.extend(state["events"])
    report.extras["dt"] = state["dt"]
    velocity.set_params(report.final_params)
    return report


# ---------------------------------------------------------------------------
# Transition-matrix fit


def make_pfo_loss(target_matrix: UlamMatrix, velocity,
                  mesh: UnstructuredMesh, pou: PartitionOfUnity,
                  sources: SampleCloud, flow_dt: float, substeps: int = 1):
    src = mesh.assign(sources.points)

    def loss_and_grad(theta):
        velocity.set_params(theta)
        loss, grad, _ = flowmap_markov_grad(
            velocity, mesh, pou, sources, flow_dt, target_matrix,
            substeps=substeps, assignments=src)
        return loss, grad

    return loss_and_grad


def fit_pfo(target_matrix: UlamMatrix, velocity, mesh: UnstructuredMesh,
            pou: PartitionOfUnity, sources: SampleCloud, flow_dt: float,
            substeps: int = 1, n_iters: int = 500, lr: float = 1e-3,
            seed: int = 0, clip_norm: float = 10.0,
            callback=None, resume: Optional[dict] = None) -> FitReport:
    """Fit a velocity so its flow-map transition matrix matches a target."""
    loss_and_grad = make_pfo_loss(target_matrix, velocity, mesh, pou,
                                  sources, flow_dt, substeps)
    config = {"driver": "pfo", "flow_dt": flow_dt, "substeps": substeps,
              "n_cells": mesh.n, "pou_eps": pou.eps, "n_iters": n_iters,
              "lr": lr, "clip_norm": clip_norm}
    report = _run_loop(loss_and_grad, velocity.get_params(), n_iters, lr,
                       clip_norm, config, seed, callback=callback,
                       resume=resume)
    velocity.set_params(report.final_params)
    return report


# ---------------------------------------------------------------------------
# Delay-measure fit


def has_delay_term(loss: str) -> bool:
    """Whether the named delay loss adds the delay-measure mismatch: "j1"
    matches the images alone, "j2" adds the delay term."""
    if loss not in ("j1", "j2"):
        raise ValueError(f"unknown loss {loss!r}; expected 'j1' or 'j2'")
    return loss == "j2"


def make_delay_loss(observed: Trajectory, model, cfg, loss: str = "j2",
                    max_points: int = 2000):
    """Prepare clouds from an observed trajectory and return the closure.

    Sample/image pairs come from consecutive trajectory states; the
    observed delay cloud is the sliding-window embedding of the whole
    series.
    """
    include_delay = has_delay_term(loss)
    states = observed.states
    keep = min(max_points, states.shape[0] - 1)
    idx = np.linspace(0, states.shape[0] - 2, keep).round().astype(int)
    mu_samples = SampleCloud(states[idx])
    images = SampleCloud(states[idx + 1])
    observed_delay = None
    if include_delay:
        observed_delay = delay_mod.subsample_stride(
            delay_mod.delay_embed(observed, cfg), max_points)

    def loss_and_grad(theta):
        model.set_params(theta)
        value, grad, _ = delay_mod.loss_j2_grad(
            model, mu_samples, images, observed_delay, cfg,
            include_delay=include_delay)
        return value, grad

    return loss_and_grad, mu_samples, images, observed_delay


def fit_delay(observed: Trajectory, model, cfg, n_iters: int = 500,
              lr: float = 1e-3, seed: int = 0, loss: str = "j2",
              clip_norm: float = 10.0, max_points: int = 2000,
              callback=None, resume: Optional[dict] = None) -> FitReport:
    """Fit a discrete map to observed flow data by measure matching."""
    loss_and_grad, *_ = make_delay_loss(observed, model, cfg, loss,
                                        max_points)
    config = {"driver": "delay", "loss": loss, "m": cfg.m, "lag": cfg.lag,
              "observable": cfg.observable if not callable(cfg.observable)
              else "custom", "n_iters": n_iters, "lr": lr,
              "clip_norm": clip_norm}
    report = _run_loop(loss_and_grad, model.get_params(), n_iters, lr,
                       clip_norm, config, seed, callback=callback,
                       resume=resume)
    model.set_params(report.final_params)
    return report


def finite_difference_check(loss_and_grad, theta: np.ndarray, coords,
                            step: float = 1e-6):
    """Relative error of the analytic gradient against central differences
    on the chosen coordinates. Test-harness helper."""
    _, grad = loss_and_grad(theta)
    errors = {}
    for c in coords:
        e = np.zeros_like(theta)
        e[c] = step
        jp, _ = loss_and_grad(theta + e)
        jm, _ = loss_and_grad(theta - e)
        fd = (jp - jm) / (2.0 * step)
        denom = max(abs(fd), abs(grad[c]), 1e-12)
        errors[int(c)] = abs(grad[c] - fd) / denom
    return errors
