"""The Adam loop and the loss-and-gradient closures it runs.

Three closures share one loop: the stationary-density fit (assemble the
transport chain, solve for its fixed point, propagate the objective
gradient back through the adjoint system), the transition-matrix fit
(differentiable flow-map Markov matrix against an observed one), and the
delay-measure fit (map-matching losses on sample clouds). Each
``make_*_loss`` returns a ``loss_and_grad(theta)`` closure, so the
gradients can be finite-difference checked in isolation;
``experiments.fit_problem`` builds the one a config asks for. The loop owns
a fit's state: it reads the model's parameters, keeps the only loss
history, builds the checkpoints and resumes from one that
``parse_checkpoint`` has read, leaves the model at the final parameters,
and returns the report that ``report.json`` holds. It always runs the full
iteration count; a resumed run executes only the remaining iterations. Its
signature is the only home of its defaults.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import adjoint as adj
from . import delay as delay_mod
from . import fvm
from .measure import Measure, SampleCloud, grid_objective, subsample_stride
from .pfo import PartitionOfUnity, UlamMatrix, UnstructuredMesh, \
    flowmap_markov_grad
from .systems import Trajectory

# iterations of a fit whose caller does not set n_iters
N_ITERS = 500
# largest global gradient norm an Adam step takes; a longer one is scaled
CLIP_NORM = 10.0


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
    if norm > max_norm:
        return grads * (max_norm / norm)
    return grads


def parse_checkpoint(blob, n_params: int, n_iters: int):
    """(params, AdamState, history) of a checkpoint blob that ``_run_loop``
    saved, for a model of ``n_params`` parameters and a fit of ``n_iters``
    iterations; ValueError if the blob is no such checkpoint."""
    try:
        adam = blob["adam"]
        params, m, v = (np.asarray(x, dtype=float)
                        for x in (blob["params"], adam["m"], adam["v"]))
        state = AdamState(m, v, int(adam["t"]),
                          *(float(adam[k]) for k in ("lr", "beta1", "beta2",
                                                     "eps")))
        history = [float(x) for x in blob["history"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"no fit checkpoint: {exc!r}") from None
    if not (params.shape == m.shape == v.shape == (n_params,)
            and np.all(np.isfinite([params, m, v]))):
        raise ValueError(f"no fit checkpoint of {n_params} finite parameters")
    if adam["t"] != len(history) or not np.all(np.isfinite(history)):
        raise ValueError(f"no fit checkpoint: adam.t {adam['t']!r} must "
                         f"count its {len(history)} losses, all finite")
    if len(history) > n_iters:
        raise ValueError(f"the resume checkpoint holds {len(history)} "
                         f"iterations, more than n_iters {n_iters}")
    return params, state, history


def _run_loop(loss_and_grad: Callable, model, config: dict, *,
              n_iters: int = N_ITERS, lr: float = 1e-3, seed: int = 0,
              checkpoint_every: int = 0, save: Optional[Callable] = None,
              resume: Optional[tuple] = None) -> dict:
    """Adam loop on the model's parameters until the history holds n_iters
    losses (total, so a resumed run executes only the remaining iterations).
    Returns the payload of ``report.json``: its config is ``config`` with
    n_iters, lr and CLIP_NORM added, its extras are empty, and its
    initial_loss is the first loss, or one evaluation if no iteration ran.

    Every ``checkpoint_every`` iterations ``save`` gets the checkpoint blob
    {"iteration", "params", "adam", "history"}; ``resume`` takes the
    (params, AdamState, history) that ``parse_checkpoint`` makes of such a
    blob. The model is left at the final parameters.
    """
    if n_iters < 0:
        raise ValueError(f"n_iters {n_iters} is negative")
    if checkpoint_every > 0 and save is None:
        raise ValueError("checkpoint_every needs a save function")
    start = time.perf_counter()
    if resume is None:
        params = model.get_params()
        resume = params, AdamState.for_params(params), []
    params, state, history = resume
    state.lr = lr
    while len(history) < n_iters:
        loss, grad = loss_and_grad(params)
        if not np.isfinite(loss) or not np.all(np.isfinite(grad)):
            raise FloatingPointError(
                f"non-finite loss or gradient at iteration {len(history)}")
        history.append(float(loss))
        grad = clip_by_global_norm(grad, CLIP_NORM)
        params = adam_step(state, params, grad)
        if checkpoint_every > 0 and len(history) % checkpoint_every == 0:
            save({"iteration": len(history), "params": params.tolist(),
                  "adam": state.to_dict(), "history": list(history)})
    model.set_params(params)
    return {"loss_history": history, "final_params": params.tolist(),
            "config": dict(config, n_iters=n_iters, lr=lr,
                           clip_norm=CLIP_NORM),
            "seed": seed, "extras": {},
            "initial_loss": history[0] if history
            else float(loss_and_grad(params)[0]),
            "meta": {"wall_clock_s": time.perf_counter() - start}}


# ---------------------------------------------------------------------------
# Stationary-density fit


def make_fvm_loss(target: Measure, velocity, grid, D: float, eps_tele: float,
                  objective: str):
    """The density-matching loss-and-gradient closure, and its time step.

    The time step ``dt``, ``fvm.frozen_dt`` at the initial field, is a
    constant of the objective: every call assembles at it, however large
    the field grows. Each call factorizes the teleported chain once; the
    stationary and adjoint solves share that LU, so eps_tele must lie in
    (0, 1].
    """
    if not target.support.matches(grid):
        raise ValueError("target measure does not live on the fit grid")
    obj = grid_objective(objective)
    dt = fvm.frozen_dt(grid, velocity, D)

    def loss_and_grad(theta):
        velocity.set_params(theta)
        face_v, pullback = fvm.face_velocities(grid, velocity)
        op = fvm.assemble_K(grid, face_v, D, dt)
        M = fvm.teleport(op, eps_tele)
        rho = fvm.stationary_density(M)
        value, djdrho = obj(rho, target.weights, grid.cell_volume)
        sol = adj.solve_adjoint(M, rho, djdrho)
        face_grads = adj.grad_face_velocities(op, M, rho, sol)
        grad = adj.grad_parameters(grid, face_grads, pullback)
        return value, grad

    return loss_and_grad, dt


# ---------------------------------------------------------------------------
# Transition-matrix fit


def make_pfo_loss(target_matrix: UlamMatrix, velocity,
                  mesh: UnstructuredMesh, pou: PartitionOfUnity,
                  sources: SampleCloud, flow_dt: float, substeps: int = 1):
    """The flow-map Ulam fit's closure. Row i of its matrix averages the
    sources in mesh cell i, so a cell without a source raises ``ValueError``
    naming the cell, source and empty-cell counts.

    The sources stay fixed, so their ``PartitionOfUnity.candidates`` are
    found once here. An image takes its partition neighbours from its
    source's candidates when its k-th nearest candidate plus its step is
    below the source's distance to the first other center, by a relative
    margin, and no two of its k + 1 nearest candidates tie; otherwise from
    the kd-tree. Either way they are the tree's to the bit.
    """
    src = mesh.assign(sources.points)
    empty = mesh.n - np.unique(src).size
    if empty:
        raise ValueError(f"{mesh.n} cells for {sources.n} sources leave "
                         f"{empty} source cells empty; use fewer cells or "
                         "more sources")
    near = pou.candidates(sources.points)

    def loss_and_grad(theta):
        velocity.set_params(theta)
        loss, grad, _ = flowmap_markov_grad(
            velocity, mesh, pou, sources, src, flow_dt, target_matrix,
            substeps, near)
        return loss, grad

    return loss_and_grad


# ---------------------------------------------------------------------------
# Delay-measure fit


def make_delay_loss(observed: Trajectory, model, cfg, loss: str,
                    max_points: int):
    """Prepare clouds from an observed trajectory and return the closure.

    Sample/image pairs come from consecutive trajectory states; the
    observed delay cloud is the sliding-window embedding of the whole
    series. Each is thinned to max_points here, once per fit, and keeps
    its E|Y - Y'| across iterations. Loss "j1" matches the images alone;
    "j2" adds the delay-measure mismatch.
    """
    if loss not in ("j1", "j2"):
        raise ValueError(f"unknown loss {loss!r}; expected 'j1' or 'j2'")
    delay_mod.check_max_points(max_points)
    mu_samples = subsample_stride(SampleCloud(observed.states[:-1]),
                                  max_points)
    images = subsample_stride(SampleCloud(observed.states[1:]), max_points)
    observed_delay = None
    if loss == "j2":
        observed_delay = subsample_stride(
            delay_mod.delay_embed(observed.states, cfg), max_points)

    def loss_and_grad(theta):
        model.set_params(theta)
        value, grad, _ = delay_mod.loss_j2_grad(
            model, mu_samples, images, observed_delay, cfg)
        return value, grad

    return loss_and_grad, mu_samples, images, observed_delay


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
