"""Time-delay coordinates and delay-measure matching losses.

The delay map sends a state x to (y(x), y(T x), ..., y(T^{m-1} x)) for a
scalar observable y; pushing invariant-measure samples through it yields
the delay-coordinate invariant measure, which can separate systems whose
state-coordinate statistics coincide. Two losses compare a candidate map
against observed flow data: the state-space image mismatch alone, and that
mismatch plus the delay-measure mismatch. The gradient builds the iterate
chain x, T x, ..., T^((m-1) lag) x once, keeping the model's pullback of
every step, and reverses through those pullbacks: the image term seeds the
first, the delay term the whole chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .measure import SampleCloud, energy_mmd, energy_mmd_grad_x, \
    subsample_stride
from .systems import DiscreteMap, Trajectory, _check_finite

MMD_MAX_POINTS = 4000


@dataclass(frozen=True)
class DelayMapConfig:
    """Observable, embedding dimension, and lag of a delay map.

    The observable is a coordinate index (gradient-capable) or an arbitrary
    callable mapping state batches (n, d) to scalars (n,).
    """

    observable: Union[int, Callable] = 0
    m: int = 3
    lag: int = 1

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("embedding dimension m must be >= 1")
        if self.lag < 1:
            raise ValueError("lag must be >= 1")

    def observe(self, states: np.ndarray) -> np.ndarray:
        if callable(self.observable):
            return np.asarray(self.observable(states), dtype=float)
        return states[..., int(self.observable)]


def _apply_map(model, x: np.ndarray) -> np.ndarray:
    if isinstance(model, DiscreteMap):
        return model.step(x)
    if hasattr(model, "eval_batch"):
        return model.eval_batch(x)
    return model(x)


def delay_embed(traj: Trajectory, cfg: DelayMapConfig) -> SampleCloud:
    """Sliding delay vectors of the observable series, one per start index."""
    series = cfg.observe(traj.states if isinstance(traj, Trajectory)
                         else np.atleast_2d(np.asarray(traj, float)))
    n_out = series.size - (cfg.m - 1) * cfg.lag
    if n_out < 1:
        raise ValueError(
            f"trajectory of length {series.size} is too short for "
            f"m={cfg.m}, lag={cfg.lag}")
    cols = [series[k * cfg.lag:k * cfg.lag + n_out] for k in range(cfg.m)]
    return SampleCloud(np.stack(cols, axis=1))


def _map_chain(step, x: np.ndarray, n_steps: int) -> list:
    """Iterates [x, T x, ..., T^n_steps x] of the map ``step``, each
    checked for blow-up."""
    chain = [x]
    for k in range(n_steps):
        chain.append(step(chain[-1]))
        _check_finite(chain[-1], k + 1)
    return chain


def _linearized_chain(model, x: np.ndarray, n_steps: int):
    """The iterate chain of a model and the pullback of each of its steps:
    pullbacks[k] reverses the step from chain[k] to chain[k + 1]."""
    pullbacks = []

    def step(z):
        value, pullback = model.linearize(z)
        pullbacks.append(pullback)
        return value

    return _map_chain(step, x, n_steps), pullbacks


def _delay_coords(chain: list, cfg: DelayMapConfig) -> np.ndarray:
    """Observable at every lag-th iterate of a chain: the delay vectors."""
    out = np.empty((chain[0].shape[0], cfg.m))
    for k in range(cfg.m):
        out[:, k] = cfg.observe(chain[k * cfg.lag])
    return out


def pushforward_delay_measure(samples: SampleCloud, model,
                              cfg: DelayMapConfig) -> SampleCloud:
    """Apply the delay map pointwise to invariant-measure samples.

    Iterates the map lag steps per delay slot, recording the observable at
    each slot; for the true map this reproduces delay_embed of a trajectory
    exactly.
    """
    x = samples.points if isinstance(samples, SampleCloud) \
        else np.atleast_2d(np.asarray(samples, float))
    chain = _map_chain(lambda z: _apply_map(model, z), x,
                       (cfg.m - 1) * cfg.lag)
    return SampleCloud(_delay_coords(chain, cfg))


def _prep(cloud: SampleCloud) -> SampleCloud:
    return subsample_stride(cloud, MMD_MAX_POINTS)


def loss_j1(model, mu_samples: SampleCloud,
            t_star_images: SampleCloud) -> float:
    """Energy MMD between the model images of the samples and the observed
    images."""
    mu = _prep(mu_samples)
    obs = _prep(t_star_images)
    if mu.dim != obs.dim:
        raise ValueError("sample and image clouds have different dimensions")
    images = SampleCloud(_apply_map(model, mu.points))
    return energy_mmd(images, obs)


def loss_j2(model, mu_samples: SampleCloud, t_star_images: SampleCloud,
            observed_delay: SampleCloud, cfg: DelayMapConfig) -> float:
    """Image mismatch plus delay-measure mismatch."""
    if observed_delay.dim != cfg.m:
        raise ValueError(
            f"observed delay cloud has dimension {observed_delay.dim}, "
            f"config says m={cfg.m}")
    j1 = loss_j1(model, mu_samples, t_star_images)
    mu = _prep(mu_samples)
    model_delay = pushforward_delay_measure(mu, model, cfg)
    return j1 + energy_mmd(model_delay, _prep(observed_delay))


def _delay_pushforward_grad(model, chain: list, pullbacks: list,
                            cfg: DelayMapConfig,
                            gbar: np.ndarray) -> np.ndarray:
    """Reverse pass of the delay map through the step pullbacks of the
    forward pass."""
    if callable(cfg.observable):
        raise ValueError("gradients need a coordinate-index observable")
    obs = int(cfg.observable)
    theta_grad = np.zeros(model.n_params)
    carry = np.zeros_like(chain[0])
    for step in range((cfg.m - 1) * cfg.lag, 0, -1):
        if step % cfg.lag == 0:
            carry[:, obs] += gbar[:, step // cfg.lag]
        tg, carry = pullbacks[step - 1](carry, need_x=True)
        theta_grad += tg
    return theta_grad


def loss_j2_grad(model, mu_samples: SampleCloud,
                 t_star_images: SampleCloud,
                 observed_delay: Optional[SampleCloud],
                 cfg: Optional[DelayMapConfig],
                 include_delay: bool = True):
    """Loss value and parameter gradient for the map-matching losses.

    include_delay=False gives the image-only loss; otherwise the delay term
    is added. Returns (loss, theta_grad, parts) with the two contributions
    reported separately in parts.
    """
    if include_delay:
        if observed_delay is None or cfg is None:
            raise ValueError("delay term requires observed_delay and cfg")
        if observed_delay.dim != cfg.m:
            raise ValueError("observed delay cloud dimension mismatch")
    mu = _prep(mu_samples)
    obs = _prep(t_star_images)
    x = mu.points
    delay_steps = (cfg.m - 1) * cfg.lag if include_delay else 0
    chain, pullbacks = _linearized_chain(model, x, max(delay_steps, 1))
    j1, gimg = energy_mmd_grad_x(chain[1], obs.points)
    theta_grad, _ = pullbacks[0](gimg)
    parts = {"state": j1, "delay": 0.0}
    total = j1
    if include_delay:
        obs_delay = _prep(observed_delay)
        j_delay, gdel = energy_mmd_grad_x(_delay_coords(chain, cfg),
                                          obs_delay.points)
        theta_grad = theta_grad + _delay_pushforward_grad(
            model, chain, pullbacks, cfg, gdel)
        parts["delay"] = j_delay
        total = j1 + j_delay
    return total, theta_grad, parts


def verify_conjugacy_diagnostics(model_t, model_s, mu_samples: SampleCloud,
                                 cfg: DelayMapConfig) -> dict:
    """Two indicators of whether maps T and S share delay statistics.

    (a) the energy MMD between their (m+1)-dimensional delay-coordinate
    pushforward measures, and (b) the maximum pointwise deviation
    max |T(x) - S(x)| over the samples. Matching delay measures with a
    nonzero pointwise gap is the signature of conjugate-but-distinct maps.
    """
    mu = _prep(mu_samples)
    cfg_up = DelayMapConfig(cfg.observable, cfg.m + 1, cfg.lag)
    cloud_t = pushforward_delay_measure(mu, model_t, cfg_up)
    cloud_s = pushforward_delay_measure(mu, model_s, cfg_up)
    delay_mmd = energy_mmd(cloud_t, cloud_s)
    dev = np.linalg.norm(
        _apply_map(model_t, mu.points) - _apply_map(model_s, mu.points),
        axis=1)
    return {
        "delay_mmd": float(delay_mmd),
        "max_pointwise_deviation": float(dev.max()),
        "embedding_dimension": cfg_up.m,
        "n_samples": mu.n,
    }
