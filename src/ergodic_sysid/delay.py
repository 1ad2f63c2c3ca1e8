"""Time-delay coordinates and delay-measure matching losses.

The delay map sends a state x to (y(x), y(T x), ..., y(T^{m-1} x)) for a
scalar observable y; pushing invariant-measure samples through it yields
the delay-coordinate invariant measure, which can separate systems whose
state-coordinate statistics coincide. ``loss_j2_grad`` compares a candidate
map against observed flow data in two modes: the state-space image mismatch
alone (loss j1), and that mismatch plus the delay-measure mismatch (loss
j2). It builds the iterate chain x, T x, ..., T^((m-1) lag) x once, keeping
the model's pullback of every step, and reverses through those pullbacks:
the image term seeds the first, the delay term the whole chain.

Nothing here thins a cloud: the caller hands over clouds of at most
MMD_MAX_POINTS points, and the observed clouds keep their E|Y - Y'| across
calls (``SampleCloud.self_distance``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .measure import SampleCloud, energy_mmd_grad_x
from .systems import DiscreteMap, iterate_map_batch

# Largest cloud the O(n^2) energy-distance sums take; a fit asking for more
# points is rejected, not thinned behind its back.
MMD_MAX_POINTS = 4000


def check_max_points(max_points: int):
    """Reject a cloud size the energy-distance sums cannot take."""
    if not 1 <= max_points <= MMD_MAX_POINTS:
        raise ValueError(f"{max_points} is not in 1..{MMD_MAX_POINTS}")


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
            raise ValueError(
                f"m must be >= 1 (the embedding dimension), got {self.m}")
        if self.lag < 1:
            raise ValueError(f"lag must be >= 1, got {self.lag}")

    def observe(self, states: np.ndarray) -> np.ndarray:
        if callable(self.observable):
            return np.asarray(self.observable(states), dtype=float)
        return states[..., int(self.observable)]


def delay_embed(states: np.ndarray, cfg: DelayMapConfig) -> SampleCloud:
    """Sliding delay vectors of the observable series of the (N, d)
    trajectory states, one per start index."""
    series = cfg.observe(states)
    n_out = series.size - (cfg.m - 1) * cfg.lag
    if n_out < 1:
        raise ValueError(
            f"trajectory of length {series.size} is too short for "
            f"m={cfg.m}, lag={cfg.lag}")
    cols = [series[k * cfg.lag:k * cfg.lag + n_out] for k in range(cfg.m)]
    return SampleCloud(np.stack(cols, axis=1))


def _linearized_chain(model, x: np.ndarray, n_steps: int):
    """The iterate chain of a model and the pullback of each of its steps:
    pullbacks[k] reverses the step from chain[k] to chain[k + 1]."""
    pullbacks = []

    def step(z):
        value, pullback = model.linearize(z)
        pullbacks.append(pullback)
        return value

    return iterate_map_batch(DiscreteMap("model", x.shape[1], step), x,
                             n_steps), pullbacks


def _delay_coords(chain: np.ndarray, cfg: DelayMapConfig) -> np.ndarray:
    """Observable at every lag-th iterate of a chain: the delay vectors."""
    return np.stack([cfg.observe(chain[k * cfg.lag]) for k in range(cfg.m)],
                    axis=1)


def pushforward_delay_measure(samples: SampleCloud, system: DiscreteMap,
                              cfg: DelayMapConfig) -> SampleCloud:
    """Apply the delay map pointwise to invariant-measure samples.

    Iterates the map lag steps per delay slot, recording the observable at
    each slot; for the true map this reproduces delay_embed of a trajectory
    exactly.
    """
    chain = iterate_map_batch(system, samples.points, (cfg.m - 1) * cfg.lag)
    return SampleCloud(_delay_coords(chain, cfg))


def _delay_pushforward_grad(pullbacks: list, cfg: DelayMapConfig,
                            gbar: np.ndarray, carry: np.ndarray):
    """Reverse pass of the delay map through the step pullbacks of the
    forward pass: ``gbar[:, k]`` seeds the observable at delay slot k, and
    ``carry``, zero and shaped like one iterate, takes the seeds."""
    if callable(cfg.observable):
        raise ValueError("gradients need a coordinate-index observable")
    obs = int(cfg.observable)
    theta_grad = 0.0
    for step in range((cfg.m - 1) * cfg.lag, 0, -1):
        if step % cfg.lag == 0:
            carry[:, obs] += gbar[:, step // cfg.lag]
        tg, carry = pullbacks[step - 1](carry)
        theta_grad += tg
    return theta_grad


def loss_j2_grad(model, mu_samples: SampleCloud,
                 t_star_images: SampleCloud,
                 observed_delay: Optional[SampleCloud],
                 cfg: Optional[DelayMapConfig]):
    """Loss value and parameter gradient for the map-matching losses.

    Without an observed delay cloud this is the image-only loss j1; with
    one, the delay term is added (j2). Returns (loss, theta_grad, parts)
    with the two contributions reported separately in parts.
    """
    if observed_delay is not None and observed_delay.dim != cfg.m:
        raise ValueError("observed delay cloud dimension mismatch")
    n_steps = 1 if observed_delay is None else max((cfg.m - 1) * cfg.lag, 1)
    chain, pullbacks = _linearized_chain(model, mu_samples.points, n_steps)
    j1, gimg = energy_mmd_grad_x(chain[1], t_star_images.points,
                                 t_star_images.self_distance)
    theta_grad, _ = pullbacks[0](gimg)
    if observed_delay is None:
        return j1, theta_grad, {"state": j1, "delay": 0.0}
    j_delay, gdel = energy_mmd_grad_x(_delay_coords(chain, cfg),
                                      observed_delay.points,
                                      observed_delay.self_distance)
    theta_grad = theta_grad + _delay_pushforward_grad(
        pullbacks, cfg, gdel, np.zeros_like(chain[0]))
    return j1 + j_delay, theta_grad, {"state": j1, "delay": j_delay}
