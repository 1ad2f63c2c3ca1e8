"""Benchmark dynamical systems (maps, ODEs, SDEs) and fixed-step integrators.

All right-hand sides and map steps are vectorized over leading axes: they
accept arrays of shape ``(..., d)`` and return the same shape, so single
states and batches share one code path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

# Any coordinate beyond this magnitude aborts integration instead of letting
# overflow propagate into downstream statistics.
BLOWUP_LIMIT = 1e12


class IntegrationBlowupError(RuntimeError):
    """Trajectory left the numerically safe range."""

    def __init__(self, step: int, magnitude: float):
        super().__init__(
            f"state magnitude {magnitude:.3e} exceeded {BLOWUP_LIMIT:.0e} "
            f"at step {step}" if np.isfinite(magnitude)
            else f"non-finite state at step {step}")
        self.step = step
        self.magnitude = magnitude


class CatalogMissError(KeyError):
    """Requested system name is not in the builtin catalog."""


@dataclass(frozen=True)
class OdeSystem:
    """Continuous-time system dx/dt = rhs(x).

    ``jac_vjp(x, g)`` optionally returns the vector-Jacobian product
    g^T (d rhs / dx), needed when a known field participates in
    reverse-mode flow-map differentiation.
    """

    name: str
    dim: int
    params: dict
    rhs: Callable[[np.ndarray], np.ndarray]
    jac_vjp: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be positive")
        for key, val in self.params.items():
            if not np.isfinite(val):
                raise ValueError(f"parameter {key} is not finite")


@dataclass(frozen=True)
class DiscreteMap:
    """Discrete-time system x_{k+1} = step(x_k) on a declared box domain."""

    name: str
    dim: int
    step: Callable[[np.ndarray], np.ndarray]
    lo: Optional[np.ndarray] = None
    hi: Optional[np.ndarray] = None


@dataclass
class Trajectory:
    """Ordered state samples with their sampling interval (0 for maps)."""

    states: np.ndarray
    dt: float
    seed: Optional[int] = None

    def __post_init__(self):
        self.states = np.atleast_2d(np.asarray(self.states, dtype=float))
        if self.states.shape[0] < 1:
            raise ValueError("trajectory needs at least one state")
        if not np.all(np.isfinite(self.states)):
            raise ValueError("trajectory contains non-finite states")

    def __len__(self):
        return self.states.shape[0]

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    @property
    def times(self) -> np.ndarray:
        return self.dt * np.arange(len(self))


def _check_finite(x: np.ndarray, step: int):
    mag = np.max(np.abs(x))
    if not np.isfinite(mag) or mag > BLOWUP_LIMIT:
        raise IntegrationBlowupError(step, float(mag))


def rk4_step(f, x, h):
    """One classical Runge-Kutta step of size h for dx/dt = f(x)."""
    k1 = f(x)
    k2 = f(x + 0.5 * h * k1)
    k3 = f(x + 0.5 * h * k2)
    k4 = f(x + h * k3)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def integrate_ode(sys: OdeSystem, x0, dt: float, n_steps: int,
                  substeps: int = 1) -> Trajectory:
    """Fixed-step RK4 integration, recording every dt.

    ``substeps`` internal RK4 steps are taken per recorded sample; use ~10
    when the recorded interval is too coarse for direct integration.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    x = np.asarray(x0, dtype=float).copy()
    if x.shape != (sys.dim,):
        raise ValueError(f"x0 must have shape ({sys.dim},)")
    _check_finite(x, 0)
    h = dt / substeps
    states = np.empty((n_steps + 1, sys.dim))
    states[0] = x
    # A blow-up overflows inside the step; _check_finite reports it once.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, n_steps + 1):
            for _ in range(substeps):
                x = rk4_step(sys.rhs, x, h)
            _check_finite(x, k)
            states[k] = x
    return Trajectory(states, dt)


def integrate_sde(sys: OdeSystem, diffusion_d: float, x0, dt: float,
                  n_steps: int, seed: int) -> Trajectory:
    """Euler-Maruyama path of dX = rhs(X) dt + sqrt(2 D) dW.

    The isotropic noise scale sqrt(2 D) makes the associated density
    evolution carry the diffusion term D * Laplacian. D = 0 reduces to the
    deterministic explicit-Euler path.
    """
    if diffusion_d < 0:
        raise ValueError("diffusion must be nonnegative")
    if dt <= 0:
        raise ValueError("dt must be positive")
    rng = np.random.default_rng(seed)
    x = np.asarray(x0, dtype=float).copy()
    _check_finite(x, 0)
    states = np.empty((n_steps + 1, sys.dim))
    states[0] = x
    sigma = np.sqrt(2.0 * diffusion_d * dt)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, n_steps + 1):
            x = x + dt * sys.rhs(x)
            if sigma > 0.0:
                x = x + sigma * rng.standard_normal(sys.dim)
            _check_finite(x, k)
            states[k] = x
    return Trajectory(states, dt, seed=seed)


def iterate_map_batch(map_: DiscreteMap, x0: np.ndarray,
                      n_iters: int) -> np.ndarray:
    """Record x, T(x), ..., T^n(x) of one state (d,) or of a batch (n, d)
    at once; returns an array of shape (n_iters+1,) + x0.shape."""
    x = np.asarray(x0, dtype=float).copy()
    out = np.empty((n_iters + 1,) + x.shape)
    out[0] = x
    for k in range(1, n_iters + 1):
        x = map_.step(x)
        _check_finite(x, k)
        out[k] = x
    return out


# ---------------------------------------------------------------------------
# Builtin catalog


def van_der_pol(c: float = 2.0) -> OdeSystem:
    """Van der Pol oscillator: dx = y, dy = c (1 - x^2) y - x."""

    def rhs(z):
        x, y = z[..., 0], z[..., 1]
        return np.stack([y, c * (1.0 - x**2) * y - x], axis=-1)

    def jac_vjp(z, g):
        x, y = z[..., 0], z[..., 1]
        gx, gy = g[..., 0], g[..., 1]
        # J = [[0, 1], [-2 c x y - 1, c (1 - x^2)]]
        out_x = gy * (-2.0 * c * x * y - 1.0)
        out_y = gx + gy * c * (1.0 - x**2)
        return np.stack([out_x, out_y], axis=-1)

    return OdeSystem("van_der_pol", 2, {"c": c}, rhs, jac_vjp)


def lorenz63(c1: float = 10.0, c2: float = 28.0,
             c3: float = 8.0 / 3.0) -> OdeSystem:
    """Lorenz-63: dx = c1 (y - x), dy = x (c2 - z) - y, dz = x y - c3 z."""

    def rhs(s):
        x, y, z = s[..., 0], s[..., 1], s[..., 2]
        return np.stack(
            [c1 * (y - x), x * (c2 - z) - y, x * y - c3 * z], axis=-1)

    def jac_vjp(s, g):
        x, y, z = s[..., 0], s[..., 1], s[..., 2]
        g1, g2, g3 = g[..., 0], g[..., 1], g[..., 2]
        out_x = -c1 * g1 + (c2 - z) * g2 + y * g3
        out_y = c1 * g1 - g2 + x * g3
        out_z = -x * g2 - c3 * g3
        return np.stack([out_x, out_y, out_z], axis=-1)

    return OdeSystem("lorenz63", 3, {"c1": c1, "c2": c2, "c3": c3}, rhs,
                     jac_vjp)


def lorenz96(dim: int = 30, forcing: float = 8.0) -> OdeSystem:
    """Cyclic Lorenz-96: dx_i = (x_{i+1} - x_{i-2}) x_{i-1} - x_i + forcing."""
    if dim < 4:
        raise ValueError("lorenz96 needs dim >= 4")

    def rhs(x):
        xp1 = np.roll(x, -1, axis=-1)
        xm2 = np.roll(x, 2, axis=-1)
        xm1 = np.roll(x, 1, axis=-1)
        return (xp1 - xm2) * xm1 - x + forcing

    def jac_vjp(x, g):
        xp1 = np.roll(x, -1, axis=-1)
        xm1 = np.roll(x, 1, axis=-1)
        xp2 = np.roll(x, -2, axis=-1)
        xm2 = np.roll(x, 2, axis=-1)
        gp1 = np.roll(g, -1, axis=-1)
        gp2 = np.roll(g, -2, axis=-1)
        gm1 = np.roll(g, 1, axis=-1)
        return gm1 * xm2 + gp1 * (xp2 - xm1) - gp2 * xp1 - g

    return OdeSystem("lorenz96", dim, {"forcing": forcing}, rhs, jac_vjp)


def arnold_cat() -> DiscreteMap:
    """Arnold cat map (2x + y, x + y) mod 1 on the unit square."""

    def step(z):
        x, y = z[..., 0], z[..., 1]
        return np.stack([(2.0 * x + y) % 1.0, (x + y) % 1.0], axis=-1)

    return DiscreteMap("cat_arnold", 2, step,
                       lo=np.zeros(2), hi=np.ones(2))


def modified_cat(exponent: float = 10.0) -> DiscreteMap:
    """Cat map conjugated by x -> x^(1/exponent) in the first coordinate.

    The conjugation pushes the cat map's uniform invariant measure to the
    density exponent * x^(exponent - 1) in x (uniform in y), concentrating
    mass near x = 1.
    """
    cat = arnold_cat()
    inv = 1.0 / exponent

    def step(z):
        u = z.copy()
        u[..., 0] = np.clip(u[..., 0], 0.0, 1.0) ** exponent
        u = cat.step(u)
        u[..., 0] = u[..., 0] ** inv
        return u

    return DiscreteMap("cat_modified", 2, step,
                       lo=np.zeros(2), hi=np.ones(2))


def torus_rotation(alpha: float = 0.3, beta: float = 0.2) -> DiscreteMap:
    """Rigid rotation (z1 + alpha, z2 + beta) mod 1 of the 2-torus."""
    shift = np.array([alpha, beta])

    def step(z):
        return (z + shift) % 1.0

    return DiscreteMap("torus_rotation", 2, step,
                       lo=np.zeros(2), hi=np.ones(2))


_CATALOG = {
    "van_der_pol": van_der_pol,
    "lorenz63": lorenz63,
    "lorenz96": lorenz96,
    "cat_arnold": arnold_cat,
    "cat_modified": modified_cat,
    "torus_rotation": torus_rotation,
}


def builtin_systems() -> dict:
    """Name -> factory mapping for every builtin system."""
    return dict(_CATALOG)


def make_system(name: str, **params):
    """Instantiate a builtin system by name, forwarding keyword parameters."""
    try:
        factory = _CATALOG[name]
    except KeyError:
        known = ", ".join(sorted(_CATALOG))
        raise CatalogMissError(f"unknown system {name!r}; known: {known}")
    return factory(**params)
