"""Benchmark dynamical systems (maps, ODEs, SDEs) and fixed-step integrators.

All right-hand sides and map steps are vectorized over leading axes: they
accept arrays of shape ``(..., d)`` and return a new array of the same
shape, so single states and batches share one code path. The catalog ODEs
write each field once, component by component (``OdeSystem.field``), and
``_stacked`` gives its array form; ``lorenz96``, whose dimension is a
parameter, keeps its ``np.roll`` array form and generates its field once
per dimension. ``integrate_ode`` steps its one state on Python floats
through the field: on two or three components numpy's per-operation
dispatch costs more than the arithmetic. Its loop is Python
source generated once per state dimension (``_rk4_loop``), the way
``dataclasses`` builds ``__init__``, with one local name per component:
on Python 3.11 the list comprehensions, ``zip`` and lists of a loop
written for any dimension cost more than the field calls themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Callable, Optional

import numpy as np

# Any coordinate beyond this magnitude aborts integration instead of letting
# overflow propagate into downstream statistics.
BLOWUP_LIMIT = 1e12

# Euler-Maruyama draws its Brownian increments this many steps at a time. A
# Generator fills a block in the same order as one draw per step, so the
# path does not depend on the block size; memory stays O(block).
NOISE_BLOCK = 4096


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
    g^T (d rhs / dx). Nothing calls it yet: ``flow_rk4_vjp`` cannot pull
    back an ``OdeSystem``. It is checked against finite differences and
    kept as the input pullback of the planned ``CatalogModel``, whose
    parameters are a catalog system's own (ROADMAP item 3).

    ``field(x1, ..., xd)`` optionally gives the same right-hand side one
    component at a time and returns its d components as a tuple. It must
    do the arithmetic of ``rhs`` operation for operation, so that on Python
    floats it gives ``rhs``'s values bit for bit; ``integrate_ode`` steps
    it in place of ``rhs``. Write a square as ``x * x``, never ``x**2``: on
    a Python float ``**`` calls libm ``pow``, whose rounding may differ
    from numpy's, and it raises ``OverflowError`` where a product gives
    ``inf``. An overflowing product thus yields ``inf`` or ``nan``, which
    the integrator's finiteness check reports as a blow-up.
    """

    name: str
    dim: int
    params: dict
    rhs: Callable[[np.ndarray], np.ndarray]
    jac_vjp: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    field: Optional[Callable[..., tuple]] = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be positive")
        for key, val in self.params.items():
            if not np.isfinite(val):
                raise ValueError(f"parameter {key} is not finite")

    def linearize(self, x):
        """``rhs(x)`` and a None pullback: no parameters to differentiate."""
        return self.rhs(x), None


@dataclass(frozen=True)
class DiscreteMap:
    """Discrete-time system x_{k+1} = step(x_k)."""

    name: str
    dim: int
    step: Callable[[np.ndarray], np.ndarray]


@dataclass
class Trajectory:
    """Ordered state samples with their sampling interval (0 for maps)."""

    states: np.ndarray
    dt: float

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
    # One dispatch passes every state inside the limit: the largest square
    # cannot exceed the sum of squares. NaN, inf and overflow fail the
    # comparison and fall through to the exact check.
    if np.vdot(x, x) <= BLOWUP_LIMIT**2:
        return
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


_RK4_LOOP = """\
def loop(f, x, states, h, n_steps, substeps):
    hh, h6 = 0.5 * h, h / 6.0
    limit = BLOWUP_LIMIT
    {x}, = x
    for k in range(1, n_steps + 1):
        for _ in range(substeps):
            {k1}, = f({x})
            {k2}, = f({x_k1})
            {k3}, = f({x_k2})
            {k4}, = f({x_k3})
{update}
        states[k] = {x},
        if not ({bounded}):
            _check_finite(states[k], k)
"""


@cache
def _rk4_loop(dim: int):
    """The RK4 loop of ``integrate_ode`` for states of ``dim`` components,
    compiled from ``_RK4_LOOP`` with one local name per component.

    ``loop(f, x, states, h, n_steps, substeps)`` steps the float list x
    and writes the state after every ``substeps`` steps to ``states[k]``.
    Each operation is that of ``rk4_step``, in its order. A recorded state
    whose every component passes ``abs(xi) <= BLOWUP_LIMIT`` is in range;
    one that fails it (NaN fails every comparison) goes to
    ``_check_finite``, which raises the blow-up error for that step.
    """
    x, k1, k2, k3, k4 = ([f"{p}{i}" for i in range(dim)] for p in "xabcd")
    join = ", ".join
    source = _RK4_LOOP.format(
        x=join(x), k1=join(k1), k2=join(k2), k3=join(k3), k4=join(k4),
        x_k1=join(f"{a} + hh * {b}" for a, b in zip(x, k1)),
        x_k2=join(f"{a} + hh * {b}" for a, b in zip(x, k2)),
        x_k3=join(f"{a} + h * {b}" for a, b in zip(x, k3)),
        update="\n".join(
            f"            {a} = {a} + h6 * ({b1} + 2.0 * {b2} + 2.0 * {b3}"
            f" + {b4})" for a, b1, b2, b3, b4 in zip(x, k1, k2, k3, k4)),
        bounded=" and ".join(f"abs({a}) <= limit" for a in x))
    return _compiled(source, f"<rk4 loop, dim {dim}>")["loop"]


def _compiled(source: str, filename: str) -> dict:
    """The names that the generated Python ``source`` defines."""
    namespace = {}
    exec(compile(source, filename, "exec"), globals(), namespace)
    return namespace


def integrate_ode(sys: OdeSystem, x0, dt: float, n_steps: int,
                  substeps: int = 1) -> Trajectory:
    """Fixed-step RK4 integration, recording every dt.

    ``substeps`` internal RK4 steps are taken per recorded sample; use ~10
    when the recorded interval is too coarse for direct integration.

    The state is stepped as Python floats through ``sys.field``, or
    through ``sys.rhs`` on a rebuilt array when the system has no field,
    by the loop ``_rk4_loop`` compiles for ``sys.dim``: one local name per
    component, the four stages and the update written out. Each operation
    is that of ``rk4_step``, in its order, so the trajectory is the one
    ``rk4_step`` gives on arrays.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    if substeps < 1:
        raise ValueError(f"substeps must be at least 1, got {substeps}")
    x = np.asarray(x0, dtype=float).copy()
    if x.shape != (sys.dim,):
        raise ValueError(f"x0 must have shape ({sys.dim},)")
    _check_finite(x, 0)
    f = sys.field or (lambda *c: sys.rhs(np.array(c)).tolist())
    states = np.empty((n_steps + 1, sys.dim))
    states[0] = x
    # A blow-up overflows inside the step; _check_finite reports it once.
    with np.errstate(over="ignore", invalid="ignore"):
        _rk4_loop(sys.dim)(f, x.tolist(), states, dt / substeps, n_steps,
                           substeps)
    return Trajectory(states, dt)


def integrate_sde(sys: OdeSystem, diffusion_d: float, x0, dt: float,
                  n_steps: int, seed: int) -> np.ndarray:
    """Euler-Maruyama path of dX = rhs(X) dt + sqrt(2 D) dW from one state
    (d,), or K independent paths stepped as one batch from states (K, d);
    returns an array of shape (n_steps+1,) + x0.shape.

    The isotropic noise scale sqrt(2 D) makes the associated density
    evolution carry the diffusion term D * Laplacian. D = 0 reduces to the
    deterministic explicit-Euler path. Each step's increments fill one
    x0-shaped draw, so the paths of a batch are independent and a (d,)
    start draws exactly what a (1, d) start does.
    """
    if diffusion_d < 0:
        raise ValueError("diffusion must be nonnegative")
    if dt <= 0:
        raise ValueError("dt must be positive")
    rng = np.random.default_rng(seed)
    x = np.asarray(x0, dtype=float).copy()
    if x.ndim not in (1, 2) or x.shape[-1] != sys.dim:
        raise ValueError(f"x0 must have shape ({sys.dim},) or (K, {sys.dim})")
    _check_finite(x, 0)
    states = np.empty((n_steps + 1,) + x.shape)
    states[0] = x
    sigma = np.sqrt(2.0 * diffusion_d * dt)
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(1, n_steps + 1, NOISE_BLOCK):
            stop = min(start + NOISE_BLOCK, n_steps + 1)
            if sigma > 0.0:
                noise = sigma * rng.standard_normal((stop - start,) + x.shape)
            for k in range(start, stop):
                x = x + dt * sys.rhs(x)
                if sigma > 0.0:
                    x = x + noise[k - start]
                _check_finite(x, k)
                states[k] = x
    return states


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


def _stacked(fn):
    """Array form of a component-wise function: each (..., d) argument is
    passed as its d components, and the returned components are written
    into one new array shaped like the first argument."""

    def stacked(*arrays):
        out = np.empty(arrays[0].shape)
        parts = fn(*(a[..., i] for a in arrays for i in range(a.shape[-1])))
        for i, part in enumerate(parts):
            out[..., i] = part
        return out

    return stacked


def van_der_pol(c: float = 2.0) -> OdeSystem:
    """Van der Pol oscillator: dx = y, dy = c (1 - x^2) y - x."""

    def field(x, y):
        return y, c * (1.0 - x * x) * y - x

    def vjp(x, y, gx, gy):
        # J = [[0, 1], [-2 c x y - 1, c (1 - x^2)]]
        return gy * (-2.0 * c * x * y - 1.0), gx + gy * c * (1.0 - x * x)

    return OdeSystem("van_der_pol", 2, {"c": c}, _stacked(field),
                     _stacked(vjp), field)


def lorenz63(c1: float = 10.0, c2: float = 28.0,
             c3: float = 8.0 / 3.0) -> OdeSystem:
    """Lorenz-63: dx = c1 (y - x), dy = x (c2 - z) - y, dz = x y - c3 z."""

    def field(x, y, z):
        return c1 * (y - x), x * (c2 - z) - y, x * y - c3 * z

    def vjp(x, y, z, g1, g2, g3):
        return (-c1 * g1 + (c2 - z) * g2 + y * g3, c1 * g1 - g2 + x * g3,
                -x * g2 - c3 * g3)

    return OdeSystem("lorenz63", 3, {"c1": c1, "c2": c2, "c3": c3},
                     _stacked(field), _stacked(vjp), field)


_LORENZ96_FIELD = """\
def make(forcing):
    def field({x}):
        return {parts},
    return field
"""


@cache
def _lorenz96_field(dim: int):
    """``make(forcing)``, which returns the Lorenz-96 ``field`` of ``dim``
    components, compiled from ``_LORENZ96_FIELD`` once per dimension: one
    expression per component, indices mod dim, in ``rhs``'s operation
    order."""
    source = _LORENZ96_FIELD.format(
        x=", ".join(f"x{i}" for i in range(dim)),
        parts=", ".join(
            f"(x{(i + 1) % dim} - x{(i - 2) % dim}) * x{(i - 1) % dim}"
            f" - x{i} + forcing" for i in range(dim)))
    return _compiled(source, f"<lorenz96 field, dim {dim}>")["make"]


def lorenz96(dim: int = 30, forcing: float = 8.0) -> OdeSystem:
    """Cyclic Lorenz-96: dx_i = (x_{i+1} - x_{i-2}) x_{i-1} - x_i + forcing."""
    if not float(dim).is_integer():
        raise ValueError(f"lorenz96 dim must be a whole number, got {dim}")
    dim = int(dim)
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

    return OdeSystem("lorenz96", dim, {"forcing": forcing}, rhs, jac_vjp,
                     _lorenz96_field(dim)(forcing))


def arnold_cat() -> DiscreteMap:
    """Arnold cat map (2x + y, x + y) mod 1 on the unit square."""

    def step(z):
        x, y = z[..., 0], z[..., 1]
        out = np.empty(z.shape)
        out[..., 0] = (2.0 * x + y) % 1.0
        out[..., 1] = (x + y) % 1.0
        return out

    return DiscreteMap("cat_arnold", 2, step)


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

    return DiscreteMap("cat_modified", 2, step)


def torus_rotation(alpha: float = 0.3, beta: float = 0.2) -> DiscreteMap:
    """Rigid rotation (z1 + alpha, z2 + beta) mod 1 of the 2-torus."""
    shift = np.array([alpha, beta])

    def step(z):
        return (z + shift) % 1.0

    return DiscreteMap("torus_rotation", 2, step)


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
