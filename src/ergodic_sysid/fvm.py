"""Upwind finite-volume surrogate for the stationary density of
advection-diffusion transport.

``assemble_K`` discretizes d(rho)/dt = -div(rho v) + D lap(rho) on a box
grid with first-order upwind fluxes, central diffusion, and zero-flux walls
(velocity and diffusion vanish on boundary faces). The explicit update
matrix I + K is column-stochastic under the CFL bound, so densities evolve
as a Markov chain and the stationary density is its fixed point, made
unique by teleportation blending with the uniform restart matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .measure import Grid, Measure
from .velocity_models import evaluate_velocity

COLSUM_TOL = 1e-12
NEG_TOL = 1e-14


class DegenerateDynamicsError(ValueError):
    """Zero velocity and zero diffusion admit no finite CFL bound."""


class AssemblyError(RuntimeError):
    """The explicit update matrix picked up a negative entry."""

    def __init__(self, cell: int, multi, value: float):
        super().__init__(
            f"I+K has negative entry {value:.3e} at cell {cell} "
            f"(multi-index {tuple(multi)}); time step violates the CFL bound")
        self.cell = cell


class NonConvergenceError(RuntimeError):
    def __init__(self, residual: float, iters: int):
        super().__init__(
            f"stationary solve stalled at residual {residual:.3e} "
            f"after {iters} iterations")
        self.residual = residual


def cfl_dt(grid: Grid, D: float, v_inf: float, safety: float = 0.9) -> float:
    """Time step safety * dx^2 / (2 d (D + dx |v|_inf)) with dx = min spacing.

    Keeps every entry of I + K nonnegative, hence the chain Markov.
    """
    if D < 0 or v_inf < 0:
        raise ValueError("D and v_inf must be nonnegative")
    if not 0 < safety <= 1:
        raise ValueError("safety must lie in (0, 1]")
    if D == 0 and v_inf == 0:
        raise DegenerateDynamicsError(
            "both diffusion and velocity are zero; any dt is stationary")
    dx = float(np.min(grid.spacings))
    bound = dx**2 / (2.0 * grid.dim * (D + dx * v_inf))
    return safety * bound


def frozen_dt(grid: Grid, velocity, D: float) -> float:
    """Half the CFL bound at the field's sup norm over the grid (its face
    values when the model has them, else its values at the cell centers).

    The teleported fixed point depends on dt, so a fit freezes this step
    from the initial field and keeps it for every iteration.
    """
    if hasattr(velocity, "face_arrays"):
        v_inf = max(float(np.abs(a).max()) for a in velocity.face_arrays())
    else:
        v_inf = float(np.abs(evaluate_velocity(velocity,
                                               grid.centers())).max())
    return cfl_dt(grid, D, max(v_inf, 1e-9)) * 0.5


@dataclass
class FvmOperator:
    """Assembled transport generator K with its grid and face data.

    ``face_velocities[i]`` holds the lower-face normal velocity of every
    cell along dimension i (flat order, zero on boundary faces); the upper
    face of a cell is the lower face of its axis-i successor.
    """

    grid: Grid
    K: sp.csr_matrix
    dt: float
    D: float
    face_velocities: list

    @property
    def n_cells(self) -> int:
        return self.grid.n_cells


def assemble_K(grid: Grid, velocity, D: float, dt: float) -> FvmOperator:
    """Build K = sum_i (dt/dx_i) K_i with upwind advection and central
    diffusion, validating column sums and CFL nonnegativity.

    ``velocity`` is a field evaluated at face centers, or an object with
    ``face_arrays()`` supplying the face values directly.
    """
    if D < 0:
        raise ValueError("D must be nonnegative")
    if dt <= 0:
        raise ValueError("dt must be positive")
    n = grid.n_cells
    multi = grid.flat_to_multi(np.arange(n))
    strides = grid.strides

    if hasattr(velocity, "face_arrays"):
        if not velocity.grid.matches(grid):
            raise ValueError("face-value model bound to a different grid")
        face_v = [arr.astype(float).copy() for arr in velocity.face_arrays()]
    else:
        face_v = [evaluate_velocity(velocity, grid.face_centers(i))[:, i]
                  .copy() for i in range(grid.dim)]

    diag = np.zeros(n)
    rows, cols, data = [], [], []
    for i in range(grid.dim):
        dx = grid.spacings[i]
        scale = dt / dx
        has_lower = multi[:, i] > 0
        has_upper = multi[:, i] < grid.n_per_dim[i] - 1
        v = face_v[i]
        v[~has_lower] = 0.0  # zero-flux wall
        w = np.zeros(n)
        up_idx = np.flatnonzero(has_upper)
        w[up_idx] = v[up_idx + strides[i]]
        d_low = np.where(has_lower, D, 0.0)
        d_up = np.where(has_upper, D, 0.0)
        diag += scale * (np.minimum(v, 0.0) - np.maximum(w, 0.0)
                         - (d_low + d_up) / dx)
        # inflow from below: entry (j, j - S_i)
        rows.append(up_idx + strides[i])
        cols.append(up_idx)
        data.append(scale * (np.maximum(w, 0.0) + d_up / dx)[up_idx])
        # inflow from above: entry (j - S_i, j)
        low_idx = np.flatnonzero(has_lower)
        rows.append(low_idx - strides[i])
        cols.append(low_idx)
        data.append(scale * (-np.minimum(v, 0.0) + d_low / dx)[low_idx])

    rows.append(np.arange(n))
    cols.append(np.arange(n))
    data.append(diag)
    K = sp.coo_matrix(
        (np.concatenate(data),
         (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n)).tocsr()

    colsums = np.abs(np.asarray(K.sum(axis=0)).ravel())
    if colsums.max() > COLSUM_TOL:
        raise AssemblyError(int(colsums.argmax()),
                            multi[colsums.argmax()], float(colsums.max()))
    worst = float(1.0 + diag.min())
    if worst < -NEG_TOL:
        j = int(diag.argmin())
        raise AssemblyError(j, multi[j], worst)
    return FvmOperator(grid, K, dt, D, face_v)


class RegularizedMarkov:
    """Teleported update matrix (1-eps)(I+K) + eps U, U = ones/N.

    Stored matrix-free as the sparse I+K plus the rank-one uniform term;
    one application costs a sparse multiply plus a mean.
    """

    def __init__(self, M: sp.csr_matrix, eps: float, grid: Optional[Grid]):
        if not 0.0 <= eps <= 1.0:
            raise ValueError("eps must lie in [0, 1]")
        self.M = M
        self.eps = eps
        self.grid = grid
        self.n = M.shape[0]
        self._MT = None
        self._lu = None

    def apply(self, x: np.ndarray) -> np.ndarray:
        return (1.0 - self.eps) * (self.M @ x) + self.eps * (x.sum() / self.n)

    def apply_transpose(self, y: np.ndarray) -> np.ndarray:
        if self._MT is None:
            self._MT = self.M.T.tocsr()
        return (1.0 - self.eps) * (self._MT @ y) \
            + self.eps * (y.sum() / self.n)

    def lu(self):
        """Sparse LU of B = I - (1-eps) M, shared by the direct stationary
        and adjoint solves. Requires eps > 0 for B to be nonsingular."""
        if self.eps <= 0.0:
            raise ValueError("direct factorization requires eps > 0")
        if self._lu is None:
            B = (sp.identity(self.n, format="csc")
                 - (1.0 - self.eps) * self.M.tocsc())
            self._lu = splu(B.tocsc())
        return self._lu


def teleport(op: FvmOperator, eps: float) -> RegularizedMarkov:
    """Blend the explicit update I+K with the uniform restart matrix."""
    M = (sp.identity(op.n_cells, format="csr") + op.K).tocsr()
    return RegularizedMarkov(M, eps, op.grid)


def stationary_density(M: RegularizedMarkov, tol: float = 1e-12,
                       max_iters: int = 100000, method: str = "power",
                       rho0: Optional[np.ndarray] = None) -> Measure:
    """Normalized positive fixed point of the regularized chain.

    "power" iterates the chain from a uniform (or supplied) start until the
    l1 fixed-point residual drops below tol. "direct" solves the equivalent
    nonsingular sparse system (I - (1-eps) M) rho = (eps/N) 1, exact up to
    factorization rounding; it requires eps > 0 and is preferred inside
    optimization loops where slowly mixing chains would otherwise pass the
    residual test long before the slow modes have actually converged.
    """
    n = M.n
    if method == "direct":
        lu = M.lu()
        rho = lu.solve(np.full(n, M.eps / n))
        rho = np.maximum(rho, 0.0)
        rho /= rho.sum()
        residual = float(np.abs(M.apply(rho) - rho).sum())
        if residual > max(tol, 1e-9):
            raise NonConvergenceError(residual, 1)
        return Measure(rho, support=M.grid)
    if method != "power":
        raise ValueError(f"unknown method {method!r}")
    x = np.full(n, 1.0 / n) if rho0 is None else np.asarray(rho0, float).copy()
    x = np.maximum(x, 0.0)
    x /= x.sum()
    residual = np.inf
    for _ in range(max_iters):
        y = M.apply(x)
        y /= y.sum()
        residual = float(np.abs(y - x).sum())
        x = y
        if residual < tol:
            return Measure(np.maximum(x, 0.0) / np.maximum(x, 0.0).sum(),
                           support=M.grid)
    raise NonConvergenceError(residual, max_iters)


def evolve_density(op: FvmOperator, rho0: Measure, n_steps: int) -> Measure:
    """Apply the explicit update rho <- rho + K rho for n_steps steps."""
    w = rho0.weights.copy()
    for _ in range(n_steps):
        w = w + op.K @ w
    # CFL guarantees nonnegativity; clip rounding dust before renormalizing.
    w = np.maximum(w, 0.0)
    return Measure(w / w.sum(), support=op.grid)
