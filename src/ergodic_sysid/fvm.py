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

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .measure import Grid, Measure
from .velocity_models import evaluate_velocity, linearize_velocity

COLSUM_TOL = 1e-12
NEG_TOL = 1e-14
STATIONARY_TOL = 1e-9  # bound on the l1 fixed-point residual of rho


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
    """The stationary solve missed ``STATIONARY_TOL``, on its residual or
    on the negative mass it would have to clamp."""

    def __init__(self, residual: float, quantity: str = "residual"):
        super().__init__(
            f"stationary solve {quantity} {residual:.3e} above the bound "
            f"{STATIONARY_TOL:.0e}")
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
    face of a cell is the lower face of its axis-i successor. For a field
    evaluated at the faces, ``face_pullbacks[i]`` is the pullback of its
    values at the interior lower faces ``grid.lower_faces[i]``, kept for
    the parameter gradient (see ``linearize_velocity``).
    """

    grid: Grid
    K: sp.csr_matrix
    dt: float
    D: float
    face_velocities: list
    face_pullbacks: Optional[list]

    @property
    def n_cells(self) -> int:
        return self.grid.n_cells


def assemble_K(grid: Grid, velocity, D: float, dt: float) -> FvmOperator:
    """Build K = sum_i (dt/dx_i) K_i with upwind advection and central
    diffusion, validating column sums and CFL nonnegativity.

    ``velocity`` is a field evaluated at the interior face centers (the
    wall faces carry zero flux), or an object with ``face_arrays()``
    supplying the face values directly.
    """
    if D < 0:
        raise ValueError("D must be nonnegative")
    if dt <= 0:
        raise ValueError("dt must be positive")
    n = grid.n_cells
    strides = grid.strides
    face_v = [np.zeros(n) for _ in range(grid.dim)]
    pullbacks = None
    if hasattr(velocity, "face_arrays"):
        if not velocity.grid.matches(grid):
            raise ValueError("face-value model bound to a different grid")
        for i, arr in enumerate(velocity.face_arrays()):
            low = grid.lower_faces[i]
            face_v[i][low] = arr[low]
    else:
        pullbacks = []
        for i, low in enumerate(grid.lower_faces):
            values, pullback = linearize_velocity(
                velocity, grid.face_centers(i)[low])
            face_v[i][low] = values[:, i]
            pullbacks.append(pullback)

    diag = np.zeros(n)
    rows, cols, data = [], [], []
    for i in range(grid.dim):
        dx = grid.spacings[i]
        scale = dt / dx
        low_idx = grid.lower_faces[i]
        up_idx = low_idx - strides[i]
        v = face_v[i]
        w = np.zeros(n)
        w[up_idx] = v[low_idx]
        d_low = np.zeros(n)
        d_low[low_idx] = D
        d_up = np.zeros(n)
        d_up[up_idx] = D
        diag += scale * (np.minimum(v, 0.0) - np.maximum(w, 0.0)
                         - (d_low + d_up) / dx)
        # inflow from below: entry (j, j - S_i)
        rows.append(low_idx)
        cols.append(up_idx)
        data.append(scale * (np.maximum(w, 0.0) + d_up / dx)[up_idx])
        # inflow from above: entry (j - S_i, j)
        rows.append(up_idx)
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
        j = int(colsums.argmax())
        raise AssemblyError(j, grid.flat_to_multi(j), float(colsums.max()))
    worst = float(1.0 + diag.min())
    if worst < -NEG_TOL:
        j = int(diag.argmin())
        raise AssemblyError(j, grid.flat_to_multi(j), worst)
    return FvmOperator(grid, K, dt, D, face_v, pullbacks)


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
        """Sparse LU of B = I - (1-eps) M, shared by the stationary and
        adjoint solves. Requires eps > 0 for B to be nonsingular."""
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


def stationary_density(M: RegularizedMarkov) -> Measure:
    """Normalized positive fixed point of the regularized chain.

    Solves the nonsingular sparse system (I - (1-eps) M) rho = (eps/N) 1 on
    the LU shared with the adjoint solve, exact up to factorization
    rounding (an iteration could pass a residual test on a slowly mixing
    chain long before its slow modes converge). Requires eps > 0. Raises
    ``NonConvergenceError`` if the negative entries of the solution hold
    more than ``STATIONARY_TOL`` of its l1 mass (they are clamped to zero
    below that), or if the l1 residual exceeds ``STATIONARY_TOL``.
    """
    n = M.n
    rho = M.lu().solve(np.full(n, M.eps / n))
    negative = float(-rho[rho < 0.0].sum() / np.abs(rho).sum())
    if negative > STATIONARY_TOL:
        raise NonConvergenceError(negative, "negative mass")
    rho = np.maximum(rho, 0.0)
    rho /= rho.sum()
    residual = float(np.abs(M.apply(rho) - rho).sum())
    if residual > STATIONARY_TOL:
        raise NonConvergenceError(residual)
    return Measure(rho, support=M.grid)

