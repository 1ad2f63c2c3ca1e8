"""Adjoint-state gradients through the stationary-density constraint.

The density rho is the fixed point of the teleported chain,
B rho = (eps/N) 1 with 1 . rho = 1, where B = I - (1-eps) M (see ``fvm``).
Differentiating that constraint gives the multiplier lambda of one
nonsingular transposed solve on the LU of B that the stationary solve
already factorized,

    -B^T lambda = -dJ/drho + (dJ/drho . rho) 1,

followed by the closed-form derivative with respect to each interior face
velocity. The right-hand side is orthogonal to rho, and B^{-1} 1 =
(N/eps) rho because 1^T B = eps 1^T, so the solution already satisfies the
gauge lambda . 1 = 0; subtracting the mean only removes its rounding. The
face gradient sees differences of lambda only, so the gauge does not
change it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fvm import FvmOperator, RegularizedMarkov
from .measure import Grid

ADJOINT_TOL = 1e-10  # bound on the l2 residual, relative to max(1, ||rhs||)


class AdjointSolveError(RuntimeError):
    def __init__(self, residual: float):
        super().__init__(
            f"adjoint solve residual {residual:.3e} above tolerance; "
            "right-hand side may be inconsistent")
        self.residual = residual


@dataclass
class AdjointSolution:
    lam: np.ndarray
    residual: float


def solve_adjoint(M: RegularizedMarkov, rho: np.ndarray,
                  dJ_drho) -> AdjointSolution:
    """Multiplier lambda of the stationary constraint, gauge lambda . 1 = 0.

    One transposed solve on the LU of B shared with the stationary solve.
    Raises ``AdjointSolveError`` if the residual of the teleported system,
    ||-B^T lambda + eps sum(lambda)/N - rhs||_2, exceeds ``ADJOINT_TOL``
    relative to the right-hand side.
    """
    g = np.asarray(dJ_drho, dtype=float)
    rhs = -g + (g @ rho)
    lam = -M.lu().solve(rhs, trans="T")
    lam -= lam.mean()
    residual = float(np.linalg.norm(
        M.eps * lam.sum() / M.n - M.B.T @ lam - rhs))
    if residual > ADJOINT_TOL * max(1.0, float(np.linalg.norm(rhs))):
        raise AdjointSolveError(residual)
    return AdjointSolution(lam, residual)


def grad_face_velocities(op: FvmOperator, M: RegularizedMarkov,
                         rho: np.ndarray, adj: AdjointSolution) -> list:
    """dJ/d(face velocity), per axis i at the interior lower faces
    ``grid.lower_faces[i]``: the layout of ``op.face_velocities``.

    For the face between cells j-S_i and j the derivative is

        (1-eps) (dt/dx_i) (lambda_j - lambda_{j-S_i}) *
        (H(v) rho_{j-S_i} + (1-H(v)) rho_j),

    with H the Heaviside step (H(0) = 0, matching the upwind split
    v^- = min(0, v)). The donor cell is upstream of the face.
    """
    lam = adj.lam
    grid = op.grid
    grads = []
    for i, (j, v) in enumerate(zip(grid.lower_faces, op.face_velocities)):
        jm = j - grid.strides[i]
        donor = np.where(v > 0, rho[jm], rho[j])
        grads.append((1.0 - M.eps) * (op.dt / grid.spacings[i])
                     * (lam[j] - lam[jm]) * donor)
    return grads


def grad_parameters(grid: Grid, face_grads: list, pullback) -> np.ndarray:
    """Chain face gradients into the velocity parameterization.

    A face velocity is the mean of its two cells' values, so each cell's
    component i gets half of each of its axis-i face gradients. These seeds
    go into the one pullback of ``fvm.face_velocities``; no model forward
    pass is rerun.
    """
    seeds = np.zeros((grid.n_cells, grid.dim))
    for i, (low, grad) in enumerate(zip(grid.lower_faces, face_grads)):
        half = 0.5 * grad
        # no cell repeats within one index set, so += accumulates exactly
        seeds[low, i] += half
        seeds[low - grid.strides[i], i] += half
    return pullback(seeds)[0]
