"""Adjoint-state gradients through the stationary-density constraint.

Differentiating the fixed-point constraint M_eps(theta) rho = rho with the
simplex normalization rho . 1 = 1 yields one linear solve in the multiplier
lambda,

    (M_eps^T - I) lambda = -dJ/drho + (dJ/drho . rho) 1,

followed by the closed-form derivative with respect to each interior face
velocity. The system is singular with kernel span{1} and the right-hand
side is consistent by construction; the gauge lambda . 1 = 0 is fixed
explicitly (harmless, since the face gradient only sees differences of
lambda). It is solved on the same sparse LU as the stationary density, so
one factorization serves both solves of an iteration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fvm import FvmOperator, RegularizedMarkov
from .measure import Measure


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


def _weights(rho) -> np.ndarray:
    return rho.weights if isinstance(rho, Measure) else np.asarray(rho, float)


def adjoint_rhs(dJ_drho: np.ndarray, rho) -> np.ndarray:
    """Simplex-projected right-hand side; orthogonal to rho by construction."""
    g = np.asarray(dJ_drho, dtype=float)
    r = _weights(rho)
    return -g + (g @ r)


def solve_adjoint(M: RegularizedMarkov, rho, dJ_drho,
                  tol: float = 1e-10) -> AdjointSolution:
    """Solve the singular-consistent adjoint system, gauge lambda . 1 = 0.

    Reuses the sparse LU of B = I - (1-eps) M shared with the stationary
    solve: the gauge-fixed system is a rank-one update of -B^T and falls to
    a Sherman-Morrison step. Requires eps > 0; raises ``AdjointSolveError``
    if the residual exceeds tol relative to the right-hand side.
    """
    n = M.n
    rhs = adjoint_rhs(dJ_drho, rho)
    lu = M.lu()
    y = -lu.solve(rhs, trans="T")
    u = np.full(n, (1.0 + M.eps) / n)
    z = -lu.solve(u, trans="T")
    lam = y - z * (y.sum() / (1.0 + z.sum()))
    lam = lam - lam.mean()
    residual = float(np.linalg.norm(M.apply_transpose(lam) - lam - rhs))
    if residual > tol * max(1.0, float(np.linalg.norm(rhs))):
        raise AdjointSolveError(residual)
    return AdjointSolution(lam, residual)


def grad_face_velocities(op: FvmOperator, M: RegularizedMarkov, rho,
                         adj: AdjointSolution) -> list:
    """dJ/d(face velocity) for every lower face, zero on boundary faces.

    For the face between cells j-S_i and j the derivative is

        (1-eps) (dt/dx_i) (lambda_j - lambda_{j-S_i}) *
        (H(v) rho_{j-S_i} + (1-H(v)) rho_j),

    with H the Heaviside step (H(0) = 0, matching the upwind split
    v^- = min(0, v)). The donor cell is upstream of the face.
    """
    r = _weights(rho)
    lam = adj.lam if isinstance(adj, AdjointSolution) else np.asarray(adj)
    grid = op.grid
    n = grid.n_cells
    multi = grid.flat_to_multi(np.arange(n))
    grads = []
    for i in range(grid.dim):
        g = np.zeros(n)
        j = np.flatnonzero(multi[:, i] > 0)
        jm = j - grid.strides[i]
        v = op.face_velocities[i][j]
        donor = np.where(v > 0, r[jm], r[j])
        g[j] = (1.0 - M.eps) * (op.dt / grid.spacings[i]) \
            * (lam[j] - lam[jm]) * donor
        grads.append(g)
    return grads


def grad_parameters(face_grads: list, velocity, grid) -> np.ndarray:
    """Chain face gradients into the velocity parameterization.

    One reverse pass per dimension, seeding the i-th output component at the
    interior lower-face centers with the corresponding face gradient.
    """
    if hasattr(velocity, "face_arrays"):
        return np.concatenate(face_grads)
    n = grid.n_cells
    multi = grid.flat_to_multi(np.arange(n))
    total = np.zeros(velocity.n_params)
    for i in range(grid.dim):
        j = np.flatnonzero(multi[:, i] > 0)
        if j.size == 0:
            continue
        pts = grid.face_centers(i)[j]
        seeds = np.zeros((j.size, velocity.dim_out))
        seeds[:, i] = face_grads[i][j]
        tg, _ = velocity.vjp(pts, seeds)
        total += tg
    return total
