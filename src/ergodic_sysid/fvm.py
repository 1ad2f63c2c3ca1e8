"""Upwind finite-volume surrogate for the stationary density of
advection-diffusion transport.

``face_velocities`` averages a field's cell-centre values to the interior
lower faces of a box grid, one array per axis. ``assemble_K`` takes those
face velocities and discretizes d(rho)/dt = -div(rho v) + D lap(rho) with
first-order upwind fluxes, central diffusion, and zero-flux walls (velocity
and diffusion vanish on boundary faces). K has nonnegative off-diagonals
and zero column sums: it generates a Markov process.
Teleporting the update M = I + K to the uniform restart with weight eps
makes the stationary density unique: rho solves B rho = (eps/N) 1 with
B = I - (1-eps) M = eps I - (1-eps) K. ``RegularizedMarkov`` holds B and
its sparse LU, which this stationary solve and the adjoint solve share.
For eps > 0 and every dt > 0, B is a nonsingular M-matrix (Berman &
Plemmons, Nonnegative Matrices in the Mathematical Sciences, 1994), so rho
is positive. The CFL bound, which keeps I + K nonnegative, matters only to
an explicit chain, and none is iterated here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .measure import Grid

COLSUM_TOL = 1e-12
STATIONARY_TOL = 1e-9  # bound on the l1 fixed-point residual of rho


class AssemblyError(RuntimeError):
    """A column of K does not sum to zero, or is not finite."""

    def __init__(self, cell: int, multi, value: float):
        super().__init__(
            f"column {cell} of K (multi-index {tuple(multi)}) has absolute "
            f"sum {value:.3e}, not within {COLSUM_TOL:.0e} of zero")
        self.cell = cell


class NonConvergenceError(RuntimeError):
    """The stationary solve missed ``STATIONARY_TOL``, on its residual or
    on the negative mass it would have to clamp."""

    def __init__(self, residual: float, quantity: str = "residual"):
        super().__init__(
            f"stationary solve {quantity} {residual:.3e} above the bound "
            f"{STATIONARY_TOL:.0e}")
        self.residual = residual


def cfl_dt(grid: Grid, D: float, v_inf: float) -> float:
    """Time step 0.9 dx^2 / (2 d (D + dx |v|_inf)) with dx = min spacing:
    nine tenths of the CFL bound, below which I + K is nonnegative.

    The direct solve needs no such bound; this only sets the scale of the
    time step, and with it the teleport rate per unit time. Zero velocity
    and zero diffusion admit no finite bound.
    """
    if D < 0 or v_inf < 0 or D + v_inf == 0:
        raise ValueError("D and v_inf must be nonnegative and not both zero")
    dx = float(np.min(grid.spacings))
    bound = dx**2 / (2.0 * grid.dim * (D + dx * v_inf))
    return 0.9 * bound


def frozen_dt(grid: Grid, field, D: float) -> float:
    """Half of ``cfl_dt`` at the field's sup norm over the cell centers.

    The teleported fixed point depends on dt, so a fit freezes this step
    from the initial field and keeps it for every iteration, whatever the
    field grows to.
    """
    v_inf = float(np.abs(field.linearize(grid.centers())[0]).max())
    return cfl_dt(grid, D, max(v_inf, 1e-9)) * 0.5


def face_velocities(grid: Grid, field):
    """The field's normal velocity at the interior faces, and its pullback.

    ``field``, a model or an ``OdeSystem``, is linearized once, at
    ``grid.centers()``. ``face_v[i]`` holds, at the interior lower faces
    ``grid.lower_faces[i]`` in order, the mean of component i over each
    face's two cells j and j - strides[i]: second order at the face centre
    and exact for a component affine in x_i. ``pullback`` is that pass's
    (None for an ``OdeSystem``); ``adjoint.grad_parameters`` seeds it.
    """
    values, pullback = field.linearize(grid.centers())
    face_v = [0.5 * (values[low, i] + values[low - grid.strides[i], i])
              for i, low in enumerate(grid.lower_faces)]
    return face_v, pullback


@dataclass
class FvmOperator:
    """Assembled transport generator K with its grid and face velocities.

    ``face_velocities`` is ``assemble_K``'s input: per axis i, the normal
    velocity at the interior lower faces ``grid.lower_faces[i]``, in that
    order. The face of cell j is the upper face of cell j - strides[i].
    """

    grid: Grid
    K: sp.csr_matrix
    dt: float
    face_velocities: list


def assemble_K(grid: Grid, face_v, D: float, dt: float) -> FvmOperator:
    """Build K = sum_i (dt/dx_i) K_i with upwind advection and central
    diffusion, validating that every column sums to zero.

    ``face_v`` holds, per axis i, the normal velocities at the interior
    lower faces ``grid.lower_faces[i]``, as ``face_velocities`` returns;
    the walls carry no flux.
    """
    if D < 0:
        raise ValueError("D must be nonnegative")
    if dt <= 0:
        raise ValueError("dt must be positive")
    n = grid.n_cells
    face_v = [np.asarray(f, dtype=float) for f in face_v]
    shapes = [f.shape for f in face_v]
    needs = [low.shape for low in grid.lower_faces]
    if shapes != needs:
        raise ValueError(f"face velocities have shapes {shapes}, the grid "
                         f"needs {needs}")

    diag = np.zeros(n)
    rows, cols, data = [], [], []
    for i, (low_idx, f) in enumerate(zip(grid.lower_faces, face_v)):
        dx = grid.spacings[i]
        scale = dt / dx
        up_idx = low_idx - grid.strides[i]
        # per cell: the velocity and diffusion of its lower and upper face
        v, w, d_low, d_up = np.zeros((4, n))
        v[low_idx] = w[up_idx] = f
        d_low[low_idx] = d_up[up_idx] = D
        diag += scale * (np.minimum(v, 0.0) - np.maximum(w, 0.0)
                         - (d_low + d_up) / dx)
        # inflow from below: entry (j, j - S_i)
        rows.append(low_idx)
        cols.append(up_idx)
        data.append(scale * (np.maximum(f, 0.0) + D / dx))
        # inflow from above: entry (j - S_i, j)
        rows.append(up_idx)
        cols.append(low_idx)
        data.append(scale * (-np.minimum(f, 0.0) + D / dx))

    rows.append(np.arange(n))
    cols.append(np.arange(n))
    data.append(diag)
    K = sp.coo_matrix(
        (np.concatenate(data),
         (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n)).tocsr()

    colsums = np.abs(np.asarray(K.sum(axis=0)).ravel())
    if not colsums.max() <= COLSUM_TOL:  # a NaN sum fails this test too
        j = int(colsums.argmax())  # the first NaN, if there is one
        raise AssemblyError(j, grid.flat_to_multi(j), float(colsums[j]))
    return FvmOperator(grid, K, dt, face_v)


class RegularizedMarkov:
    """B = I - (1-eps) M for a column-stochastic update M, and its LU.

    The teleported update (1-eps) M + (eps/N) 1 1^T has its normalized
    fixed point where B rho = (eps/N) 1, and 1^T M = 1^T gives
    1^T B = eps 1^T. For eps in (0, 1], B is nonsingular when M is
    nonnegative, and for M = I + K at any dt (see the module docstring).
    B is built once; the stationary and adjoint solves share its LU.
    """

    def __init__(self, M: sp.spmatrix, eps: float):
        if not 0.0 < eps <= 1.0:
            raise ValueError(f"eps = {eps} is outside (0, 1]: the chain "
                             "needs eps > 0 for a unique fixed point")
        self.eps = eps
        self.n = M.shape[0]
        self.B = (sp.identity(self.n, format="csc")
                  - (1.0 - eps) * M.tocsc())
        self._lu = None

    def lu(self):
        """Sparse LU of B, computed on first use.

        The columns are ordered by minimum degree on the pattern of
        B^T + B: an fvm chain's B has a symmetric nearest-neighbour
        pattern, on which this ordering fills about half as much as
        scipy's default COLAMD and factorizes faster."""
        if self._lu is None:
            self._lu = splu(self.B, permc_spec="MMD_AT_PLUS_A")
        return self._lu


def teleport(op: FvmOperator, eps: float) -> RegularizedMarkov:
    """The matrix B of the explicit update I + K teleported with weight
    eps to the uniform restart; eps must lie in (0, 1]."""
    M = (sp.identity(op.grid.n_cells, format="csr") + op.K).tocsr()
    return RegularizedMarkov(M, eps)


def stationary_density(M: RegularizedMarkov) -> np.ndarray:
    """Weights of the normalized positive fixed point of the chain.

    Solves B rho = (eps/N) 1 on the LU shared with the adjoint solve,
    exact up to factorization rounding (an iteration could pass a residual
    test on a slowly mixing chain long before its slow modes converge).
    Raises ``NonConvergenceError`` if the negative entries of the solution
    hold more than ``STATIONARY_TOL`` of its l1 mass (they are clamped to
    zero below that), or if the l1 residual of the fixed point,
    ||eps sum(rho)/N - B rho||_1, exceeds ``STATIONARY_TOL``.
    """
    n = M.n
    rho = M.lu().solve(np.full(n, M.eps / n))
    negative = float(-rho[rho < 0.0].sum() / np.abs(rho).sum())
    if negative > STATIONARY_TOL:
        raise NonConvergenceError(negative, "negative mass")
    rho = np.maximum(rho, 0.0)
    rho /= rho.sum()
    residual = float(np.abs(M.eps * rho.sum() / n - M.B @ rho).sum())
    if residual > STATIONARY_TOL:
        raise NonConvergenceError(residual)
    return rho
