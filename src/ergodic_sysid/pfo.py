"""Data-adaptive Galerkin approximation of the transfer operator.

Cells are the nearest-center regions of a k-means mesh built on observed
samples; every estimator assigns points to cells by nearest center. Hard
cell indicators can be smoothed into a softplus-of-distance partition of
unity so that the matrix entries become differentiable in any parameter
moving the underlying map.

Estimated matrices here are ROW-stochastic (row = source cell), unlike the
column-stochastic finite-volume chains. ``invariant_density`` is the one
place that converts: it transposes the matrix and takes the teleported
fixed point from ``fvm.stationary_density``, the same sparse-LU solve as
the fvm driver (the Ulam/GAIO construction). The flow-map gradient chains
``velocity_models.flow_rk4_vjp``, ``estimate_markov`` and the
partition-of-unity VJP.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp
from scipy.spatial.distance import cdist

from .fvm import RegularizedMarkov, stationary_density
from .measure import Measure, SampleCloud
from .velocity_models import flow_rk4, flow_rk4_vjp

ROWSUM_TOL = 1e-12
_CHUNK = 16384


class MeshBuildError(RuntimeError):
    """Lloyd iterations kept producing empty cells."""


class EstimationError(RuntimeError):
    def __init__(self, cell: int):
        super().__init__(f"source cell {cell} received no samples")
        self.cell = cell


def _pairwise_sq(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    return cdist(points, centers, "sqeuclidean")


def assign_nearest(points: np.ndarray, centers: np.ndarray,
                   chunk: int = _CHUNK) -> np.ndarray:
    """Nearest-center assignment; ties resolve to the lowest index."""
    points = np.atleast_2d(points)
    out = np.empty(points.shape[0], dtype=int)
    for s in range(0, points.shape[0], chunk):
        out[s:s + chunk] = np.argmin(
            _pairwise_sq(points[s:s + chunk], centers), axis=1)
    return out


@dataclass
class UnstructuredMesh:
    """Cell centers plus the nearest-center sample counts of the build set.

    Points, build samples included, are assigned to the nearest center.
    """

    centers: np.ndarray
    counts: Optional[np.ndarray] = None

    def __post_init__(self):
        self.centers = np.atleast_2d(np.asarray(self.centers, dtype=float))

    @property
    def n(self) -> int:
        return self.centers.shape[0]

    @property
    def dim(self) -> int:
        return self.centers.shape[1]

    def assign(self, points) -> np.ndarray:
        return assign_nearest(np.atleast_2d(np.asarray(points, float)),
                              self.centers)


def _kmeans_pp(points: np.ndarray, k: int, rng) -> np.ndarray:
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[rng.integers(n)]
    dist = ((points - centers[0]) ** 2).sum(axis=1)
    for i in range(1, k):
        total = dist.sum()
        if total <= 0:
            centers[i] = points[rng.integers(n)]
        else:
            centers[i] = points[rng.choice(n, p=dist / total)]
        dist = np.minimum(dist, ((points - centers[i]) ** 2).sum(axis=1))
    return centers


def build_mesh(samples: SampleCloud, n_cells: int, seed: int = 0,
               max_iters: int = 100, tol: float = 1e-8,
               restarts: int = 5) -> UnstructuredMesh:
    """k-means mesh over the samples (k-means++ seeding, Lloyd updates)."""
    points = samples.points if isinstance(samples, SampleCloud) \
        else np.atleast_2d(np.asarray(samples, float))
    if n_cells > points.shape[0]:
        raise ValueError("more cells than samples")
    rng = np.random.default_rng(seed)
    for attempt in range(restarts):
        centers = _kmeans_pp(points, n_cells, rng)
        empty = False
        for _ in range(max_iters):
            assignment = assign_nearest(points, centers)
            counts = np.bincount(assignment, minlength=n_cells)
            if np.any(counts == 0):
                empty = True
                break
            sums = np.zeros_like(centers)
            np.add.at(sums, assignment, points)
            new_centers = sums / counts[:, None]
            shift = np.max(np.linalg.norm(new_centers - centers, axis=1))
            centers = new_centers
            if shift < tol:
                break
        if empty:
            continue
        assignment = assign_nearest(points, centers)
        counts = np.bincount(assignment, minlength=n_cells)
        if np.any(counts == 0):
            continue
        return UnstructuredMesh(centers, counts)
    raise MeshBuildError(
        f"empty cells after {restarts} k-means restarts; "
        "reduce n_cells or deduplicate the samples")


@dataclass
class PartitionOfUnity:
    """Softplus-of-distance cell weights sharing the mesh centers.

    psi_i(x) = r_i / sum_j r_j with r_i = log(1 + exp(-|c_i - x| / eps)).
    eps = 0 degenerates to the hard nearest-center indicator. The ratio is
    formed in log space (softmax over log r_i) so that large distances
    cannot underflow the normalization.
    """

    centers: np.ndarray
    eps: float = 0.0

    def __post_init__(self):
        self.centers = np.atleast_2d(np.asarray(self.centers, dtype=float))
        if self.eps < 0:
            raise ValueError("eps must be nonnegative")

    @property
    def n(self) -> int:
        return self.centers.shape[0]

    def _log_r(self, u: np.ndarray) -> np.ndarray:
        # log r = log log1p(exp(-u)); asymptotically -u once exp(-u) is tiny.
        out = np.empty_like(u)
        small = u <= 33.0
        out[small] = np.log(np.log1p(np.exp(-u[small])))
        out[~small] = -u[~small]
        return out

    def _kernel(self, x: np.ndarray):
        """Distances d, scaled distances u = d/eps and weights psi of one
        chunk of points."""
        d = cdist(x, self.centers)
        u = d / self.eps
        lr = self._log_r(u)
        lr -= lr.max(axis=1, keepdims=True)
        psi = np.exp(lr)
        psi /= psi.sum(axis=1, keepdims=True)
        return d, u, psi

    def eval(self, points) -> np.ndarray:
        """Weight rows, each nonnegative and summing to one."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if self.eps == 0.0:
            idx = assign_nearest(pts, self.centers)
            out = np.zeros((pts.shape[0], self.n))
            out[np.arange(pts.shape[0]), idx] = 1.0
            return out
        out = np.empty((pts.shape[0], self.n))
        for s in range(0, pts.shape[0], _CHUNK):
            out[s:s + _CHUNK] = self._kernel(pts[s:s + _CHUNK])[2]
        return out

    def vjp(self, points, seeds) -> np.ndarray:
        """d(sum_k seeds_k . psi(x_k))/dx_k for each point.

        Zero for eps = 0 (piecewise-constant weights).
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        seeds = np.atleast_2d(np.asarray(seeds, dtype=float))
        if self.eps == 0.0:
            return np.zeros_like(pts)
        out = np.empty_like(pts)
        for s in range(0, pts.shape[0], _CHUNK):
            x = pts[s:s + _CHUNK]
            w = seeds[s:s + _CHUNK]
            d, u, psi = self._kernel(x)
            # d log r / du = -sigmoid(-u)/log1p(exp(-u)); saturates at -1.
            q = np.ones_like(u)
            small = u <= 33.0
            eu = np.exp(-u[small])
            q[small] = (eu / (1.0 + eu)) / np.log1p(eu)
            sbar = psi * (w - (psi * w).sum(axis=1, keepdims=True))
            dbar = -sbar * q / self.eps
            inv_d = np.divide(dbar, d, out=np.zeros_like(d), where=d > 0)
            out[s:s + _CHUNK] = (
                x * inv_d.sum(axis=1, keepdims=True) - inv_d @ self.centers)
        return out


@dataclass
class UlamMatrix:
    """Estimated row-stochastic cell-to-cell transition matrix: entry
    (i, j) is the probability of moving from source cell i to cell j."""

    matrix: np.ndarray
    mesh: Optional[UnstructuredMesh] = None
    eps: float = 0.0

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=float)
        if self.matrix.ndim != 2 or self.matrix.shape[0] != self.matrix.shape[1]:
            raise ValueError("transition matrix must be square")
        sums = self.matrix.sum(axis=1)
        if np.any(self.matrix < -ROWSUM_TOL):
            raise ValueError("negative transition probability")
        if np.max(np.abs(sums - 1.0)) > ROWSUM_TOL:
            raise ValueError("stochasticity violated beyond tolerance")

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def _source_groups(x, mesh, assignments):
    src = mesh.assign(x) if assignments is None else \
        np.asarray(assignments, dtype=int)
    counts = np.bincount(src, minlength=mesh.n)
    if np.any(counts == 0):
        raise EstimationError(int(np.argmin(counts)))
    return src, counts


def estimate_markov(pairs, mesh: UnstructuredMesh, pou: PartitionOfUnity,
                    assignments: Optional[np.ndarray] = None) -> UlamMatrix:
    """Monte-Carlo transition matrix from (x, T(x)) sample pairs.

    Row i averages the smoothed cell weights of the images of the samples
    in source cell i; with eps = 0 this is exactly the counting estimator
    (fraction of cell-i samples landing in cell j).
    """
    x, y = pairs
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.atleast_2d(np.asarray(y, dtype=float))
    src, counts = _source_groups(x, mesh, assignments)
    n = mesh.n
    if pou.eps == 0.0:
        dst = mesh.assign(y)
        flat = np.bincount(src * n + dst, minlength=n * n).astype(float)
        mat = flat.reshape(n, n)
    else:
        mat = np.zeros((n, n))
        for s in range(0, x.shape[0], _CHUNK):
            psi = pou.eval(y[s:s + _CHUNK])
            chunk_src = src[s:s + _CHUNK]
            onehot = sp.csr_matrix(
                (np.ones(chunk_src.size), (np.arange(chunk_src.size),
                                           chunk_src)),
                shape=(chunk_src.size, n))
            mat += onehot.T @ psi
    mat /= counts[:, None]
    return UlamMatrix(mat, mesh, pou.eps)


def invariant_density(M: UlamMatrix, eps_tele: float) -> Measure:
    """Left fixed point pi M = pi of a row-stochastic matrix.

    The stationary density of the transposed (column-stochastic) chain,
    teleported by eps_tele > 0 toward the uniform restart so the fixed
    point is unique and positive; eps_tele = 0 raises ``ValueError``.
    """
    chain = RegularizedMarkov(sp.csr_matrix(M.matrix.T), eps_tele, None)
    return Measure(stationary_density(chain).weights, support=M.mesh)


def markov_distance(A: UlamMatrix, B: UlamMatrix) -> float:
    """Frobenius norm of the difference between two transition matrices."""
    if A.n != B.n:
        raise ValueError("matrix size mismatch")
    if A.mesh is not None and B.mesh is not None and A.mesh is not B.mesh:
        if A.mesh.centers.shape != B.mesh.centers.shape or \
                not np.allclose(A.mesh.centers, B.mesh.centers):
            raise ValueError("matrices were estimated on different meshes")
    return float(np.linalg.norm(A.matrix - B.matrix))


def flowmap_markov(velocity, mesh: UnstructuredMesh, pou: PartitionOfUnity,
                   sources: SampleCloud, flow_dt: float,
                   substeps: int = 1) -> UlamMatrix:
    """Transition matrix of the time-dt RK4 flow of a velocity field."""
    x = sources.points if isinstance(sources, SampleCloud) \
        else np.atleast_2d(np.asarray(sources, float))
    y = flow_rk4(velocity, x, flow_dt, substeps)
    return estimate_markov((x, y), mesh, pou)


def flowmap_markov_grad(velocity, mesh: UnstructuredMesh,
                        pou: PartitionOfUnity, sources, flow_dt: float,
                        target: UlamMatrix, substeps: int = 1,
                        assignments: Optional[np.ndarray] = None):
    """Frobenius mismatch to a target matrix and its parameter gradient.

    Reverse mode runs through the smoothed cell weights and the RK4 stages;
    mesh centers stay frozen. Returns (loss, theta_grad, matrix).
    """
    x = sources.points if isinstance(sources, SampleCloud) \
        else np.atleast_2d(np.asarray(sources, float))
    src, counts = _source_groups(x, mesh, assignments)
    y, pullback = flow_rk4_vjp(velocity, x, flow_dt, substeps)
    mhat = estimate_markov((x, y), mesh, pou, src)
    diff = mhat.matrix - target.matrix
    loss = float(np.linalg.norm(diff))
    if loss == 0.0:
        return loss, np.zeros(velocity.n_params), mhat
    G = diff / loss
    seeds = G[src] / counts[src][:, None]
    theta_grad, _ = pullback(pou.vjp(y, seeds))
    return loss, theta_grad, mhat
