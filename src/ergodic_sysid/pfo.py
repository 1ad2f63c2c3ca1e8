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
the fvm driver (the Ulam/GAIO construction).

The flow-map gradient runs one forward pass and reverses through what it
kept: ``velocity_models.flow_rk4_vjp`` gives the flowed sources and the RK4
pullback, ``PartitionOfUnity.linearize`` gives the cell weights of the
images and the pullback that reuses their kernel, and the matrix averages
those weights with the same row-average helper as ``estimate_markov``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp
from scipy.spatial.distance import cdist

from .fvm import RegularizedMarkov, stationary_density
from .measure import Measure, SampleCloud
from .velocity_models import flow_rk4_vjp

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

    def _weights(self, psi: np.ndarray):
        """Turn the scaled distances u = d/eps of one chunk, held in psi,
        into its weights in place: psi holds u, then log r, then psi.

        Returns what the reverse pass needs besides d: the mask u <= 33,
        and exp(-u) and log1p(exp(-u)) on that mask.
        """
        small = psi <= 33.0
        eu = np.exp(-psi[small])
        l1 = np.log1p(eu)
        # log r = log log1p(exp(-u)); asymptotically -u once exp(-u) is tiny.
        np.negative(psi, out=psi)
        psi[small] = np.log(l1)
        psi -= psi.max(axis=1, keepdims=True)
        np.exp(psi, out=psi)
        psi /= psi.sum(axis=1, keepdims=True)
        return small, eu, l1

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
            u = out[s:s + _CHUNK]
            cdist(pts[s:s + _CHUNK], self.centers, out=u)
            u /= self.eps
            self._weights(u)
        return out

    def linearize(self, points):
        """Weight rows at the points and the pullback of d(sum_k seeds_k .
        psi(x_k))/dx_k, which reuses the kernel of this forward pass.

        The pullback is zero for eps = 0 (piecewise-constant weights).
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if self.eps == 0.0:
            return self.eval(pts), lambda seeds: np.zeros_like(pts)
        psi = np.empty((pts.shape[0], self.n))
        kernels = []
        for s in range(0, pts.shape[0], _CHUNK):
            d = cdist(pts[s:s + _CHUNK], self.centers)
            np.divide(d, self.eps, out=psi[s:s + _CHUNK])
            kernels.append((d,) + self._weights(psi[s:s + _CHUNK]))

        def pullback(seeds):
            seeds = np.atleast_2d(np.asarray(seeds, dtype=float))
            out = np.empty_like(pts)
            for k, (d, small, eu, l1) in enumerate(kernels):
                chunk = slice(k * _CHUNK, (k + 1) * _CHUNK)
                p, w = psi[chunk], seeds[chunk]
                # d log r / du = -sigmoid(-u)/log1p(exp(-u)); saturates at -1.
                q = np.ones_like(d)
                q[small] = (eu / (1.0 + eu)) / l1
                dbar = -(p * (w - (p * w).sum(axis=1, keepdims=True))) * q \
                    / self.eps
                inv_d = np.divide(dbar, d, out=np.zeros_like(d), where=d > 0)
                out[chunk] = (pts[chunk] * inv_d.sum(axis=1, keepdims=True)
                              - inv_d @ self.centers)
            return out

        return psi, pullback

    def vjp(self, points, seeds) -> np.ndarray:
        """One-off input gradient: ``linearize(points)`` pulled back once.
        The flow-map gradient keeps the pullback of its own forward pass
        instead."""
        return self.linearize(points)[1](seeds)


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


def _row_average(src, counts, rows) -> np.ndarray:
    """Row i averages the weight rows of the samples in source cell i.

    ``rows(chunk)`` gives the weight rows of the samples in a slice; they
    are summed one ``_CHUNK`` slice at a time, so only one chunk of weights
    need exist at once.
    """
    n = counts.size
    mat = np.zeros((n, n))
    for s in range(0, src.size, _CHUNK):
        chunk_src = src[s:s + _CHUNK]
        onehot = sp.csr_matrix(
            (np.ones(chunk_src.size), (np.arange(chunk_src.size), chunk_src)),
            shape=(chunk_src.size, n))
        mat += onehot.T @ rows(slice(s, s + _CHUNK))
    mat /= counts[:, None]
    return mat


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
        mat = flat.reshape(n, n) / counts[:, None]
    else:
        mat = _row_average(src, counts, lambda chunk: pou.eval(y[chunk]))
    return UlamMatrix(mat, mesh, pou.eps)


def invariant_density(M: UlamMatrix, eps_tele: float) -> Measure:
    """Left fixed point pi M = pi of a row-stochastic matrix.

    The stationary density of the transposed (column-stochastic) chain,
    teleported by eps_tele > 0 toward the uniform restart so the fixed
    point is unique and positive; eps_tele = 0 raises ``ValueError``.
    """
    chain = RegularizedMarkov(sp.csr_matrix(M.matrix.T), eps_tele, None)
    return Measure(stationary_density(chain).weights, support=M.mesh)


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
    y, flow_pullback = flow_rk4_vjp(velocity, x, flow_dt, substeps)
    psi, pou_pullback = pou.linearize(y)
    mhat = UlamMatrix(_row_average(src, counts, lambda chunk: psi[chunk]),
                      mesh, pou.eps)
    diff = mhat.matrix - target.matrix
    loss = float(np.linalg.norm(diff))
    if loss == 0.0:
        return loss, np.zeros(velocity.n_params), mhat
    G = diff / loss
    seeds = G[src] / counts[src][:, None]
    theta_grad, _ = flow_pullback(pou_pullback(seeds))
    return loss, theta_grad, mhat
