"""Data-adaptive Galerkin approximation of the transfer operator.

Cells are the nearest-center regions of a k-means mesh built on observed
samples; every estimator assigns points to cells by nearest center, found
through a kd-tree on the centers, with ties going to the lowest index.
``estimate_markov`` counts transitions between cells, or averages the
weights of a softplus-of-distance partition of unity, whose entries are
differentiable in any parameter moving the underlying map. The partition
weights each point on its ``POU_NEIGHBOURS`` nearest centers, so its rows
are sparse and a matrix is zero outside the union of their supports.

Estimated matrices here are ROW-stochastic (row = source cell), unlike the
column-stochastic finite-volume chains. ``invariant_density`` is the one
place that converts: it transposes the matrix and takes the teleported
fixed point from ``fvm.stationary_density``, the same sparse-LU solve as
the fvm driver (the Ulam/GAIO construction).

The flow-map gradient runs one forward pass and reverses through what it
kept: ``velocity_models.flow_rk4_vjp`` gives the flowed sources and the RK4
pullback, ``PartitionOfUnity.linearize`` gives the sparse cell weights of
the images and the pullback that reuses their kernel, and the matrix
averages those weights with the same row-average helper as
``estimate_markov``. The matrix gradient is gathered on the weights'
support, so no (n_sources, n_cells) array is formed.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.sparse as sp
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from .fvm import RegularizedMarkov, stationary_density
from .measure import Measure, SampleCloud
from .velocity_models import flow_rk4_vjp

ROWSUM_TOL = 1e-12
# Centers that carry a partition-of-unity weight at each point, nearest
# first; fewer when the mesh has fewer cells. See ``PartitionOfUnity``.
POU_NEIGHBOURS = 32
# Relative gap below which the kd-tree's two nearest centers count as tied.
NEAR_TIE_RTOL = 1e-9
# Relative margin by which build_mesh's distance bounds must separate a
# point's own centre from the others before Lloyd skips its query: far above
# NEAR_TIE_RTOL and the rounding of the bound updates.
BOUND_MARGIN = 1e-6
# build_mesh: k-means++ restarts before MeshBuildError, and per restart the
# Lloyd steps, which stop early once no centre moves by LLOYD_TOL.
KMEANS_RESTARTS = 5
LLOYD_MAX_ITERS = 100
LLOYD_TOL = 1e-8


class MeshBuildError(RuntimeError):
    """Lloyd iterations kept producing empty cells."""


class EstimationError(RuntimeError):
    """A source cell with no samples where a row average is needed."""

    def __init__(self, cell: int):
        super().__init__(f"source cell {cell} received no samples")
        self.cell = cell


def _nearest_two(points: np.ndarray, centers: np.ndarray):
    """(index, d_nearest, d_second) of each point: the index of its nearest
    center as ``assign_nearest`` gives it, and the kd-tree's distances to
    its nearest and second-nearest centers (inf when there is one center).

    Where the two distances lie within ``NEAR_TIE_RTOL`` of each other, as
    all do with one center (inf <= inf), the tree's rounding and its tie
    order could disagree with the ``argmin`` of the squared distances, so
    those rows are decided by a dense ``cdist`` row; elsewhere no rounding
    error can change the nearest center. Non-finite points raise
    ``ValueError``.
    """
    points = np.atleast_2d(points)
    dist, idx = cKDTree(centers).query(points, k=2)
    d0, d1 = dist.T
    out = idx[:, 0].copy()
    tied = np.flatnonzero(d1 - d0 <= NEAR_TIE_RTOL * d1)
    out[tied] = np.argmin(cdist(points[tied], centers, "sqeuclidean"), axis=1)
    return out, d0, d1


def assign_nearest(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Index of the nearest center of each point, equal to the ``argmin``
    of the squared-distance matrix, ties included (lowest index wins);
    see ``_nearest_two``."""
    return _nearest_two(points, centers)[0]


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


def _weighted_draw(p: np.ndarray, rng) -> int:
    """``rng.choice(p.size, p=p)``: the same index and generator state, by
    choice's own sampling, without its validation passes over p."""
    cdf = np.cumsum(p)
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def _kmeans_pp(points: np.ndarray, k: int, rng) -> np.ndarray:
    """k-means++ seeds: each next center is a point drawn with probability
    proportional to its squared distance to the nearest center so far.

    The squared distances are summed column by column, in coordinate order,
    on a transposed copy of the points. Up to 7 coordinates this is bit for
    bit numpy's row sum ``((points - c) ** 2).sum(axis=1)``. From 8 on,
    numpy's pairwise row sum adds in another order, so seeds drawn there
    can differ from that formula's; no config, test or workload here builds
    such a mesh.
    """
    n = points.shape[0]
    cols = np.ascontiguousarray(points.T)
    term = np.empty(n)

    def sq_dist(c):
        out = np.subtract(cols[0], c[0])
        out *= out
        for col, x in zip(cols[1:], c[1:]):
            np.subtract(col, x, out=term)
            out += np.multiply(term, term, out=term)
        return out

    centers = np.empty((k, points.shape[1]))
    centers[0] = points[rng.integers(n)]
    dist = sq_dist(centers[0])
    for i in range(1, k):
        total = dist.sum()
        if total <= 0:
            centers[i] = points[rng.integers(n)]
        else:
            centers[i] = points[_weighted_draw(dist / total, rng)]
        np.minimum(dist, sq_dist(centers[i]), out=dist)
    return centers


def build_mesh(samples: SampleCloud, n_cells: int,
               seed: int = 0) -> UnstructuredMesh:
    """k-means mesh over the samples (k-means++ seeding, Lloyd updates).
    A restart whose centres still move by ``LLOYD_TOL`` after
    ``LLOYD_MAX_ITERS`` steps warns.

    Every Lloyd step assigns each point to the cell that ``assign_nearest``
    gives it, but queries again only the points whose cell could have
    changed (Hamerly, "Making k-means even faster", SDM 2010). From its
    last query each point keeps an upper bound on the distance to its own
    centre and a lower bound on the distance to every other centre. When
    the centres move, the triangle inequality keeps both bounds if the upper
    one grows by the own centre's move and the lower one shrinks by the
    largest move. A point is queried again unless

        upper < lower * (1 - BOUND_MARGIN) - BOUND_MARGIN * drift,

    where drift sums the largest moves since the seeding. A point that
    passes lies far outside ``NEAR_TIE_RTOL`` of a tie, so
    ``assign_nearest`` would take the kd-tree's nearest centre without the
    dense tie-break, and that centre is the point's own: the skip gives the
    same cell as a query. The margin's relative part covers the tie rule.
    Its drift part covers the rounding of the bound updates, which grows
    with the distances at the last query, at most ``lower + drift``.
    """
    points = samples.points
    if n_cells > points.shape[0]:
        raise ValueError(f"{n_cells} cells for {points.shape[0]} samples")
    rng = np.random.default_rng(seed)
    for attempt in range(KMEANS_RESTARTS):
        centers = _kmeans_pp(points, n_cells, rng)
        assignment, upper, lower = _nearest_two(points, centers)
        shift, drift = np.inf, 0.0
        for _ in range(LLOYD_MAX_ITERS):
            counts = np.bincount(assignment, minlength=n_cells)
            if np.any(counts == 0):
                break
            # per-column bincount sums in input order, as np.add.at did
            sums = np.stack([np.bincount(assignment, weights=col,
                                         minlength=n_cells)
                             for col in points.T], axis=1)
            new_centers = sums / counts[:, None]
            move = np.linalg.norm(new_centers - centers, axis=1)
            shift = np.max(move)
            centers = new_centers
            upper += move[assignment]
            lower -= shift
            drift += shift
            stale = np.flatnonzero(upper >= lower * (1.0 - BOUND_MARGIN)
                                   - BOUND_MARGIN * drift)
            assignment[stale], upper[stale], lower[stale] = \
                _nearest_two(points[stale], centers)
            if shift < LLOYD_TOL:
                break
        else:
            logging.getLogger("ergodic_sysid").warning(
                "k-means restart %d stopped at LLOYD_MAX_ITERS=%d, last "
                "centre shift %.3g >= LLOYD_TOL %.3g", attempt,
                LLOYD_MAX_ITERS, shift, LLOYD_TOL)
        counts = np.bincount(assignment, minlength=n_cells)
        if np.any(counts == 0):
            continue
        return UnstructuredMesh(centers, counts)
    raise MeshBuildError(
        f"empty cells after {KMEANS_RESTARTS} k-means restarts; "
        "reduce n_cells or deduplicate the samples")


def _softplus_softmax(u: np.ndarray):
    """psi = softmax(log r) over the last axis, r = log1p(exp(-u)) of the
    scaled distances u = d/eps, built in u's buffer, and q = -d log r/du.
    Beyond u = 33, log r is -u to rounding, and q = sigmoid(-u) / r is 1.
    """
    small = u <= 33.0
    eu = np.negative(u)
    np.exp(eu, out=eu)
    l1 = np.log1p(eu)
    psi = np.negative(u, out=u)
    np.log(l1, out=psi, where=small)
    l1 *= 1.0 + eu
    q = np.divide(eu, l1, out=np.ones_like(u), where=small)
    psi -= psi.max(axis=-1, keepdims=True)
    np.exp(psi, out=psi)
    psi /= psi.sum(axis=-1, keepdims=True)
    return psi, q


@dataclass
class PartitionOfUnity:
    """Softplus-of-distance cell weights on each point's nearest centers.

    psi_i(x) = r_i / sum_j r_j with r_i = log(1 + exp(-|c_i - x| / eps)),
    eps > 0, where i and j run over the ``k = min(POU_NEIGHBOURS, n)``
    centers nearest x (a kd-tree query); every other weight is 0. The ratio
    is formed in log space (softmax over log r_i) so that large distances
    cannot underflow the normalization. The counting estimator of hard
    cells is ``estimate_markov`` without a partition.

    With k < n the weights drop the mass that the softmax over all centers
    puts outside the k nearest, and renormalize; ``dropped_mass`` measures
    it. Why 32: on the 400-cell van der Pol mesh of the pfo
    benchmark (eps 0.05), the 32 nearest centers hold all but 5.2e-4 of
    any target image's weight, where 16 drop up to 3.6e-2 and 64 up to
    2.9e-8, and the kd query's time about doubles with k (4.8, 9.0 and
    21.6 ms for 4000 images on a 2-core Xeon, against 17 ms for the dense
    kernel's ``eval``). The neighbour set is constant between switches,
    where the dropped weight jumps, so the pullback is the gradient of the
    weights everywhere else.
    """

    centers: np.ndarray
    eps: float
    tree: cKDTree = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.centers = np.atleast_2d(np.asarray(self.centers, dtype=float))
        if not self.eps > 0:
            raise ValueError(f"eps must be > 0, got {self.eps}")
        self.tree = cKDTree(self.centers)

    @property
    def n(self) -> int:
        return self.centers.shape[0]

    @property
    def k(self) -> int:
        return min(POU_NEIGHBOURS, self.n)

    def eval(self, points) -> np.ndarray:
        """Dense weight rows, each nonnegative and summing to one."""
        (idx, psi), _ = self.linearize(points)
        out = np.zeros((psi.shape[0], self.n))
        np.put_along_axis(out, idx, psi, axis=1)
        return out

    def linearize(self, points):
        """Sparse weight rows (idx, psi) at the points, both (n_points, k):
        the nearest centers, nearest first, and their weights. Returns them
        with the pullback of d(sum_ik seeds_ik psi_ik)/dx_i, which takes
        seeds on that support and reuses the kernel of this forward pass."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        d, idx = self.tree.query(pts, k=list(range(1, self.k + 1)))
        psi, q = _softplus_softmax(d / self.eps)
        # d psi_ik / d log r_il = psi_ik (delta_kl - psi_il), and
        # d log r / dx = -q (x - c) / (eps d), taken as 0 at d = 0
        q *= psi / self.eps
        scale = np.divide(q, d, out=np.zeros_like(d), where=d > 0)

        def pullback(seeds):
            # weight t_ik of x_i - c_idx_ik in the input gradient
            w = np.asarray(seeds, dtype=float)
            t = (psi * w).sum(axis=1, keepdims=True) - w
            t *= scale
            return pts * t.sum(axis=1, keepdims=True) \
                - np.einsum("ik,ikj->ij", t, self.centers[idx])

        return (idx, psi), pullback

    def vjp(self, points, seeds) -> np.ndarray:
        """One-off input gradient of dense seeds, gathered on the support
        of ``linearize(points)`` and pulled back once. The flow-map
        gradient keeps the pullback of its own forward pass instead."""
        (idx, _), pullback = self.linearize(points)
        return pullback(np.take_along_axis(np.atleast_2d(seeds), idx, 1))


def dropped_mass(pou: PartitionOfUnity, points) -> float:
    """Largest weight, over the points, that the softmax over all centers
    puts outside each point's k nearest: the l1 mass the partition's
    truncation drops before it renormalizes. Exactly 0 when k >= n."""
    (idx, _), _ = pou.linearize(points)
    full, _ = _softplus_softmax(cdist(points, pou.centers) / pou.eps)
    np.put_along_axis(full, idx, 0.0, axis=1)
    return float(full.sum(axis=1).max())


@dataclass
class UlamMatrix:
    """Estimated row-stochastic cell-to-cell transition matrix: entry
    (i, j) is the probability of moving from source cell i to cell j.
    ``empty_cells`` counts the source cells without samples, which
    ``estimate_markov`` gives the uniform row."""

    matrix: np.ndarray
    mesh: Optional[UnstructuredMesh] = None
    eps: float = 0.0
    empty_cells: int = field(default=0, init=False)

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


def _row_average(src, counts, idx, psi) -> np.ndarray:
    """Row i averages the sparse weight rows (idx, psi), each (n_samples,
    k), of the samples in source cell i."""
    n = counts.size
    mat = np.bincount((src[:, None] * n + idx).ravel(), weights=psi.ravel(),
                      minlength=n * n).reshape(n, n)
    mat /= np.maximum(counts, 1)[:, None]
    return mat


def estimate_markov(pairs, mesh: UnstructuredMesh,
                    pou: Optional[PartitionOfUnity] = None) -> UlamMatrix:
    """Monte-Carlo transition matrix from (x, T(x)) sample pairs.

    Without a partition this is the counting estimator: entry (i, j) is the
    fraction of cell-i samples whose image lands in cell j, and the matrix
    records eps 0. With one, row i averages the smoothed cell weights of
    the images of the samples in source cell i. A source cell with no
    samples gets the uniform row 1/n, the dangling-node rule of PageRank
    (Langville & Meyer, 2006).
    """
    x, y = pairs
    src = mesh.assign(x)
    n = mesh.n
    counts = np.bincount(src, minlength=n)
    if pou is None:
        rows = mesh.assign(y)[:, None], np.ones((src.size, 1))
    else:
        rows, _ = pou.linearize(y)
    mat = _row_average(src, counts, *rows)
    empty = counts == 0
    mat[empty] = 1.0 / n
    M = UlamMatrix(mat, mesh, 0.0 if pou is None else pou.eps)
    M.empty_cells = int(np.count_nonzero(empty))
    return M


def invariant_density(M: UlamMatrix, eps_tele: float) -> Measure:
    """Left fixed point pi M = pi of a row-stochastic matrix.

    The stationary density of the transposed (column-stochastic) chain,
    teleported by eps_tele > 0 toward the uniform restart so the fixed
    point is unique and positive; eps_tele = 0 raises ``ValueError``.
    """
    chain = RegularizedMarkov(sp.csr_matrix(M.matrix.T), eps_tele)
    return Measure(stationary_density(chain), support=M.mesh)


def flowmap_markov_grad(velocity, mesh: UnstructuredMesh,
                        pou: PartitionOfUnity, sources: SampleCloud,
                        src: np.ndarray, flow_dt: float,
                        target: UlamMatrix, substeps: int = 1):
    """Frobenius mismatch to a target matrix and its parameter gradient.

    ``src`` holds each source's mesh cell, as ``mesh.assign`` gives it.
    Reverse mode runs through the smoothed cell weights and the RK4 stages;
    mesh centers stay frozen. Returns (loss, theta_grad, matrix). A mesh
    cell without sources raises ``EstimationError``.
    """
    x = sources.points
    counts = np.bincount(src, minlength=mesh.n)
    if np.any(counts == 0):
        raise EstimationError(int(np.argmin(counts)))
    y, flow_pullback = flow_rk4_vjp(velocity, x, flow_dt, substeps)
    (idx, psi), pou_pullback = pou.linearize(y)
    mhat = UlamMatrix(_row_average(src, counts, idx, psi), mesh, pou.eps)
    diff = mhat.matrix - target.matrix
    loss = float(np.linalg.norm(diff))
    if loss == 0.0:
        return loss, np.zeros(velocity.n_params), mhat
    # d loss / d psi of a source's weights: its row of diff / loss, on the
    # weights' support, over its cell's count
    seeds = diff[src[:, None], idx]
    seeds /= loss * counts[src][:, None]
    theta_grad, _ = flow_pullback(pou_pullback(seeds))
    return loss, theta_grad, mhat
