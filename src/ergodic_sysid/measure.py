"""Discrete and empirical probability measures over box grids.

Contains the occupation-measure histogram, the grid objectives (L2, KL)
that the stationary-density fit matches, the sliced Wasserstein-2 distance
used as an error metric, and the energy-distance MMD used for sample-cloud
comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import isqrt
from typing import Optional

import numpy as np
from scipy.spatial.distance import cdist

WEIGHT_TOL = 1e-12
# Floats per tile of the pairwise distances (1 MiB, so that a tile and the
# rows it is made from stay in a 2 MiB per-core L2 cache); see _tiles.
_BLOCK_FLOATS = 2**17


class DomainError(ValueError):
    """A sample fell outside the declared grid box with clipping disabled."""


class SupportMismatchError(ValueError):
    """Two sample clouds live in spaces of different dimension."""


@dataclass(frozen=True, eq=False)
class Grid:
    """Uniform rectangular mesh over a box, cells indexed column-major.

    The i-th axis carries n_i equally spaced cell centers from lo_i to hi_i,
    with spacing dx_i = (hi_i - lo_i)/(n_i - 1). Flat index j and its
    axis-i neighbor differ by the stride S_i = n_1 * ... * n_{i-1}.
    """

    lo: np.ndarray
    hi: np.ndarray
    n_per_dim: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lo", np.asarray(self.lo, dtype=float))
        object.__setattr__(self, "hi", np.asarray(self.hi, dtype=float))
        n = np.asarray(self.n_per_dim)
        object.__setattr__(self, "n_per_dim", n.astype(int))
        if self.lo.shape != self.hi.shape or self.lo.ndim != 1:
            raise ValueError("lo and hi must be 1-d vectors of equal length")
        if not np.all((self.lo < self.hi) & np.isfinite(self.hi - self.lo)):
            raise ValueError("grid box requires finite lo < hi componentwise")
        if self.n_per_dim.shape != self.lo.shape:
            raise ValueError("n_per_dim must match the box dimension")
        if not np.array_equal(self.n_per_dim, n):
            raise ValueError(f"n_per_dim {n.tolist()} must be integers")
        if np.any(self.n_per_dim < 2):
            raise ValueError("need at least 2 cells per dimension")

    @property
    def dim(self) -> int:
        return self.lo.size

    @property
    def shape(self) -> tuple:
        return tuple(self.n_per_dim)

    @property
    def n_cells(self) -> int:
        return int(np.prod(self.n_per_dim))

    @property
    def spacings(self) -> np.ndarray:
        return (self.hi - self.lo) / (self.n_per_dim - 1)

    @property
    def cell_volume(self) -> float:
        # Uniform volume for every cell, boundary cells untruncated.
        return float(np.prod(self.spacings))

    @property
    def strides(self) -> np.ndarray:
        s = np.ones(self.dim, dtype=int)
        for i in range(1, self.dim):
            s[i] = s[i - 1] * self.n_per_dim[i - 1]
        return s

    @cached_property
    def lower_faces(self) -> tuple:
        """Per axis i, the flat indices (ascending, read-only) of the cells
        with an axis-i lower neighbour: the cells whose lower face is
        interior."""
        multi = self.flat_to_multi(np.arange(self.n_cells))
        faces = tuple(np.flatnonzero(multi[:, i] > 0)
                      for i in range(self.dim))
        for j in faces:
            j.setflags(write=False)
        return faces

    def multi_to_flat(self, multi: np.ndarray) -> np.ndarray:
        multi = np.asarray(multi, dtype=int)
        return np.ravel_multi_index(multi.T, self.shape, order="F")

    def flat_to_multi(self, flat) -> np.ndarray:
        return np.stack(
            np.unravel_index(np.asarray(flat), self.shape, order="F"),
            axis=-1)

    def centers(self) -> np.ndarray:
        multi = self.flat_to_multi(np.arange(self.n_cells))
        return self.lo + multi * self.spacings

    def locate(self, points: np.ndarray, clip: bool = False) -> np.ndarray:
        """Flat cell index of each point (nearest cell center)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if not clip:
            slack = 1e-9 * (self.hi - self.lo)
            low = pts < self.lo - slack
            high = pts > self.hi + slack
            bad = np.any(low | high, axis=1)
            if np.any(bad):
                k = int(np.argmax(bad))
                raise DomainError(
                    f"sample {k} at {pts[k]} lies outside the grid box")
        idx = np.rint((pts - self.lo) / self.spacings).astype(int)
        np.clip(idx, 0, self.n_per_dim - 1, out=idx)
        return self.multi_to_flat(idx)

    def matches(self, other: "Grid") -> bool:
        return (np.array_equal(self.n_per_dim, other.n_per_dim)
                and np.allclose(self.lo, other.lo)
                and np.allclose(self.hi, other.hi))


@dataclass
class Measure:
    """Probability vector bound to a grid or an unstructured cell set."""

    weights: np.ndarray
    support: object = None

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if not np.all(np.isfinite(w)):
            raise ValueError("non-finite weight in measure")
        if np.any(w < -WEIGHT_TOL):
            raise ValueError("negative weight in measure")
        w = np.maximum(w, 0.0)
        total = w.sum()
        if abs(total - 1.0) > WEIGHT_TOL:
            raise ValueError(f"weights sum to {total}, expected 1")
        self.weights = w

    @property
    def n(self) -> int:
        return self.weights.size


@dataclass(frozen=True, eq=False)
class SampleCloud:
    """Point samples, optionally weighted (uniform by default)."""

    points: np.ndarray
    weights: Optional[np.ndarray] = None

    def __post_init__(self):
        points = np.atleast_2d(np.asarray(self.points, dtype=float))
        object.__setattr__(self, "points", points)
        if points.shape[0] == 0:
            raise ValueError("empty sample cloud")
        if not np.all(np.isfinite(points)):
            raise ValueError("non-finite sample point")
        if self.weights is not None:
            w = np.asarray(self.weights, dtype=float)
            if w.shape != (points.shape[0],):
                raise ValueError("weights must match the number of points")
            if not np.all(np.isfinite(w)):
                raise ValueError("non-finite sample weight")
            if np.any(w < 0):
                raise ValueError("negative sample weight")
            total = w.sum()
            if total == 0:
                raise ValueError("sample weights sum to zero")
            object.__setattr__(self, "weights", w / total)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def effective_weights(self) -> np.ndarray:
        if self.weights is None:
            return np.full(self.n, 1.0 / self.n)
        return self.weights

    @cached_property
    def self_distance(self) -> float:
        """E|Y - Y'| under the weights, the constant term of every energy
        distance against this cloud: computed on first use, then kept."""
        return _weighted_distance(self.points, self.effective_weights())


def subsample_stride(cloud: SampleCloud, max_points: int = 4000) -> SampleCloud:
    """Deterministic strided thinning used before O(n^2) pairwise sums."""
    if max_points < 1:
        raise ValueError(f"cannot thin a cloud to {max_points} points")
    if cloud.n <= max_points:
        return cloud
    idx = np.linspace(0, cloud.n - 1, max_points).round().astype(int)
    w = None if cloud.weights is None else cloud.weights[idx]
    return SampleCloud(cloud.points[idx], w)


def occupation_measure(states, grid: Grid, clip: bool = False) -> Measure:
    """Histogram of the (N, d) trajectory states over the grid cells.

    weights[j] = (# samples in cell j) / N. Out-of-box samples raise a
    DomainError unless clip=True moves them to the nearest boundary cell.
    """
    idx = grid.locate(states, clip=clip)
    counts = np.bincount(idx, minlength=grid.n_cells).astype(float)
    return Measure(counts / counts.sum(), support=grid)


def grid_objective(name: str):
    """Objective value and d(objective)/d(weights) for grid measures.

    Returns a callable (weights, target_weights, cell_volume) -> (J, grad)
    so gradient drivers can consume any implemented objective uniformly.
    """
    if name == "l2":
        def l2(w, t, vol):
            diff = w - t
            return float(diff @ diff / (2.0 * vol)), diff / vol
        return l2
    if name == "kl":
        def kl(w, t, vol):
            mask = (w > 0) & (t > 0)
            val = float(np.sum(t[mask] * np.log(t[mask] / w[mask])))
            grad = np.zeros_like(w)
            grad[mask] = -t[mask] / w[mask]
            return val, grad
        return kl
    raise ValueError(f"unknown objective {name!r}; expected 'l2' or 'kl'")


def _quantile_w2_squared(xa, wa, xb, wb) -> float:
    """Exact squared 1-d Wasserstein-2 between weighted point masses."""
    ia = np.argsort(xa, kind="stable")
    ib = np.argsort(xb, kind="stable")
    xa, xb = xa[ia], xb[ib]
    ca = np.cumsum(wa[ia] / wa.sum())
    cb = np.cumsum(wb[ib] / wb.sum())
    ca[-1] = cb[-1] = 1.0
    edges = np.union1d(ca, cb)
    widths = np.diff(np.concatenate([[0.0], edges]))
    mids = edges - 0.5 * widths
    ka = np.minimum(np.searchsorted(ca, mids, side="left"), xa.size - 1)
    kb = np.minimum(np.searchsorted(cb, mids, side="left"), xb.size - 1)
    return float(np.sum(widths * (xa[ka] - xb[kb]) ** 2))


def wasserstein2(a: SampleCloud, b: SampleCloud, n_projections: int = 64,
                 seed: int = 0) -> float:
    """Sliced Wasserstein-2 distance between sample clouds: the root-mean
    squared 1-d distance over n_projections random unit directions,
    deterministic per seed. In 1-d every direction is +1 or -1, and
    reflecting both clouds keeps their distance, so the value is the exact
    quantile coupling up to rounding."""
    if a.dim != b.dim:
        raise SupportMismatchError("clouds have different dimensions")
    wa, wb = a.effective_weights(), b.effective_weights()
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((n_projections, a.dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    total = 0.0
    for u in dirs:
        total += _quantile_w2_squared(a.points @ u, wa, b.points @ u, wb)
    return float(np.sqrt(total / n_projections))


def _tiles(x, y=None):
    """(I, J, cdist(x[I], y[J])) over every pair of x against y, in one
    buffer of at most ``_BLOCK_FLOATS`` floats, each valid until the next is
    yielded. Against y, I is ``max(1, _BLOCK_FLOATS // len(y))`` rows of x
    and J all of y. With y left out, I <= J are the square tiles of
    ``isqrt(_BLOCK_FLOATS)`` points of x against itself: each unordered
    pair of distinct points is in one tile, and only a diagonal tile
    (I == J) holds both orders of its pairs.
    """
    n = x.shape[0]
    if y is None:
        side = isqrt(_BLOCK_FLOATS)
        y, size = x, min(n, side) ** 2
        pairs = [(slice(i, i + side), slice(j, j + side))
                 for i in range(0, n, side) for j in range(i, n, side)]
    else:
        rows = max(1, _BLOCK_FLOATS // y.shape[0])
        size = min(n, rows) * y.shape[0]
        pairs = [(slice(i, i + rows), slice(None)) for i in range(0, n, rows)]
    buf = np.empty(size)  # flat, as cdist accepts only a C-contiguous out
    for I, J in pairs:
        r, c = x[I].shape[0], y[J].shape[0]
        yield I, J, cdist(x[I], y[J], out=buf[:r * c].reshape(r, c))


def _weighted_distance(x, wx, y=None, wy=None) -> float:
    """sum_ij wx_i wy_j |x_i - y_j|; with y left out, of x against itself
    under wx, each unordered pair computed once."""
    if y is None:
        wy = wx
    total = 0.0
    for I, J, d in _tiles(x, y):
        t = wx[I] @ d @ wy[J]
        total += 2.0 * t if y is None and I != J else t
    return float(total)


def _inverse_row_sums(d) -> np.ndarray:
    """Row sums, as a column, of the reciprocal distances d. Zero distances
    other than a tile's own diagonal, zeroed by the caller, come from
    duplicate points: their rows sum to inf, are cleared of it in place and
    summed again, so that d holds no inf afterwards."""
    sums = d.sum(axis=1, keepdims=True)
    for r in np.flatnonzero(np.isinf(sums[:, 0])):
        row = d[r]
        row[np.isinf(row)] = 0.0
        sums[r] = row.sum()
    return sums


def energy_mmd(a: SampleCloud, b: SampleCloud) -> float:
    """Energy-distance MMD: E|X-Y| - E|X-X'|/2 - E|Y-Y'|/2 (V-statistic)."""
    if a.dim != b.dim:
        raise SupportMismatchError("clouds have different dimensions")
    cross = _weighted_distance(a.points, a.effective_weights(),
                               b.points, b.effective_weights())
    return max(cross - 0.5 * a.self_distance - 0.5 * b.self_distance, 0.0)


def _distance_grad(x, y, grad, scale) -> float:
    """Sum of |x_i - y_j| over the tiles of x against y (x against itself
    with y None), adding its gradient in x, divided by ``scale``, to grad.
    Each tile is turned into its reciprocals in place; an off-diagonal tile
    of x against itself serves its rows through its row sums and its
    columns through its column sums."""
    other = x if y is None else y
    total = 0.0
    for I, J, d in _tiles(x, y):
        twice = y is None and I != J
        total += 2.0 * d.sum() if twice else d.sum()
        with np.errstate(divide="ignore"):
            np.reciprocal(d, out=d)
        if I == J:  # |x_i - x_i|
            np.fill_diagonal(d, 0.0)
        grad[I] += (x[I] * _inverse_row_sums(d) - d @ other[J]) / scale
        if twice:
            grad[J] += (x[J] * d.sum(axis=0)[:, None] - d.T @ x[I]) / scale
    return total


def energy_mmd_grad_x(x: np.ndarray, y: np.ndarray,
                      y_self: float) -> tuple[float, np.ndarray]:
    """Energy MMD between uniform clouds and its gradient in the x points.

    ``y_self`` is E|Y - Y'| of the y cloud, which does not depend on x
    (``SampleCloud(y).self_distance``). Zero-distance pairs contribute zero
    gradient (subgradient choice). The x-y pass runs over the ``_tiles`` of
    x against y, the x-x pass over those of x against itself, which hold
    each unordered pair once. Each pass holds one buffer of at most
    ``_BLOCK_FLOATS`` floats (one row, if a row of x against y is longer).
    """
    n, m = x.shape[0], y.shape[0]
    grad = np.zeros_like(x)
    # d|x - y|/dx = (x - y)/|x - y|
    cross = _distance_grad(x, y, grad, n * m)
    own = _distance_grad(x, None, grad, -(n * n))
    val = cross / (n * m) - 0.5 * own / (n * n) - 0.5 * y_self
    return float(val), grad
