"""Discrete and empirical probability measures over box grids.

Contains the occupation-measure histogram, the grid objectives (L2, KL)
that the stationary-density fit matches, the sliced Wasserstein-2 distance
used as an error metric, and the energy-distance MMD used for sample-cloud
comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np
from scipy.spatial.distance import cdist

WEIGHT_TOL = 1e-12
# Floats per block of the pairwise-distance kernels (4 MiB): a block against
# m points has max(1, _BLOCK_FLOATS // m) rows of x.
_BLOCK_FLOATS = 2**19


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
        object.__setattr__(
            self, "n_per_dim", np.asarray(self.n_per_dim, dtype=int))
        if self.lo.shape != self.hi.shape or self.lo.ndim != 1:
            raise ValueError("lo and hi must be 1-d vectors of equal length")
        if not np.all(self.lo < self.hi):
            raise ValueError("grid box requires lo < hi componentwise")
        if self.n_per_dim.shape != self.lo.shape:
            raise ValueError("n_per_dim must match the box dimension")
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
            if np.any(w < 0):
                raise ValueError("negative sample weight")
            object.__setattr__(self, "weights", w / w.sum())

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
        w = self.effective_weights()
        return _weighted_mean_distance(self.points, w, self.points, w)


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


def _block_rows(m: int) -> int:
    """Rows of x per distance block against m points."""
    return max(1, _BLOCK_FLOATS // m)


def _block_buffer(x, *others) -> np.ndarray:
    """One flat buffer for the largest block of x's rows against others."""
    return np.empty(max(min(x.shape[0], _block_rows(o.shape[0])) * o.shape[0]
                        for o in others))


def _distance_blocks(x, y, buf):
    """(rows, cdist(x[rows], y)) for each ``_block_rows(len(y))`` rows of x.

    Every block is a C-contiguous view of the front of the flat ``buf``
    (cdist rejects any other ``out``), valid until the next is yielded.
    """
    m = y.shape[0]
    step = _block_rows(m)
    for start in range(0, x.shape[0], step):
        rows = slice(start, start + step)
        r = x[rows].shape[0]
        yield rows, cdist(x[rows], y, out=buf[:r * m].reshape(r, m))


def _weighted_mean_distance(x, wx, y, wy) -> float:
    total = 0.0
    for rows, block in _distance_blocks(x, y, _block_buffer(x, y)):
        total += wx[rows] @ block @ wy
    return float(total)


def energy_mmd(a: SampleCloud, b: SampleCloud) -> float:
    """Energy-distance MMD: E|X-Y| - E|X-X'|/2 - E|Y-Y'|/2 (V-statistic)."""
    if a.dim != b.dim:
        raise SupportMismatchError("clouds have different dimensions")
    cross = _weighted_mean_distance(a.points, a.effective_weights(),
                                    b.points, b.effective_weights())
    return max(cross - 0.5 * a.self_distance - 0.5 * b.self_distance, 0.0)


def energy_mmd_grad_x(x: np.ndarray, y: np.ndarray,
                      y_self: float) -> tuple[float, np.ndarray]:
    """Energy MMD between uniform clouds and its gradient in the x points.

    ``y_self`` is E|Y - Y'| of the y cloud, which does not depend on x
    (``SampleCloud(y).self_distance``). Zero-distance pairs contribute zero
    gradient (subgradient choice). The call holds one block buffer of at
    most ``_BLOCK_FLOATS`` floats (one row, if a row is longer): each block
    of distances, x-y and then x-x, is made in it and turned into its
    reciprocals in place.
    """
    n, m = x.shape[0], y.shape[0]
    buf = _block_buffer(x, y, x)
    grad = np.zeros_like(x)
    sums = []
    for other, pairs, sign in ((y, n * m, 1.0), (x, n * n, -1.0)):
        total = 0.0
        for rows, d in _distance_blocks(x, other, buf):
            total += d.sum()
            with np.errstate(divide="ignore"):
                np.reciprocal(d, out=d)
            if other is x:  # |x_i - x_i| on the diagonal of x-x
                np.fill_diagonal(d[:, rows.start:], 0.0)
            inv_sum = d.sum(axis=1, keepdims=True)
            # other zero distances come from duplicate points: their rows
            # sum to inf, and are summed again without them
            dup = np.flatnonzero(np.isinf(inv_sum[:, 0]))
            if dup.size:
                block = d[dup]
                block[np.isinf(block)] = 0.0
                d[dup] = block
                inv_sum[dup] = block.sum(axis=1, keepdims=True)
            # d|x - y|/dx = (x - y)/|x - y|
            grad[rows] += sign * (x[rows] * inv_sum - d @ other) / pairs
        sums.append(total)
    val = sums[0] / (n * m) - 0.5 * sums[1] / (n * n) - 0.5 * y_self
    return float(val), grad
