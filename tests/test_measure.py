import tracemalloc
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from ergodic_sysid import measure
from ergodic_sysid.delay import MMD_MAX_POINTS
from ergodic_sysid.measure import (DomainError, Grid, Measure, SampleCloud,
                                   energy_mmd, energy_mmd_grad_x,
                                   grid_objective, occupation_measure,
                                   subsample_stride, wasserstein2)
from ergodic_sysid.optim import make_fvm_loss
from ergodic_sysid.systems import iterate_map_batch, make_system
from ergodic_sysid.velocity_models import MlpModel


def test_grid_index_round_trip():
    grid = Grid([0.0, -1.0, 2.0], [1.0, 1.0, 3.0], [4, 3, 5])
    flat = np.arange(grid.n_cells)
    assert np.array_equal(grid.multi_to_flat(grid.flat_to_multi(flat)), flat)
    # column-major: first axis varies fastest
    assert np.array_equal(grid.flat_to_multi(1), [1, 0, 0])
    assert np.array_equal(grid.strides, [1, 4, 12])


def test_occupation_symmetric_split():
    grid = Grid([0.0], [1.0], [2])
    m = occupation_measure(np.array([[0.1], [0.3], [0.6], [0.9]]), grid)
    assert np.allclose(m.weights, [0.5, 0.5])


def test_occupation_one_hot():
    grid = Grid([0.0, 0.0], [1.0, 1.0], [3, 3])
    m = occupation_measure(np.array([[0.0, 1.0]]), grid)
    assert m.weights.sum() == 1.0
    assert np.count_nonzero(m.weights) == 1


def test_occupation_out_of_box():
    grid = Grid([0.0], [1.0], [4])
    pts = np.array([[0.5], [1.7]])
    with pytest.raises(DomainError):
        occupation_measure(pts, grid)
    m = occupation_measure(pts, grid, clip=True)
    assert abs(m.weights.sum() - 1.0) < 1e-12


def test_occupation_catmap_marginal_matches_analytic():
    cat = make_system("cat_modified")
    states = iterate_map_batch(cat, [0.531, 0.274], 100000)
    grid = Grid([0.025, 0.025], [0.975, 0.975], [20, 20])
    m = occupation_measure(states, grid, clip=True)
    marginal = m.weights.reshape(20, 20, order="F").sum(axis=1)
    edges = np.linspace(0, 1, 21)
    expected = edges[1:] ** 10 - edges[:-1] ** 10  # integral of 10 x^9
    n = len(states)
    sigma = np.sqrt(expected * (1 - expected) / n)
    assert np.all(np.abs(marginal - expected) < 3 * sigma + 5.0 / n)


def test_measure_normalization_enforced():
    with pytest.raises(ValueError):
        Measure(np.array([0.5, 0.4]))
    with pytest.raises(ValueError):
        Measure(np.array([1.5, -0.5]))
    for seed in range(20):
        w = np.random.default_rng(seed).random(17)
        m = Measure(w / w.sum())
        assert abs(m.weights.sum() - 1.0) <= 1e-12
        assert m.weights.min() >= 0.0


def _objective(name, a: Measure, b: Measure) -> float:
    """Value of the named grid objective of weights a against target b."""
    vol = a.support.cell_volume if a.support is not None else 1.0
    return grid_objective(name)(a.weights, b.weights, vol)[0]


def test_l2_distance_values():
    grid = Grid([0.0], [1.0], [4])
    vol = grid.cell_volume
    a = Measure([1.0, 0, 0, 0], grid)
    b = Measure([0, 0, 1.0, 0], grid)
    assert _objective("l2", a, a) == 0.0
    assert np.isclose(_objective("l2", a, b), 1.0 / vol)


def test_l2_distance_dense_oracle():
    rng = np.random.default_rng(2)
    grid = Grid([0.0, 0.0], [2.0, 3.0], [5, 4])
    wa = rng.random(20)
    wb = rng.random(20)
    a, b = Measure(wa / wa.sum(), grid), Measure(wb / wb.sum(), grid)
    vol = grid.cell_volume
    expected = 0.5 * sum(
        (a.weights[j] / vol - b.weights[j] / vol) ** 2 * vol
        for j in range(20))
    assert np.isclose(_objective("l2", a, b), expected)
    assert np.isclose(_objective("l2", a, b), _objective("l2", b, a))


def test_kl_divergence_values():
    grid = Grid([0.0], [1.0], [2])
    a = Measure([0.5, 0.5], grid)
    b = Measure([1.0, 0.0], grid)
    # KL(b || a): the target b against the candidate weights a
    assert _objective("kl", a, a) == 0.0
    assert np.isclose(_objective("kl", a, b), np.log(2.0))


def test_kl_nonnegative_on_shared_support():
    rng = np.random.default_rng(3)
    grid = Grid([0.0], [1.0], [30])
    for _ in range(100):
        wa = rng.random(30) + 1e-3
        wb = rng.random(30) + 1e-3
        a = Measure(wa / wa.sum(), grid)
        b = Measure(wb / wb.sum(), grid)
        assert _objective("kl", a, b) >= 0.0
    # asymmetric in general
    wa = np.array([0.7, 0.2, 0.1])
    wb = np.array([0.1, 0.3, 0.6])
    a, b = Measure(wa), Measure(wb)
    assert _objective("kl", a, b) != _objective("kl", b, a)


def test_support_mismatch_rejected():
    # the stationary-density fit refuses a target from another grid
    target = Measure([0.5, 0.5], Grid([0.0], [1.0], [2]))
    with pytest.raises(ValueError, match="does not live on the fit grid"):
        make_fvm_loss(target, MlpModel([1, 1]), Grid([0.0], [2.0], [2]),
                      D=0.1, eps_tele=1e-3, objective="l2")


def test_w2_two_point_transport():
    a = SampleCloud([[0.0]])
    b = SampleCloud([[1.0]])
    assert np.isclose(wasserstein2(a, b), 1.0)
    assert wasserstein2(a, a) == 0.0


def test_w2_uniform_scaling_oracle():
    rng = np.random.default_rng(4)
    a = SampleCloud(rng.random(10000)[:, None])
    b = SampleCloud(2.0 * rng.random(10000)[:, None])
    # closed form: integral of (q - 2q)^2 dq = 1/3
    assert abs(wasserstein2(a, b) ** 2 - 1.0 / 3.0) < 0.05 / 3.0


def test_w2_weighted_matches_sorted_oracle():
    rng = np.random.default_rng(5)
    xa, xb = rng.normal(size=300), rng.normal(size=300) + 0.5
    a = SampleCloud(xa[:, None])
    b = SampleCloud(xb[:, None])
    expected = np.mean((np.sort(xa) - np.sort(xb)) ** 2)
    assert np.isclose(wasserstein2(a, b) ** 2, expected)


def test_sliced_w2_1d_equals_exact():
    # every 1-d direction is +1 or -1, and reflecting both clouds keeps
    # their quantile coupling
    rng = np.random.default_rng(6)
    a = SampleCloud(rng.normal(size=(200, 1)), rng.random(200))
    b = SampleCloud(rng.normal(size=(150, 1)) + 1.0)
    exact = np.sqrt(measure._quantile_w2_squared(
        a.points[:, 0], a.effective_weights(),
        b.points[:, 0], b.effective_weights()))
    for nproj in (1, 8, 64):
        assert abs(wasserstein2(a, b, n_projections=nproj) - exact) < 1e-12


def test_w2_deterministic_per_seed_and_symmetric():
    rng = np.random.default_rng(7)
    a = SampleCloud(rng.normal(size=(300, 3)))
    b = SampleCloud(rng.normal(size=(200, 3)) + 0.2)
    v1 = wasserstein2(a, b, seed=42)
    v2 = wasserstein2(a, b, seed=42)
    assert v1 == v2
    assert np.isclose(v1, wasserstein2(b, a, seed=42))


def test_energy_mmd_values():
    a = SampleCloud([[0.0]])
    b = SampleCloud([[1.0]])
    assert np.isclose(energy_mmd(a, b), 1.0)
    assert energy_mmd(a, a) == 0.0


def test_energy_mmd_permutation_invariant():
    rng = np.random.default_rng(8)
    pts = rng.normal(size=(50, 2))
    other = rng.normal(size=(40, 2))
    v1 = energy_mmd(SampleCloud(pts), SampleCloud(other))
    v2 = energy_mmd(SampleCloud(pts[::-1]), SampleCloud(other))
    assert np.isclose(v1, v2)
    assert np.isclose(v1, energy_mmd(SampleCloud(other), SampleCloud(pts)))


def test_energy_mmd_rotation_invariant():
    rng = np.random.default_rng(9)
    a = rng.normal(size=(60, 2))
    b = rng.normal(size=(70, 2)) + 0.3
    theta = 0.83
    R = np.array([[np.cos(theta), -np.sin(theta)],
                  [np.sin(theta), np.cos(theta)]])
    v1 = energy_mmd(SampleCloud(a), SampleCloud(b))
    v2 = energy_mmd(SampleCloud(a @ R.T), SampleCloud(b @ R.T))
    assert abs(v1 - v2) < 1e-10


def test_energy_mmd_grad_consistent():
    rng = np.random.default_rng(10)
    x = rng.normal(size=(30, 2))
    y = rng.normal(size=(25, 2)) + 0.4
    y_self = SampleCloud(y).self_distance
    val, grad = energy_mmd_grad_x(x, y, y_self)
    assert np.isclose(val, energy_mmd(SampleCloud(x), SampleCloud(y)))
    h = 1e-6
    for (i, k) in [(0, 0), (7, 1), (29, 0)]:
        e = np.zeros_like(x)
        e[i, k] = h
        vp, _ = energy_mmd_grad_x(x + e, y, y_self)
        vm, _ = energy_mmd_grad_x(x - e, y, y_self)
        assert abs((vp - vm) / (2 * h) - grad[i, k]) < 1e-7


def _dense_energy_mmd_grad_x(x, y, y_self):
    """energy_mmd_grad_x written out in one block of each distance matrix."""
    n, m = x.shape[0], y.shape[0]
    val = cdist(x, y).mean() - 0.5 * cdist(x, x).mean() - 0.5 * y_self
    grad = np.zeros_like(x)
    for other, scale in ((y, 1.0 / (n * m)), (x, -1.0 / (n * n))):
        d = cdist(x, other)
        inv = np.divide(1.0, d, out=np.zeros_like(d), where=d > 0)
        grad += scale * (x * inv.sum(axis=1, keepdims=True) - inv @ other)
    return val, grad


def _where_energy_mmd_grad_x(x, y, y_self):
    """energy_mmd_grad_x in the same blocks, with the reciprocals of the
    nonzero distances only."""
    n, m = x.shape[0], y.shape[0]
    buf = measure._block_buffer(x, y, x)
    grad = np.zeros_like(x)
    sums = []
    for other, pairs, sign in ((y, n * m, 1.0), (x, n * n, -1.0)):
        total = 0.0
        for rows, d in measure._distance_blocks(x, other, buf):
            total += d.sum()
            np.divide(1.0, d, out=d, where=d > 0)
            grad[rows] += sign * (x[rows] * d.sum(axis=1, keepdims=True)
                                  - d @ other) / pairs
        sums.append(total)
    return sums[0] / (n * m) - 0.5 * sums[1] / (n * n) - 0.5 * y_self, grad


def test_energy_mmd_grad_x_across_chunks(monkeypatch):
    # 30 x rows in x-x blocks of 7 and x-y blocks of 8 against 25 y points
    # (the last blocks partial); x holds a duplicate and a copy of a y
    # point, so both the x-y and the x-x blocks hold zero distances off the
    # diagonal
    rng = np.random.default_rng(13)
    x = rng.normal(size=(30, 3))
    y = rng.normal(size=(25, 3)) + 0.4
    x[5] = x[0]
    x[9] = y[3]
    y_self = SampleCloud(y).self_distance
    one_chunk = energy_mmd_grad_x(x, y, y_self)
    where = _where_energy_mmd_grad_x(x, y, y_self)
    assert one_chunk[0] == where[0] and np.array_equal(one_chunk[1], where[1])
    monkeypatch.setattr(measure, "_BLOCK_FLOATS", 7 * 30)
    val, grad = energy_mmd_grad_x(x, y, y_self)
    where = _where_energy_mmd_grad_x(x, y, y_self)
    assert val == where[0] and np.array_equal(grad, where[1])
    ref_val, ref_grad = _dense_energy_mmd_grad_x(x, y, y_self)
    assert np.all(np.isfinite(grad))
    assert np.isclose(val, ref_val, rtol=1e-13, atol=0)
    assert np.allclose(grad, ref_grad, rtol=1e-12, atol=1e-15)
    assert np.isclose(val, one_chunk[0], rtol=1e-13, atol=0)
    assert np.allclose(grad, one_chunk[1], rtol=1e-12, atol=1e-15)
    # y longer than x: the blocks of x-y outgrow those of x-x
    val, grad = energy_mmd_grad_x(x[:11], y, y_self)
    where = _where_energy_mmd_grad_x(x[:11], y, y_self)
    assert val == where[0] and np.array_equal(grad, where[1])
    ref_val, ref_grad = _dense_energy_mmd_grad_x(x[:11], y, y_self)
    assert np.isclose(val, ref_val, rtol=1e-13, atol=0)
    assert np.allclose(grad, ref_grad, rtol=1e-12, atol=1e-15)


def test_weighted_energy_mmd_across_chunks(monkeypatch):
    # blocks of 7 rows against the 17 points of b, of 5 against a's 23
    monkeypatch.setattr(measure, "_BLOCK_FLOATS", 7 * 17)
    rng = np.random.default_rng(14)
    a = SampleCloud(rng.normal(size=(23, 2)), rng.random(23))
    b = SampleCloud(rng.normal(size=(17, 2)) + 0.5, rng.random(17))
    mean = {(s, t): s.weights @ cdist(s.points, t.points) @ t.weights
            for s in (a, b) for t in (a, b)}
    assert np.isclose(a.self_distance, mean[a, a], rtol=1e-13, atol=0)
    assert np.isclose(b.self_distance, mean[b, b], rtol=1e-13, atol=0)
    dense = mean[a, b] - 0.5 * mean[a, a] - 0.5 * mean[b, b]
    assert dense > 0.01
    assert np.isclose(energy_mmd(a, b), dense, rtol=1e-12, atol=0)
    assert np.isclose(energy_mmd(b, a), dense, rtol=1e-12, atol=0)


def _traced_peak(fn, *args) -> int:
    # numpy reports its data buffers to tracemalloc, so the peak counts
    # every block and temporary of the call
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_energy_mmd_grad_x_holds_one_chunk_buffer():
    # x-x blocks of 262 rows of 2000 and x-y blocks of 349 rows of 1500
    # share one buffer of at most the block budget
    rng = np.random.default_rng(15)
    x = rng.normal(size=(2000, 3))
    y = rng.normal(size=(1500, 3))
    peak = _traced_peak(energy_mmd_grad_x, x, y, 1.0)
    assert peak < 1.5 * measure._BLOCK_FLOATS * 8
    # two clouds of MMD_MAX_POINTS: the budget's 4 MiB block, with room for
    # the gradient and the per-block row vectors, stays under 8 MB (one
    # block of 1024 full rows would be 32 MB)
    x = rng.normal(size=(MMD_MAX_POINTS, 3))
    y = rng.normal(size=(MMD_MAX_POINTS, 3)) + 0.3
    assert _traced_peak(energy_mmd_grad_x, x, y, 1.0) < 8e6


def _straddling_duplicates(rng):
    """40 x points and 30 y points. x[2j + 1] = x[2j], so odd block heights
    split some pairs across a block boundary; the pair at rows 10-11 is a
    copy of y[4], and row 25 a copy of y[7] with no x twin."""
    x = np.repeat(rng.normal(size=(20, 3)), 2, axis=0)
    y = rng.normal(size=(30, 3)) + 0.4
    x[10:12] = y[4]
    x[25] = y[7]
    return x, y


@pytest.mark.parametrize("rows", [1, 3, 7, 13])
def test_block_budget_changes_the_mmd_only_by_rounding(monkeypatch, rows):
    # x-x blocks of `rows` rows put the diagonal at every block offset and
    # duplicates on both sides of block boundaries; a one-block call (the
    # default budget) is the reference
    rng = np.random.default_rng(17)
    x, y = _straddling_duplicates(rng)
    wx, wy = rng.random(40), rng.random(30)
    y_self = SampleCloud(y).self_distance
    one_val, one_grad = energy_mmd_grad_x(x, y, y_self)
    one_mmd = energy_mmd(SampleCloud(x, wx), SampleCloud(y, wy))
    assert measure._block_rows(40) >= 40
    monkeypatch.setattr(measure, "_BLOCK_FLOATS", rows * 40)
    assert measure._block_rows(40) == rows
    val, grad = energy_mmd_grad_x(x, y, SampleCloud(y).self_distance)
    mmd = energy_mmd(SampleCloud(x, wx), SampleCloud(y, wy))
    assert np.all(np.isfinite(grad))
    assert abs(val - one_val) <= 1e-12 * abs(one_val)
    assert np.max(np.abs(grad - one_grad)) <= 1e-12 * np.max(np.abs(one_grad))
    assert abs(mmd - one_mmd) <= 1e-12 * abs(one_mmd)


def test_subsample_stride_deterministic():
    cloud = SampleCloud(np.arange(10000, dtype=float)[:, None])
    small = subsample_stride(cloud, 100)
    again = subsample_stride(cloud, 100)
    assert small.n == 100
    assert np.array_equal(small.points, again.points)
    with pytest.raises(ValueError):
        subsample_stride(cloud, 0)
    # a cloud keeps its points, so its cached E|Y - Y'| stays valid
    with pytest.raises(FrozenInstanceError):
        small.points = again.points[:50]


def test_grid_objective_gradients():
    rng = np.random.default_rng(12)
    w = rng.random(12)
    w /= w.sum()
    t = rng.random(12)
    t /= t.sum()
    vol = 0.37
    for name in ("l2", "kl"):
        obj = grid_objective(name)
        val, grad = obj(w, t, vol)
        for _ in range(10):
            d = rng.standard_normal(12)
            h = 1e-7
            vp, _ = obj(w + h * d, t, vol)
            vm, _ = obj(w - h * d, t, vol)
            fd = (vp - vm) / (2 * h)
            assert abs(fd - grad @ d) / max(abs(fd), 1e-10) < 1e-6, name
