import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from ergodic_sysid import pfo
from ergodic_sysid.experiments import make_model
from ergodic_sysid.fvm import RegularizedMarkov, stationary_density
from ergodic_sysid.measure import SampleCloud, subsample_stride
from ergodic_sysid.optim import (_run_loop, finite_difference_check,
                                 make_pfo_loss)
from ergodic_sysid.pfo import (MeshBuildError, PartitionOfUnity,
                               UlamMatrix,
                               UnstructuredMesh, build_mesh, estimate_markov,
                               flowmap_markov_grad, invariant_density)
from ergodic_sysid.systems import (IntegrationBlowupError, OdeSystem,
                                   Trajectory, integrate_ode, make_system)
from ergodic_sysid.velocity_models import MlpModel, flow_rk4_vjp


def _field(fn, dim=2):
    """The field of an array function, as an OdeSystem the drivers take."""
    return OdeSystem("field", dim, {}, fn)


def _flowmap(velocity, mesh, pou, sources, flow_dt, substeps=1):
    """Transition matrix of the time-flow_dt RK4 flow of a velocity."""
    y, _ = flow_rk4_vjp(velocity, sources.points, flow_dt, substeps)
    return estimate_markov((sources.points, y), mesh, pou)


def _doubling_pairs(rng, n):
    x = rng.random(n)[:, None]
    return x, (2.0 * x) % 1.0


def test_single_cell_mesh():
    rng = np.random.default_rng(1)
    mesh = build_mesh(SampleCloud(rng.normal(size=(50, 3))), 1, seed=0)
    assert mesh.n == 1
    assert mesh.counts[0] == 50


def test_lloyd_at_its_cap_warns(caplog, monkeypatch):
    monkeypatch.setattr(pfo, "LLOYD_MAX_ITERS", 1)
    pts = np.random.default_rng(3).normal(size=(200, 2))
    with caplog.at_level("WARNING", logger="ergodic_sysid"):
        mesh = build_mesh(SampleCloud(pts), 5, seed=0)
    assert mesh.n == 5
    assert [r.levelname for r in caplog.records] == ["WARNING"]
    assert "LLOYD_MAX_ITERS=1" in caplog.text and "shift" in caplog.text


def test_two_blob_separation():
    rng = np.random.default_rng(2)
    blob_a = rng.normal(size=(80, 2)) * 0.05
    blob_b = rng.normal(size=(80, 2)) * 0.05 + 2.0
    pts = np.vstack([blob_a, blob_b])
    mesh = build_mesh(SampleCloud(pts), 2, seed=3)
    # brute-force nearest-center assignment oracle
    oracle = np.array([
        int(np.argmin([np.sum((p - c) ** 2) for c in mesh.centers]))
        for p in pts])
    assert np.array_equal(mesh.assign(pts), oracle)
    assert len(set(oracle[:80])) == 1 and len(set(oracle[80:])) == 1
    assert oracle[0] != oracle[-1]


def _brute_force_nearest(points, centers):
    return np.argmin(cdist(points, centers, "sqeuclidean"), axis=1)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("n_centers", [1, 2, 7, 400])
def test_assign_nearest_equals_brute_force(dim, n_centers):
    rng = np.random.default_rng(100 * dim + n_centers)
    centers = rng.normal(size=(n_centers, dim))
    # a cloud, a scaled-up cloud far from most centres, and the centres
    points = np.vstack([rng.normal(size=(3000, dim)),
                        5.0 * rng.normal(size=(200, dim)), centers])
    got = pfo.assign_nearest(points, centers)
    assert np.array_equal(got, _brute_force_nearest(points, centers))
    assert np.array_equal(got[-n_centers:], np.arange(n_centers))


def test_assign_nearest_ties_go_to_the_lowest_index():
    # shuffled centres on the integer lattice; every half-integer midpoint
    # is exactly equidistant from 2 (edge midpoints) or 4 (cell centres)
    rng = np.random.default_rng(7)
    lattice = np.stack(np.meshgrid(np.arange(6.0), np.arange(5.0),
                                   indexing="ij"), axis=-1).reshape(-1, 2)
    centers = rng.permutation(lattice)
    half = np.arange(0.0, 5.5, 0.5)
    grid = np.stack(np.meshgrid(half, half[:-2], indexing="ij"),
                    axis=-1).reshape(-1, 2)
    points = rng.permutation(grid[np.any(grid % 1.0 == 0.5, axis=1)])
    d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    tied = d2 == d2.min(axis=1, keepdims=True)
    assert set(tied.sum(axis=1)) == {2, 4}
    lowest = np.argmax(tied, axis=1)
    assert np.array_equal(pfo.assign_nearest(points, centers), lowest)
    assert np.array_equal(_brute_force_nearest(points, centers), lowest)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_assign_nearest_rejects_non_finite_points(bad):
    points = np.zeros((4, 2))
    points[2, 1] = bad
    with pytest.raises(ValueError):
        pfo.assign_nearest(points, np.eye(2))


def test_degenerate_samples_raise_after_restarts():
    pts = np.zeros((20, 2))
    with pytest.raises(MeshBuildError):
        build_mesh(SampleCloud(pts), 2, seed=0)


def _row_sum_kmeans_pp(points, k, rng):
    """k-means++ seeds from numpy's row sum of squared differences."""
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


def _plain_lloyd(points, n_cells, seed, max_iters=100, tol=1e-8,
                 restarts=5):
    """build_mesh with a full assign_nearest at every Lloyd step: the
    centres, the counts and the index of the restart that succeeded."""
    rng = np.random.default_rng(seed)
    for attempt in range(restarts):
        centers = _row_sum_kmeans_pp(points, n_cells, rng)
        for _ in range(max_iters):
            assignment = pfo.assign_nearest(points, centers)
            counts = np.bincount(assignment, minlength=n_cells)
            if np.any(counts == 0):
                break
            sums = np.stack([np.bincount(assignment, weights=col,
                                         minlength=n_cells)
                             for col in points.T], axis=1)
            new_centers = sums / counts[:, None]
            shift = np.max(np.linalg.norm(new_centers - centers, axis=1))
            centers = new_centers
            if shift < tol:
                break
        if np.all(counts > 0):
            counts = np.bincount(pfo.assign_nearest(points, centers),
                                 minlength=n_cells)
            if np.all(counts > 0):
                return centers, counts, attempt
    raise MeshBuildError("no restart left every cell occupied")


def _vdp_points():
    return integrate_ode(make_system("van_der_pol", c=1.0), [1.5, 0.0],
                         0.05, 3000, substeps=2).states


def _blobs(dim):
    rng = np.random.default_rng(dim)
    means = 3.0 * rng.normal(size=(5, dim))
    return np.concatenate([m + rng.normal(size=(300, dim)) for m in means])


def _duplicates():
    # a lattice of three copies of each point: duplicated points and
    # centres equidistant from lattice points give exact ties
    lattice = np.stack(np.meshgrid(np.arange(4.0), np.arange(4.0)),
                       axis=-1).reshape(-1, 2)
    return np.repeat(lattice, 3, axis=0)


@pytest.mark.parametrize("points, n_cells, seed, kwargs", [
    (_vdp_points, 40, 1, {}),
    (lambda: _blobs(3), 20, 2, {}),
    (lambda: _blobs(7), 20, 3, {}),
    (lambda: _vdp_points() + 1e4, 40, 1, {}),
    (_duplicates, 7, 1, {}),
    (lambda: _blobs(3), 1, 4, {}),
    (_vdp_points, 40, 1, {"max_iters": 1}),
], ids=["vdp-2d", "blobs-3d", "blobs-7d", "vdp-shifted-1e4",
        "duplicates", "one-cell", "max_iters-1"])
def test_build_mesh_equals_plain_lloyd(points, n_cells, seed, kwargs,
                                       caplog, monkeypatch):
    points = points()
    if kwargs:
        monkeypatch.setattr(pfo, "LLOYD_MAX_ITERS", kwargs["max_iters"])
    with caplog.at_level("WARNING", logger="ergodic_sysid"):
        mesh = build_mesh(SampleCloud(points), n_cells, seed=seed)
    centers, counts, _ = _plain_lloyd(points, n_cells, seed, **kwargs)
    assert np.array_equal(mesh.centers, centers)
    assert np.array_equal(mesh.counts, counts)
    assert len(caplog.records) == ("max_iters" in kwargs)


def test_build_mesh_with_exact_ties_runs_the_dense_tie_break(monkeypatch):
    tied_rows = []
    dense = pfo.cdist
    monkeypatch.setattr(pfo, "cdist", lambda a, b, *metric: (
        tied_rows.append(len(a)), dense(a, b, *metric))[1])
    mesh = build_mesh(SampleCloud(_duplicates()), 6, seed=3)
    assert sum(tied_rows) > 0
    assert np.array_equal(mesh.centers, _plain_lloyd(_duplicates(), 6, 3)[0])


def test_build_mesh_equals_plain_lloyd_after_a_restart(monkeypatch):
    points = np.repeat(np.random.default_rng(2699).normal(size=(97, 2)), 3,
                       axis=0)
    centers, counts, attempt = _plain_lloyd(points, 46, 2699)
    assert attempt == 1
    seeded = []
    kmeans_pp = pfo._kmeans_pp
    monkeypatch.setattr(pfo, "_kmeans_pp", lambda *args: (
        seeded.append(1), kmeans_pp(*args))[1])
    mesh = build_mesh(SampleCloud(points), 46, seed=2699)
    assert len(seeded) == 2
    assert np.array_equal(mesh.centers, centers)
    assert np.array_equal(mesh.counts, counts)


@pytest.mark.parametrize("dim", [1, 2, 3, 7])
def test_kmeans_pp_draws_the_row_sum_seeds(dim):
    points = np.random.default_rng(dim).normal(size=(2000, dim)) \
        * np.geomspace(0.1, 10.0, dim)
    rng_a, rng_b = np.random.default_rng(5), np.random.default_rng(5)
    assert np.array_equal(pfo._kmeans_pp(points, 30, rng_a),
                          _row_sum_kmeans_pp(points, 30, rng_b))
    assert rng_a.random() == rng_b.random()


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_weighted_draw_equals_generator_choice(seed):
    # zero weights first, last and inside, as k-means++ gives the points
    # already chosen
    rng = np.random.default_rng(100 + seed)
    w = rng.random(60) ** 4
    w[rng.choice(60, 20, replace=False)] = 0.0
    w[[0, -1]] = 0.0
    p = w / w.sum()
    rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
    drawn = [pfo._weighted_draw(p, rng_a) for _ in range(300)]
    assert drawn == [rng_b.choice(p.size, p=p) for _ in range(300)]
    assert rng_a.random() == rng_b.random()


def test_lloyd_queries_under_half_of_the_points_per_step(monkeypatch,
                                                         caplog):
    points = _vdp_points()
    rows = []
    nearest_two = pfo._nearest_two
    monkeypatch.setattr(pfo, "_nearest_two", lambda p, c: (
        rows.append(len(p)), nearest_two(p, c))[1])
    with caplog.at_level("WARNING", logger="ergodic_sysid"):
        build_mesh(SampleCloud(points), 40, seed=1)
    assert not caplog.records
    steps = len(rows) - 1  # one query after the seeding, then one per step
    assert steps > 10
    assert sum(rows) < 0.5 * steps * len(points)


def test_pou_equidistant_split():
    pou = PartitionOfUnity(np.array([[0.0], [1.0]]), eps=0.3)
    w = pou.eval(np.array([[0.5]]))
    assert np.allclose(w, [0.5, 0.5])


def test_pou_sharpens_as_eps_shrinks():
    pou = PartitionOfUnity(np.array([[0.0], [3.0]]), eps=1e-4)
    w = pou.eval(np.array([[1.0]]))  # distances 1 vs 2
    assert w[0, 0] > 0.999


def test_pou_rows_normalized_any_eps():
    rng = np.random.default_rng(5)
    centers = rng.normal(size=(7, 3))
    pts = rng.normal(size=(1000, 3)) * 3.0
    for eps in (1e-3, 0.5, 5.0):
        w = PartitionOfUnity(centers, eps).eval(pts)
        assert np.abs(w.sum(axis=1) - 1.0).max() < 1e-10
        assert w.min() >= 0.0


@pytest.mark.parametrize("eps", [0.0, -0.1])
def test_pou_rejects_a_hard_partition(eps):
    # the hard cells' counting estimator is estimate_markov without one
    with pytest.raises(ValueError, match="eps must be > 0"):
        PartitionOfUnity(np.array([[0.0], [1.0]]), eps)


def _far_centres(rng):
    """Five centres in [-2, 2]^2 and two far ones, past the kernel's
    saturation u = d/eps > 33 at eps 0.3 from any point in that box."""
    return np.vstack([rng.uniform(-2.0, 2.0, size=(5, 2)),
                      [[12.0, 0.0], [0.0, -14.0]]])


def _pou_fd(pou, pts, seeds, got, h):
    """Central differences of sum(seeds * eval(pts)) against the input
    gradient got, per coordinate."""
    for i in range(pts.shape[0]):
        for k in range(pts.shape[1]):
            e = np.zeros_like(pts)
            e[i, k] = h
            fd = ((pou.eval(pts + e) * seeds).sum()
                  - (pou.eval(pts - e) * seeds).sum()) / (2 * h)
            assert abs(fd - got[i, k]) / max(abs(fd), 1e-9) < 1e-6


@pytest.mark.parametrize("neighbours", [32, 4])
def test_pou_pullback_matches_fd(monkeypatch, neighbours):
    # 11 points among 7 centres; with every centre in the support some
    # u = d/eps exceed the saturation threshold 33, with 4 the truncation
    # drops centres
    monkeypatch.setattr(pfo, "POU_NEIGHBOURS", neighbours)
    rng = np.random.default_rng(40)
    pts = rng.uniform(-2.0, 2.0, size=(11, 2))
    centers = _far_centres(rng)
    pou = PartitionOfUnity(centers, 0.3)
    seeds = rng.standard_normal((11, 7))
    (idx, psi), pullback = pou.linearize(pts)
    assert idx.shape == psi.shape == (11, min(neighbours, 7))
    dense = pou.eval(pts)
    assert np.array_equal(np.take_along_axis(dense, idx, axis=1), psi)
    assert np.count_nonzero(dense) == psi.size
    d = np.take_along_axis(cdist(pts, centers), idx, axis=1)
    assert np.any(d / 0.3 > 33) == (neighbours > 7)
    got = pou.vjp(pts, seeds)
    assert np.array_equal(
        pullback(np.take_along_axis(seeds, idx, axis=1)), got)
    _pou_fd(pou, pts, seeds, got, 1e-6)


def test_pou_pullback_on_a_centre(monkeypatch):
    # a point on a centre (d = 0, where the pullback takes zero for that
    # pair) and far centres past the saturation u > 33, with every centre
    # in the support and with the 4 nearest
    rng = np.random.default_rng(43)
    eps = 0.3
    centers = _far_centres(rng)
    pts = rng.uniform(-2.0, 2.0, size=(9, 2))
    pts[6] = centers[2]
    seeds = rng.standard_normal((9, 7))
    d = cdist(pts, centers)
    small = d / eps <= 33.0
    assert d[6, 2] == 0.0 and not small.all()
    eu = np.exp(-d[small] / eps)
    q = np.ones_like(d)
    q[small] = (eu / (1.0 + eu)) / np.log1p(eu)
    for neighbours in (32, 4):
        monkeypatch.setattr(pfo, "POU_NEIGHBOURS", neighbours)
        pou = PartitionOfUnity(centers, eps)
        got = pou.vjp(pts, seeds)
        # the pullback written out densely; p is 0 off the support
        p = pou.eval(pts)
        assert (np.count_nonzero(p, axis=1) < 7).all() == (neighbours < 7)
        dbar = -(p * (seeds - (p * seeds).sum(axis=1, keepdims=True))) \
            * q / eps
        inv_d = np.divide(dbar, d, out=np.zeros_like(d), where=d > 0)
        want = pts * inv_d.sum(axis=1, keepdims=True) - inv_d @ centers
        assert np.allclose(got, want, rtol=1e-12, atol=1e-14)
        # |x - c| is symmetric about the centre, so central differences
        # there see the same zero slope as the pullback; the kink leaves an
        # O(h) error on that point's row, hence the smaller step
        _pou_fd(pou, pts, seeds, got, 1e-7)


@pytest.mark.parametrize("n_cells", [1, 7, pfo.POU_NEIGHBOURS])
def test_pou_weights_equal_the_dense_softmax_up_to_k_cells(n_cells):
    # with no more cells than neighbours every centre is in the support,
    # and the weights are the definition's r_i / sum_j r_j
    rng = np.random.default_rng(n_cells)
    centers = rng.normal(size=(n_cells, 3))
    pts = rng.normal(size=(500, 3)) * 3.0
    for eps in (0.05, 0.5, 5.0):
        pou = PartitionOfUnity(centers, eps)
        r = np.log1p(np.exp(-cdist(pts, centers) / eps))
        assert r.min() > 0.0
        got = pou.eval(pts)
        assert np.allclose(got, r / r.sum(axis=1, keepdims=True),
                           rtol=1e-12, atol=0.0)
        assert np.abs(got.sum(axis=1) - 1.0).max() < 1e-14
        assert pfo.dropped_mass(pou, pts) == 0.0


def test_pou_dropped_mass_is_the_full_softmax_outside_the_support(
        monkeypatch):
    rng = np.random.default_rng(45)
    centers = rng.normal(size=(12, 2))
    pts = rng.normal(size=(200, 2))
    full = PartitionOfUnity(centers, 0.4).eval(pts)
    monkeypatch.setattr(pfo, "POU_NEIGHBOURS", 5)
    pou = PartitionOfUnity(centers, 0.4)
    kept = pou.eval(pts) > 0
    want = np.where(kept, 0.0, full).sum(axis=1).max()
    assert 0.0 < pfo.dropped_mass(pou, pts) == pytest.approx(want, 1e-12)


def test_pou_eval_builds_the_kernel_in_place():
    # every centre within u <= 33 of every point, so no weight saturates:
    # eval holds its dense rows and the (n, k) kernel beside them
    rng = np.random.default_rng(42)
    n_points, n_cells = 4000, 400
    pou = PartitionOfUnity(rng.random((n_cells, 2)), 0.05)
    pts = rng.random((n_points, 2))
    tracemalloc.start()
    try:
        pou.eval(pts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n_points * n_cells * 8 + 4 * n_points * pou.k * 8


def test_pou_kernel_peaks_in_row_blocks():
    # the all-unsaturated case of the eval test above: each point's row of
    # the kernel is a block of its k nearest centres, so linearize's
    # kernel, the pullback's scale and every temporary are (n, k),
    # together below one dense (n, N) array
    rng = np.random.default_rng(42)
    n_points, n_cells = 4000, 400
    pou = PartitionOfUnity(rng.random((n_cells, 2)), 0.05)
    pts = rng.random((n_points, 2))
    bound = 7 * n_points * pou.k * 8
    assert bound < n_points * n_cells * 8
    tracemalloc.start()
    try:
        pou.linearize(pts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound


@pytest.mark.parametrize("neighbours, block", [(4096, 1), (4096, 3),
                                               (4096, 4), (4, 3)])
def test_pou_row_blocks_keep_every_bit(monkeypatch, neighbours, block):
    # each row of the kernel depends on its own point only, so the rows of
    # any block of points keep every bit of one pass over all of them (the
    # strided images of dropped_mass rely on it); 11 points, so the last
    # block is partial, with far centres (u > 33) and one point on a centre
    # (d = 0), with every centre in the support (4096 is capped at the 7
    # cells) and with the 4 nearest
    monkeypatch.setattr(pfo, "POU_NEIGHBOURS", neighbours)
    rng = np.random.default_rng(46)
    centers = np.vstack([rng.uniform(-2.0, 2.0, size=(5, 2)),
                         [[12.0, 0.0], [0.0, -14.0]]])
    pts = rng.uniform(-2.0, 2.0, size=(11, 2))
    pts[7] = centers[1]
    pou = PartitionOfUnity(centers, 0.3)
    assert pou.k == min(neighbours, 7)
    seeds = rng.standard_normal((11, pou.k))
    dense_seeds = rng.standard_normal((11, 7))

    def calls(rows):
        (idx, psi), pullback = pou.linearize(pts[rows])
        return (pou.eval(pts[rows]), idx, psi, pullback(seeds[rows]),
                pou.vjp(pts[rows], dense_seeds[rows]))

    whole = calls(slice(None))
    blocks = [calls(slice(i, i + block)) for i in range(0, 11, block)]
    for got, want in zip(zip(*blocks), whole):
        assert np.array_equal(np.concatenate(got), want)


@pytest.mark.parametrize("neighbours", [1, 3, 4])
def test_flowmap_gradient_row_blocks_keep_every_bit(monkeypatch, neighbours):
    # the gradient gathers its seeds on the (n, k) row blocks of the
    # kernel; its loss, matrix and gradient keep every bit of the dense
    # path: the estimator's matrix, and dense (n, N) seeds pulled back
    # through vjp; with 1 of the 3 cells, every cell and a cap above it,
    # against a target on every cell
    rng = np.random.default_rng(47)
    x = SampleCloud(rng.normal(size=(11, 2)))
    mesh = build_mesh(x, 3, seed=48)
    pou = PartitionOfUnity(mesh.centers, 0.05)
    target = _flowmap(_field(lambda z: -z), mesh, pou, x, 0.1)
    monkeypatch.setattr(pfo, "POU_NEIGHBOURS", neighbours)
    mlp = MlpModel([2, 4, 2])
    mlp.init_params(seed=49)
    src = mesh.assign(x.points)
    assert np.any(cdist(x.points, mesh.centers) / 0.05 > 33)

    loss, theta_grad, mhat = flowmap_markov_grad(mlp, mesh, pou, x, src,
                                                 0.1, target)
    y, flow_pullback = flow_rk4_vjp(mlp, x.points, 0.1, 1)
    want = estimate_markov((x.points, y), mesh, pou).matrix
    assert np.array_equal(mhat.matrix, want)
    diff = want - target.matrix
    assert loss == float(np.linalg.norm(diff)) > 0.0
    counts = np.bincount(src, minlength=mesh.n)
    dense_seeds = diff[src] / (loss * counts[src][:, None])
    want_grad, _ = flow_pullback(pou.vjp(y, dense_seeds))
    assert np.array_equal(theta_grad, want_grad)


def _check_flowmap_gradient_holds_n_by_k_arrays(with_candidates):
    # 4000 sources on 400 cells: the kernel, the seeds and the pullback
    # are (n, k) arrays and the matrices (N, N); together below one dense
    # (n, N) array of the images' weights, with the neighbours taken from
    # the tree or from the candidates that make_pfo_loss keeps
    rng = np.random.default_rng(47)
    n_sources, n_cells = 4000, 400
    x = SampleCloud(rng.normal(size=(n_sources, 2)))
    mesh = build_mesh(x, n_cells, seed=48)
    pou = PartitionOfUnity(mesh.centers, 0.05)
    target = _flowmap(_field(lambda z: -z), mesh, pou, x, 0.1)
    mlp = MlpModel([2, 4, 2])
    mlp.init_params(seed=49)
    src = mesh.assign(x.points)
    near = pou.candidates(x.points) if with_candidates else None
    bound = 8 * n_sources * pou.k * 8 + 3 * n_cells ** 2 * 8
    assert bound < n_sources * n_cells * 8
    tracemalloc.start()
    try:
        flowmap_markov_grad(mlp, mesh, pou, x, src, 0.1, target, near=near)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound


def test_flowmap_gradient_holds_n_by_k_arrays():
    _check_flowmap_gradient_holds_n_by_k_arrays(False)


def test_flowmap_gradient_holds_n_by_k_arrays_with_candidates():
    _check_flowmap_gradient_holds_n_by_k_arrays(True)


def test_pou_pullback_builds_dbar_in_place():
    # every centre within u <= 33 of every point, as in the eval test above
    rng = np.random.default_rng(44)
    n_points, n_cells = 4000, 400
    pou = PartitionOfUnity(rng.random((n_cells, 2)), 0.05)
    pts = rng.random((n_points, 2))
    seeds = rng.standard_normal((n_points, pou.k))
    _, pullback = pou.linearize(pts)
    tracemalloc.start()
    try:
        pullback(seeds)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * n_points * pou.k * 8


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 7, 8, 9, 12, 13])
def test_tree_sq_dist_rounds_as_the_kd_tree(dim):
    # the kd-tree's distances are the square roots of these sums to the
    # bit: plain coordinate order below 8 axes, four lanes from 8 on
    rng = np.random.default_rng(dim)
    centers = rng.normal(size=(300, dim))
    pts = rng.normal(size=(500, dim))
    d, idx = cKDTree(centers).query(pts, k=list(range(1, 11)))
    cols = np.ascontiguousarray(np.moveaxis(centers[idx], 2, 0))
    assert np.array_equal(np.sqrt(pfo._tree_sq_dist(pts, cols)), d)


def _anchored(dim, n_cells, step):
    """Normal centres, 500 normal anchors and their images one normal
    step of the given size away."""
    rng = np.random.default_rng(10 * dim + n_cells)
    anchors = rng.normal(size=(500, dim))
    return (rng.normal(size=(n_cells, dim)), anchors,
            anchors + step * rng.normal(size=anchors.shape))


def _lattice_ties():
    # 49 lattice centres; every second image on a half-lattice point,
    # where centres lie at exactly equal distances
    g = np.arange(7.0)
    centers = np.stack(np.meshgrid(g, g), axis=-1).reshape(-1, 2)
    rng = np.random.default_rng(53)
    anchors = rng.uniform(0.0, 6.0, size=(300, 2))
    images = anchors + 0.05 * rng.normal(size=anchors.shape)
    images[::2] = np.round(2.0 * images[::2]) / 2.0
    return centers, anchors, images


def _far_images():
    # images 14 away from their anchors, past every anchor's radius
    centers, anchors, _ = _anchored(2, 400, 0.0)
    return centers, anchors, anchors + 10.0


@pytest.mark.parametrize("case, tree_rows", [
    (lambda: _anchored(1, 40, 0.05), 0),
    (lambda: _anchored(2, 33, 0.05), 0),
    (lambda: _anchored(2, 400, 0.05), None),
    (lambda: _anchored(3, 40, 0.1), 0),
    (lambda: _anchored(8, 40, 0.02), 0),
    (lambda: _anchored(8, 400, 0.01), 0),
    (_lattice_ties, 150),
    (_far_images, 500),
], ids=["d1-40", "d2-33", "d2-400", "d3-40", "d8-40", "d8-400",
        "lattice-ties", "far-images"])
def test_candidates_give_the_tree_neighbours_bit_for_bit(case, tree_rows):
    # the certified rows skip the tree, every other row is queried, and
    # idx, psi and the pullback equal the tree's to the bit; with 33 and 40
    # cells every centre is a candidate, with 400 the 48 nearest are
    centers, anchors, images = case()
    pou = PartitionOfUnity(centers, 0.3)
    near = pou.candidates(anchors)
    assert near.idx.shape[1] == min(pfo.POU_CANDIDATES, len(centers))
    assert np.isinf(near.radius).all() == (len(centers)
                                           <= pfo.POU_CANDIDATES)
    (idx, psi), pullback = pou.linearize(images)
    pou.tree = _CountingTree(centers)
    (got_idx, got_psi), got_pullback = pou.linearize(images, near)
    rows = sum(pou.tree.queries)
    if tree_rows is None:
        assert 0 < rows < len(images) // 2
    else:
        assert rows == tree_rows
    seeds = np.random.default_rng(54).standard_normal(psi.shape)
    assert np.array_equal(got_idx, idx) and got_idx.dtype == idx.dtype
    assert np.array_equal(got_psi, psi)
    assert np.array_equal(got_pullback(seeds), pullback(seeds))


def test_estimate_markov_rejects_pairs_of_unequal_length():
    x = np.random.default_rng(55).normal(size=(5, 2))
    mesh = UnstructuredMesh(x[:3])
    for pou in (None, PartitionOfUnity(mesh.centers, 0.5)):
        with pytest.raises(ValueError, match="5 sources and 1 images"):
            estimate_markov((x, x[:1]), mesh, pou)


def test_estimate_identity_map():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(500, 2))
    mesh = build_mesh(SampleCloud(x), 6, seed=7)
    M = estimate_markov((x, x), mesh)
    assert np.allclose(M.matrix, np.eye(6))


def test_estimate_doubling_map_within_binomial():
    rng = np.random.default_rng(0)
    x, y = _doubling_pairs(rng, 10000)
    mesh = UnstructuredMesh(np.array([[0.25], [0.75]]))
    M = estimate_markov((x, y), mesh)
    counts = np.bincount(mesh.assign(x), minlength=2)
    for i in range(2):
        sigma = np.sqrt(0.25 / counts[i])
        assert np.abs(M.matrix[i] - 0.5).max() < 3 * sigma


def test_row_stochastic_for_random_maps_any_eps():
    rng = np.random.default_rng(9)
    for eps in (0.0, 0.01, 0.5, 5.0):
        x = rng.normal(size=(400, 2))
        y = np.tanh(x @ rng.normal(size=(2, 2))) + 0.1 * rng.normal(
            size=(400, 2))
        mesh = build_mesh(SampleCloud(x), 9, seed=rng.integers(100))
        pou = PartitionOfUnity(mesh.centers, eps) if eps > 0 else None
        M = estimate_markov((x, y), mesh, pou)
        assert M.eps == eps
        assert np.abs(M.matrix.sum(axis=1) - 1.0).max() < 1e-12
        assert M.matrix.min() >= 0.0


def test_estimate_empty_source_cell():
    # cell 2 holds no source: both estimators give it the uniform row
    x = np.array([[0.1], [0.2], [4.9]])
    y = np.array([[4.8], [0.3], [5.1]])
    mesh = UnstructuredMesh(np.array([[0.0], [5.0], [10.0]]))
    M = estimate_markov((x, y), mesh)
    assert np.array_equal(M.matrix, [[0.5, 0.5, 0.0], [0.0, 1.0, 0.0],
                                     [1 / 3, 1 / 3, 1 / 3]])
    assert M.empty_cells == 1
    smooth = estimate_markov((x, y), mesh, PartitionOfUnity(mesh.centers,
                                                            0.5))
    assert np.array_equal(smooth.matrix[2], np.full(3, 1 / 3))
    assert np.abs(smooth.matrix.sum(axis=1) - 1.0).max() < 1e-12
    assert smooth.empty_cells == 1
    assert estimate_markov((x, y), UnstructuredMesh(
        np.array([[0.0], [5.0]]))).empty_cells == 0


def test_flowmap_gradient_rejects_an_empty_source_cell():
    x = SampleCloud(np.full((10, 2), 0.1))
    mesh = UnstructuredMesh(np.array([[0.0, 0.0], [5.0, 5.0]]))
    pou = PartitionOfUnity(mesh.centers, 0.5)
    target = UlamMatrix(np.eye(2))
    with pytest.raises(ValueError, match="stochasticity violated"):
        flowmap_markov_grad(_field(lambda z: -z), mesh, pou, x,
                            mesh.assign(x.points), 0.1, target)


def test_ulam_matrix_rejects_non_finite_entries():
    # a NaN row sum compares false with the tolerance, so the row-sum check
    # alone would let it through
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="non-finite transition"):
            UlamMatrix([[bad, 0.5], [0.5, 0.5]])


def test_eps_to_zero_consistency():
    rng = np.random.default_rng(10)
    x = rng.random((2000, 2))
    cat = make_system("cat_modified")
    y = cat.step(x)
    mesh = build_mesh(SampleCloud(x), 16, seed=11)
    M0 = estimate_markov((x, y), mesh)
    devs = []
    for eps in (1.0, 0.1, 0.01, 0.001):
        Me = estimate_markov((x, y), mesh,
                             PartitionOfUnity(mesh.centers, eps))
        devs.append(np.abs(Me.matrix - M0.matrix).max())
    assert all(a >= b - 1e-12 for a, b in zip(devs[:-1], devs[1:]))
    assert devs[-1] < 1e-2


def test_invariant_density_doubling():
    rng = np.random.default_rng(12)
    x, y = _doubling_pairs(rng, 20000)
    mesh = UnstructuredMesh(np.array([[0.25], [0.75]]))
    M = estimate_markov((x, y), mesh)
    pi = invariant_density(M, eps_tele=1e-10)
    assert np.abs(pi.weights - 0.5).max() < 0.02
    # residual postcondition under the iterated operator
    res = np.abs(pi.weights @ M.matrix - pi.weights).sum()
    assert res < 1e-3


def test_invariant_density_matches_direct_solve_of_transposed_chain():
    rng = np.random.default_rng(30)
    mat = rng.random((6, 6)) ** 4
    mat /= mat.sum(axis=1, keepdims=True)
    M = UlamMatrix(mat)
    for eps in (1e-3, 0.2):
        pi = invariant_density(M, eps_tele=eps)
        chain = RegularizedMarkov(sp.csr_matrix(mat.T), eps)
        direct = stationary_density(chain)
        assert np.abs(pi.weights - direct).max() < 1e-10


def test_invariant_density_with_empty_cells_matches_a_dense_solve():
    # sources in [0, 0.6) leave the cells at 0.7 and 0.9 empty
    rng = np.random.default_rng(31)
    x = 0.6 * rng.random((500, 1))
    y = (2.0 * x) % 1.0
    mesh = UnstructuredMesh(np.linspace(0.1, 0.9, 5)[:, None])
    M = estimate_markov((x, y), mesh)
    assert M.empty_cells == 2
    eps = 1e-3
    B = np.eye(5) - (1.0 - eps) * M.matrix.T
    dense = np.linalg.solve(B, np.full(5, eps / 5))
    pi = invariant_density(M, eps_tele=eps)
    assert np.abs(pi.weights - dense / dense.sum()).max() < 1e-12


def test_flowmap_zero_velocity_is_identity():
    rng = np.random.default_rng(16)
    x = rng.normal(size=(300, 2))
    mesh = build_mesh(SampleCloud(x), 5, seed=17)
    mlp = MlpModel([2, 4, 2])
    mlp.set_params(np.zeros(mlp.n_params))
    M = _flowmap(mlp, mesh, None, SampleCloud(x), 0.05)
    assert np.allclose(M.matrix, np.eye(5))


def _check_flowmap_gradient_fd(neighbours):
    rng = np.random.default_rng(18)
    x = SampleCloud(rng.normal(size=(150, 2)))
    mesh = build_mesh(x, 5, seed=19)
    pou = PartitionOfUnity(mesh.centers, 0.6)
    assert pou.k == neighbours
    rot = _field(lambda z: np.stack([z[:, 1], -z[:, 0]], axis=1))
    target = _flowmap(rot, mesh, pou, x, 0.1, substeps=2)
    mlp = MlpModel([2, 6, 2])
    mlp.init_params(seed=20)
    theta = mlp.get_params()
    src = mesh.assign(x.points)

    def lg(t):
        mlp.set_params(t)
        return flowmap_markov_grad(mlp, mesh, pou, x, src, 0.1, target,
                                   substeps=2)[:2]

    _, grad = lg(theta)
    for c in rng.choice(theta.size, 5, replace=False):
        e = np.zeros_like(theta)
        e[c] = 1e-6
        jp, _ = lg(theta + e)
        jm, _ = lg(theta - e)
        fd = (jp - jm) / 2e-6
        assert abs(fd - grad[c]) / max(abs(fd), abs(grad[c]), 1e-12) < 1e-3


def test_flowmap_gradient_matches_fd():
    _check_flowmap_gradient_fd(5)


def test_flowmap_gradient_matches_fd_with_truncation(monkeypatch):
    # 3 of the 5 centres carry each image's weight
    monkeypatch.setattr(pfo, "POU_NEIGHBOURS", 3)
    _check_flowmap_gradient_fd(3)


def test_pfo_loss_matches_fd_on_a_truncated_partition():
    # 60 cells: each image weighs its 32 nearest, found among its source's
    # 48 candidates, so the gradient runs through the truncated partition
    # and the candidate path
    rng = np.random.default_rng(50)
    x = SampleCloud(rng.normal(size=(600, 2)))
    mesh = build_mesh(x, 60, seed=51)
    pou = PartitionOfUnity(mesh.centers, 0.3)
    assert pou.k < pfo.POU_CANDIDATES < mesh.n
    rot = _field(lambda z: np.stack([z[:, 1], -z[:, 0]], axis=1))
    target = _flowmap(rot, mesh, pou, x, 0.1)
    assert pfo.dropped_mass(pou, x.points) > 1e-3
    mlp = MlpModel([2, 6, 2])
    mlp.init_params(seed=52)
    lng = make_pfo_loss(target, mlp, mesh, pou, x, 0.1)
    pou.tree = _CountingTree(mesh.centers)
    theta = mlp.get_params()
    errors = finite_difference_check(lng, theta,
                                     rng.choice(theta.size, 5, replace=False))
    assert max(errors.values()) < 1e-3
    assert sum(pou.tree.queries) < 0.5 * 11 * x.n


class _CountingTree(cKDTree):
    """A kd-tree that records the row count of every query."""

    def __init__(self, data):
        super().__init__(data)
        self.queries = []

    def query(self, x, *args, **kwargs):
        self.queries.append(len(x))
        return super().query(x, *args, **kwargs)


def test_flowmap_gradient_builds_the_kernel_once():
    rng = np.random.default_rng(43)
    x = SampleCloud(rng.normal(size=(120, 2)))
    mesh = build_mesh(x, 6, seed=44)
    pou = PartitionOfUnity(mesh.centers, 0.5)
    target = _flowmap(_field(lambda z: -z), mesh, pou, x, 0.1)
    mlp = MlpModel([2, 4, 2])
    mlp.init_params(seed=45)
    src = mesh.assign(x.points)
    pou.tree = _CountingTree(mesh.centers)
    loss, grad, mhat = flowmap_markov_grad(mlp, mesh, pou, x, src, 0.1,
                                           target)
    assert pou.tree.queries == [120]
    assert loss > 0.0 and np.any(grad != 0.0)
    assert np.array_equal(
        mhat.matrix, _flowmap(mlp, mesh, pou, x, 0.1).matrix)


def test_flowmap_gradient_blowup_raises():
    rng = np.random.default_rng(25)
    x = SampleCloud(rng.normal(size=(60, 2)))
    mesh = build_mesh(x, 4, seed=26)
    pou = PartitionOfUnity(mesh.centers, 0.5)
    target = _flowmap(_field(lambda z: -z), mesh, pou, x, 0.1)
    mlp = MlpModel([2, 4, 2], out_scale=1e16)
    mlp.init_params(seed=27)
    with pytest.raises(IntegrationBlowupError):
        flowmap_markov_grad(mlp, mesh, pou, x, mesh.assign(x.points), 0.1,
                            target)


def test_larger_eps_smooths_loss_landscape():
    rng = np.random.default_rng(21)
    x = SampleCloud(rng.normal(size=(200, 2)))
    mesh = build_mesh(x, 12, seed=22)
    rot = _field(lambda z: np.stack([z[:, 1], -z[:, 0]], axis=1))
    mlp = MlpModel([2, 8, 2])
    mlp.init_params(seed=23)
    theta0 = mlp.get_params()
    direction = np.random.default_rng(24).standard_normal(theta0.size)
    direction /= np.linalg.norm(direction)
    src = mesh.assign(x.points)

    def total_variation(eps):
        pou = PartitionOfUnity(mesh.centers, eps)
        target = _flowmap(rot, mesh, pou, x, 0.1)
        vals = []
        for t in np.linspace(0.0, 3.0, 41):
            mlp.set_params(theta0 + t * direction)
            vals.append(flowmap_markov_grad(mlp, mesh, pou, x, src, 0.1,
                                            target)[0])
        return np.abs(np.diff(vals)).sum() / (vals[0] + 1e-12)

    assert total_variation(5.0) < total_variation(0.05)


def test_pfo_fit_queries_under_half_of_the_images_per_call():
    # bench-sized: 400 cells and 4000 sources on the van der Pol cycle,
    # the benchmark's model; after set-up, the fit's calls take most
    # images' neighbours from the candidates, not from the tree
    states = integrate_ode(make_system("van_der_pol", c=1.0), [1.5, 0.0],
                           0.05, 8200, substeps=2).states[200:]
    mesh = build_mesh(SampleCloud(states), 400, seed=1)
    sources = subsample_stride(SampleCloud(states[:-1]), 4000)
    pou = PartitionOfUnity(mesh.centers, 0.05)
    target = estimate_markov((states[:-1], states[1:]), mesh, pou)
    model = make_model({"model": {"hidden": [32, 32], "seed": 2}}, 2,
                       Trajectory(states, 0.05), 0.05)
    lng = make_pfo_loss(target, model, mesh, pou, sources, 0.05)
    pou.tree = _CountingTree(mesh.centers)
    _run_loop(lng, model, {}, n_iters=3)
    assert sum(pou.tree.queries) < 0.5 * 3 * sources.n
