import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from ergodic_sysid import pfo
from ergodic_sysid.fvm import RegularizedMarkov, stationary_density
from ergodic_sysid.measure import SampleCloud
from ergodic_sysid.pfo import (EstimationError, MeshBuildError,
                               PartitionOfUnity, UlamMatrix,
                               UnstructuredMesh, build_mesh, estimate_markov,
                               flowmap_markov_grad, invariant_density)
from ergodic_sysid.systems import IntegrationBlowupError, make_system
from ergodic_sysid.velocity_models import MlpModel, flow_rk4_vjp


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


def test_degenerate_samples_raise_after_restarts():
    pts = np.zeros((20, 2))
    with pytest.raises(MeshBuildError):
        build_mesh(SampleCloud(pts), 2, seed=0)


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
    for eps in (0.0, 1e-3, 0.5, 5.0):
        w = PartitionOfUnity(centers, eps).eval(pts)
        assert np.abs(w.sum(axis=1) - 1.0).max() < 1e-10
        assert w.min() >= 0.0


def test_pou_hard_indicator_at_zero_eps():
    centers = np.array([[0.0], [1.0]])
    pou = PartitionOfUnity(centers, 0.0)
    w = pou.eval(np.array([[0.2], [0.9]]))
    assert np.array_equal(w, [[1.0, 0.0], [0.0, 1.0]])


def test_pou_pullback_matches_fd_across_chunks(monkeypatch):
    # 11 points in chunks of 4; far centres put some u = d/eps above the
    # saturation threshold 33 of the kernel
    monkeypatch.setattr(pfo, "_CHUNK", 4)
    rng = np.random.default_rng(40)
    pts = rng.uniform(-2.0, 2.0, size=(11, 2))
    centers = np.vstack([rng.uniform(-2.0, 2.0, size=(5, 2)),
                         [[12.0, 0.0], [0.0, -14.0]]])
    pou = PartitionOfUnity(centers, 0.3)
    seeds = rng.standard_normal((11, 7))
    psi, pullback = pou.linearize(pts)
    assert np.array_equal(psi, pou.eval(pts))
    assert np.any(np.linalg.norm(pts[:, None] - centers, axis=2) / 0.3 > 33)
    got = pullback(seeds)
    assert np.array_equal(pou.vjp(pts, seeds), got)
    h = 1e-6
    for i in range(pts.shape[0]):
        for k in range(2):
            e = np.zeros_like(pts)
            e[i, k] = h
            fd = ((pou.eval(pts + e) * seeds).sum()
                  - (pou.eval(pts - e) * seeds).sum()) / (2 * h)
            assert abs(fd - got[i, k]) / max(abs(fd), 1e-9) < 1e-6


def test_pou_pullback_is_zero_at_zero_eps():
    rng = np.random.default_rng(41)
    pts = rng.normal(size=(9, 2))
    pou = PartitionOfUnity(rng.normal(size=(4, 2)), 0.0)
    psi, pullback = pou.linearize(pts)
    assert np.array_equal(psi, pou.eval(pts))
    assert np.all(pullback(rng.standard_normal((9, 4))) == 0.0)


def test_pou_eval_builds_the_kernel_in_place():
    # every centre within u <= 33 of every point is the kernel's largest
    # case: exp(-u) and log1p(exp(-u)) are then full-size too
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
    assert peak < 4.75 * n_points * n_cells * 8


def test_estimate_identity_map():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(500, 2))
    mesh = build_mesh(SampleCloud(x), 6, seed=7)
    pou = PartitionOfUnity(mesh.centers, 0.0)
    M = estimate_markov((x, x), mesh, pou)
    assert np.allclose(M.matrix, np.eye(6))


def test_estimate_doubling_map_within_binomial():
    rng = np.random.default_rng(0)
    x, y = _doubling_pairs(rng, 10000)
    mesh = UnstructuredMesh(np.array([[0.25], [0.75]]))
    M = estimate_markov((x, y), mesh, PartitionOfUnity(mesh.centers, 0.0))
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
        M = estimate_markov((x, y), mesh,
                            PartitionOfUnity(mesh.centers, eps))
        assert np.abs(M.matrix.sum(axis=1) - 1.0).max() < 1e-12
        assert M.matrix.min() >= 0.0


def test_estimate_empty_source_cell():
    x = np.full((10, 1), 0.1)
    mesh = UnstructuredMesh(np.array([[0.0], [5.0]]))
    with pytest.raises(EstimationError):
        estimate_markov((x, x), mesh, PartitionOfUnity(mesh.centers, 0.0))


def test_eps_to_zero_consistency():
    rng = np.random.default_rng(10)
    x = rng.random((2000, 2))
    cat = make_system("cat_modified")
    y = cat.step(x)
    mesh = build_mesh(SampleCloud(x), 16, seed=11)
    M0 = estimate_markov((x, y), mesh, PartitionOfUnity(mesh.centers, 0.0))
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
    M = estimate_markov((x, y), mesh, PartitionOfUnity(mesh.centers, 0.0))
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
        chain = RegularizedMarkov(sp.csr_matrix(mat.T), eps, None)
        direct = stationary_density(chain)
        assert np.abs(pi.weights - direct.weights).max() < 1e-10


def test_flowmap_zero_velocity_is_identity():
    rng = np.random.default_rng(16)
    x = rng.normal(size=(300, 2))
    mesh = build_mesh(SampleCloud(x), 5, seed=17)
    pou = PartitionOfUnity(mesh.centers, 0.0)
    mlp = MlpModel([2, 4, 2])
    mlp.init_params("zeros")
    M = _flowmap(mlp, mesh, pou, SampleCloud(x), 0.05)
    assert np.allclose(M.matrix, np.eye(5))


def test_flowmap_gradient_matches_fd():
    rng = np.random.default_rng(18)
    x = SampleCloud(rng.normal(size=(150, 2)))
    mesh = build_mesh(x, 5, seed=19)
    pou = PartitionOfUnity(mesh.centers, 0.6)
    rot = lambda z: np.stack([z[:, 1], -z[:, 0]], axis=1)
    target = _flowmap(rot, mesh, pou, x, 0.1, substeps=2)
    mlp = MlpModel([2, 6, 2])
    mlp.init_params(seed=20)
    theta = mlp.get_params()

    def lg(t):
        mlp.set_params(t)
        return flowmap_markov_grad(mlp, mesh, pou, x, 0.1, target,
                                   substeps=2)[:2]

    _, grad = lg(theta)
    for c in rng.choice(theta.size, 5, replace=False):
        e = np.zeros_like(theta)
        e[c] = 1e-6
        jp, _ = lg(theta + e)
        jm, _ = lg(theta - e)
        fd = (jp - jm) / 2e-6
        assert abs(fd - grad[c]) / max(abs(fd), abs(grad[c]), 1e-12) < 1e-3


def test_flowmap_gradient_builds_the_kernel_once(monkeypatch):
    rng = np.random.default_rng(43)
    x = SampleCloud(rng.normal(size=(120, 2)))
    mesh = build_mesh(x, 6, seed=44)
    pou = PartitionOfUnity(mesh.centers, 0.5)
    target = _flowmap(lambda z: -z, mesh, pou, x, 0.1)
    mlp = MlpModel([2, 4, 2])
    mlp.init_params(seed=45)
    calls = []
    cdist = pfo.cdist

    def counting(a, b, *metric, **kwargs):
        if not metric:  # point-to-centre distances of the kernel
            calls.append(len(a))
        return cdist(a, b, *metric, **kwargs)

    monkeypatch.setattr(pfo, "cdist", counting)
    loss, grad, mhat = flowmap_markov_grad(mlp, mesh, pou, x, 0.1, target)
    assert calls == [120]
    assert loss > 0.0 and np.any(grad != 0.0)
    assert np.array_equal(
        mhat.matrix, _flowmap(mlp, mesh, pou, x, 0.1).matrix)


def test_flowmap_gradient_blowup_raises():
    rng = np.random.default_rng(25)
    x = SampleCloud(rng.normal(size=(60, 2)))
    mesh = build_mesh(x, 4, seed=26)
    pou = PartitionOfUnity(mesh.centers, 0.5)
    target = _flowmap(lambda z: -z, mesh, pou, x, 0.1)
    mlp = MlpModel([2, 4, 2], out_scale=1e16)
    mlp.init_params(seed=27)
    with pytest.raises(IntegrationBlowupError):
        flowmap_markov_grad(mlp, mesh, pou, x, 0.1, target)


def test_larger_eps_smooths_loss_landscape():
    rng = np.random.default_rng(21)
    x = SampleCloud(rng.normal(size=(200, 2)))
    mesh = build_mesh(x, 12, seed=22)
    rot = lambda z: np.stack([z[:, 1], -z[:, 0]], axis=1)
    mlp = MlpModel([2, 8, 2])
    mlp.init_params(seed=23)
    theta0 = mlp.get_params()
    direction = np.random.default_rng(24).standard_normal(theta0.size)
    direction /= np.linalg.norm(direction)

    def total_variation(eps):
        pou = PartitionOfUnity(mesh.centers, eps)
        target = _flowmap(rot, mesh, pou, x, 0.1)
        vals = []
        for t in np.linspace(0.0, 3.0, 41):
            mlp.set_params(theta0 + t * direction)
            vals.append(flowmap_markov_grad(mlp, mesh, pou, x, 0.1,
                                            target)[0])
        return np.abs(np.diff(vals)).sum() / (vals[0] + 1e-12)

    assert total_variation(5.0) < total_variation(0.05)
