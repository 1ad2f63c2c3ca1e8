import numpy as np
import pytest
import scipy.sparse as sp

from ergodic_sysid.adjoint import (AdjointSolveError, grad_face_velocities,
                                   grad_parameters, solve_adjoint)
from ergodic_sysid.fvm import (RegularizedMarkov, assemble_K, cfl_dt,
                               stationary_density, teleport)
from ergodic_sysid.measure import Grid, Measure, grid_objective
from ergodic_sysid.optim import finite_difference_check, make_fvm_loss
from ergodic_sysid.velocity_models import FaceValuesModel, MlpModel


def _small_problem(seed=0, n=10, eps=1e-2, D=0.05):
    rng = np.random.default_rng(seed)
    grid = Grid([0.0], [1.0], [n])
    model = FaceValuesModel(grid)
    model.set_params(rng.uniform(-1.0, 1.0, size=n))
    dt = cfl_dt(grid, D, 1.0, safety=0.9)
    op = assemble_K(grid, model, D, dt)
    M = teleport(op, eps)
    rho = stationary_density(M)
    return grid, model, op, M, rho, rng


def test_constant_sensitivity_gives_zero_multiplier():
    _, _, _, M, rho, _ = _small_problem()
    sol = solve_adjoint(M, rho, np.full(M.n, 3.7))
    assert np.abs(sol.lam).max() < 1e-10


def test_two_cell_elimination_oracle():
    M = RegularizedMarkov(sp.identity(2, format="csr"), 0.5, None)
    rho = np.array([0.5, 0.5])
    sol = solve_adjoint(M, rho, np.array([1.0, 0.0]))
    # (M^T - I) lam = (-0.5, 0.5) with gauge lam.1 = 0 solves to (1, -1)
    assert np.allclose(sol.lam, [1.0, -1.0], atol=1e-10)


def test_random_consistent_rhs_residuals():
    rng = np.random.default_rng(5)
    grid = Grid([0.0, 0.0], [1.0, 1.0], [10, 10])
    model = FaceValuesModel(grid)
    model.set_params(rng.uniform(-1, 1, size=model.n_params))
    dt = cfl_dt(grid, 0.02, 1.0, safety=0.9)
    op = assemble_K(grid, model, 0.02, dt)
    M = teleport(op, 1e-3)
    rho = stationary_density(M)
    for _ in range(5):
        g = rng.standard_normal(M.n)
        sol = solve_adjoint(M, rho, g, tol=1e-8)
        assert sol.residual < 1e-8
        assert abs(sol.lam.sum()) < 1e-8 * M.n


def test_gauge_invariance_of_face_gradients():
    grid, model, op, M, rho, rng = _small_problem(seed=1)
    g = rng.standard_normal(M.n)
    sol = solve_adjoint(M, rho, g)
    base = grad_face_velocities(op, M, rho, sol)
    shifted = type(sol)(sol.lam + 42.0, sol.residual)
    moved = grad_face_velocities(op, M, rho, shifted)
    for a, b in zip(base, moved):
        assert np.allclose(a, b, atol=1e-10)


def test_zero_and_constant_multiplier_give_zero_gradient():
    grid, model, op, M, rho, _ = _small_problem(seed=2)
    zero = type(solve_adjoint(M, rho, np.zeros(M.n)))(np.zeros(M.n), 0.0)
    for arr in grad_face_velocities(op, M, rho, zero):
        assert np.all(arr == 0.0)


def test_boundary_faces_have_zero_gradient():
    grid, model, op, M, rho, rng = _small_problem(seed=3)
    sol = solve_adjoint(M, rho, rng.standard_normal(M.n))
    grads = grad_face_velocities(op, M, rho, sol)
    assert grads[0][0] == 0.0  # lower wall face of the first cell


def test_face_gradients_match_finite_differences():
    rng = np.random.default_rng(7)
    n, D, eps = 8, 0.05, 1e-2
    grid = Grid([0.0], [1.0], [n])
    model = FaceValuesModel(grid)
    theta0 = rng.uniform(-1.0, 1.0, size=n)
    model.set_params(theta0)
    dt = cfl_dt(grid, D, 2.0, safety=0.9)
    target_w = rng.random(n)
    target = Measure(target_w / target_w.sum(), grid)
    obj = grid_objective("l2")

    def loss(theta):
        model.set_params(theta)
        op = assemble_K(grid, model, D, dt)
        M = teleport(op, eps)
        rho = stationary_density(M)
        return obj(rho.weights, target.weights, grid.cell_volume)[0]

    model.set_params(theta0)
    op = assemble_K(grid, model, D, dt)
    M = teleport(op, eps)
    rho = stationary_density(M)
    val, djdrho = obj(rho.weights, target.weights, grid.cell_volume)
    sol = solve_adjoint(M, rho, djdrho)
    face = grad_face_velocities(op, M, rho, sol)[0]
    h = 1e-6
    for j in range(1, n):  # interior faces only
        e = np.zeros(n)
        e[j] = h
        fd = (loss(theta0 + e) - loss(theta0 - e)) / (2 * h)
        assert abs(fd - face[j]) / max(abs(fd), abs(face[j]), 1e-12) < 1e-5


def test_objective_sensitivities_match_fd():
    rng = np.random.default_rng(8)
    w = rng.random(30) + 0.05
    w /= w.sum()
    t = rng.random(30) + 0.05
    t /= t.sum()
    for name in ("l2", "kl", "quadratic"):
        obj = grid_objective(name)
        _, grad = obj(w, t, 0.4)
        for _ in range(10):
            d = rng.standard_normal(30)
            h = 1e-7
            fd = (obj(w + h * d, t, 0.4)[0] - obj(w - h * d, t, 0.4)[0]) \
                / (2 * h)
            assert abs(fd - grad @ d) / max(abs(fd), 1e-9) < 1e-6


def test_linear_parameterization_chain_rule():
    grid = Grid([0.0], [1.0], [12])
    model = MlpModel([1, 1])  # v(x) = w x + b, parameters (w, b)
    model.set_params(np.array([-0.8, 0.3]))
    rng = np.random.default_rng(9)
    face_grads = [rng.standard_normal(12)]
    face_grads[0][0] = 0.0
    op = assemble_K(grid, model, 0.05, cfl_dt(grid, 0.05, 1.0))
    got = grad_parameters(face_grads, model, op)
    centers = grid.centers()
    pts = centers.copy()
    pts[:, 0] -= 0.5 * grid.spacings[0]
    expected = np.array([face_grads[0] @ pts[:, 0], face_grads[0].sum()])
    assert np.allclose(got, expected)


def test_end_to_end_mlp_gradient():
    rng = np.random.default_rng(11)
    grid = Grid([-1.0], [1.0], [16])
    mlp = MlpModel([1, 12, 12, 1])
    mlp.init_params(seed=4)
    w = rng.random(16) + 0.1
    target = Measure(w / w.sum(), grid)
    loss_and_grad, _ = make_fvm_loss(target, mlp, grid, D=0.05,
                                     eps_tele=1e-3, objective="l2")
    theta = mlp.get_params()
    coords = rng.choice(theta.size, 5, replace=False)
    errs = finite_difference_check(loss_and_grad, theta, coords)
    assert max(errs.values()) < 1e-5


def test_fvm_iteration_runs_the_network_once_per_axis(monkeypatch):
    rng = np.random.default_rng(13)
    grid = Grid([-1.0, -1.0], [1.0, 1.0], [6, 5])
    mlp = MlpModel([2, 8, 2])
    mlp.init_params(seed=6)
    w = rng.random(grid.n_cells) + 0.1
    target = Measure(w / w.sum(), grid)
    loss_and_grad, _ = make_fvm_loss(target, mlp, grid, D=0.05,
                                     eps_tele=1e-3)
    rows = []
    forward = MlpModel._forward
    monkeypatch.setattr(MlpModel, "_forward",
                        lambda self, X: rows.append(len(X))
                        or forward(self, X))
    loss_and_grad(mlp.get_params())
    # one pass per axis, over the interior lower faces only
    assert rows == [25, 24]


def test_end_to_end_mlp_gradient_kl():
    rng = np.random.default_rng(12)
    grid = Grid([-1.0], [1.0], [12])
    mlp = MlpModel([1, 8, 1])
    mlp.init_params(seed=5)
    w = rng.random(12) + 0.2
    target = Measure(w / w.sum(), grid)
    loss_and_grad, _ = make_fvm_loss(target, mlp, grid, D=0.05,
                                     eps_tele=1e-2, objective="kl")
    theta = mlp.get_params()
    errs = finite_difference_check(loss_and_grad, theta,
                                   rng.choice(theta.size, 4, replace=False))
    assert max(errs.values()) < 1e-4
