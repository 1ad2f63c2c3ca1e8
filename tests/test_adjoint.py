import numpy as np
import pytest
import scipy.sparse as sp

from ergodic_sysid.adjoint import (AdjointSolveError, grad_face_velocities,
                                   grad_parameters, solve_adjoint)
from ergodic_sysid.fvm import (RegularizedMarkov, assemble_K, cfl_dt,
                               face_velocities, stationary_density, teleport)
from ergodic_sysid.measure import Grid, Measure, grid_objective
from ergodic_sysid.optim import finite_difference_check, make_fvm_loss
from ergodic_sysid.velocity_models import MlpModel


def _small_problem(seed=0, n=10, eps=1e-2, D=0.05):
    rng = np.random.default_rng(seed)
    grid = Grid([0.0], [1.0], [n])
    face_v = [rng.uniform(-1.0, 1.0, size=n)[1:]]  # the n - 1 interior faces
    dt = cfl_dt(grid, D, 1.0)
    op = assemble_K(grid, face_v, D, dt)
    M = teleport(op, eps)
    rho = stationary_density(M)
    return grid, op, M, rho, rng


def test_constant_sensitivity_gives_zero_multiplier():
    _, _, M, rho, _ = _small_problem()
    sol = solve_adjoint(M, rho, np.full(M.n, 3.7))
    assert np.abs(sol.lam).max() < 1e-10


def test_two_cell_elimination_oracle():
    M = RegularizedMarkov(sp.identity(2, format="csr"), 0.5)
    rho = np.array([0.5, 0.5])
    sol = solve_adjoint(M, rho, np.array([1.0, 0.0]))
    # (M^T - I) lam = (-0.5, 0.5) with gauge lam.1 = 0 solves to (1, -1)
    assert np.allclose(sol.lam, [1.0, -1.0], atol=1e-10)


def _grid_chain(eps, seed=5):
    """The chain of random face velocities on a 10 x 10 grid, its
    operator, and the generator that drew them."""
    rng = np.random.default_rng(seed)
    grid = Grid([0.0, 0.0], [1.0, 1.0], [10, 10])
    face_v = rng.uniform(-1, 1, size=(2, grid.n_cells))
    face_v = [face_v[i, low] for i, low in enumerate(grid.lower_faces)]
    op = assemble_K(grid, face_v, 0.02, cfl_dt(grid, 0.02, 1.0))
    return op, teleport(op, eps), rng


def test_random_consistent_rhs_residuals():
    _, M, rng = _grid_chain(1e-3)
    rho = stationary_density(M)
    for _ in range(5):
        g = rng.standard_normal(M.n)
        sol = solve_adjoint(M, rho, g)
        assert sol.residual < 1e-8
        assert abs(sol.lam.sum()) < 1e-8 * M.n


@pytest.mark.parametrize("eps", [1e-4, 1e-3, 0.2])
def test_one_solve_matches_dense_bordered_system(eps):
    # the multiplier of the teleported update M_eps = (1-eps)(I + K) +
    # eps U: (M_eps^T - I) lambda = rhs bordered by the gauge lambda . 1 = 0
    op, M, rng = _grid_chain(eps)
    rho = stationary_density(M)
    g = rng.standard_normal(M.n)
    n = M.n
    m_eps = (1.0 - eps) * (np.eye(n) + op.K.toarray()) + eps / n
    bordered = np.vstack([m_eps.T - np.eye(n), np.ones((1, n))])
    rhs = -g + g @ rho
    oracle = np.linalg.lstsq(bordered, np.append(rhs, 0.0), rcond=None)[0]
    lam = solve_adjoint(M, rho, g).lam
    assert np.linalg.norm(lam - oracle) < 1e-12 * np.linalg.norm(oracle)


def test_lu_solve_of_ones_is_scaled_density():
    # 1^T B = eps 1^T gives B^{-1} 1 = (N/eps) rho, so the adjoint
    # solution of a right-hand side orthogonal to rho sums to zero
    _, M, _ = _grid_chain(1e-3)
    rho = stationary_density(M)
    got = M.lu().solve(np.ones(M.n))
    assert np.allclose(got, M.n / M.eps * rho, rtol=1e-12, atol=0.0)


def test_gauge_invariance_of_face_gradients():
    grid, op, M, rho, rng = _small_problem(seed=1)
    g = rng.standard_normal(M.n)
    sol = solve_adjoint(M, rho, g)
    base = grad_face_velocities(op, M, rho, sol)
    shifted = type(sol)(sol.lam + 42.0, sol.residual)
    moved = grad_face_velocities(op, M, rho, shifted)
    for a, b in zip(base, moved):
        assert np.allclose(a, b, atol=1e-10)


def test_zero_and_constant_multiplier_give_zero_gradient():
    grid, op, M, rho, _ = _small_problem(seed=2)
    zero = type(solve_adjoint(M, rho, np.zeros(M.n)))(np.zeros(M.n), 0.0)
    for arr in grad_face_velocities(op, M, rho, zero):
        assert np.all(arr == 0.0)


def test_boundary_faces_have_zero_gradient():
    grid, op, M, rho, rng = _small_problem(seed=3)
    sol = solve_adjoint(M, rho, rng.standard_normal(M.n))
    grads = grad_face_velocities(op, M, rho, sol)
    # one entry per interior face, none for the two walls
    assert [g.shape for g in grads] == [(grid.n_cells - 1,)]


# the second time step is 50 times the first, far past the CFL bound
@pytest.mark.parametrize("dt_factor", [1.0, 50.0], ids=["cfl", "50x-cfl"])
def test_face_gradients_match_finite_differences(dt_factor):
    rng = np.random.default_rng(7)
    n, D, eps = 8, 0.05, 1e-2
    grid = Grid([0.0], [1.0], [n])
    v0 = rng.uniform(-1.0, 1.0, size=n)[1:]  # the interior faces
    dt = cfl_dt(grid, D, 2.0) * dt_factor
    target_w = rng.random(n)
    target = Measure(target_w / target_w.sum(), grid)
    obj = grid_objective("l2")

    def loss(face_v):
        op = assemble_K(grid, [face_v], D, dt)
        M = teleport(op, eps)
        rho = stationary_density(M)
        return obj(rho, target.weights, grid.cell_volume)[0]

    op = assemble_K(grid, [v0], D, dt)
    M = teleport(op, eps)
    rho = stationary_density(M)
    val, djdrho = obj(rho, target.weights, grid.cell_volume)
    sol = solve_adjoint(M, rho, djdrho)
    face = grad_face_velocities(op, M, rho, sol)[0]
    h = 1e-6
    for j in range(n - 1):
        e = np.zeros(n - 1)
        e[j] = h
        fd = (loss(v0 + e) - loss(v0 - e)) / (2 * h)
        assert abs(fd - face[j]) / max(abs(fd), abs(face[j]), 1e-12) < 1e-5


def test_objective_sensitivities_match_fd():
    rng = np.random.default_rng(8)
    w = rng.random(30) + 0.05
    w /= w.sum()
    t = rng.random(30) + 0.05
    t /= t.sum()
    for name in ("l2", "kl"):
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
    face_grads = [rng.standard_normal(12)[1:]]  # the 11 interior faces
    _, pullback = face_velocities(grid, model)
    got = grad_parameters(grid, face_grads, pullback)
    # the mean of a linear field over two cells is its face-centre value
    pts = grid.centers()[1:, 0] - 0.5 * grid.spacings[0]
    expected = np.array([face_grads[0] @ pts, face_grads[0].sum()])
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


def test_fvm_iteration_runs_the_network_once(monkeypatch):
    rng = np.random.default_rng(13)
    grid = Grid([-1.0, -1.0], [1.0, 1.0], [6, 5])
    mlp = MlpModel([2, 8, 2])
    mlp.init_params(seed=6)
    w = rng.random(grid.n_cells) + 0.1
    target = Measure(w / w.sum(), grid)
    loss_and_grad, _ = make_fvm_loss(target, mlp, grid, D=0.05,
                                     eps_tele=1e-3, objective="l2")
    rows = []
    forward = MlpModel._forward
    monkeypatch.setattr(MlpModel, "_forward",
                        lambda self, X: rows.append(len(X))
                        or forward(self, X))
    loss_and_grad(mlp.get_params())
    # one pass over the cell centres serves the faces of every axis
    assert rows == [grid.n_cells]


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
