import numpy as np
import pytest
import scipy.sparse as sp

from ergodic_sysid.fvm import (STATIONARY_TOL, AssemblyError,
                               DegenerateDynamicsError, NonConvergenceError,
                               RegularizedMarkov, assemble_K, cfl_dt,
                               frozen_dt, stationary_density, teleport)
from ergodic_sysid.measure import Grid
from ergodic_sysid.pfo import UlamMatrix, invariant_density
from ergodic_sysid.systems import integrate_sde, make_system
from ergodic_sysid.velocity_models import FaceValuesModel


def _random_operator(rng, with_diffusion=True):
    dim = rng.integers(1, 4)
    n_per_dim = rng.integers(3, 7, size=dim)
    lo = rng.uniform(-2, 0, size=dim)
    hi = lo + rng.uniform(0.5, 3, size=dim)
    grid = Grid(lo, hi, n_per_dim)
    model = FaceValuesModel(grid)
    model.set_params(rng.uniform(-1.5, 1.5, size=model.n_params))
    D = rng.uniform(0.01, 0.4) if with_diffusion else 0.0
    dt = cfl_dt(grid, D, 1.5, safety=0.9)
    return assemble_K(grid, model, D, dt), grid


def test_cfl_formula_value():
    grid = Grid([0.0, 0.0], [1.0, 1.0], [11, 11])
    got = cfl_dt(grid, 0.001, 1.0, safety=1.0)
    assert np.isclose(got, 0.25 * 0.01 / (0.001 + 0.1 * 1.0))


def test_cfl_halves_with_double_diffusion():
    grid = Grid([0.0], [1.0], [11])
    a = cfl_dt(grid, 0.2, 0.0, safety=1.0)
    b = cfl_dt(grid, 0.4, 0.0, safety=1.0)
    assert np.isclose(a, 2.0 * b)


def test_cfl_decreases_with_dimension():
    vals = []
    for d in (1, 2, 3):
        grid = Grid([0.0] * d, [1.0] * d, [6] * d)
        vals.append(cfl_dt(grid, 0.1, 1.0, safety=1.0))
    assert vals[0] > vals[1] > vals[2]


def test_cfl_degenerate():
    grid = Grid([0.0], [1.0], [5])
    with pytest.raises(DegenerateDynamicsError):
        cfl_dt(grid, 0.0, 0.0)


def test_assemble_zero_field_zero_matrix():
    grid = Grid([0.0, 0.0], [1.0, 1.0], [4, 4])
    model = FaceValuesModel(grid)
    op = assemble_K(grid, model, 0.0, 0.01)
    assert op.K.nnz == 0 or np.all(op.K.data == 0.0)


def test_assemble_1d_constant_advection_oracle():
    grid = Grid([0.0], [1.0], [5])
    model = FaceValuesModel(grid)
    v = 0.7
    model.set_params(np.full(5, v))
    dt = cfl_dt(grid, 0.0, v, safety=0.9)
    op = assemble_K(grid, model, 0.0, dt)
    K = op.K.toarray()
    c = dt / grid.spacings[0] * v
    expected = np.zeros((5, 5))
    for j in range(4):  # mass moves right; last cell is a zero-flux wall
        expected[j, j] -= c
        expected[j + 1, j] += c
    assert np.allclose(K, expected)
    assert np.abs(K.sum(axis=0)).max() < 1e-14


def test_assemble_1d_diffusion_stencil():
    grid = Grid([0.0], [1.0], [5])
    model = FaceValuesModel(grid)
    D = 0.05
    dt = cfl_dt(grid, D, 0.0, safety=0.9)
    op = assemble_K(grid, model, D, dt)
    K = op.K.toarray()
    r = dt * D / grid.spacings[0] ** 2
    for j in range(1, 4):
        assert np.isclose(K[j - 1, j], r)
        assert np.isclose(K[j + 1, j], r)
        assert np.isclose(K[j, j], -2 * r)
    assert np.isclose(K[0, 0], -r)  # wall cell loses one face


def test_assemble_rejects_cfl_violation():
    grid = Grid([0.0], [1.0], [8])
    model = FaceValuesModel(grid)
    model.set_params(np.full(8, 2.0))
    bad_dt = cfl_dt(grid, 0.0, 2.0, safety=1.0) * 3.0
    with pytest.raises(AssemblyError) as err:
        assemble_K(grid, model, 0.0, bad_dt)
    assert 0 <= err.value.cell < 8


def test_random_operators_markov_property():
    rng = np.random.default_rng(21)
    for _ in range(20):
        op, grid = _random_operator(rng)
        colsums = np.asarray(op.K.sum(axis=0)).ravel()
        assert np.abs(colsums).max() < 1e-12
        IK = sp.identity(grid.n_cells) + op.K
        assert IK.toarray().min() >= -1e-14


def test_teleport_identity_at_zero_eps():
    rng = np.random.default_rng(22)
    op, grid = _random_operator(rng)
    M = teleport(op, 0.0)
    x = rng.random(grid.n_cells)
    assert np.allclose(M.apply(x), x + op.K @ x)


def test_teleport_dense_example():
    M = RegularizedMarkov(sp.identity(2, format="csr"), 0.5, None)
    dense = np.column_stack([M.apply(e) for e in np.eye(2)])
    assert np.allclose(dense, [[0.75, 0.25], [0.25, 0.75]])


def test_teleport_strict_positivity():
    rng = np.random.default_rng(23)
    op, grid = _random_operator(rng, with_diffusion=False)
    M = teleport(op, 0.05)
    w = rng.random(grid.n_cells)
    w /= w.sum()
    out = M.apply(w)
    assert out.min() > 0.0
    assert np.isclose(out.sum(), 1.0)


def test_teleport_eps_validated():
    rng = np.random.default_rng(24)
    op, _ = _random_operator(rng)
    with pytest.raises(ValueError):
        teleport(op, 1.5)


def test_stationary_symmetric_two_cell():
    M = RegularizedMarkov(sp.identity(2, format="csr"), 0.5, None)
    rho = stationary_density(M)
    assert np.allclose(rho.weights, [0.5, 0.5], atol=1e-12)


def test_stationary_residual_postcondition():
    rng = np.random.default_rng(25)
    op, grid = _random_operator(rng)
    M = teleport(op, 1e-3)
    tol = 1e-12
    rho = stationary_density(M)
    assert np.abs(M.apply(rho.weights) - rho.weights).sum() < tol
    assert rho.weights.min() > 0.0


def test_stationary_direct_matches_power():
    # dense oracle: solve (I - (1-eps) M) rho = eps/N 1 with numpy
    rng = np.random.default_rng(26)
    eps = 1e-2
    for _ in range(5):
        op, grid = _random_operator(rng)
        M = teleport(op, eps)
        n = M.n
        B = np.eye(n) - (1.0 - eps) * M.M.toarray()
        oracle = np.linalg.solve(B, np.full(n, eps / n))
        b = stationary_density(M)
        assert np.abs(oracle / oracle.sum() - b.weights).max() < 1e-9


def test_stationary_requires_teleportation():
    # without teleportation the swap chain has no unique fixed point and
    # I - M is singular; the solve refuses it instead of guessing
    swap = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(ValueError, match="eps > 0"):
        stationary_density(RegularizedMarkov(swap, 0.0, None))
    with pytest.raises(ValueError, match="eps > 0"):
        invariant_density(UlamMatrix(swap.toarray()), eps_tele=0.0)


def test_nonconvergence_names_residual_and_bound():
    err = NonConvergenceError(3.2e-7)
    assert err.residual == 3.2e-7
    assert "3.200e-07" in str(err) and f"{STATIONARY_TOL:.0e}" in str(err)


def test_stationary_refuses_to_clamp_negative_mass():
    # not a Markov matrix: (I - M/2) rho = 1/4 has rho = (-1/8, 1/4), so a
    # third of the l1 mass is negative
    M = RegularizedMarkov(sp.csr_matrix(np.array([[0.0, -3.0],
                                                  [0.0, 0.0]])), 0.5, None)
    with pytest.raises(NonConvergenceError,
                       match="negative mass 3.333e-01") as exc:
        stationary_density(M)
    assert exc.value.residual == pytest.approx(1.0 / 3.0)


def test_van_der_pol_density_concentrates_on_cycle():
    from ergodic_sysid.systems import integrate_ode
    sys = make_system("van_der_pol", c=1.0)
    grid = Grid([-3.0, -3.5], [3.0, 3.5], [100, 100])
    dt = cfl_dt(grid, 1e-3, float(np.abs(sys.rhs(grid.centers())).max()))
    op = assemble_K(grid, sys, 1e-3, dt)
    M = teleport(op, 1e-8)
    rho = stationary_density(M)
    cycle = integrate_ode(sys, [1.5, 0.0], 0.02, 2000).states[1000:]
    centers = grid.centers()
    # distance of every cell center to the limit-cycle polyline; the
    # annulus half-width 0.5 covers the first-order scheme's numerical
    # diffusion at this resolution (~18% of the box area)
    d = np.min(np.linalg.norm(centers[:, None, :] - cycle[None, ::10, :],
                              axis=2), axis=1)
    mass_near = rho.weights[d < 0.5].sum()
    assert mass_near >= 0.95


def test_evolve_pure_diffusion_heat_oracle():
    grid = Grid([0.0], [1.0], [10])
    model = FaceValuesModel(grid)
    D = 0.1
    dt = cfl_dt(grid, D, 0.0, safety=0.9)
    op = assemble_K(grid, model, D, dt)
    w = np.zeros(10)
    w[3] = 1.0
    # independent dense heat stencil with zero-flux walls
    r = dt * D / grid.spacings[0] ** 2
    ref = w.copy()
    uniform = np.full(10, 0.1)
    last_l1 = np.abs(ref - uniform).sum()
    for step in range(1, 201):
        flux = np.zeros(11)
        flux[1:-1] = r * (ref[1:] - ref[:-1])
        ref = ref + flux[1:] - flux[:-1]
        w = w + op.K @ w  # the explicit update I + K
        assert np.allclose(w, ref, atol=1e-12)
        l1 = np.abs(ref - uniform).sum()
        assert l1 <= last_l1 + 1e-12
        last_l1 = l1


def test_frozen_dt_is_half_the_cfl_bound_at_the_sup_norm():
    grid = Grid([0.0, 0.0], [1.0, 2.0], [4, 5])
    faces = FaceValuesModel(grid)
    faces.set_params(np.linspace(-3.0, 2.0, faces.n_params))
    assert frozen_dt(grid, faces, 0.1) == cfl_dt(grid, 0.1, 3.0) * 0.5
    field = make_system("van_der_pol", c=1.0)
    v_inf = np.abs(field.rhs(grid.centers())).max()
    assert frozen_dt(grid, field, 0.1) == cfl_dt(grid, 0.1, v_inf) * 0.5
    # a zero field falls back to a tiny speed instead of an infinite step
    faces.set_params(np.zeros(faces.n_params))
    assert frozen_dt(grid, faces, 0.1) == cfl_dt(grid, 0.1, 1e-9) * 0.5
