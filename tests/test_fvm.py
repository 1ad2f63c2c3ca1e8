import numpy as np
import pytest
import scipy.sparse as sp

from ergodic_sysid.experiments import vdp_refinement_study
from ergodic_sysid.fvm import (COLSUM_TOL, STATIONARY_TOL, AssemblyError,
                               NonConvergenceError, RegularizedMarkov,
                               assemble_K, cfl_dt, face_velocities, frozen_dt,
                               stationary_density, teleport)
from ergodic_sysid.measure import Grid
from ergodic_sysid.pfo import UlamMatrix, invariant_density
from ergodic_sysid.systems import OdeSystem, integrate_sde, make_system
from ergodic_sysid.velocity_models import MlpModel


def _interior(grid, padded):
    """Per axis i, the entries of row i of a (dim, n_cells) array at the
    interior lower faces: the layout of face velocities and gradients."""
    return [padded[i, low] for i, low in enumerate(grid.lower_faces)]


def _random_operator(rng):
    dim = rng.integers(1, 4)
    n_per_dim = rng.integers(3, 7, size=dim)
    lo = rng.uniform(-2, 0, size=dim)
    hi = lo + rng.uniform(0.5, 3, size=dim)
    grid = Grid(lo, hi, n_per_dim)
    face_v = rng.uniform(-1.5, 1.5, size=(grid.dim, grid.n_cells))
    face_v = _interior(grid, face_v)
    D = rng.uniform(0.01, 0.4)
    dt = cfl_dt(grid, D, 1.5)
    return assemble_K(grid, face_v, D, dt), grid


def test_cfl_formula_value():
    grid = Grid([0.0, 0.0], [1.0, 1.0], [11, 11])
    got = cfl_dt(grid, 0.001, 1.0)
    assert np.isclose(got, 0.9 * 0.25 * 0.01 / (0.001 + 0.1 * 1.0))


def test_cfl_halves_with_double_diffusion():
    grid = Grid([0.0], [1.0], [11])
    a = cfl_dt(grid, 0.2, 0.0)
    b = cfl_dt(grid, 0.4, 0.0)
    assert np.isclose(a, 2.0 * b)


def test_cfl_decreases_with_dimension():
    vals = []
    for d in (1, 2, 3):
        grid = Grid([0.0] * d, [1.0] * d, [6] * d)
        vals.append(cfl_dt(grid, 0.1, 1.0))
    assert vals[0] > vals[1] > vals[2]


def test_cfl_degenerate():
    grid = Grid([0.0], [1.0], [5])
    with pytest.raises(ValueError, match="not both zero"):
        cfl_dt(grid, 0.0, 0.0)


def test_assemble_zero_field_zero_matrix():
    grid = Grid([0.0, 0.0], [1.0, 1.0], [4, 4])
    op = assemble_K(grid, _interior(grid, np.zeros((2, 16))), 0.0, 0.01)
    assert op.K.nnz == 0 or np.all(op.K.data == 0.0)


# a short axis, one axis, three axes, and the padded (dim, n_cells) array:
# each axis must hold exactly its interior lower faces
@pytest.mark.parametrize("shape", [[np.zeros(12), np.zeros(11)],
                                   [np.zeros(12)], [np.zeros(12)] * 3,
                                   np.zeros((2, 16))])
def test_assemble_rejects_face_velocities_of_another_shape(shape):
    grid = Grid([0.0, 0.0], [1.0, 1.0], [4, 4])
    with pytest.raises(ValueError,
                       match=r"the grid needs \[\(12,\), \(12,\)\]"):
        assemble_K(grid, shape, 0.1, 0.01)


def test_assemble_1d_constant_advection_oracle():
    grid = Grid([0.0], [1.0], [5])
    v = 0.7
    dt = cfl_dt(grid, 0.0, v)
    op = assemble_K(grid, [np.full(4, v)], 0.0, dt)
    # the four interior faces; the lower wall carries no flux
    assert np.array_equal(op.face_velocities[0], np.full(4, v))
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
    D = 0.05
    dt = cfl_dt(grid, D, 0.0)
    op = assemble_K(grid, [np.zeros(4)], D, dt)
    K = op.K.toarray()
    r = dt * D / grid.spacings[0] ** 2
    for j in range(1, 4):
        assert np.isclose(K[j - 1, j], r)
        assert np.isclose(K[j + 1, j], r)
        assert np.isclose(K[j, j], -2 * r)
    assert np.isclose(K[0, 0], -r)  # wall cell loses one face


def test_density_at_one_teleport_rate_does_not_depend_on_dt():
    # gamma = eps / ((1 - eps) dt) is the restart rate per unit time; at
    # 100 dt, far past the CFL bound, I + K has negative diagonal entries
    # and the M-matrix solve still gives the same positive density
    sys = make_system("van_der_pol", c=1.0)
    grid = Grid([-3.0, -4.0], [3.0, 4.0], [16, 16])
    D, eps = 0.05, 1e-3
    dt = frozen_dt(grid, sys, D)
    face_v, _ = face_velocities(grid, sys)
    r = 100.0 * eps / (1.0 - eps)
    rhos = []
    for step, e in ((dt, eps), (100.0 * dt, r / (1.0 + r))):
        op = assemble_K(grid, face_v, D, step)
        rhos.append(stationary_density(teleport(op, e)))
    assert 1.0 + op.K.diagonal().min() < -1.0
    assert rhos[0].min() > 0.0 and rhos[1].min() > 0.0
    assert np.abs(rhos[1] - rhos[0]).sum() < 1e-12 * rhos[0].sum()


def test_assemble_rejects_a_non_finite_face():
    grid = Grid([0.0, 0.0], [1.0, 1.0], [4, 4])
    face_v = np.full((2, grid.n_cells), 0.5)
    face_v[1, 6] = np.nan  # axis-1 lower face of cell 6, interior
    with pytest.raises(AssemblyError, match="absolute sum nan") as err:
        assemble_K(grid, _interior(grid, face_v), 0.1, 0.01)
    assert err.value.cell in (6 - grid.strides[1], 6)


@pytest.mark.parametrize("scale", [1e5, 1e6])
def test_assemble_checks_column_sums_relative_to_the_diagonal(scale):
    # at the frozen dt, a field grown by ``scale`` leaves column sums of
    # K that are rounding of |K_jj| and above 1e-12 in absolute terms
    sys = make_system("van_der_pol", c=1.0)
    grid = Grid([-3.0, -4.0], [3.0, 4.0], [64, 64])
    D = 0.05
    face_v, _ = face_velocities(grid, sys)
    op = assemble_K(grid, [scale * f for f in face_v], D,
                    frozen_dt(grid, sys, D))
    colsums = np.abs(np.asarray(op.K.sum(axis=0)).ravel())
    assert np.all(colsums <= COLSUM_TOL * np.abs(op.K.diagonal()))


def test_random_operators_markov_property():
    rng = np.random.default_rng(21)
    for _ in range(20):
        op, grid = _random_operator(rng)
        colsums = np.asarray(op.K.sum(axis=0)).ravel()
        assert np.abs(colsums).max() < 1e-12
        IK = sp.identity(grid.n_cells) + op.K
        assert IK.toarray().min() >= -1e-14


def test_teleport_dense_example():
    # the teleported update I - B + (eps/N) 1 1^T of M = I at eps 0.5
    M = RegularizedMarkov(sp.identity(2, format="csr"), 0.5)
    dense = np.eye(2) - M.B.toarray() + M.eps / M.n
    assert np.allclose(dense, [[0.75, 0.25], [0.25, 0.75]])


def test_teleport_eps_validated():
    rng = np.random.default_rng(24)
    op, _ = _random_operator(rng)
    for eps in (0.0, 1.5):
        with pytest.raises(ValueError):
            teleport(op, eps)


def test_stationary_symmetric_two_cell():
    M = RegularizedMarkov(sp.identity(2, format="csr"), 0.5)
    rho = stationary_density(M)
    assert np.allclose(rho, [0.5, 0.5], atol=1e-12)


def test_stationary_residual_postcondition():
    # rho is the fixed point of the explicit teleported update
    # (1-eps)(I + K) + eps U, written here from K and not from B
    rng = np.random.default_rng(25)
    op, grid = _random_operator(rng)
    eps = 1e-3
    rho = stationary_density(teleport(op, eps))
    update = (1.0 - eps) * (rho + op.K @ rho) + eps * rho.sum() / rho.size
    assert np.abs(update - rho).sum() < 1e-12
    assert rho.min() > 0.0


def test_stationary_direct_matches_power():
    # dense oracle: solve (I - (1-eps) M) rho = eps/N 1 with numpy
    rng = np.random.default_rng(26)
    eps = 1e-2
    for _ in range(5):
        op, grid = _random_operator(rng)
        M = teleport(op, eps)
        n = M.n
        oracle = np.linalg.solve(M.B.toarray(), np.full(n, eps / n))
        b = stationary_density(M)
        assert np.abs(oracle / oracle.sum() - b).max() < 1e-9


def test_stationary_requires_teleportation():
    # without teleportation the swap chain has no unique fixed point and
    # I - M is singular; the solve refuses it instead of guessing
    swap = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(ValueError, match="eps > 0"):
        stationary_density(RegularizedMarkov(swap, 0.0))
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
                                                  [0.0, 0.0]])), 0.5)
    with pytest.raises(NonConvergenceError,
                       match="negative mass 3.333e-01") as exc:
        stationary_density(M)
    assert exc.value.residual == pytest.approx(1.0 / 3.0)


def test_van_der_pol_density_concentrates_on_cycle():
    from ergodic_sysid.systems import integrate_ode
    sys = make_system("van_der_pol", c=1.0)
    grid = Grid([-3.0, -3.5], [3.0, 3.5], [100, 100])
    dt = cfl_dt(grid, 1e-3, float(np.abs(sys.rhs(grid.centers())).max()))
    op = assemble_K(grid, face_velocities(grid, sys)[0], 1e-3, dt)
    M = teleport(op, 1e-8)
    rho = stationary_density(M)
    cycle = integrate_ode(sys, [1.5, 0.0], 0.02, 2000).states[1000:]
    centers = grid.centers()
    # distance of every cell center to the limit-cycle polyline; the
    # annulus half-width 0.5 covers the first-order scheme's numerical
    # diffusion at this resolution (~18% of the box area)
    d = np.min(np.linalg.norm(centers[:, None, :] - cycle[None, ::10, :],
                              axis=2), axis=1)
    mass_near = rho[d < 0.5].sum()
    assert mass_near >= 0.95


def test_evolve_pure_diffusion_heat_oracle():
    grid = Grid([0.0], [1.0], [10])
    D = 0.1
    dt = cfl_dt(grid, D, 0.0)
    op = assemble_K(grid, [np.zeros(9)], D, dt)
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


def _face_centers(grid, i):
    """Centres of the interior lower faces along axis i, in the order of
    ``grid.lower_faces[i]``."""
    pts = grid.centers()[grid.lower_faces[i]]
    pts[:, i] -= 0.5 * grid.spacings[i]
    return pts


def test_face_velocities_layout():
    grid = Grid([0.0, 0.0], [1.0, 2.0], [4, 3])
    mlp = MlpModel([2, 5, 2])
    mlp.init_params(seed=3)
    values = mlp.eval_batch(grid.centers())
    face_v, pullback = face_velocities(grid, mlp)
    assert callable(pullback)
    assert [f.shape for f in face_v] == [(9,), (8,)]
    for i, low in enumerate(grid.lower_faces):
        # the face of cell j is the upper face of its lower neighbour
        below = values[low - grid.strides[i], i]
        assert np.array_equal(face_v[i], 0.5 * (values[low, i] + below))
    assert face_velocities(grid, make_system("van_der_pol", c=1.0))[1] \
        is None


@pytest.mark.parametrize("name, grid", [
    ("van_der_pol", Grid([-3.0, -4.0], [3.0, 4.0], [64, 64])),
    ("lorenz63", Grid([-20.0, -25.0, 0.0], [20.0, 25.0, 50.0], [12] * 3)),
])
def test_face_average_of_a_catalog_field_is_its_face_value(name, grid):
    # each component of these fields is affine in its own coordinate, so
    # the two-cell mean is the value at the face centre up to rounding
    sys = make_system(name)
    face_v, _ = face_velocities(grid, sys)
    for i in range(grid.dim):
        exact = sys.rhs(_face_centers(grid, i))[:, i]
        assert np.abs(face_v[i] - exact).max() \
            <= 1e-14 * np.abs(exact).max()


def test_face_average_of_an_mlp_is_second_order():
    mlp = MlpModel([2, 16, 16, 2])
    mlp.init_params(seed=4)
    gaps = []
    for n in (16, 32, 64, 128):
        grid = Grid([-2.0, -2.0], [2.0, 2.0], [n, n])
        face_v, _ = face_velocities(grid, mlp)
        gaps.append(max(
            np.abs(face_v[i] - mlp.eval_batch(_face_centers(grid, i))[:, i])
            .max() for i in range(grid.dim)))
    # dx = 4/(n - 1) about halves with each doubling of n
    assert all(coarse >= 3.5 * fine for coarse, fine in zip(gaps, gaps[1:]))


def test_frozen_dt_is_half_the_cfl_bound_at_the_sup_norm():
    grid = Grid([0.0, 0.0], [1.0, 2.0], [4, 5])
    field = make_system("van_der_pol", c=1.0)
    v_inf = np.abs(field.rhs(grid.centers())).max()
    assert frozen_dt(grid, field, 0.1) == cfl_dt(grid, 0.1, v_inf) * 0.5
    mlp = MlpModel([2, 5, 2])
    mlp.init_params(seed=3)
    v_inf = np.abs(mlp.eval_batch(grid.centers())).max()
    assert frozen_dt(grid, mlp, 0.1) == cfl_dt(grid, 0.1, v_inf) * 0.5
    # a zero field falls back to a tiny speed instead of an infinite step
    still = OdeSystem("still", 2, {}, np.zeros_like)
    assert frozen_dt(grid, still, 0.1) == cfl_dt(grid, 0.1, 1e-9) * 0.5


def test_vdp_refinement_study_is_monotone():
    # the stationary density of the true van der Pol field approaches the
    # pooled SDE reference as the grid refines; 250k steps of 4e-3 cover
    # the 1000 time units of the default 1M steps of 1e-3
    study = vdp_refinement_study(n_sde_steps=250000, sde_dt=4e-3)
    w2 = [row["w2"] for row in study["rows"]]
    assert [row["n_per_dim"] for row in study["rows"]] == [25, 50, 100]
    assert study["monotone"] and np.all(np.diff(w2) < 0), w2
