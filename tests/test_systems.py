import numpy as np
import pytest
from scipy.stats import kstest

from ergodic_sysid.systems import (CatalogMissError, DiscreteMap,
                                   IntegrationBlowupError, OdeSystem,
                                   builtin_systems, integrate_ode,
                                   integrate_sde, iterate_map, make_system)


def test_zero_field_constant_trajectory():
    sys = OdeSystem("zero", 2, {}, lambda x: np.zeros_like(x))
    traj = integrate_ode(sys, [1.0, 2.0], 0.3, 7)
    assert traj.states.shape == (8, 2)
    assert np.allclose(traj.states, [1.0, 2.0])


def test_exponential_decay_oracle():
    sys = OdeSystem("decay", 1, {}, lambda x: -x)
    traj = integrate_ode(sys, [1.0], 0.1, 10)
    assert abs(traj.states[-1, 0] - np.exp(-1.0)) < 1e-6


def test_rk4_fourth_order_convergence():
    sys = OdeSystem("decay", 1, {}, lambda x: -x)
    errs = []
    for substeps in (1, 2):
        traj = integrate_ode(sys, [1.0], 0.4, 5, substeps=substeps)
        errs.append(abs(traj.states[-1, 0] - np.exp(-2.0)))
    ratio = errs[0] / errs[1]
    assert 12.0 < ratio < 20.0


def test_van_der_pol_limit_cycle_bounded():
    sys = make_system("van_der_pol", c=2.0)
    traj = integrate_ode(sys, [0.1, 0.0], 0.05, 4000)
    late = traj.states[2000:]
    radii = np.linalg.norm(late, axis=1)
    assert radii.min() > 0.5 and radii.max() < 5.0


def test_em_zero_diffusion_equals_explicit_euler():
    sys = make_system("van_der_pol", c=1.0)
    traj = integrate_sde(sys, 0.0, [1.0, 0.5], 0.01, 200, seed=4)
    x = np.array([1.0, 0.5])
    for _ in range(200):
        x = x + 0.01 * sys.rhs(x)
    assert np.array_equal(traj.states[-1], x)


def test_em_matches_rk4_to_first_order():
    sys = make_system("van_der_pol", c=1.0)
    dt = 1e-3
    em = integrate_sde(sys, 0.0, [1.0, 0.5], dt, 500, seed=0)
    rk = integrate_ode(sys, [1.0, 0.5], dt, 500)
    err = np.abs(em.states - rk.states).max()
    assert err < 5.0 * dt


def test_brownian_increment_variance():
    sys = OdeSystem("still", 1, {}, lambda x: np.zeros_like(x))
    D, dt = 0.5, 0.01
    traj = integrate_sde(sys, D, [0.0], dt, 100000, seed=8)
    incr = np.diff(traj.states[:, 0])
    assert abs(incr.var() / (2 * D * dt) - 1.0) < 0.1


def test_lorenz63_sde_bounded():
    sys = make_system("lorenz63")
    traj = integrate_sde(sys, 10.0, [1.0, 1.0, 20.0], 0.005, 20000, seed=1)
    assert np.abs(traj.states).max() < 200.0


def test_blowup_names_step():
    explode = OdeSystem("explode", 1, {}, lambda x: x**3)
    with pytest.raises(IntegrationBlowupError) as err:
        integrate_ode(explode, [2.0], 1.0, 50)
    assert err.value.step > 0
    # a field that turns the state into NaN is named as such
    nan = OdeSystem("nan", 1, {}, lambda x: np.where(x > 3.0, np.nan, 1.0))
    with pytest.raises(IntegrationBlowupError) as err:
        integrate_ode(nan, [0.0], 1.0, 50)
    assert str(err.value) == "non-finite state at step 4"


def test_torus_rotation_iterates():
    tr = make_system("torus_rotation", alpha=0.3, beta=0.7)
    traj = iterate_map(tr, [0.0, 0.0], 4)
    assert np.allclose(traj.states[:, 0], [0.0, 0.3, 0.6, 0.9, 0.2])


def test_identity_map_constant():
    ident = DiscreteMap("id", 2, lambda x: x)
    traj = iterate_map(ident, [0.3, 0.4], 5)
    assert np.allclose(traj.states, [0.3, 0.4])


def test_modified_cat_stays_in_unit_square():
    cat = make_system("cat_modified")
    traj = iterate_map(cat, [0.37, 0.58], 2000)
    assert traj.states.min() >= 0.0 and traj.states.max() <= 1.0


def test_modified_cat_invariant_marginal():
    # invariant x-density is 10 x^9, i.e. CDF x^10
    cat = make_system("cat_modified")
    traj = iterate_map(cat, [0.437591, 0.219486], 100000)
    stat = kstest(traj.states[500:, 0], lambda t: t**10)
    assert stat.statistic < 0.02


def test_torus_rotation_uniform_histogram():
    tr = make_system("torus_rotation", alpha=np.sqrt(2) - 1,
                     beta=np.sqrt(3) - 1)
    traj = iterate_map(tr, [0.15, 0.35], 100000)
    bins = 10
    counts, _, _ = np.histogram2d(traj.states[:, 0], traj.states[:, 1],
                                  bins=bins, range=[[0, 1], [0, 1]])
    n = traj.states.shape[0]
    p = 1.0 / bins**2
    sigma = np.sqrt(n * p * (1 - p))
    assert np.abs(counts - n * p).max() < 3.0 * sigma


def test_catalog_contents():
    names = builtin_systems()
    assert {"van_der_pol", "lorenz63", "lorenz96", "cat_modified",
            "cat_arnold", "torus_rotation"} <= set(names)
    assert make_system("lorenz63").dim == 3
    assert make_system("lorenz96", dim=30).dim == 30
    cat = make_system("cat_modified")
    assert isinstance(cat, DiscreteMap)
    assert np.allclose(cat.lo, 0.0) and np.allclose(cat.hi, 1.0)


def test_catalog_miss():
    with pytest.raises(CatalogMissError):
        make_system("not_a_system")


def test_sde_reproducible_per_seed():
    sys = make_system("lorenz63")
    a = integrate_sde(sys, 5.0, [1.0, 1.0, 20.0], 0.01, 500, seed=3)
    b = integrate_sde(sys, 5.0, [1.0, 1.0, 20.0], 0.01, 500, seed=3)
    assert np.array_equal(a.states, b.states)


def test_jac_vjp_matches_finite_differences():
    rng = np.random.default_rng(0)
    for name, kwargs in [("van_der_pol", {}), ("lorenz63", {}),
                         ("lorenz96", {"dim": 6})]:
        sys = make_system(name, **kwargs)
        x = rng.standard_normal(sys.dim)
        g = rng.standard_normal(sys.dim)
        got = sys.jac_vjp(x, g)
        h = 1e-6
        fd = np.empty(sys.dim)
        for k in range(sys.dim):
            e = np.zeros(sys.dim)
            e[k] = h
            fd[k] = g @ (sys.rhs(x + e) - sys.rhs(x - e)) / (2 * h)
        assert np.allclose(got, fd, rtol=1e-5, atol=1e-7), name
