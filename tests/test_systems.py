import math
import warnings

import numpy as np
import pytest
from scipy.stats import kstest

from ergodic_sysid.systems import (BLOWUP_LIMIT, NOISE_BLOCK,
                                   CatalogMissError, DiscreteMap,
                                   IntegrationBlowupError, OdeSystem,
                                   _check_finite, _rk4_loop,
                                   builtin_systems,
                                   integrate_ode, integrate_sde,
                                   iterate_map_batch, make_system, rk4_step)


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
    states = integrate_sde(sys, 0.0, [1.0, 0.5], 0.01, 200, seed=4)
    x = np.array([1.0, 0.5])
    for _ in range(200):
        x = x + 0.01 * sys.rhs(x)
    assert np.array_equal(states[-1], x)


def test_em_matches_rk4_to_first_order():
    sys = make_system("van_der_pol", c=1.0)
    dt = 1e-3
    em = integrate_sde(sys, 0.0, [1.0, 0.5], dt, 500, seed=0)
    rk = integrate_ode(sys, [1.0, 0.5], dt, 500)
    err = np.abs(em - rk.states).max()
    assert err < 5.0 * dt


def test_brownian_increment_variance():
    sys = OdeSystem("still", 1, {}, lambda x: np.zeros_like(x))
    D, dt = 0.5, 0.01
    states = integrate_sde(sys, D, [0.0], dt, 100000, seed=8)
    incr = np.diff(states[:, 0])
    assert abs(incr.var() / (2 * D * dt) - 1.0) < 0.1


def test_lorenz63_sde_bounded():
    sys = make_system("lorenz63")
    states = integrate_sde(sys, 10.0, [1.0, 1.0, 20.0], 0.005, 20000, seed=1)
    assert np.abs(states).max() < 200.0


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


def test_check_finite_bounds_each_entry_not_the_norm():
    # the sum of squares exceeds BLOWUP_LIMIT**2, but no entry the limit
    inside = np.array([0.8e12, 0.8e12])
    assert np.vdot(inside, inside) > BLOWUP_LIMIT**2
    _check_finite(inside, 3)
    with pytest.raises(IntegrationBlowupError) as err:
        _check_finite(np.array([1.0000001e12, 0.0]), 3)
    assert err.value.step == 3 and err.value.magnitude == 1.0000001e12


def test_blowup_raises_without_numpy_warnings():
    # both fields overflow inside the first step; the integrators report
    # that once, as a blow-up, not as numpy warnings
    vdp = make_system("van_der_pol", c=1.0)
    exp = OdeSystem("exp", 1, {}, np.exp)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IntegrationBlowupError):
            integrate_ode(vdp, [1e6, 1e6], 0.5, 10, substeps=10)
        with pytest.raises(IntegrationBlowupError):
            integrate_sde(exp, 0.1, [800.0], 0.5, 10, seed=0)


def test_torus_rotation_iterates():
    tr = make_system("torus_rotation", alpha=0.3, beta=0.7)
    states = iterate_map_batch(tr, [0.0, 0.0], 4)
    assert np.allclose(states[:, 0], [0.0, 0.3, 0.6, 0.9, 0.2])


def test_identity_map_constant():
    ident = DiscreteMap("id", 2, lambda x: x)
    states = iterate_map_batch(ident, [0.3, 0.4], 5)
    assert states.shape == (6, 2)
    assert np.allclose(states, [0.3, 0.4])


def test_modified_cat_stays_in_unit_square():
    cat = make_system("cat_modified")
    states = iterate_map_batch(cat, [0.37, 0.58], 2000)
    assert states.min() >= 0.0 and states.max() <= 1.0


def test_modified_cat_invariant_marginal():
    # invariant x-density is 10 x^9, i.e. CDF x^10
    cat = make_system("cat_modified")
    states = iterate_map_batch(cat, [0.437591, 0.219486], 100000)
    stat = kstest(states[500:, 0], lambda t: t**10)
    assert stat.statistic < 0.02


def test_torus_rotation_uniform_histogram():
    tr = make_system("torus_rotation", alpha=np.sqrt(2) - 1,
                     beta=np.sqrt(3) - 1)
    states = iterate_map_batch(tr, [0.15, 0.35], 100000)
    bins = 10
    counts, _, _ = np.histogram2d(states[:, 0], states[:, 1],
                                  bins=bins, range=[[0, 1], [0, 1]])
    n = states.shape[0]
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


def test_catalog_miss():
    with pytest.raises(CatalogMissError):
        make_system("not_a_system")


def test_sde_reproducible_per_seed():
    sys = make_system("lorenz63")
    a = integrate_sde(sys, 5.0, [1.0, 1.0, 20.0], 0.01, 500, seed=3)
    b = integrate_sde(sys, 5.0, [1.0, 1.0, 20.0], 0.01, 500, seed=3)
    assert np.array_equal(a, b)


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


def _catalog_functions():
    """(function, arity, dim) for every field and map of the catalog."""
    out = []
    for name, factory in sorted(builtin_systems().items()):
        sys = factory()
        if isinstance(sys, DiscreteMap):
            out.append(pytest.param(sys.step, 1, sys.dim, id=f"{name}.step"))
        else:
            out.append(pytest.param(sys.rhs, 1, sys.dim, id=f"{name}.rhs"))
            if sys.jac_vjp is not None:
                out.append(pytest.param(sys.jac_vjp, 2, sys.dim,
                                        id=f"{name}.jac_vjp"))
    return out


@pytest.mark.parametrize("fn, arity, dim", _catalog_functions())
@pytest.mark.parametrize("lead", [(), (5,), (2, 3)],
                         ids=["state", "batch", "grid"])
def test_catalog_batches_rowwise_into_a_new_array(fn, arity, dim, lead):
    rng = np.random.default_rng(len(lead))
    args = [rng.uniform(0.0, 1.0, lead + (dim,)) for _ in range(arity)]
    before = [a.copy() for a in args]
    out = fn(*args)
    assert out.shape == lead + (dim,) and out.dtype == np.float64
    for idx in np.ndindex(lead):
        row = fn(*[a[idx] for a in args])
        assert np.array_equal(out[idx], row), idx
    out[...] = np.nan
    for a, b in zip(args, before):
        assert np.array_equal(a, b)


def _rk4_reference(rhs, x0, h, n_steps, substeps):
    """States of rk4_step on arrays, recorded every ``substeps`` steps."""
    x = np.array(x0, dtype=float)
    ref = [x]
    for _ in range(n_steps):
        for _ in range(substeps):
            x = rk4_step(rhs, x, h)
        ref.append(x)
    return np.array(ref)


def test_integrate_ode_matches_stacked_reference():
    def rhs(z):  # the van der Pol field as written with np.stack
        x, y = z[..., 0], z[..., 1]
        return np.stack([y, 1.5 * (1.0 - x**2) * y - x], axis=-1)

    x0 = np.array([0.3, -0.2])
    traj = integrate_ode(make_system("van_der_pol", c=1.5), x0, 0.05, 400,
                         substeps=3)
    assert np.array_equal(traj.states, _rk4_reference(rhs, x0, 0.05 / 3,
                                                      400, 3))


def test_integrate_ode_matches_stacked_reference_lorenz63():
    def rhs(s):  # the Lorenz-63 field as written with np.stack
        x, y, z = s[..., 0], s[..., 1], s[..., 2]
        return np.stack([10.0 * (y - x), x * (28.0 - z) - y,
                         x * y - (8.0 / 3.0) * z], axis=-1)

    x0 = np.array([1.0, 1.0, 20.0])
    traj = integrate_ode(make_system("lorenz63"), x0, 0.02, 500, substeps=4)
    assert np.array_equal(traj.states, _rk4_reference(rhs, x0, 0.02 / 4,
                                                      500, 4))


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64)


@pytest.mark.parametrize("name, params", [
    ("van_der_pol", {"c": 0.3}), ("van_der_pol", {"c": 1.0}),
    ("van_der_pol", {"c": 2.0}), ("van_der_pol", {"c": 7.25}),
    ("lorenz63", {}), ("lorenz63", {"c1": 9.5, "c2": 31.7, "c3": 1.1}),
    ("lorenz96", {"dim": 5}), ("lorenz96", {"dim": 30, "forcing": 11.3})])
def test_field_is_rhs_bit_for_bit(name, params):
    # the float path of integrate_ode steps the field; an x**2 in it would
    # call libm pow on floats, whose rounding may differ from numpy's
    sys = make_system(name, **params)
    rng = np.random.default_rng(3)
    scale = 10.0 ** rng.uniform(-3.0, 5.0, (5, 7, 1))
    batch = scale * rng.standard_normal((5, 7, sys.dim))
    out = sys.rhs(batch)
    for idx in np.ndindex(5, 7):
        row = batch[idx]
        field = sys.field(*row.tolist())
        assert all(type(v) is float for v in field)
        assert np.array_equal(_bits(field), _bits(sys.rhs(row))), idx
        assert np.array_equal(_bits(field), _bits(out[idx])), idx
    values, pullback = sys.linearize(batch)
    assert np.array_equal(_bits(values), _bits(out)) and pullback is None


def test_lorenz96_field_is_compiled_once_per_dimension():
    a, b = make_system("lorenz96", dim=8), make_system("lorenz96", dim=8,
                                                      forcing=5.0)
    assert a.field.__code__ is b.field.__code__
    assert a.field(*[1.0] * 8) == (7.0,) * 8
    assert b.field(*[1.0] * 8) == (4.0,) * 8
    assert make_system("lorenz96", dim=9).field.__code__ is not a.field.__code__


def test_integrate_ode_steps_the_field_not_the_rhs():
    def refuse(x):
        raise AssertionError("rhs called")

    vdp = make_system("van_der_pol", c=1.5)
    sys = OdeSystem("vdp_field", 2, {}, refuse, field=vdp.field)
    traj = integrate_ode(sys, [0.3, -0.2], 0.05, 200, substeps=3)
    ref = integrate_ode(vdp, [0.3, -0.2], 0.05, 200, substeps=3)
    assert np.array_equal(traj.states, ref.states)


@pytest.mark.parametrize("name", ["van_der_pol", "lorenz63"])
def test_integrate_ode_without_a_field_steps_the_rhs(name):
    # a field-less system goes through rhs on arrays, bit for bit the same
    sys = make_system(name)
    plain = OdeSystem(name, sys.dim, {}, sys.rhs)
    x0 = [1.0, 1.0, 20.0][:sys.dim]
    traj = integrate_ode(plain, x0, 0.02, 300, substeps=4)
    ref = integrate_ode(sys, x0, 0.02, 300, substeps=4)
    assert np.array_equal(traj.states, ref.states)


@pytest.mark.parametrize("sys, x0, dt, n_steps, substeps", [
    (OdeSystem("logistic", 1, {}, lambda x: x * (1.0 - 0.25 * x)), [0.1],
     0.05, 300, 3),
    (make_system("van_der_pol", c=1.0), [1.5, 0.0], 0.05, 400, 5),
    (make_system("lorenz63"), [1.0, 1.0, 20.0], 0.02, 300, 4),
    (make_system("lorenz96", dim=5), [8.01, 8.0, 8.0, 8.0, 7.5], 0.01, 200,
     2)], ids=["1d-rhs", "van_der_pol", "lorenz63", "lorenz96-5d-rhs"])
def test_generated_loop_matches_rk4_step_bit_for_bit(sys, x0, dt, n_steps,
                                                     substeps):
    # fields step on floats, field-less systems through the rhs adapter
    traj = integrate_ode(sys, x0, dt, n_steps, substeps=substeps)
    ref = _rk4_reference(sys.rhs, x0, dt / substeps, n_steps, substeps)
    assert np.array_equal(_bits(traj.states), _bits(ref))


def _ramp(x, y):  # y grows by 1e11 per unit time
    return -x, 1e11


def _nan_past_five(x, y):  # the state turns NaN once x passes 5.5
    return (1.0 if x < 5.5 else math.nan), -y


@pytest.mark.parametrize("field, x0", [(_ramp, [1.0, 0.0]),
                                       (_nan_past_five, [0.0, 1.0])],
                         ids=["finite-above-limit", "nan"])
def test_generated_loop_blowup_is_check_finite_on_that_row(field, x0):
    # the first recorded row that fails the float test is the one
    # _check_finite rejects, with the same step, magnitude and message
    with np.errstate(invalid="ignore"):
        ref = _rk4_reference(lambda z: np.array(field(*z.tolist())), x0, 1.0,
                             50, 1)
    bad = int(np.argmax(~(np.abs(ref) <= BLOWUP_LIMIT).all(axis=1)))
    assert 1 < bad < 50
    with pytest.raises(IntegrationBlowupError) as expected:
        _check_finite(ref[bad], bad)
    sys = OdeSystem("blowup", 2, {}, lambda z: np.zeros_like(z), field=field)
    with pytest.raises(IntegrationBlowupError) as err:
        integrate_ode(sys, x0, 1.0, 50)
    assert err.value.step == expected.value.step == bad
    assert np.array_equal(err.value.magnitude, expected.value.magnitude,
                          equal_nan=True)
    assert str(err.value) == str(expected.value)


def test_generated_loop_is_compiled_once_per_dimension():
    _rk4_loop.cache_clear()
    vdp = make_system("van_der_pol")
    integrate_ode(vdp, [1.0, 0.0], 0.05, 10)
    integrate_ode(vdp, [0.5, 0.0], 0.05, 10, substeps=3)
    integrate_ode(make_system("lorenz63"), [1.0, 1.0, 20.0], 0.02, 10)
    integrate_ode(OdeSystem("decay", 2, {}, lambda x: -x), [1.0, 2.0], 0.1,
                  10)
    info = _rk4_loop.cache_info()
    assert (info.misses, info.hits) == (2, 2)


# step and magnitude recorded from the array path that rk4_step gave
@pytest.mark.parametrize("dt, substeps, step, magnitude", [
    (1e-5, 1, 3, 1.593053780654601e+18),
    (2e-5, 2, 2, 8.717080916296262e+65),
    (2e-5, 4, 2, np.nan)])
def test_lorenz63_blowup_on_the_float_path(dt, substeps, step, magnitude):
    sys = make_system("lorenz63")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IntegrationBlowupError) as err:
            integrate_ode(sys, [1e6, 1e6, 1e6], dt, 200, substeps=substeps)
    assert err.value.step == step
    assert np.array_equal(err.value.magnitude, magnitude, equal_nan=True)


@pytest.mark.parametrize("n_steps", [1, 300, NOISE_BLOCK,
                                     2 * NOISE_BLOCK + 37])
def test_integrate_sde_matches_per_step_draws(n_steps):
    sys = make_system("van_der_pol", c=1.0)
    x0, dt, D, seed = np.array([1.0, 0.5]), 0.01, 0.3, 12
    states = integrate_sde(sys, D, x0, dt, n_steps, seed=seed)
    rng = np.random.default_rng(seed)
    sigma = np.sqrt(2.0 * D * dt)
    x = x0.copy()
    ref = [x]
    for _ in range(n_steps):
        x = x + dt * sys.rhs(x)
        x = x + sigma * rng.standard_normal(sys.dim)
        ref.append(x)
    assert np.array_equal(states, np.array(ref))


@pytest.mark.parametrize("n_steps", [1, 300, NOISE_BLOCK,
                                     2 * NOISE_BLOCK + 37])
def test_integrate_sde_batch_matches_per_step_draws(n_steps):
    # each step draws one (K, d) block of increments for the K paths
    sys = make_system("van_der_pol", c=1.0)
    x0 = np.array([[1.0, 0.5], [-2.0, 0.1], [0.3, -1.2]])
    dt, D, seed = 0.01, 0.3, 12
    states = integrate_sde(sys, D, x0, dt, n_steps, seed=seed)
    rng = np.random.default_rng(seed)
    sigma = np.sqrt(2.0 * D * dt)
    x = x0.copy()
    ref = [x]
    for _ in range(n_steps):
        x = x + dt * sys.rhs(x)
        x = x + sigma * rng.standard_normal(x0.shape)
        ref.append(x)
    assert states.shape == (n_steps + 1,) + x0.shape
    assert np.array_equal(states, np.array(ref))


def test_integrate_sde_batch_of_one_is_the_single_path():
    sys = make_system("lorenz63")
    x0 = np.array([1.0, 1.0, 20.0])
    single = integrate_sde(sys, 5.0, x0, 0.01, 2 * NOISE_BLOCK + 5, seed=3)
    batch = integrate_sde(sys, 5.0, x0[None], 0.01, 2 * NOISE_BLOCK + 5,
                          seed=3)
    assert batch.shape == (single.shape[0], 1, 3)
    assert np.array_equal(batch[:, 0], single)


def test_integrate_sde_blowup_in_one_path_raises():
    # the second path starts where x' = x^3 escapes; the first stays at 0
    explode = OdeSystem("explode", 1, {}, lambda x: x**3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IntegrationBlowupError) as err:
            integrate_sde(explode, 0.0, [[0.0], [2.0]], 0.5, 50, seed=0)
    assert err.value.step > 0


def test_integrate_sde_rejects_a_start_of_the_wrong_shape():
    sys = make_system("van_der_pol")
    for x0 in ([1.0, 0.5, 0.0], [[1.0], [0.5]], np.zeros((2, 2, 2))):
        with pytest.raises(ValueError, match="x0 must have shape"):
            integrate_sde(sys, 0.1, x0, 0.01, 5, seed=0)
