import numpy as np
import pytest

from ergodic_sysid.measure import Grid
from ergodic_sysid.systems import make_system
from ergodic_sysid.velocity_models import (FaceValuesModel, MaskedVelocity,
                                           MlpModel, flow_rk4_vjp)


def _grad_check(model, x, seeds, rtol=1e-6):
    theta = model.get_params()
    values, pullback = model.linearize(x)
    assert np.array_equal(values, model.eval_batch(x))
    grad, _ = pullback(seeds)
    rng = np.random.default_rng(0)
    for c in rng.choice(theta.size, min(20, theta.size), replace=False):
        h = 1e-6
        e = np.zeros_like(theta)
        e[c] = h
        model.set_params(theta + e)
        up = float((model.eval_batch(x) * seeds).sum())
        model.set_params(theta - e)
        dn = float((model.eval_batch(x) * seeds).sum())
        model.set_params(theta)
        fd = (up - dn) / (2 * h)
        assert abs(fd - grad[c]) / max(abs(fd), abs(grad[c]), 1e-10) < rtol


def test_zero_weights_zero_output():
    mlp = MlpModel([2, 8, 2])
    mlp.init_params("zeros")
    assert np.all(mlp.eval_batch(np.random.default_rng(0).normal(
        size=(5, 2))) == 0.0)


def test_single_linear_layer_is_matmul():
    mlp = MlpModel([3, 2])
    W = np.arange(6, dtype=float).reshape(2, 3)
    b = np.array([0.5, -0.25])
    mlp.set_params(np.concatenate([W.ravel(), b]))
    x = np.random.default_rng(1).normal(size=(4, 3))
    assert np.allclose(mlp.eval_batch(x), x @ W.T + b)


def test_single_tanh_neuron_hand_derivative():
    # f(x) = w2 * tanh(w1 x + b1) + b2
    mlp = MlpModel([1, 1, 1])
    w1, b1, w2, b2 = 0.7, -0.2, 1.3, 0.4
    mlp.set_params(np.array([w1, b1, w2, b2]))
    x = np.array([[0.9]])
    grad, xg = mlp.linearize(x)[1](np.array([[1.0]]), need_x=True)
    a = np.tanh(w1 * 0.9 + b1)
    sech2 = 1.0 - a**2
    assert np.allclose(grad, [w2 * sech2 * 0.9, w2 * sech2, a, 1.0])
    assert np.isclose(xg[0, 0], w2 * sech2 * w1)


def test_zero_seed_zero_contribution():
    mlp = MlpModel([2, 6, 2])
    mlp.init_params(seed=5)
    grad, _ = mlp.linearize(np.ones((3, 2)))[1](np.zeros((3, 2)))
    assert np.all(grad == 0.0)


def test_backward_linear_in_seed():
    mlp = MlpModel([2, 5, 3])
    mlp.init_params(seed=2)
    rng = np.random.default_rng(3)
    x = rng.normal(size=(4, 2))
    g1 = rng.normal(size=(4, 3))
    g2 = rng.normal(size=(4, 3))
    a, b = 0.3, -1.7
    _, pullback = mlp.linearize(x)
    lhs, _ = pullback(a * g1 + b * g2)
    r1, _ = pullback(g1)
    r2, _ = pullback(g2)
    assert np.allclose(lhs, a * r1 + b * r2, atol=1e-12)
    assert np.array_equal(mlp.vjp(x, g1)[0], r1)


def test_gradient_checks_across_architectures():
    rng = np.random.default_rng(4)
    for sizes in ([1, 12, 12, 1], [2, 8, 2], [3, 16, 3]):
        mlp = MlpModel(sizes, in_shift=0.1, in_scale=1.5, out_shift=-0.2,
                       out_scale=2.0)
        mlp.init_params(seed=7)
        x = rng.normal(size=(6, sizes[0]))
        seeds = rng.normal(size=(6, sizes[-1]))
        _grad_check(mlp, x, seeds)


def test_input_gradient_matches_fd():
    mlp = MlpModel([2, 8, 2], in_scale=[2.0, 0.5])
    mlp.init_params(seed=8)
    rng = np.random.default_rng(9)
    x = rng.normal(size=(3, 2))
    seeds = rng.normal(size=(3, 2))
    _, xg = mlp.linearize(x)[1](seeds, need_x=True)
    h = 1e-6
    for i, k in [(0, 0), (1, 1), (2, 0)]:
        e = np.zeros_like(x)
        e[i, k] = h
        fd = ((mlp.eval_batch(x + e) * seeds).sum()
              - (mlp.eval_batch(x - e) * seeds).sum()) / (2 * h)
        assert abs(fd - xg[i, k]) < 1e-6


def test_init_deterministic_and_xavier_variance():
    mlp = MlpModel([64, 64, 2])
    t1 = mlp.init_params(seed=11)
    t2 = mlp.init_params(seed=11)
    assert np.array_equal(t1, t2)
    w1 = t1[:64 * 64]
    target = 2.0 / (64 + 64)
    assert abs(w1.var() / target - 1.0) < 0.2
    assert np.all(mlp.init_params("zeros") == 0.0)


def test_masked_velocity_pins_reference():
    sys = make_system("lorenz63")
    inner = MlpModel([3, 4, 1])
    inner.init_params("zeros")
    masked = MaskedVelocity(inner, [0], sys.rhs, sys.jac_vjp)
    x = np.random.default_rng(10).normal(size=(5, 3))
    out = masked.eval_batch(x)
    ref = sys.rhs(x)
    assert np.allclose(out[:, 0], 0.0)
    assert np.allclose(out[:, 1:], ref[:, 1:])


def test_masked_velocity_gradients():
    sys = make_system("lorenz63")
    inner = MlpModel([3, 6, 1])
    inner.init_params(seed=12)
    masked = MaskedVelocity(inner, [0], sys.rhs, sys.jac_vjp)
    rng = np.random.default_rng(13)
    x = rng.normal(size=(4, 3))
    seeds = rng.normal(size=(4, 3))
    _grad_check(masked, x, seeds)
    _, xg = masked.linearize(x)[1](seeds, need_x=True)
    h = 1e-6
    for i, k in [(0, 0), (2, 1), (3, 2)]:
        e = np.zeros_like(x)
        e[i, k] = h
        fd = ((masked.eval_batch(x + e) * seeds).sum()
              - (masked.eval_batch(x - e) * seeds).sum()) / (2 * h)
        assert abs(fd - xg[i, k]) / max(abs(fd), 1e-9) < 1e-5


def test_face_values_model_round_trip():
    grid = Grid([0.0, 0.0], [1.0, 2.0], [4, 3])
    model = FaceValuesModel(grid)
    sys = make_system("van_der_pol", c=1.0)
    model.set_params(np.concatenate([sys.rhs(grid.face_centers(i))[:, i]
                                     for i in range(grid.dim)]))
    arrays = model.face_arrays()
    assert len(arrays) == 2 and arrays[0].size == 12
    centers = grid.centers()
    pts = centers.copy()
    pts[:, 0] -= 0.5 * grid.spacings[0]
    assert np.allclose(arrays[0], sys.rhs(pts)[:, 0])


def test_flow_rk4_matches_integrator():
    from ergodic_sysid.systems import integrate_ode
    sys = make_system("van_der_pol", c=1.0)
    x0 = np.array([[1.0, 0.3], [-0.5, 0.8]])
    flowed, _ = flow_rk4_vjp(sys, x0, 0.3, substeps=6)
    for i in range(2):
        traj = integrate_ode(sys, x0[i], 0.05, 6)
        assert np.allclose(flowed[i], traj.states[-1], atol=1e-12)


def test_flow_rk4_vjp_finite_difference():
    mlp = MlpModel([2, 6, 2])
    mlp.init_params(seed=14)
    rng = np.random.default_rng(15)
    x = rng.normal(size=(5, 2))
    seeds = rng.normal(size=(5, 2))
    theta = mlp.get_params()
    _, pullback = flow_rk4_vjp(mlp, x, 0.2, substeps=3)
    tg, xg = pullback(seeds)
    flow = lambda z: flow_rk4_vjp(mlp, z, 0.2, 3)[0]
    h = 1e-6
    for c in rng.choice(theta.size, 6, replace=False):
        e = np.zeros_like(theta)
        e[c] = h
        mlp.set_params(theta + e)
        up = float((flow(x) * seeds).sum())
        mlp.set_params(theta - e)
        dn = float((flow(x) * seeds).sum())
        mlp.set_params(theta)
        fd = (up - dn) / (2 * h)
        assert abs(fd - tg[c]) / max(abs(fd), abs(tg[c]), 1e-10) < 1e-5
    for i, k in [(0, 1), (4, 0)]:
        e = np.zeros_like(x)
        e[i, k] = h
        up = float((flow(x + e) * seeds).sum())
        dn = float((flow(x - e) * seeds).sum())
        fd = (up - dn) / (2 * h)
        assert abs(fd - xg[i, k]) / max(abs(fd), 1e-9) < 1e-5


def test_checkpoint_round_trip():
    mlp = MlpModel([2, 5, 2], in_shift=[0.1, 0.2], out_scale=[3.0, 1.0])
    mlp.init_params(seed=16)
    blob = mlp.checkpoint()
    clone = MlpModel.from_checkpoint(blob)
    x = np.random.default_rng(17).normal(size=(4, 2))
    assert np.array_equal(mlp.eval_batch(x), clone.eval_batch(x))
