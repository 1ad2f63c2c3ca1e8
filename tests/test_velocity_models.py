import tracemalloc

import numpy as np
import pytest

from ergodic_sysid.systems import integrate_ode, make_system
from ergodic_sysid.velocity_models import MlpModel, flow_rk4_vjp


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
    mlp.set_params(np.zeros(mlp.n_params))
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
    grad, xg = mlp.linearize(x)[1](np.array([[1.0]]))
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
    _, xg = mlp.linearize(x)[1](seeds)
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


def test_flow_rk4_matches_integrator():
    sys = make_system("van_der_pol", c=1.0)
    x0 = np.array([[1.0, 0.3], [-0.5, 0.8]])
    flowed, _ = flow_rk4_vjp(sys, x0, 0.3, substeps=6)
    for i in range(2):
        traj = integrate_ode(sys, x0[i], 0.05, 6)
        assert np.allclose(flowed[i], traj.states[-1], atol=1e-12)


@pytest.mark.parametrize("substeps", [0, -1])
@pytest.mark.parametrize("flow", [
    lambda sys, x0, s: integrate_ode(sys, x0, 0.3, 5, substeps=s),
    lambda sys, x0, s: flow_rk4_vjp(sys, x0, 0.3, substeps=s)],
    ids=["integrate_ode", "flow_rk4_vjp"])
def test_substeps_below_one_raise(flow, substeps):
    # -1 would step backwards in time and 0 would divide by zero
    with pytest.raises(ValueError, match="substeps must be at least 1"):
        flow(make_system("van_der_pol"), np.array([1.0, 0.3]), substeps)


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


def _reference_forward(sizes, theta, x):
    """tanh MLP evaluated straight from slices of theta."""
    z, offset = x, 0
    for li, (nin, nout) in enumerate(zip(sizes[:-1], sizes[1:])):
        w = theta[offset:offset + nin * nout].reshape(nout, nin)
        offset += nin * nout
        z = z @ w.T + theta[offset:offset + nout]
        offset += nout
        if li < len(sizes) - 2:
            z = np.tanh(z)
    return z


@pytest.mark.parametrize("replace", ["set_params", "init_params",
                                     "from_checkpoint"])
def test_layer_views_follow_a_replaced_theta(replace):
    sizes = [2, 7, 5, 2]
    rng = np.random.default_rng(31)
    x = rng.normal(size=(6, 2))
    seeds = rng.normal(size=(6, 2))
    mlp = MlpModel(sizes)
    mlp.init_params(seed=1)
    stale = mlp.eval_batch(x)
    if replace == "set_params":
        mlp.set_params(rng.normal(size=mlp.n_params))
    elif replace == "init_params":
        mlp.init_params(seed=2)
    else:
        blob = mlp.checkpoint()
        blob["theta"] = rng.normal(size=mlp.n_params).tolist()
        mlp = MlpModel.from_checkpoint(blob)
    fresh = MlpModel(sizes)
    fresh.set_params(mlp.get_params())
    got = mlp.eval_batch(x)
    assert not np.array_equal(got, stale)
    assert np.array_equal(got, fresh.eval_batch(x))
    assert np.allclose(got, _reference_forward(sizes, mlp.get_params(), x),
                       rtol=1e-13, atol=1e-13)
    values, pullback = mlp.linearize(x)
    fresh_values, fresh_pullback = fresh.linearize(x)
    assert np.array_equal(values, fresh_values)
    for a, b in zip(pullback(seeds), fresh_pullback(seeds)):
        assert np.array_equal(a, b)


def _textbook_pass(mlp, x, seeds):
    """Values, parameter gradient and input gradient of ``mlp`` at x, each
    step a new array, the parameters read straight from slices of theta."""
    sizes, theta = mlp.layer_sizes, mlp.get_params()
    layers, offset = [], 0
    for nin, nout in zip(sizes[:-1], sizes[1:]):
        w = slice(offset, offset + nin * nout)
        b = slice(w.stop, w.stop + nout)
        layers.append((w, b, theta[w].reshape(nout, nin), theta[b]))
        offset = b.stop
    z = (x - mlp.in_shift) / mlp.in_scale
    acts = [z]
    for li, (_, _, w, b) in enumerate(layers):
        z = z @ w.T + b
        if li < len(layers) - 1:
            z = np.tanh(z)
        acts.append(z)
    grad = np.zeros_like(theta)
    delta = seeds * mlp.out_scale
    for li in reversed(range(len(layers))):
        wsl, bsl, w, _ = layers[li]
        grad[wsl] = (delta.T @ acts[li]).ravel()
        grad[bsl] = delta.sum(axis=0)
        delta = delta @ w
        if li > 0:
            delta = delta * (1.0 - acts[li] ** 2)
    return z * mlp.out_scale + mlp.out_shift, grad, delta / mlp.in_scale


def _whitened_mlp():
    mlp = MlpModel([2, 64, 64, 2], in_shift=[0.3, -0.1], in_scale=[1.7, 0.6],
                   out_shift=[-0.2, 0.5], out_scale=[2.5, 0.8])
    mlp.init_params(seed=21)
    return mlp


@pytest.mark.parametrize("n", [16384, 16])
def test_in_place_passes_equal_the_textbook_passes_bit_for_bit(n):
    mlp = _whitened_mlp()
    rng = np.random.default_rng(22)
    x = rng.normal(size=(n, 2))
    seeds = rng.normal(size=(n, 2))
    ref_values, ref_grad, ref_xgrad = _textbook_pass(mlp, x, seeds)
    values, pullback = mlp.linearize(x)
    grad, xgrad = pullback(seeds)
    assert np.array_equal(values, ref_values)
    assert np.array_equal(mlp.eval_batch(x), ref_values)
    assert np.array_equal(grad, ref_grad)
    assert np.array_equal(xgrad, ref_xgrad)


def test_pullback_is_reusable_and_leaves_its_seeds():
    mlp = _whitened_mlp()
    rng = np.random.default_rng(23)
    x = rng.normal(size=(16, 2))
    seeds = rng.normal(size=(16, 2))
    kept = seeds.copy()
    _, pullback = mlp.linearize(x)
    first = pullback(seeds)
    second = pullback(seeds)
    assert np.array_equal(seeds, kept)
    for a, b in zip(first, second):
        assert np.array_equal(a, b)
        assert a is not b


def test_linearize_and_pullback_hold_two_activations_and_two_deltas():
    # numpy reports its data buffers to tracemalloc. At 16384 rows one
    # 64-wide array is 8 MiB: the two hidden activations plus two 64-wide
    # deltas (the old and the new one of a GEMM, or a delta and its tanh
    # slope) are the bound, with room for eight 2-wide arrays
    n = 16384
    mlp = _whitened_mlp()
    rng = np.random.default_rng(24)
    x = rng.normal(size=(n, 2))
    seeds = rng.normal(size=(n, 2))
    tracemalloc.start()
    try:
        mlp.linearize(x)[1](seeds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (2 + 2) * n * 64 * 8 + 8 * n * 2 * 8
