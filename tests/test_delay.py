import numpy as np
import pytest

from ergodic_sysid.delay import (DelayMapConfig, delay_embed, loss_j2_grad,
                                 pushforward_delay_measure)
from ergodic_sysid.measure import SampleCloud, energy_mmd
from ergodic_sysid.systems import (DiscreteMap, Trajectory,
                                   iterate_map_batch, make_system)
from ergodic_sysid.velocity_models import MlpModel


def _shift_map(shift):
    """MlpModel([2, 2]) is affine, so it represents x -> x + shift exactly."""
    model = MlpModel([2, 2])
    model.set_params(np.concatenate([np.eye(2).ravel(), shift]))
    return model


def test_constant_signal_embeds_to_constant_vectors():
    traj = Trajectory(np.full((20, 1), 3.2), 0.0)
    cloud = delay_embed(traj, DelayMapConfig(0, 4, 1))
    assert cloud.points.shape == (17, 4)
    assert np.all(cloud.points == 3.2)


def test_torus_embedding_first_vector():
    tr = make_system("torus_rotation", alpha=0.3, beta=0.9)
    traj = iterate_map_batch(tr, [0.0, 0.0], 10)
    cloud = delay_embed(traj, DelayMapConfig(0, 3, 1))
    assert np.allclose(cloud.points[0], [0.0, 0.3, 0.6])
    assert cloud.n == 9


def test_m_one_collapses_to_observable_series():
    rng = np.random.default_rng(0)
    states = rng.normal(size=(30, 2))
    cloud = delay_embed(Trajectory(states, 0.0), DelayMapConfig(1, 1, 1))
    assert np.array_equal(cloud.points[:, 0], states[:, 1])


def test_too_short_trajectory_rejected():
    traj = Trajectory(np.zeros((4, 1)), 0.0)
    with pytest.raises(ValueError):
        delay_embed(traj, DelayMapConfig(0, 3, 2))


def test_lag_respected():
    tr = make_system("torus_rotation", alpha=0.1, beta=0.0)
    traj = iterate_map_batch(tr, [0.0, 0.0], 20)
    cloud = delay_embed(traj, DelayMapConfig(0, 3, 2))
    assert np.allclose(cloud.points[0], [0.0, 0.2, 0.4])


def test_pushforward_identity_map():
    ident = DiscreteMap("id", 2, lambda x: x)
    samples = SampleCloud(np.random.default_rng(1).random((15, 2)))
    cloud = pushforward_delay_measure(samples, ident, DelayMapConfig(0, 3))
    assert np.allclose(cloud.points, cloud.points[:, :1])


def test_pushforward_agrees_with_embedding():
    for lag in (1, 2):
        cfg = DelayMapConfig(0, 4, lag)
        cat = make_system("cat_modified")
        traj = iterate_map_batch(cat, [0.3517, 0.642], 60)
        emb = delay_embed(traj, cfg)
        push = pushforward_delay_measure(SampleCloud(traj), cat, cfg)
        assert np.allclose(emb.points, push.points[:emb.n], atol=1e-12)


def test_pushforward_single_slot_is_observable():
    tr = make_system("torus_rotation", alpha=0.2, beta=0.4)
    samples = SampleCloud(np.random.default_rng(2).random((25, 2)))
    cloud = pushforward_delay_measure(samples, tr, DelayMapConfig(0, 1))
    assert np.array_equal(cloud.points[:, 0], samples.points[:, 0])


def test_conjugate_pushforward_invariance():
    # h swaps coordinates; S = h . T . h^{-1} is the swapped rotation.
    alpha, beta = 0.31, 0.57
    T = make_system("torus_rotation", alpha=alpha, beta=beta)
    S = make_system("torus_rotation", alpha=beta, beta=alpha)
    h = lambda z: z[..., ::-1]
    rng = np.random.default_rng(3)
    mu = rng.random((40, 2))
    lhs = h(iterate_map_batch(T, mu, 5)[-1])
    rhs = iterate_map_batch(S, h(mu), 5)[-1]
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_torus_pair_distinguished_by_delay_measure():
    a = make_system("torus_rotation", alpha=np.sqrt(2) - 1,
                    beta=np.sqrt(3) - 1)
    b = make_system("torus_rotation", alpha=np.sqrt(3) - 1,
                    beta=np.sqrt(2) - 1)
    traj_a = iterate_map_batch(a, [0.11, 0.43], 20000)
    traj_b = iterate_map_batch(b, [0.52, 0.27], 20000)
    grid_counts_a, _, _ = np.histogram2d(traj_a[:, 0], traj_a[:, 1], bins=8,
                                         range=[[0, 1], [0, 1]])
    grid_counts_b, _, _ = np.histogram2d(traj_b[:, 0], traj_b[:, 1], bins=8,
                                         range=[[0, 1], [0, 1]])
    state_l1 = np.abs(grid_counts_a - grid_counts_b).sum() / 20000
    cfg = DelayMapConfig(0, 3, 1)
    mmd = energy_mmd(delay_embed(traj_a, cfg), delay_embed(traj_b, cfg))
    # same-system baseline from two disjoint halves
    half = delay_embed(traj_a, cfg)
    base = energy_mmd(SampleCloud(half.points[0::2][:2000]),
                      SampleCloud(half.points[1::2][:2000]))
    assert state_l1 < 0.05
    assert mmd > 10 * max(base, 1e-12)


def test_loss_j1_zero_at_truth_and_permutation_invariant():
    shift = np.array([0.23, 0.71])
    truth = _shift_map(shift)
    rng = np.random.default_rng(4)
    mu = SampleCloud(rng.random((100, 2)))
    images = SampleCloud(mu.points + shift)
    j1 = lambda obs: loss_j2_grad(truth, mu, obs, None, None,
                                  include_delay=False)[0]
    assert abs(j1(images)) < 1e-12
    shuffled = SampleCloud(images.points[::-1])
    assert abs(j1(shuffled) - j1(images)) < 1e-12


def test_loss_j1_matches_direct_mmd():
    rng = np.random.default_rng(5)
    mu = SampleCloud(rng.random((80, 2)))
    obs = SampleCloud(rng.random((90, 2)))
    model = MlpModel([2, 5, 2])
    model.init_params(seed=5)
    direct = energy_mmd(SampleCloud(model.eval_batch(mu.points)), obs)
    value, _, parts = loss_j2_grad(model, mu, obs, None, None,
                                   include_delay=False)
    assert np.isclose(value, direct)
    assert parts == {"state": value, "delay": 0.0}


def test_loss_j2_exact_model_and_lower_bound():
    shift = np.array([0.23, 0.71])
    truth = _shift_map(shift)
    rng = np.random.default_rng(6)
    mu = SampleCloud(rng.random((60, 2)))
    images = SampleCloud(mu.points + shift)
    cfg = DelayMapConfig(0, 3, 1)
    observed_delay = pushforward_delay_measure(mu, truth, cfg)
    assert abs(loss_j2_grad(truth, mu, images, observed_delay, cfg)[0]) \
        < 1e-12
    mlp = MlpModel([2, 6, 2])
    mlp.init_params(seed=7)
    j2, _, parts = loss_j2_grad(mlp, mu, images, observed_delay, cfg)
    j1 = loss_j2_grad(mlp, mu, images, None, None, include_delay=False)[0]
    assert j2 == parts["state"] + parts["delay"]
    assert parts["state"] == j1
    assert j2 >= j1 - 1e-12


def test_loss_j2_dimension_check():
    rng = np.random.default_rng(7)
    mu = SampleCloud(rng.random((30, 2)))
    images = SampleCloud(rng.random((30, 2)))
    bad_delay = SampleCloud(rng.random((30, 4)))
    with pytest.raises(ValueError):
        loss_j2_grad(MlpModel([2, 2]), mu, images, bad_delay,
                     DelayMapConfig(0, 3, 1))


@pytest.mark.parametrize("m, lag, observable, include_delay",
                         [(3, 1, 0, True), (3, 2, 1, True), (1, 1, 0, True),
                          (3, 1, 0, False)])
def test_loss_j2_gradient_matches_fd(m, lag, observable, include_delay):
    tr = make_system("torus_rotation", alpha=0.2, beta=0.5)
    rng = np.random.default_rng(8)
    mu = SampleCloud(rng.random((50, 2)))
    images = SampleCloud(tr.step(mu.points))
    cfg = DelayMapConfig(observable, m, lag)
    observed_delay = pushforward_delay_measure(mu, tr, cfg)
    mlp = MlpModel([2, 8, 2])
    mlp.init_params(seed=9)
    theta = mlp.get_params()

    def lg(t):
        mlp.set_params(t)
        v, g, _ = loss_j2_grad(mlp, mu, images, observed_delay, cfg,
                               include_delay=include_delay)
        return v, g

    _, grad = lg(theta)
    for c in rng.choice(theta.size, 5, replace=False):
        e = np.zeros_like(theta)
        e[c] = 1e-6
        vp, _ = lg(theta + e)
        vm, _ = lg(theta - e)
        fd = (vp - vm) / 2e-6
        assert abs(fd - grad[c]) / max(abs(fd), abs(grad[c]), 1e-10) < 1e-3


def test_conjugacy_diagnostics_swap_conjugate_pair():
    # S = h T h^{-1} with h the coordinate swap; y symmetric under h makes
    # the delay measures indistinguishable while the maps differ pointwise,
    # so the delay measure identifies a map only up to conjugacy.
    alpha, beta = 0.31, 0.57
    T = make_system("torus_rotation", alpha=alpha, beta=beta)
    S = make_system("torus_rotation", alpha=beta, beta=alpha)
    y = lambda z: np.sin(2 * np.pi * z[..., 0]) + np.sin(2 * np.pi * z[..., 1])
    rng = np.random.default_rng(12)
    mu = SampleCloud(rng.random((3000, 2)))
    cfg = DelayMapConfig(y, 4, 1)

    def delay_mmd(a, b):
        return energy_mmd(pushforward_delay_measure(mu, a, cfg),
                          pushforward_delay_measure(mu, b, cfg))

    deviation = np.linalg.norm(T.step(mu.points) - S.step(mu.points), axis=1)
    assert deviation.max() > 0.1
    # conjugate pair: delay mismatch collapses to sampling noise, far below
    # the mismatch of genuinely different dynamics
    other = make_system("torus_rotation", alpha=0.11, beta=0.57)
    assert delay_mmd(T, S) < delay_mmd(T, other) / 20.0
