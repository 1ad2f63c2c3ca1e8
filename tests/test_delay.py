import numpy as np
import pytest

from ergodic_sysid.delay import (DelayMapConfig, delay_embed, loss_j1,
                                 loss_j2, loss_j2_grad,
                                 pushforward_delay_measure,
                                 verify_conjugacy_diagnostics)
from ergodic_sysid.measure import SampleCloud, energy_mmd
from ergodic_sysid.systems import (DiscreteMap, Trajectory, iterate_map,
                                   make_system)
from ergodic_sysid.velocity_models import MlpModel


def test_constant_signal_embeds_to_constant_vectors():
    traj = Trajectory(np.full((20, 1), 3.2), 0.0)
    cloud = delay_embed(traj, DelayMapConfig(0, 4, 1))
    assert cloud.points.shape == (17, 4)
    assert np.all(cloud.points == 3.2)


def test_torus_embedding_first_vector():
    tr = make_system("torus_rotation", alpha=0.3, beta=0.9)
    traj = iterate_map(tr, [0.0, 0.0], 10)
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
    traj = iterate_map(tr, [0.0, 0.0], 20)
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
        traj = iterate_map(cat, [0.3517, 0.642], 60)
        emb = delay_embed(traj, cfg)
        push = pushforward_delay_measure(SampleCloud(traj.states), cat, cfg)
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
    lhs = h(iterate_map_states(T, mu, 5))
    rhs = iterate_map_states(S, h(mu), 5)
    assert np.allclose(lhs, rhs, atol=1e-12)


def iterate_map_states(system, pts, k):
    out = pts.copy()
    for _ in range(k):
        out = system.step(out)
    return out


def test_torus_pair_distinguished_by_delay_measure():
    a = make_system("torus_rotation", alpha=np.sqrt(2) - 1,
                    beta=np.sqrt(3) - 1)
    b = make_system("torus_rotation", alpha=np.sqrt(3) - 1,
                    beta=np.sqrt(2) - 1)
    traj_a = iterate_map(a, [0.11, 0.43], 20000)
    traj_b = iterate_map(b, [0.52, 0.27], 20000)
    grid_counts_a, _, _ = np.histogram2d(traj_a.states[:, 0],
                                         traj_a.states[:, 1], bins=8,
                                         range=[[0, 1], [0, 1]])
    grid_counts_b, _, _ = np.histogram2d(traj_b.states[:, 0],
                                         traj_b.states[:, 1], bins=8,
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
    tr = make_system("torus_rotation", alpha=0.23, beta=0.71)
    rng = np.random.default_rng(4)
    mu = SampleCloud(rng.random((100, 2)))
    images = SampleCloud(tr.step(mu.points))
    assert loss_j1(tr, mu, images) < 1e-12
    shuffled = SampleCloud(images.points[::-1])
    assert abs(loss_j1(tr, mu, shuffled) - loss_j1(tr, mu, images)) < 1e-12


def test_loss_j1_matches_direct_mmd():
    rng = np.random.default_rng(5)
    mu = SampleCloud(rng.random((80, 2)))
    obs = SampleCloud(rng.random((90, 2)))
    model = lambda z: np.sin(z)
    direct = energy_mmd(SampleCloud(np.sin(mu.points)), obs)
    assert np.isclose(loss_j1(model, mu, obs), direct)


def test_loss_j2_exact_model_and_lower_bound():
    tr = make_system("torus_rotation", alpha=0.23, beta=0.71)
    rng = np.random.default_rng(6)
    mu = SampleCloud(rng.random((60, 2)))
    images = SampleCloud(tr.step(mu.points))
    cfg = DelayMapConfig(0, 3, 1)
    observed_delay = pushforward_delay_measure(mu, tr, cfg)
    assert loss_j2(tr, mu, images, observed_delay, cfg) < 1e-12
    mlp = MlpModel([2, 6, 2])
    mlp.init_params(seed=7)
    j2 = loss_j2(mlp, mu, images, observed_delay, cfg)
    j1 = loss_j1(mlp, mu, images)
    assert j2 >= j1 - 1e-12


def test_loss_j2_dimension_check():
    rng = np.random.default_rng(7)
    mu = SampleCloud(rng.random((30, 2)))
    images = SampleCloud(rng.random((30, 2)))
    bad_delay = SampleCloud(rng.random((30, 4)))
    with pytest.raises(ValueError):
        loss_j2(lambda z: z, mu, images, bad_delay, DelayMapConfig(0, 3, 1))


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


def test_conjugacy_diagnostics_identical_maps():
    tr = make_system("torus_rotation", alpha=0.37, beta=0.58)
    mu = SampleCloud(np.random.default_rng(10).random((200, 2)))
    rep = verify_conjugacy_diagnostics(tr, tr, mu, DelayMapConfig(0, 3, 1))
    assert rep["delay_mmd"] < 1e-12
    assert rep["max_pointwise_deviation"] == 0.0
    assert rep["embedding_dimension"] == 4


def test_conjugacy_diagnostics_distinct_rotations():
    a = make_system("torus_rotation", alpha=0.21, beta=0.43)
    b = make_system("torus_rotation", alpha=0.55, beta=0.43)
    rng = np.random.default_rng(11)
    mu = SampleCloud(rng.random((400, 2)))
    rep = verify_conjugacy_diagnostics(a, b, mu, DelayMapConfig(0, 3, 1))
    assert rep["delay_mmd"] > 1e-3
    assert rep["max_pointwise_deviation"] > 0.1


def test_conjugacy_diagnostics_swap_conjugate_pair():
    # S = h T h^{-1} with h the coordinate swap; y symmetric under h makes
    # the delay measures indistinguishable while the maps differ pointwise.
    alpha, beta = 0.31, 0.57
    T = make_system("torus_rotation", alpha=alpha, beta=beta)
    S = make_system("torus_rotation", alpha=beta, beta=alpha)
    y = lambda z: np.sin(2 * np.pi * z[..., 0]) + np.sin(2 * np.pi * z[..., 1])
    rng = np.random.default_rng(12)
    mu = SampleCloud(rng.random((3000, 2)))
    rep = verify_conjugacy_diagnostics(T, S, mu, DelayMapConfig(y, 3, 1))
    assert rep["max_pointwise_deviation"] > 0.1
    # conjugate pair: delay mismatch collapses to sampling noise, far below
    # the mismatch of genuinely different dynamics
    other = make_system("torus_rotation", alpha=0.11, beta=0.57)
    rep_diff = verify_conjugacy_diagnostics(T, other, mu,
                                            DelayMapConfig(y, 3, 1))
    assert rep["delay_mmd"] < rep_diff["delay_mmd"] / 20.0
