import inspect

import numpy as np
import pytest

from ergodic_sysid import measure
from ergodic_sysid.delay import MMD_MAX_POINTS, DelayMapConfig
from ergodic_sysid.fvm import (assemble_K, cfl_dt, face_velocities,
                               frozen_dt, stationary_density, teleport)
from ergodic_sysid.measure import Grid, Measure, SampleCloud
from ergodic_sysid.optim import (AdamState, _run_loop, adam_step,
                                 clip_by_global_norm,
                                 finite_difference_check, make_delay_loss,
                                 make_fvm_loss, make_pfo_loss,
                                 parse_checkpoint)
from ergodic_sysid.pfo import (PartitionOfUnity, UlamMatrix, UnstructuredMesh,
                               build_mesh, estimate_markov)
from ergodic_sysid.systems import OdeSystem, integrate_ode, make_system
from ergodic_sysid.velocity_models import MlpModel, flow_rk4_vjp


def _field(fn, dim=2):
    """The field of an array function, as an OdeSystem the drivers take."""
    return OdeSystem("field", dim, {}, fn)


def _flowmap(velocity, mesh, pou, sources, flow_dt, substeps=1):
    """Transition matrix of the time-flow_dt RK4 flow of a velocity."""
    y, _ = flow_rk4_vjp(velocity, sources.points, flow_dt, substeps)
    return estimate_markov((sources.points, y), mesh, pou)


def test_adam_zero_gradient_no_move():
    params = np.array([1.0, -2.0])
    state = AdamState.for_params(params)
    out = adam_step(state, params, np.zeros(2))
    assert np.array_equal(out, params)


def test_adam_moves_against_gradient_sign():
    params = np.zeros(3)
    state = AdamState.for_params(params, lr=0.1)
    g = np.array([1.0, -2.0, 0.5])
    for _ in range(50):
        params = adam_step(state, params, g)
    assert np.all(np.sign(params) == -np.sign(g))


def test_adam_single_step_hand_formula():
    params = np.array([0.5])
    state = AdamState.for_params(params, lr=0.01)
    g = np.array([0.3])
    out = adam_step(state, params, g)
    mhat = 0.1 * 0.3 / (1 - 0.9)
    vhat = 0.001 * 0.3**2 / (1 - 0.999)
    assert np.isclose(out[0], 0.5 - 0.01 * mhat / (np.sqrt(vhat) + 1e-8))


def test_clip_by_global_norm():
    g = np.array([3.0, 4.0])
    assert np.allclose(clip_by_global_norm(g, 10.0), g)
    clipped = clip_by_global_norm(g * 10, 10.0)
    assert np.isclose(np.linalg.norm(clipped), 10.0)


def _stationary_target(grid, velocity, D, eps, dt):
    """Stationary density of a field on the fit's own discretization."""
    op = assemble_K(grid, face_velocities(grid, velocity)[0], D, dt)
    return Measure(stationary_density(teleport(op, eps)), grid)


def _double_well_target(grid, D, eps):
    # the field v(x) = x - x^3
    return _stationary_target(grid, _field(lambda X: X - X**3, 1), D, eps,
                              cfl_dt(grid, D, 4.0))


def test_fvm_fit_zero_gradient_at_truth():
    grid = Grid([-2.0], [2.0], [24])
    D, eps = 0.08, 1e-3
    truth = MlpModel([1, 8, 1])
    truth.init_params(seed=1)
    dt = frozen_dt(grid, truth, D)
    target = _stationary_target(grid, truth, D, eps, dt)
    loss_and_grad, _ = make_fvm_loss(target, truth, grid, D, eps, "l2")
    val, grad = loss_and_grad(truth.get_params())
    assert val < 1e-20
    assert np.linalg.norm(grad) < 1e-6 * (1 + np.linalg.norm(
        truth.get_params()))


def test_fvm_fit_double_well_loss_drops_10x():
    grid = Grid([-2.0], [2.0], [32])
    D, eps = 0.08, 1e-3
    target = _double_well_target(grid, D, eps)
    mlp = MlpModel([1, 16, 1])
    mlp.init_params(seed=2)
    lng, _ = make_fvm_loss(target, mlp, grid, D, eps, "l2")
    report = _run_loop(lng, mlp, {}, n_iters=500, lr=1e-2, seed=0)
    assert report["loss_history"][-1] <= report["loss_history"][0] / 10.0


def test_fvm_fit_deterministic_history():
    grid = Grid([-2.0], [2.0], [16])
    D, eps = 0.08, 1e-2
    target = _double_well_target(grid, D, eps)
    histories = []
    for _ in range(2):
        mlp = MlpModel([1, 8, 1])
        mlp.init_params(seed=3)
        lng, _ = make_fvm_loss(target, mlp, grid, D, eps, "l2")
        report = _run_loop(lng, mlp, {}, n_iters=25, lr=1e-2)
        histories.append(report["loss_history"])
    assert histories[0] == histories[1]


def test_pfo_fit_truth_is_noise_floor():
    rng = np.random.default_rng(4)
    sys = make_system("van_der_pol", c=1.0)
    traj = integrate_ode(sys, [1.4, 0.0], 0.05, 3000)
    cloud = SampleCloud(traj.states[::3])
    mesh = build_mesh(cloud, 20, seed=5)
    pou = PartitionOfUnity(mesh.centers, 0.4)
    target = _flowmap(sys, mesh, pou, cloud, 0.05, substeps=1)
    loss_and_grad = make_pfo_loss(target, _wrap_system(sys), mesh, pou,
                                  cloud, 0.05)
    val, _ = loss_and_grad(np.zeros(0))
    assert val == 0.0  # same integrator, same sources


def test_pfo_loss_rejects_an_empty_source_cell():
    # every source lies in cell 0, so cell 1 has no row to average
    sources = SampleCloud(np.full((10, 2), 0.1))
    mesh = UnstructuredMesh(np.array([[0.0, 0.0], [5.0, 5.0]]))
    pou = PartitionOfUnity(mesh.centers, 0.5)
    with pytest.raises(ValueError, match="2 cells for 10 sources leave 1 "
                                         "source cells empty"):
        make_pfo_loss(UlamMatrix(np.eye(2)), _field(lambda z: -z), mesh, pou,
                      sources, 0.1)


def _wrap_system(sys):
    class _Wrapper:
        n_params = 0

        def set_params(self, theta):
            pass

        def get_params(self):
            return np.zeros(0)

        def linearize(self, X):
            return sys.linearize(X)

    return _Wrapper()


def test_delay_fit_zero_iterations_reports_initial_loss():
    sys = make_system("lorenz63")
    traj = integrate_ode(sys, [1.0, 1.0, 20.0], 0.05, 400, substeps=5)
    mlp = MlpModel([3, 8, 3])
    mlp.init_params(seed=6)
    cfg = DelayMapConfig(0, 3, 1)
    lng, *_ = make_delay_loss(traj, mlp, cfg, "j2", 200)
    report = _run_loop(lng, mlp, {}, n_iters=0)
    assert report["loss_history"] == []
    assert report["initial_loss"] is not None and np.isfinite(
        report["initial_loss"])


def test_delay_fit_computes_each_observed_self_distance_once(monkeypatch):
    # E|Y - Y'| of the image and observed delay clouds does not depend on
    # the parameters: a j2 fit computes it once per cloud, not per iteration
    calls = []
    original = measure._weighted_distance

    def counting(*args, **kwargs):
        if len(args) + len(kwargs) == 2:  # one cloud: its self sum
            calls.append(args[0].shape)
        return original(*args, **kwargs)

    monkeypatch.setattr(measure, "_weighted_distance", counting)
    traj = integrate_ode(make_system("lorenz63"), [1.0, 1.0, 20.0], 0.05, 120,
                         substeps=5)
    mlp = MlpModel([3, 4, 3])
    mlp.init_params(seed=3)
    lng, *_ = make_delay_loss(traj, mlp, DelayMapConfig(0, 3, 1), "j2", 60)
    report = _run_loop(lng, mlp, {}, n_iters=3)
    assert len(report["loss_history"]) == 3
    assert calls == [(60, 3), (60, 3)]


def test_delay_fit_rejects_a_cloud_above_the_mmd_limit():
    traj = integrate_ode(make_system("lorenz63"), [1.0, 1.0, 20.0], 0.05, 20)
    with pytest.raises(ValueError, match="not in 1..4000"):
        make_delay_loss(traj, MlpModel([3, 3]), DelayMapConfig(0, 3, 1),
                        "j2", MMD_MAX_POINTS + 1)


def test_delay_fit_histories_finite_and_deterministic():
    sys = make_system("lorenz63")
    traj = integrate_ode(sys, [1.0, 1.0, 20.0], 0.05, 300, substeps=5)
    cfg = DelayMapConfig(0, 3, 1)
    histories = []
    for _ in range(2):
        mlp = MlpModel([3, 8, 3],
                       in_shift=traj.states.mean(0),
                       in_scale=traj.states.std(0),
                       out_shift=traj.states.mean(0),
                       out_scale=traj.states.std(0))
        mlp.init_params(seed=7)
        lng, *_ = make_delay_loss(traj, mlp, cfg, "j2", 150)
        report = _run_loop(lng, mlp, {}, n_iters=20, lr=3e-3)
        assert np.all(np.isfinite(report["loss_history"]))
        histories.append(report["loss_history"])
    assert histories[0] == histories[1]


def test_first_iteration_gradients_pass_fd_spot_checks():
    rng = np.random.default_rng(8)

    # stationary-density driver
    grid = Grid([-2.0], [2.0], [12])
    target = _double_well_target(grid, 0.08, 1e-2)
    mlp = MlpModel([1, 6, 1])
    mlp.init_params(seed=9)
    lng, _ = make_fvm_loss(target, mlp, grid, 0.08, 1e-2, "l2")
    errs = finite_difference_check(lng, mlp.get_params(),
                                   rng.choice(mlp.n_params, 3, replace=False))
    assert max(errs.values()) < 1e-3

    # transition-matrix driver
    src = SampleCloud(rng.normal(size=(120, 2)))
    mesh = build_mesh(src, 4, seed=10)
    pou = PartitionOfUnity(mesh.centers, 0.7)
    rot = _field(lambda z: np.stack([z[:, 1], -z[:, 0]], axis=1))
    target_m = _flowmap(rot, mesh, pou, src, 0.1)
    mlp2 = MlpModel([2, 6, 2])
    mlp2.init_params(seed=11)
    lng2 = make_pfo_loss(target_m, mlp2, mesh, pou, src, 0.1)
    errs = finite_difference_check(lng2, mlp2.get_params(),
                                   rng.choice(mlp2.n_params, 3,
                                              replace=False))
    assert max(errs.values()) < 1e-3

    # delay driver
    sys = make_system("lorenz63")
    traj = integrate_ode(sys, [1.0, 1.0, 20.0], 0.05, 200, substeps=5)
    mlp3 = MlpModel([3, 6, 3], in_shift=traj.states.mean(0),
                    in_scale=traj.states.std(0))
    mlp3.init_params(seed=12)
    lng3, *_ = make_delay_loss(traj, mlp3, DelayMapConfig(0, 3, 1), "j2",
                               100)
    errs = finite_difference_check(lng3, mlp3.get_params(),
                                   rng.choice(mlp3.n_params, 3,
                                              replace=False))
    assert max(errs.values()) < 1e-3


def _resume_problem():
    grid = Grid([-2.0], [2.0], [16])
    target = _double_well_target(grid, 0.08, 1e-2)

    def fit(n_iters, **loop):
        mlp = MlpModel([1, 8, 1])
        mlp.init_params(seed=13)  # dt freezing keys off the initial field
        lng, _ = make_fvm_loss(target, mlp, grid, 0.08, 1e-2, "l2")
        if "resume" in loop:  # a checkpoint blob, parsed as the CLI does
            loop["resume"] = parse_checkpoint(loop["resume"], mlp.n_params,
                                              n_iters)
        report = _run_loop(lng, mlp, {}, n_iters=n_iters, lr=1e-2, **loop)
        return report, mlp

    return fit


def test_resume_reproduces_full_history():
    fit = _resume_problem()
    full, _ = fit(12)
    saved = []
    fit(6, checkpoint_every=6, save=saved.append)
    resumed, mlp = fit(12, resume=saved[-1])
    assert resumed["loss_history"] == full["loss_history"]
    assert np.allclose(resumed["final_params"], full["final_params"])
    assert np.array_equal(mlp.get_params(), resumed["final_params"])


def test_resume_of_a_resumed_run_matches_one_run():
    # checkpoints carry the whole history, so a checkpoint written by a
    # resumed run resumes like one written by an uninterrupted run
    fit = _resume_problem()
    full_saves, hop1, hop2, hop3 = [], [], [], []
    full, _ = fit(10, checkpoint_every=3, save=full_saves.append)
    fit(3, checkpoint_every=3, save=hop1.append)
    fit(6, checkpoint_every=3, save=hop2.append, resume=hop1[-1])
    resumed, _ = fit(10, checkpoint_every=3, save=hop3.append,
                     resume=hop2[-1])
    assert [b["iteration"] for b in full_saves] == [3, 6, 9]
    assert hop1 + hop2 + hop3 == full_saves
    assert resumed["loss_history"] == full["loss_history"]
    assert resumed["initial_loss"] == full["initial_loss"]
    assert np.array_equal(resumed["final_params"], full["final_params"])


def test_loop_rejects_negative_n_iters_and_checkpoints_without_save():
    fit = _resume_problem()
    with pytest.raises(ValueError, match="negative"):
        fit(-1)
    with pytest.raises(ValueError, match="save"):
        fit(4, checkpoint_every=2)


def test_loop_rejects_a_resume_past_n_iters():
    fit = _resume_problem()
    saved = []
    fit(6, checkpoint_every=6, save=saved.append)
    with pytest.raises(ValueError, match="6 iterations, more than n_iters 3"):
        fit(3, resume=saved[-1])


def test_fit_drivers_share_the_n_iters_default():
    # every driver's closure runs on the one loop, whose signature is the
    # only home of its defaults
    loop = inspect.signature(_run_loop).parameters
    assert loop["n_iters"].default == 500
    keywords = {"n_iters", "lr", "seed", "checkpoint_every", "save",
                "resume"}
    assert keywords <= set(loop)
