"""Identify dynamical systems from the time-invariant statistics of their
trajectories: a finite-volume stationary-density surrogate with adjoint
gradients, a data-adaptive transfer-operator estimator, and delay-coordinate
measure matching."""

from .systems import (OdeSystem, DiscreteMap, Trajectory, integrate_ode,
                      integrate_sde, iterate_map_batch, builtin_systems,
                      make_system)
from .measure import (Grid, Measure, SampleCloud, occupation_measure,
                      wasserstein2, energy_mmd)
from .fvm import (FvmOperator, RegularizedMarkov, cfl_dt, face_velocities,
                  assemble_K, teleport, stationary_density)
from .adjoint import (AdjointSolution, solve_adjoint, grad_face_velocities,
                      grad_parameters)
from .velocity_models import MlpModel
from .pfo import (UnstructuredMesh, PartitionOfUnity, UlamMatrix, build_mesh,
                  estimate_markov, invariant_density)
from .delay import DelayMapConfig, delay_embed, pushforward_delay_measure
from .optim import AdamState, FitReport, adam_step

__version__ = "0.1.0"
