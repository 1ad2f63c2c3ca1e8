"""Identify dynamical systems from the time-invariant statistics of their
trajectories: a finite-volume stationary-density surrogate with adjoint
gradients, a data-adaptive transfer-operator estimator, and delay-coordinate
measure matching."""
