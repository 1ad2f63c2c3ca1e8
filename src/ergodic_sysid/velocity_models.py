"""Parameterized velocity fields and maps with built-in reverse mode.

The networks here are tiny, and the optimization drivers only ever need
vector-Jacobian products, so reverse mode is written out by hand instead of
pulling in an autodiff framework. Every model exposes

    eval_batch(X)            -> (n, dim_out) values
    vjp(X, seeds, need_x)    -> (flat parameter gradient, input gradient)

where the parameter gradient accumulates d(sum_k seeds_k . f(x_k))/d theta.
"""

from __future__ import annotations

import numpy as np

from .systems import rk4_step, _check_finite


class _Parameterized:
    """Models whose parameters are one flat vector ``theta``."""

    theta: np.ndarray

    @property
    def n_params(self) -> int:
        return self.theta.size

    def get_params(self) -> np.ndarray:
        return self.theta.copy()

    def set_params(self, theta: np.ndarray):
        theta = np.asarray(theta, dtype=float)
        if theta.shape != self.theta.shape:
            raise ValueError("parameter vector has the wrong length")
        self.theta = theta.copy()


class MlpModel(_Parameterized):
    """Fully-connected network, tanh hidden layers, linear output.

    Optional fixed input/output affine maps (whitening) are part of the
    architecture, not of the parameter vector.
    """

    def __init__(self, layer_sizes, in_shift=None, in_scale=None,
                 out_shift=None, out_scale=None):
        if len(layer_sizes) < 2:
            raise ValueError("need at least input and output sizes")
        self.layer_sizes = [int(s) for s in layer_sizes]
        self.in_shift = self._affine(in_shift, self.layer_sizes[0], 0.0)
        self.in_scale = self._affine(in_scale, self.layer_sizes[0], 1.0)
        self.out_shift = self._affine(out_shift, self.layer_sizes[-1], 0.0)
        self.out_scale = self._affine(out_scale, self.layer_sizes[-1], 1.0)
        self._slices = []
        offset = 0
        for nin, nout in zip(self.layer_sizes[:-1], self.layer_sizes[1:]):
            wslice = slice(offset, offset + nin * nout)
            offset += nin * nout
            bslice = slice(offset, offset + nout)
            offset += nout
            self._slices.append((wslice, bslice, nin, nout))
        self.theta = np.zeros(offset)

    @staticmethod
    def _affine(value, size, default):
        if value is None:
            return np.full(size, default)
        return np.broadcast_to(np.asarray(value, dtype=float), (size,)).copy()

    @property
    def dim_in(self) -> int:
        return self.layer_sizes[0]

    @property
    def dim_out(self) -> int:
        return self.layer_sizes[-1]

    def init_params(self, init: str = "xavier", seed: int = 0) -> np.ndarray:
        """Xavier-uniform weights with zero biases, or all zeros."""
        if init == "zeros":
            self.theta = np.zeros_like(self.theta)
            return self.get_params()
        if init != "xavier":
            raise ValueError(f"unknown init scheme {init!r}")
        rng = np.random.default_rng(seed)
        theta = np.zeros_like(self.theta)
        for wsl, bsl, nin, nout in self._slices:
            bound = np.sqrt(6.0 / (nin + nout))
            theta[wsl] = rng.uniform(-bound, bound, nin * nout)
        self.theta = theta
        return self.get_params()

    def _layers(self):
        for wsl, bsl, nin, nout in self._slices:
            yield self.theta[wsl].reshape(nout, nin), self.theta[bsl]

    def _forward(self, X):
        z = (np.atleast_2d(np.asarray(X, dtype=float)) - self.in_shift) \
            / self.in_scale
        activations = [z]
        layers = list(self._layers())
        for li, (w, b) in enumerate(layers):
            z = z @ w.T + b
            if li < len(layers) - 1:
                z = np.tanh(z)
            activations.append(z)
        return activations

    def eval_batch(self, X) -> np.ndarray:
        out = self._forward(X)[-1]
        return out * self.out_scale + self.out_shift

    def vjp(self, X, seeds, need_x: bool = False):
        """Accumulate d(sum seeds . f(X))/d theta; optionally d/dX too."""
        acts = self._forward(X)
        seeds = np.atleast_2d(np.asarray(seeds, dtype=float))
        grad = np.zeros_like(self.theta)
        layers = list(self._layers())
        delta = seeds * self.out_scale
        for li in range(len(layers) - 1, -1, -1):
            w, _ = layers[li]
            wsl, bsl, nin, nout = self._slices[li]
            grad[wsl] = (delta.T @ acts[li]).ravel()
            grad[bsl] = delta.sum(axis=0)
            if li > 0 or need_x:
                back = delta @ w
                if li > 0:
                    delta = back * (1.0 - acts[li] ** 2)
        x_grad = back / self.in_scale if need_x else None
        return grad, x_grad

    def checkpoint(self) -> dict:
        return {
            "kind": "mlp",
            "layer_sizes": self.layer_sizes,
            "in_shift": self.in_shift.tolist(),
            "in_scale": self.in_scale.tolist(),
            "out_shift": self.out_shift.tolist(),
            "out_scale": self.out_scale.tolist(),
            "theta": self.theta.tolist(),
        }

    @classmethod
    def from_checkpoint(cls, blob: dict) -> "MlpModel":
        model = cls(blob["layer_sizes"], blob.get("in_shift"),
                    blob.get("in_scale"), blob.get("out_shift"),
                    blob.get("out_scale"))
        model.set_params(np.asarray(blob["theta"]))
        return model


class LinearFeatureModel(_Parameterized):
    """Linear-in-parameters field v(x) = Theta @ phi(x).

    ``features(X) -> (n, F)``; ``features_jac(X) -> (n, F, dim_in)`` is only
    required when input gradients are requested.
    """

    def __init__(self, features, n_features: int, dim_in: int,
                 dim_out: int = 1, features_jac=None):
        self.features = features
        self.features_jac = features_jac
        self.n_features = n_features
        self._dim_in = dim_in
        self._dim_out = dim_out
        self.theta = np.zeros(dim_out * n_features)

    @property
    def dim_in(self) -> int:
        return self._dim_in

    @property
    def dim_out(self) -> int:
        return self._dim_out

    def eval_batch(self, X) -> np.ndarray:
        phi = self.features(np.atleast_2d(np.asarray(X, dtype=float)))
        return phi @ self.theta.reshape(self._dim_out, self.n_features).T

    def vjp(self, X, seeds, need_x: bool = False):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        seeds = np.atleast_2d(np.asarray(seeds, dtype=float))
        phi = self.features(X)
        grad = (seeds.T @ phi).ravel()
        x_grad = None
        if need_x:
            if self.features_jac is None:
                raise ValueError("features_jac required for input gradients")
            jac = self.features_jac(X)
            coef = seeds @ self.theta.reshape(self._dim_out, self.n_features)
            x_grad = np.einsum("nf,nfd->nd", coef, jac)
        return grad, x_grad


class FaceValuesModel(_Parameterized):
    """Velocity given directly by its values on the grid cell faces.

    Parameters are the per-dimension arrays of lower-face normal velocities
    in flat cell order, so the face-gradient arrays of the adjoint method
    are exactly the parameter gradient. Values on boundary faces are pinned
    to zero by the assembly regardless of the stored parameters.
    """

    def __init__(self, grid):
        self.grid = grid
        self.theta = np.zeros(grid.dim * grid.n_cells)

    def face_arrays(self):
        n = self.grid.n_cells
        return [self.theta[i * n:(i + 1) * n] for i in range(self.grid.dim)]

    def set_from_field(self, velocity):
        """Sample a velocity field at the lower-face centers."""
        self.theta = np.concatenate([
            evaluate_velocity(velocity, self.grid.face_centers(i))[:, i]
            for i in range(self.grid.dim)])


class MaskedVelocity:
    """Learn a subset of the velocity components, pin the rest.

    Pinned components come from a known reference field; its vector-Jacobian
    product is only needed when flow maps of the combined field are
    differentiated with respect to the state.
    """

    def __init__(self, inner, learned, reference_rhs, reference_jac_vjp=None,
                 dim=None):
        self.inner = inner
        self.learned = np.asarray(sorted(learned), dtype=int)
        self.reference_rhs = reference_rhs
        self.reference_jac_vjp = reference_jac_vjp
        self.dim = dim if dim is not None else inner.dim_in
        if inner.dim_out != self.learned.size:
            raise ValueError("inner model must output one value per "
                             "learned component")

    @property
    def dim_in(self) -> int:
        return self.dim

    @property
    def dim_out(self) -> int:
        return self.dim

    @property
    def n_params(self) -> int:
        return self.inner.n_params

    def get_params(self):
        return self.inner.get_params()

    def set_params(self, theta):
        self.inner.set_params(theta)

    def eval_batch(self, X) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        out = np.asarray(self.reference_rhs(X), dtype=float).copy()
        out[:, self.learned] = self.inner.eval_batch(X)
        return out

    def vjp(self, X, seeds, need_x: bool = False):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        seeds = np.atleast_2d(np.asarray(seeds, dtype=float))
        grad, x_grad = self.inner.vjp(X, seeds[:, self.learned], need_x)
        if need_x:
            if self.reference_jac_vjp is None:
                raise ValueError("reference_jac_vjp required for input "
                                 "gradients of a masked field")
            pinned = seeds.copy()
            pinned[:, self.learned] = 0.0
            x_grad = x_grad + self.reference_jac_vjp(X, pinned)
        return grad, x_grad


def evaluate_velocity(velocity, X) -> np.ndarray:
    """Evaluate a model, an OdeSystem, or a bare callable at points X."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if hasattr(velocity, "eval_batch"):
        return np.asarray(velocity.eval_batch(X))
    if hasattr(velocity, "rhs"):
        return np.asarray(velocity.rhs(X))
    return np.asarray(velocity(X))


def flow_rk4(velocity, X, dt: float, substeps: int = 1) -> np.ndarray:
    """Time-dt RK4 flow map of the velocity applied to a batch of points."""
    x = np.atleast_2d(np.asarray(X, dtype=float)).copy()
    h = dt / substeps
    f = lambda z: evaluate_velocity(velocity, z)
    for k in range(substeps):
        x = rk4_step(f, x, h)
        _check_finite(x, k + 1)
    return x


def flow_rk4_vjp(velocity, X, dt: float, substeps: int = 1):
    """RK4 flow map of a batch of points and its reverse-mode derivative.

    Returns (Y, pullback): Y is the flowed batch, and pullback(seed_grad)
    gives (theta_grad, x_grad), the gradients of sum(seed_grad . Y) with
    respect to the parameters and to X through every stage of every
    substep. Only the pullback needs the velocity's ``vjp``.
    """
    x = np.atleast_2d(np.asarray(X, dtype=float)).copy()
    h = dt / substeps
    stages = []  # the four stage inputs of every substep, in order

    def f(z):
        stages.append(z)
        return evaluate_velocity(velocity, z)

    for k in range(substeps):
        x = rk4_step(f, x, h)
        _check_finite(x, k + 1)

    def pullback(seed_grad):
        theta_grad = np.zeros(velocity.n_params)
        gbar = np.atleast_2d(np.asarray(seed_grad, dtype=float))
        for k in reversed(range(substeps)):
            z1, z2, z3, z4 = stages[4 * k:4 * k + 4]
            xbar = gbar.copy()
            tg, u = velocity.vjp(z4, (h / 6.0) * gbar, need_x=True)
            theta_grad += tg
            xbar += u
            tg, u = velocity.vjp(z3, (h / 3.0) * gbar + h * u, need_x=True)
            theta_grad += tg
            xbar += u
            tg, u = velocity.vjp(z2, (h / 3.0) * gbar + 0.5 * h * u,
                                 need_x=True)
            theta_grad += tg
            xbar += u
            tg, u = velocity.vjp(z1, (h / 6.0) * gbar + 0.5 * h * u,
                                 need_x=True)
            theta_grad += tg
            xbar += u
            gbar = xbar
        return theta_grad, gbar

    return x, pullback
