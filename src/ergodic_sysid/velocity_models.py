"""Parameterized velocity fields and maps with built-in reverse mode.

The networks here are tiny, and the optimization drivers only ever need
vector-Jacobian products, so reverse mode is written out by hand instead of
pulling in an autodiff framework. Every differentiable model exposes

    eval_batch(X)               -> (n, dim_out) values
    linearize(X)                -> (values, pullback)
    pullback(seeds, need_x)     -> (flat parameter gradient, input gradient)

where the parameter gradient accumulates d(sum_k seeds_k . f(x_k))/d theta
and the input gradient (None unless need_x) is d/dx_k of the same sum. The
pullback closes over the intermediates of the forward pass that made the
values, so a reverse pass never reruns the network; ``flow_rk4_vjp`` chains
the pullbacks of its stages the same way.
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

    def linearize(self, X):
        """Values at X and the pullback that reuses their activations."""
        acts = self._forward(X)
        layers = list(self._layers())

        def pullback(seeds, need_x: bool = False):
            seeds = np.atleast_2d(np.asarray(seeds, dtype=float))
            grad = np.zeros_like(self.theta)
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

        return acts[-1] * self.out_scale + self.out_shift, pullback

    def vjp(self, X, seeds, need_x: bool = False):
        """One-off gradient: ``linearize(X)`` pulled back once. The drivers
        keep the pullback of their own forward pass instead."""
        return self.linearize(X)[1](seeds, need_x)

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

    def linearize(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        out = np.asarray(self.reference_rhs(X), dtype=float).copy()
        values, inner_pullback = self.inner.linearize(X)
        out[:, self.learned] = values

        def pullback(seeds, need_x: bool = False):
            seeds = np.atleast_2d(np.asarray(seeds, dtype=float))
            grad, x_grad = inner_pullback(seeds[:, self.learned], need_x)
            if need_x:
                if self.reference_jac_vjp is None:
                    raise ValueError("reference_jac_vjp required for input "
                                     "gradients of a masked field")
                pinned = seeds.copy()
                pinned[:, self.learned] = 0.0
                x_grad = x_grad + self.reference_jac_vjp(X, pinned)
            return grad, x_grad

        return out, pullback


def evaluate_velocity(velocity, X) -> np.ndarray:
    """Evaluate a model, an OdeSystem, or a bare callable at points X."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if hasattr(velocity, "eval_batch"):
        return np.asarray(velocity.eval_batch(X))
    if hasattr(velocity, "rhs"):
        return np.asarray(velocity.rhs(X))
    return np.asarray(velocity(X))


def linearize_velocity(velocity, X):
    """Values of a velocity at points X and their pullback.

    The pullback is None for a field without ``linearize`` (an OdeSystem
    or a bare callable): it has no parameters to differentiate.
    """
    if hasattr(velocity, "linearize"):
        return velocity.linearize(X)
    return evaluate_velocity(velocity, X), None


def flow_rk4_vjp(velocity, X, dt: float, substeps: int = 1):
    """RK4 flow map of a batch of points and its reverse-mode derivative.

    Returns (Y, pullback): Y is the flowed batch, and pullback(seed_grad)
    gives (theta_grad, x_grad), the gradients of sum(seed_grad . Y) with
    respect to the parameters and to X through every stage of every
    substep. Each stage runs the velocity's ``linearize`` once and the
    pullback reverses through the stage pullbacks it kept; only the
    pullback needs a velocity that has ``linearize``.
    """
    x = np.atleast_2d(np.asarray(X, dtype=float)).copy()
    h = dt / substeps
    stages = []  # the pullbacks of the four stages of every substep

    def f(z):
        value, stage_pullback = linearize_velocity(velocity, z)
        stages.append(stage_pullback)
        return value

    for k in range(substeps):
        x = rk4_step(f, x, h)
        _check_finite(x, k + 1)

    def pullback(seed_grad):
        theta_grad = np.zeros(velocity.n_params)
        gbar = np.atleast_2d(np.asarray(seed_grad, dtype=float))
        for k in reversed(range(substeps)):
            p1, p2, p3, p4 = stages[4 * k:4 * k + 4]
            xbar = gbar.copy()
            tg, u = p4((h / 6.0) * gbar, need_x=True)
            theta_grad += tg
            xbar += u
            tg, u = p3((h / 3.0) * gbar + h * u, need_x=True)
            theta_grad += tg
            xbar += u
            tg, u = p2((h / 3.0) * gbar + 0.5 * h * u, need_x=True)
            theta_grad += tg
            xbar += u
            tg, u = p1((h / 6.0) * gbar + 0.5 * h * u, need_x=True)
            theta_grad += tg
            xbar += u
            gbar = xbar
        return theta_grad, gbar

    return x, pullback
