"""A parameterized velocity field or map with built-in reverse mode.

The networks here are tiny, and the optimization drivers only ever need
vector-Jacobian products, so reverse mode is written out by hand instead of
pulling in an autodiff framework. ``MlpModel`` holds its parameters in one
flat vector ``theta`` and exposes

    eval_batch(X)       -> (n, m) values
    linearize(X)        -> (values, pullback)
    pullback(seeds)     -> (flat parameter gradient, input gradient)

where the parameter gradient accumulates d(sum_k seeds_k . f(x_k))/d theta
and the input gradient, an array shaped like X, is d/dx_k of the same sum.
Every model kind keeps this contract; its pullback always returns both, so
a caller that chains it through a flow or a map and one that needs only the
parameters make the same call. The pullback closes over the intermediates
of the forward pass that made the values, so a reverse pass never reruns
the network. ``fvm.face_velocities`` keeps the pullback of its one pass at
the cell centres for ``adjoint.grad_parameters``; ``flow_rk4_vjp`` chains
the pullbacks of its stages. ``systems.OdeSystem.linearize`` gives a known
field the same call, with a None pullback.

Both passes work in place. The forward pass makes one array per layer, the
GEMM's output, and the bias add and ``tanh`` overwrite it; the pullback
multiplies each fresh delta by the tanh slope in place. These are the
operations of the textbook passes in the same order, so the values and
both gradients are the same bits, and a pass at n rows holds the
activations plus at most two deltas of a layer's width.
"""

from __future__ import annotations

import numpy as np

from .systems import rk4_step, _check_finite


class MlpModel:
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

    @property
    def theta(self) -> np.ndarray:
        return self._theta

    @theta.setter
    def theta(self, value: np.ndarray):
        # Every replacement of theta rebuilds the per-layer (w, b) views once,
        # so a forward pass does not reslice the flat vector on each call.
        self._theta = value
        self._layers = [(value[wsl].reshape(nout, nin), value[bsl])
                        for wsl, bsl, nin, nout in self._slices]

    @staticmethod
    def _affine(value, size, default):
        if value is None:
            return np.full(size, default)
        return np.broadcast_to(np.asarray(value, dtype=float), (size,)).copy()

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

    def init_params(self, seed: int = 0) -> np.ndarray:
        """Xavier-uniform weights with zero biases."""
        rng = np.random.default_rng(seed)
        theta = np.zeros_like(self.theta)
        for wsl, bsl, nin, nout in self._slices:
            bound = np.sqrt(6.0 / (nin + nout))
            theta[wsl] = rng.uniform(-bound, bound, nin * nout)
        self.theta = theta
        return self.get_params()

    def _forward(self, X):
        z = (np.atleast_2d(np.asarray(X, dtype=float)) - self.in_shift) \
            / self.in_scale
        activations = [z]
        layers = self._layers
        for li, (w, b) in enumerate(layers):
            z = z @ w.T
            z += b
            if li < len(layers) - 1:
                np.tanh(z, out=z)
            activations.append(z)
        return activations

    def eval_batch(self, X) -> np.ndarray:
        out = self._forward(X)[-1]
        return out * self.out_scale + self.out_shift

    def linearize(self, X):
        """Values at X and the pullback that reuses their activations.
        The pullback writes neither the activations nor ``seeds``, so it
        may be called again."""
        acts = self._forward(X)
        layers = self._layers

        def pullback(seeds):
            grad = np.zeros_like(self.theta)
            delta = np.atleast_2d(seeds) * self.out_scale
            for li in range(len(layers) - 1, -1, -1):
                wsl, bsl, _, _ = self._slices[li]
                grad[wsl] = (delta.T @ acts[li]).ravel()
                grad[bsl] = delta.sum(axis=0)
                delta = delta @ layers[li][0]
                if li > 0:
                    delta *= _tanh_slope(acts[li])
            return grad, delta / self.in_scale

        return acts[-1] * self.out_scale + self.out_shift, pullback

    def vjp(self, X, seeds):
        """One-off gradient: ``linearize(X)`` pulled back once. The drivers
        keep the pullback of their own forward pass instead."""
        return self.linearize(X)[1](seeds)

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


def _tanh_slope(a):
    """1 - a**2, the slope of tanh where it took the values a, in one new
    array that is freed once the caller has used it."""
    t = np.square(a)
    np.subtract(1.0, t, out=t)
    return t


def flow_rk4_vjp(velocity, X, dt: float, substeps: int = 1):
    """RK4 flow map of a batch of points and its reverse-mode derivative.

    Returns (Y, pullback): Y is the flowed batch, and pullback(seed_grad)
    gives (theta_grad, x_grad), the gradients of sum(seed_grad . Y) with
    respect to the parameters and to X through every stage of every
    substep. Each stage runs the velocity's ``linearize`` once and the
    pullback reverses through the stage pullbacks it kept, which only a
    model has: an ``OdeSystem`` flows forward but cannot be pulled back.
    """
    if substeps < 1:
        raise ValueError(f"substeps must be at least 1, got {substeps}")
    x = np.atleast_2d(np.asarray(X, dtype=float)).copy()
    h = dt / substeps
    stages = []  # the pullbacks of the four stages of every substep

    def f(z):
        value, stage_pullback = velocity.linearize(z)
        stages.append(stage_pullback)
        return value

    for k in range(substeps):
        x = rk4_step(f, x, h)
        _check_finite(x, k + 1)

    # RK4 weight of each stage's slope; step at which stage s + 1 read s's
    weights = (h / 6.0, h / 3.0, h / 3.0, h / 6.0)
    reads = (0.5 * h, 0.5 * h, h)

    def pullback(seed_grad):
        theta_grad = np.zeros(velocity.n_params)
        gbar = np.atleast_2d(np.asarray(seed_grad, dtype=float))
        for k in reversed(range(substeps)):
            xbar = gbar.copy()
            seed = weights[3] * gbar
            for s in reversed(range(4)):
                tg, u = stages[4 * k + s](seed)
                theta_grad += tg
                xbar += u
                if s:
                    seed = weights[s - 1] * gbar + reads[s - 1] * u
            gbar = xbar
        return theta_grad, gbar

    return x, pullback
