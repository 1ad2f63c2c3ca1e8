"""Span tracing of ``ergodic_sysid`` from outside the program.

A traced pipeline run replaces module- and class-level callables at the
points where the program looks them up with timing wrappers. Each call
records one in-memory span (name, start, end, parent, attributes); the
originals are put back when the ``installed`` context exits, so tracing
cannot leak into an untraced run in the same process.

Self time of a span is its duration minus the durations of its direct
children. Calls are single-threaded and properly nested, so the children
never overlap and their summed durations are exactly the part of the
parent's interval they cover.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float = float("nan")
    parent: int = -1
    attrs: dict = field(default_factory=dict)
    error: Optional[str] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Span recorder; spans live in ``spans`` in the order they began."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.missing: set[str] = set()  # patch points the program lacks

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.clock(), parent=parent))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def end(self, idx: int, error: Optional[str] = None):
        self.spans[idx].end = self.clock()
        self.spans[idx].error = error
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {idx} closed out of order ({popped})")

    @contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield self.spans[idx]
        except BaseException as exc:
            self.end(idx, type(exc).__name__)
            raise
        self.end(idx)

    def wrap(self, name: str, fn: Callable, before=None, after=None):
        """Timing wrapper around ``fn``.

        ``before(args, kwargs)`` and ``after(result, args, kwargs)`` return
        attribute dicts for the span. They run outside the span, so their
        cost lands in the parent's self time.
        """
        tracer = self

        def traced(*args, **kwargs):
            pre = before(args, kwargs) if before is not None else None
            idx = tracer.begin(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.end(idx, type(exc).__name__)
                raise
            tracer.end(idx)
            span = tracer.spans[idx]
            if pre:
                span.attrs.update(pre)
            if after is not None:
                span.attrs.update(after(out, args, kwargs))
            return out

        traced.__wrapped__ = fn
        return traced


def self_times(spans: list) -> np.ndarray:
    """Duration of each span minus the durations of its direct children."""
    out = np.array([s.duration for s in spans], dtype=float)
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.duration
    return out


# ---------------------------------------------------------------------------
# Patch points


def _rows(x) -> int:
    return int(np.shape(x)[0]) if np.ndim(x) > 1 else 1


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _lu_before(args, kwargs):
    return {"first": args[0]._lu is None}


def _lu_after(lu, args, kwargs):
    return {"lu_nnz": int(lu.L.nnz + lu.U.nnz)}


def _mmd_pairs(out, args, kwargs):
    n, m = np.shape(args[0])[0], np.shape(args[1])[0]
    return {"pairs": int(n * m + n * n)}


def _run_loop_patch(tracer: Tracer, original):
    """``optim._run_loop`` whose closure records one span per call."""

    def run_loop(loss_and_grad, *args, **kwargs):
        return original(tracer.wrap("optim.iteration", loss_and_grad),
                        *args, **kwargs)

    return run_loop


IO_WRITERS = ("write_trajectory_csv", "write_measure_json", "write_checkpoint",
              "write_report_json", "write_mesh_json", "write_ulam_matrix",
              "_write_table")
IO_READERS = ("read_trajectory_csv", "read_measure_json", "read_checkpoint",
              "read_report_json", "read_mesh_json", "read_ulam_matrix")


def patch_points():
    """(owner, attribute, span name, before, after) for every traced call.

    Owners are the namespaces the program resolves the name in at call
    time: ``optim`` imported ``flowmap_markov_grad`` into its own module,
    ``experiments`` imported the integrators and ``wasserstein2``, and the
    ``delay`` module imported ``energy_mmd_grad_x``.
    """
    from ergodic_sysid import (adjoint, delay, experiments, fvm, io, optim,
                               pfo, velocity_models)

    def rows(out, args, kwargs):
        return {"rows": _rows(args[1])}

    points = [
        (experiments, "integrate_ode", "systems.integrate_ode", None,
         lambda out, a, k: {"samples": len(out)}),
        (experiments, "integrate_sde", "systems.integrate_sde", None,
         lambda out, a, k: {"samples": len(out)}),
        (experiments, "occupation_measure", "measure.occupation_measure",
         None, None),
        (experiments, "wasserstein2", "measure.wasserstein2", None, None),
        (delay, "energy_mmd_grad_x", "measure.energy_mmd_grad_x", None,
         _mmd_pairs),
        (fvm, "assemble_K", "fvm.assemble_K", None,
         lambda out, a, k: {"K_nnz": int(out.K.nnz)}),
        (fvm, "teleport", "fvm.teleport", None, None),
        (fvm, "stationary_density", "fvm.stationary_density", None, None),
        (fvm.RegularizedMarkov, "lu", "fvm.lu", _lu_before, _lu_after),
        (adjoint, "solve_adjoint", "adjoint.solve_adjoint", None,
         lambda out, a, k: {"residual": float(out.residual)}),
        (adjoint, "grad_face_velocities", "adjoint.grad_face_velocities",
         None, None),
        (adjoint, "grad_parameters", "adjoint.grad_parameters", None, None),
        (velocity_models.MlpModel, "eval_batch", "velocity_models.eval",
         None, rows),
        (velocity_models.MlpModel, "vjp", "velocity_models.vjp", None, rows),
        (pfo, "build_mesh", "pfo.build_mesh", None, None),
        (pfo, "estimate_markov", "pfo.estimate_markov", None, None),
        (pfo, "assign_nearest", "pfo.assign_nearest", None, None),
        (pfo.PartitionOfUnity, "eval", "pfo.pou_eval", None,
         lambda out, a, k: {"entries": int(np.size(out))}),
        (pfo.PartitionOfUnity, "vjp", "pfo.pou_vjp", None, None),
        (optim, "flowmap_markov_grad", "pfo.flowmap_markov_grad", None,
         None),
        (delay, "delay_embed", "delay.delay_embed", None, None),
        (delay, "pushforward_delay_measure", "delay.pushforward", None,
         None),
        (delay, "loss_j2_grad", "delay.loss_j2_grad", None, None),
        (optim, "_run_loop", "optim._run_loop", None, None),
    ]
    points += [(io, n, "io.write", None,
                lambda out, a, k: {"bytes": _file_size(a[0])})
               for n in IO_WRITERS]
    points += [(io, n, "io.read", None, None) for n in IO_READERS]
    return points


@contextmanager
def installed(tracer: Tracer):
    """Swap every patch point for its timing wrapper; restore on exit.

    A point the program no longer has is skipped and named in
    ``tracer.missing``; its metrics then read 0.
    """
    saved = []
    try:
        for owner, attr, name, before, after in patch_points():
            original = vars(owner).get(attr)
            if original is None:
                tracer.missing.add(f"{owner.__name__}.{attr}")
                continue
            target = original
            if name == "optim._run_loop":
                target = _run_loop_patch(tracer, original)
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, target, before, after))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# Per-layer metrics


def layer_metrics(spans: list) -> dict:
    """Per-layer numbers of one traced pipeline run.

    ``*_s`` metrics are self times, except those that sum whole calls: the
    calls under a named parent span (``fvm.face_forward_s``,
    ``pfo.rk4_forward_s``, ...), ``fvm.factorize_s``,
    ``adjoint.param_vjp_s`` and ``delay.pushforward_s``.
    """
    own = self_times(spans)
    names = [s.name for s in spans]
    parents = [spans[s.parent].name if s.parent >= 0 else "" for s in spans]

    def total_self(name):
        return float(sum(t for t, n in zip(own, names) if n == name))

    def select(name, parent=None):
        return [s for s, p in zip(spans, parents)
                if s.name == name and (parent is None or p == parent)]

    def total(name, parent=None):
        return float(sum(s.duration for s in select(name, parent)))

    def attr_sum(name, key, parent=None):
        return sum(s.attrs.get(key, 0) for s in select(name, parent))

    lus = select("fvm.lu")
    firsts = [s for s in lus if s.attrs.get("first")]
    assembled = [s for s in select("fvm.assemble_K") if s.error is None]
    iterations = select("optim.iteration")
    residuals = [s.attrs["residual"] for s in select("adjoint.solve_adjoint")
                 if "residual" in s.attrs]
    root_self = sum(t for t, s in zip(own, spans) if s.parent < 0)
    io_spans = [s for s, p in zip(spans, parents)
                if s.name == "io.write" and not p.startswith("io.")]

    return {
        "systems.integrate_ode_s": total_self("systems.integrate_ode"),
        "systems.integrate_sde_s": total_self("systems.integrate_sde"),
        "systems.samples": attr_sum("systems.integrate_ode", "samples")
        + attr_sum("systems.integrate_sde", "samples"),
        "measure.occupation_measure_s":
            total_self("measure.occupation_measure"),
        "measure.energy_mmd_grad_x_s":
            total_self("measure.energy_mmd_grad_x"),
        "measure.mmd_pairs": attr_sum("measure.energy_mmd_grad_x", "pairs"),
        "measure.wasserstein2_s": total_self("measure.wasserstein2"),
        "fvm.assemble_s": total_self("fvm.assemble_K"),
        "fvm.face_forward_s": total("velocity_models.eval", "fvm.assemble_K"),
        "fvm.factorize_s": float(sum(s.duration for s in firsts)),
        "fvm.stationary_solve_s": total_self("fvm.stationary_density"),
        "fvm.teleport_s": total_self("fvm.teleport"),
        "fvm.K_nnz": _mean([s.attrs.get("K_nnz", 0) for s in assembled]),
        "fvm.lu_nnz": _mean([s.attrs.get("lu_nnz", 0) for s in firsts]),
        "fvm.factorizations": len(firsts),
        "fvm.lu_reuse": len(lus) / len(firsts) if firsts else 0.0,
        "fvm.dt_halvings": sum(1 for s in select("fvm.assemble_K")
                               if s.error == "AssemblyError"),
        "adjoint.solve_s": total_self("adjoint.solve_adjoint"),
        "adjoint.face_grad_s": total_self("adjoint.grad_face_velocities"),
        "adjoint.param_vjp_s": total("adjoint.grad_parameters"),
        "adjoint.vjp_rows": attr_sum("velocity_models.vjp", "rows",
                                     "adjoint.grad_parameters"),
        "adjoint.residual_max": max(residuals) if residuals else 0.0,
        "velocity_models.eval_s": total_self("velocity_models.eval"),
        "velocity_models.eval_calls": len(select("velocity_models.eval")),
        "velocity_models.eval_rows": attr_sum("velocity_models.eval", "rows"),
        "velocity_models.vjp_s": total_self("velocity_models.vjp"),
        "velocity_models.vjp_calls": len(select("velocity_models.vjp")),
        "velocity_models.vjp_rows": attr_sum("velocity_models.vjp", "rows"),
        "pfo.build_mesh_s": total_self("pfo.build_mesh"),
        "pfo.estimate_markov_s": total_self("pfo.estimate_markov"),
        "pfo.assign_s": total_self("pfo.assign_nearest"),
        "pfo.rk4_forward_s": total("velocity_models.eval",
                                   "pfo.flowmap_markov_grad"),
        "pfo.rk4_reverse_s": total("velocity_models.vjp",
                                   "pfo.flowmap_markov_grad"),
        "pfo.pou_eval_s": total_self("pfo.pou_eval"),
        "pfo.pou_vjp_s": total_self("pfo.pou_vjp"),
        "pfo.matrix_s": total_self("pfo.flowmap_markov_grad"),
        "pfo.pou_entries": attr_sum("pfo.pou_eval", "entries"),
        "delay.embed_s": total_self("delay.delay_embed"),
        "delay.pushforward_s": total("delay.pushforward"),
        "delay.model_vjp_s": total("velocity_models.vjp",
                                   "delay.loss_j2_grad"),
        "delay.loss_self_s": total_self("delay.loss_j2_grad"),
        "optim.iterations": len(iterations),
        "optim.iter_span_ms": 1000.0 * _mean([s.duration
                                              for s in iterations]),
        "optim.loop_self_s": total_self("optim._run_loop"),
        "io.write_s": total_self("io.write"),
        "io.read_s": total_self("io.read"),
        "io.bytes_written": sum(s.attrs.get("bytes", 0) for s in io_spans),
        "experiments.self_s": float(root_self),
    }


def _mean(values) -> float:
    return float(np.mean(values)) if len(values) else 0.0
