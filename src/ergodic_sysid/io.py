"""File formats: trajectory and cloud CSV, measure and mesh JSON, Ulam
matrices as coordinate lists, model checkpoints, and fit reports.

All writers are deterministic (stable key order, round-tripping float
format) so reruns of a seeded experiment produce byte-identical artifacts;
wall-clock data is confined to a ``meta`` field.
"""

from __future__ import annotations

import json

import numpy as np
import scipy.sparse as sp

from .measure import Grid, Measure, SampleCloud
from .pfo import UlamMatrix, UnstructuredMesh
from .systems import Trajectory
from .velocity_models import MlpModel

FLOAT_FMT = "%.17g"


def _write_table(path, header, array):
    array = np.atleast_2d(np.asarray(array, dtype=float))
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        np.savetxt(fh, array, fmt=FLOAT_FMT, delimiter=",")


def write_trajectory_csv(path, traj: Trajectory):
    d = traj.dim
    header = ["t"] + [f"x{i+1}" for i in range(d)]
    table = np.column_stack([traj.times, traj.states])
    _write_table(path, header, table)


def read_trajectory_csv(path) -> Trajectory:
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    t = data[:, 0]
    dt = float(t[1] - t[0]) if t.size > 1 else 0.0
    return Trajectory(data[:, 1:], dt)


def write_cloud_csv(path, cloud: SampleCloud):
    header = [f"x{i+1}" for i in range(cloud.dim)]
    _write_table(path, header, cloud.points)


def _dump_json(path, payload: dict):
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _load_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def write_measure_json(path, m: Measure):
    payload = {"weights": m.weights.tolist()}
    if isinstance(m.support, Grid):
        payload["grid"] = {
            "lo": m.support.lo.tolist(),
            "hi": m.support.hi.tolist(),
            "n_per_dim": m.support.n_per_dim.tolist(),
        }
    elif isinstance(m.support, UnstructuredMesh):
        payload["cells"] = m.support.centers.tolist()
    else:
        payload["cells"] = list(range(m.n))
    _dump_json(path, payload)


def read_measure_json(path) -> Measure:
    blob = _load_json(path)
    weights = np.asarray(blob["weights"], dtype=float)
    if "grid" in blob:
        g = blob["grid"]
        support = Grid(g["lo"], g["hi"], g["n_per_dim"])
    else:
        cells = np.asarray(blob["cells"], dtype=float)
        support = UnstructuredMesh(np.atleast_2d(cells)) \
            if cells.ndim > 1 else tuple(blob["cells"])
    return Measure(weights, support=support)


def write_mesh_json(path, mesh: UnstructuredMesh):
    payload = {
        "centers": mesh.centers.tolist(),
        "counts": None if mesh.counts is None else mesh.counts.tolist(),
        "n_cells": mesh.n,
        "dim": mesh.dim,
    }
    _dump_json(path, payload)


def read_mesh_json(path) -> UnstructuredMesh:
    blob = _load_json(path)
    counts = blob.get("counts")
    return UnstructuredMesh(
        np.asarray(blob["centers"], dtype=float),
        None if counts is None else np.asarray(counts, dtype=int))


def write_ulam_matrix(path, M: UlamMatrix):
    """Coordinate-list text: `row col value` of a row-stochastic matrix,
    whose orientation the header records."""
    coo = sp.coo_matrix(M.matrix)
    with open(path, "w") as fh:
        fh.write(f"# orientation=row n={M.n} eps={M.eps!r}\n")
        for r, c, v in zip(coo.row, coo.col, coo.data):
            fh.write(f"{r} {c} {FLOAT_FMT % v}\n")


def read_ulam_matrix(path) -> UlamMatrix:
    with open(path) as fh:
        header = fh.readline().strip().lstrip("# ")
        fields = dict(part.split("=") for part in header.split())
        if fields.get("orientation") != "row":
            raise ValueError(f"{path}: expected a row-stochastic matrix "
                             f"(orientation=row), got {header!r}")
        entries = np.loadtxt(fh, ndmin=2)
    n = int(fields["n"])
    mat = np.zeros((n, n))
    if entries.size:
        mat[entries[:, 0].astype(int), entries[:, 1].astype(int)] = \
            entries[:, 2]
    return UlamMatrix(mat, eps=float(fields["eps"]))


def write_checkpoint(path, payload: dict):
    _dump_json(path, payload)


def read_checkpoint(path) -> dict:
    return _load_json(path)


def load_model(blob: dict):
    if blob.get("kind") == "mlp":
        return MlpModel.from_checkpoint(blob)
    raise ValueError(f"unknown model kind {blob.get('kind')!r}")


def write_report_json(path, report):
    _dump_json(path, report.to_dict())


def read_report_json(path) -> dict:
    return _load_json(path)
