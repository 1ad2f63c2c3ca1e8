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
# Lines formatted and written per write call: one call per block keeps the
# per-line cost low without holding the whole file's text.
_WRITE_BLOCK = 4096


def _write_lines(fh, line, n_lines, fields):
    """Write ``n_lines`` lines of the format ``line``, one ``%`` of the
    line repeated ``_WRITE_BLOCK`` times per write call, on the flat list
    ``fields(block)`` of the Python values of the block's lines."""
    for s in range(0, n_lines, _WRITE_BLOCK):
        block = slice(s, min(s + _WRITE_BLOCK, n_lines))
        fh.write(line * (block.stop - s) % tuple(fields(block)))


def _write_table(path, header, array):
    """CSV of a float table: ``np.savetxt(fmt=FLOAT_FMT, delimiter=",")``'s
    bytes under a header line."""
    array = np.atleast_2d(np.asarray(array, dtype=float))
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        line = ",".join([FLOAT_FMT] * array.shape[1]) + "\n"
        _write_lines(fh, line, array.shape[0],
                     lambda rows: array[rows].ravel().tolist())


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
    g = m.support
    _dump_json(path, {"weights": m.weights.tolist(),
                      "grid": {"lo": g.lo.tolist(), "hi": g.hi.tolist(),
                               "n_per_dim": g.n_per_dim.tolist()}})


def read_measure_json(path) -> Measure:
    """The grid measure in ``path``; ValueError if it names no grid or
    holds no weight for each of its cells."""
    blob = _load_json(path)
    if "grid" not in blob:
        raise ValueError(f"{path} holds no grid")
    if "weights" not in blob:
        raise ValueError(f"{path} holds no weights")
    g = blob["grid"]
    grid = Grid(g["lo"], g["hi"], g["n_per_dim"])
    n = np.size(blob["weights"])
    if n != grid.n_cells:
        raise ValueError(f"{path} holds {n} weights for {grid.n_cells} "
                         "grid cells")
    return Measure(blob["weights"], support=grid)


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

    def entries(block):  # (row, col, value) of each entry, interleaved
        out = [None] * (3 * (block.stop - block.start))
        out[0::3] = coo.row[block].tolist()
        out[1::3] = coo.col[block].tolist()
        out[2::3] = coo.data[block].tolist()
        return out

    with open(path, "w") as fh:
        fh.write(f"# orientation=row n={M.n} eps={M.eps!r}\n")
        _write_lines(fh, "%d %d " + FLOAT_FMT + "\n", coo.nnz, entries)


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
