"""Golden runs: each committed smoke config, rerun through the CLI
(simulate, histogram, fit, and eval when the config has an eval section),
reproduces its committed ``runs/`` artifacts byte for byte, also when the
fit resumes from a committed checkpoint. Only the ``meta`` block of
``report.json`` (wall-clock time) may differ. A failing comparison names
the file and its largest numeric drift, so a rounding-level change is
measured by the test that catches it."""

import json
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from ergodic_sysid.cli import main

ROOT = Path(__file__).resolve().parents[1]


def _leaves(value) -> list:
    """The numbers of a parsed JSON value, depth first in key order."""
    if isinstance(value, dict):
        return [x for k in sorted(value) for x in _leaves(value[k])]
    if isinstance(value, list):
        return [x for item in value for x in _leaves(item)]
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return [float(value)]
    return []


def _numbers(fname: str, content) -> list:
    """The numbers of an artifact, given as bytes or as parsed JSON: the
    leaves of a JSON file, else every comma- or space-separated token of
    the text that parses as a float (CSV cells, matrix entries)."""
    if isinstance(content, bytes) and fname.endswith(".json"):
        content = json.loads(content)
    if not isinstance(content, bytes):
        return _leaves(content)
    numbers = []
    for token in re.split(rb"[,\s]+", content):
        try:
            numbers.append(float(token))
        except ValueError:
            pass
    return numbers


def _drift(fname: str, got, want) -> str:
    """Failure message: the file and the largest absolute and relative
    difference over its numbers."""
    a, b = np.array(_numbers(fname, got)), np.array(_numbers(fname, want))
    if a.shape != b.shape:
        return f"{fname}: {a.size} numbers, {b.size} committed"
    diff = np.abs(a - b)
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.where(diff == 0, 0.0, diff / np.abs(b))
    return (f"{fname}: largest difference {diff.max(initial=0.0):.3g} "
            f"absolute, {rel.max(initial=0.0):.3g} relative, over "
            f"{a.size} numbers")


def _run_and_compare(config: Path, cfg: dict, outdir: Path):
    """Every command of the config into outdir, then every artifact
    compared with the committed run."""
    golden = ROOT / cfg["out"]
    cmds = ("simulate", "histogram", "fit") + (("eval",) if "eval" in cfg
                                                else ())
    for cmd in cmds:
        assert main([cmd, "--config", str(config),
                     "--out", str(outdir)]) == 0
    expected = sorted(p.name for p in golden.iterdir())
    assert sorted(p.name for p in outdir.iterdir()) == expected
    for fname in expected:
        got = (outdir / fname).read_bytes()
        want = (golden / fname).read_bytes()
        if fname == "report.json":
            got, want = json.loads(got), json.loads(want)
            got.pop("meta")
            want.pop("meta")
        assert got == want, _drift(fname, got, want)


@pytest.mark.parametrize("name", ["smoke_fit", "smoke_pfo", "smoke_delay"])
def test_smoke_config_reproduces_committed_run(name, tmp_path):
    config = ROOT / "configs" / f"{name}.json"
    _run_and_compare(config, json.loads(config.read_text()), tmp_path)


@pytest.mark.parametrize("name, checkpoint", [
    ("smoke_fit", "checkpoint_000005.json"),
    ("smoke_pfo", "checkpoint_000003.json"),
    ("smoke_delay", "checkpoint_000003.json")])
def test_resumed_smoke_config_reproduces_committed_run(name, checkpoint,
                                                       tmp_path):
    # the run resumes from a copy of its committed checkpoint; the
    # checkpoints it writes after that must match the committed ones
    cfg = json.loads((ROOT / "configs" / f"{name}.json").read_text())
    outdir = tmp_path / "run"
    outdir.mkdir()
    shutil.copy(ROOT / cfg["out"] / checkpoint, outdir / checkpoint)
    cfg["fit"]["resume_from"] = str(outdir / checkpoint)
    config = tmp_path / "resume.json"
    config.write_text(json.dumps(cfg))
    _run_and_compare(config, cfg, outdir)
