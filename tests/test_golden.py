"""Golden runs: each committed smoke config, rerun through the CLI,
reproduces its committed ``runs/`` artifacts byte for byte. Only the
``meta`` block of ``report.json`` (wall-clock time) may differ."""

import json
from pathlib import Path

import pytest

from ergodic_sysid.cli import main

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", ["smoke_fit", "smoke_pfo", "smoke_delay"])
def test_smoke_config_reproduces_committed_run(name, tmp_path):
    config = ROOT / "configs" / f"{name}.json"
    golden = ROOT / json.loads(config.read_text())["out"]
    for cmd in ("simulate", "histogram", "fit"):
        assert main([cmd, "--config", str(config),
                     "--out", str(tmp_path)]) == 0
    expected = sorted(p.name for p in golden.iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == expected
    for fname in expected:
        got = (tmp_path / fname).read_bytes()
        want = (golden / fname).read_bytes()
        if fname == "report.json":
            got, want = json.loads(got), json.loads(want)
            got.pop("meta")
            want.pop("meta")
        assert got == want, fname
