"""Self-tests of the benchmark harness: tiny pipelines, span arithmetic,
and restoration of every traced callable."""

import json
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
from tracing import Tracer, layer_metrics, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _names(kind):
    return {m["name"] for m in SPEC[kind]}


def test_workload_lists_agree():
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(run.WORKLOAD_NAMES) == list(WORKLOADS)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_tiny_workload_passes_gates(name, tmp_path):
    result = run.run_workload(name, 5, 0.0, False, 1, size="tiny",
                              workdir=tmp_path)
    assert result["correct"], result["problems"]
    assert result["failed"] == 0
    assert result["attempted"] == run.MIN_CYCLES * len(WORKLOADS[name])
    assert set(result["metrics"]) == _names("end_to_end")
    assert all(m["value"] is not None and m["value"] > 0
               for m in result["metrics"].values())
    assert result["gradient_gate"]["passed"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_tiny_traced_run_reports_every_layer(name, tmp_path):
    result = run.run_workload(name, 6, 0.0, True, 1, size="tiny",
                              workdir=tmp_path)
    assert result["correct"], result["problems"]
    assert set(result["metrics"]) == _names("per_layer")
    assert result["metrics"]["optim.iterations"]["value"] == 3


def _synthetic(events):
    """Spans from (kind, name) events on a clock ticking 0, 1, 2, ..."""
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    open_ = []
    for kind, name in events:
        if kind == "begin":
            open_.append(tracer.begin(name))
        else:
            tracer.end(open_.pop(), error=name or None)
    return tracer.spans


def test_self_time_is_duration_minus_children():
    spans = _synthetic([
        ("begin", "root"),                       # t=0
        ("begin", "fvm.assemble_K"),             # 1
        ("begin", "velocity_models.eval"),       # 2
        ("end", ""),                             # 3
        ("end", ""),                             # 4
        ("begin", "fvm.assemble_K"),             # 5
        ("end", "AssemblyError"),                # 6
        ("begin", "velocity_models.eval"),       # 7
        ("end", ""),                             # 8
        ("end", ""),                             # 9
    ])
    assert [s.duration for s in spans] == [9, 3, 1, 1, 1]
    assert list(self_times(spans)) == [4, 2, 1, 1, 1]
    layer = layer_metrics(spans)
    assert layer["fvm.assemble_s"] == 3          # 2 + 1, both calls
    assert layer["fvm.face_forward_s"] == 1      # only the eval under K
    assert layer["velocity_models.eval_s"] == 2  # every eval
    assert layer["velocity_models.eval_calls"] == 2
    assert layer["fvm.dt_halvings"] == 1
    assert layer["experiments.self_s"] == 4


def test_spans_must_close_in_order():
    tracer = Tracer()
    outer = tracer.begin("a")
    tracer.begin("b")
    with pytest.raises(RuntimeError):
        tracer.end(outer)


def _originals():
    return {(id(owner), attr): vars(owner)[attr]
            for owner, attr, *_ in tracing.patch_points()}


def test_traced_run_restores_every_patched_callable(tmp_path):
    before = _originals()
    result = run.run_workload("fvm_vdp128", 7, 0.0, True, 1, size="tiny",
                              workdir=tmp_path)
    assert result["correct"], result["problems"]
    after = _originals()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_patches_are_restored_after_an_exception():
    before = _originals()
    with pytest.raises(KeyError):
        with tracing.installed(Tracer()):
            assert any(_originals()[k] is not v for k, v in before.items())
            raise KeyError("boom")
    after = _originals()
    assert all(after[k] is before[k] for k in before)


def test_missing_program_exits_nonzero(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "delay_l63", "--seed", "1",
                     "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""


def test_patch_point_the_program_lacks_is_skipped(monkeypatch):
    module = types.ModuleType("renamed")
    monkeypatch.setattr(tracing, "patch_points",
                        lambda: [(module, "gone", "x", None, None)])
    tracer = Tracer()
    with tracing.installed(tracer):
        pass
    assert tracer.missing == {"renamed.gone"}
    assert not hasattr(module, "gone")
