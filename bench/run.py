"""Benchmark of the ergodic-sysid CLI pipelines.

    python3 bench/run.py --workload fvm_vdp128 --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

One caller in a closed loop: the harness runs the workload's
``simulate -> histogram -> fit [-> eval]`` pipeline through
``ergodic_sysid.cli.main`` in this process, one command at a time, each
pipeline in a fresh output directory under ``.bench_runs/``, and times every
command from outside. It repeats the pipeline, at least ``MIN_CYCLES``
times, for as long as another repetition still fits in ``--seconds``, and
reports medians over the repetitions. ``--trace 1`` runs one warm-up
pipeline, then alternates untraced and traced pipelines and reports the
per-layer numbers of the traced ones instead (see ``tracing.py``).
``--workload all`` runs every workload in a fresh process, one after the
other, so that peak memory is per workload.

Every run checks the outputs (exit codes, finite loss histories of the
configured length, bit-identical final losses across repetitions and
between traced and untraced runs, finite eval metrics) and runs one
finite-difference gradient check outside the timed pipelines. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the full record of the run,
with its environment, goes to ``.bench_runs/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"
BENCH_JSON = ROOT / "BENCHMARK.json"
MIN_CYCLES = 3
WORKLOAD_NAMES = ("fvm_vdp128", "pfo_vdp400", "delay_l63")


def limit_blas_threads() -> int:
    """Cap the BLAS/OpenMP pools at the usable core count; return it.

    Must run before numpy is imported.
    """
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count() or 1
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        cur = os.environ.get(var, "")
        if not cur.isdigit() or not 0 < int(cur) <= nproc:
            os.environ[var] = str(nproc)
    return nproc


def git_commit():
    """Commit of the checkout from .git, or None outside a git checkout."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int, nproc: int) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "nproc": nproc, "git_commit": git_commit(), "seed": seed}


def metric_specs() -> dict:
    spec = json.loads(BENCH_JSON.read_text())
    return {"end_to_end": spec["end_to_end"], "per_layer": spec["per_layer"]}


# ---------------------------------------------------------------------------
# One pipeline


def run_pipeline(name: str, seed: int, outdir: Path, tracer=None,
                 size: str = "full") -> dict:
    """Run every command of the workload once; time each from outside."""
    from ergodic_sysid import cli
    from workloads import WORKLOADS, check_outputs, make_config
    import tracing

    outdir.mkdir(parents=True)
    cfg = make_config(name, seed, str(outdir / "out"), size)
    cfg_path = outdir / "config.json"
    cfg_path.write_text(json.dumps(cfg, indent=1))
    rec = {"outdir": outdir / "out", "cfg": cfg, "times": {}, "codes": {},
           "problems": [], "tracer": tracer}
    for cmd in WORKLOADS[name]:
        argv = [cmd, "--config", str(cfg_path)]
        start = time.perf_counter()
        with redirect_stdout(StringIO()):
            if tracer is None:
                code = cli.main(argv)
            else:
                with tracing.installed(tracer), tracer.span("cli." + cmd):
                    code = cli.main(argv)
        rec["times"][cmd] = time.perf_counter() - start
        rec["codes"][cmd] = code
        if code != 0:
            rec["problems"].append(f"{cmd} exited with {code}")
            return rec
    values, problems = check_outputs(name, cfg, rec["outdir"])
    rec.update(values)
    rec["problems"] += problems
    rec["trajectory_sha256"] = hashlib.sha256(
        (rec["outdir"] / "trajectory.csv").read_bytes()).hexdigest()
    return rec


def pipeline_metrics(rec: dict) -> dict:
    t = rec["times"]
    out = {"setup_s": t["simulate"] + t["histogram"], "fit_s": t["fit"],
           "fit_iter_ms": 1000.0 * rec["loop_s"] / rec["iterations"],
           "pipeline_s": sum(t.values())}
    if "eval" in t:
        out["eval_s"] = t["eval"]
    return out


def check_iteration_spans(rec: dict, layer: dict) -> list:
    """The traced loop must agree with the loop time the fit reports."""
    loops = [s for s in rec["tracer"].spans if s.name == "optim._run_loop"]
    iters = layer["optim.iterations"]
    span_total = iters * layer["optim.iter_span_ms"] / 1000.0
    problems = []
    if iters != rec["iterations"] or len(loops) != 1:
        problems.append(f"{iters} iteration spans in {len(loops)} loops, "
                        f"report has {rec['iterations']} iterations")
    elif not (0.9 * rec["loop_s"] <= span_total <= rec["loop_s"]
              <= loops[0].duration):
        problems.append(
            f"iteration spans {span_total:.4f}s, report loop "
            f"{rec['loop_s']:.4f}s, loop span {loops[0].duration:.4f}s "
            "do not nest")
    return problems


# ---------------------------------------------------------------------------
# One run of one workload


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 nproc: int, size: str = "full", workdir: Path = RUNS) -> dict:
    """Repeat the pipeline for ``seconds``; check it and gather metrics.

    The pipelines run in a temporary directory under ``workdir`` that is
    removed before returning.
    """
    import tracing
    from workloads import gradient_gate

    workdir.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=workdir))
    plain, traced = [], []
    try:
        start = time.perf_counter()
        while True:
            plain.append(run_pipeline(name, seed, work / f"p{len(plain)}",
                                      size=size))
            # in a traced run the first pipeline only warms the process up,
            # so that the overhead compares warm pipelines
            if trace and len(plain) > 1:
                tracer = tracing.Tracer()
                traced.append(run_pipeline(
                    name, seed, work / f"t{len(traced)}", tracer, size))
            # stop before a further repetition would overrun the budget
            elapsed = time.perf_counter() - start
            enough = len(traced) >= 1 if trace else len(plain) >= MIN_CYCLES
            if enough and elapsed * (1 + 1 / len(plain)) > seconds:
                break
        first = plain[0]
        gate = {"passed": False, "error": "first pipeline failed"}
        if not first["problems"]:
            try:
                gate = gradient_gate(name, first["cfg"], first["outdir"], seed)
            except Exception as exc:  # the gate reports, never aborts
                gate = {"passed": False, "error": repr(exc)}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    runs = plain + traced
    problems = [p for r in runs for p in r["problems"]]
    if not gate["passed"]:
        problems.append(f"gradient gate failed: {gate}")
    complete = [r for r in runs if not r["problems"]]
    for key in ("final_loss", "trajectory_sha256"):
        if len({r[key] for r in complete}) > 1:
            problems.append(f"{key} differs between repetitions of one seed")
    attempted = sum(len(r["codes"]) for r in runs)
    failed = sum(1 for r in runs for c in r["codes"].values() if c != 0)

    per_run = [pipeline_metrics(r) for r in plain if not r["problems"]]
    med = lambda key, rows: statistics.median(m[key] for m in rows) \
        if rows else None
    result = {"workload": name, "seed": seed, "trace": int(trace),
              "seconds": seconds, "env": environment(seed, nproc),
              "gradient_gate": gate, "pipelines": per_run,
              "final_loss": complete[0]["final_loss"] if complete else None}
    if complete and "w2_sim_vs_observed" in complete[0]:
        result["w2_sim_vs_observed"] = complete[0]["w2_sim_vs_observed"]
    if per_run and "eval_s" in per_run[0]:
        result["eval_s"] = med("eval_s", per_run)

    specs = metric_specs()
    if not trace:
        values = {k: med(k, per_run) for k in
                  ("setup_s", "fit_s", "fit_iter_ms", "pipeline_s")}
        values["peak_rss_mb"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        wanted = specs["end_to_end"]
    else:
        layers = []
        for r in traced:
            if r["problems"]:
                continue
            layer = tracing.layer_metrics(r["tracer"].spans)
            problems += check_iteration_spans(r, layer)
            layers.append(layer)
        traced_runs = [pipeline_metrics(r) for r in traced
                       if not r["problems"]]
        result["untraced_points"] = sorted(
            {m for r in traced for m in r["tracer"].missing})
        values = {k: med(k, layers) for k in (layers[0] if layers else {})}
        warm = [pipeline_metrics(r) for r in plain[1:] if not r["problems"]]
        if warm and traced_runs:
            values["trace_overhead_frac"] = (
                med("pipeline_s", traced_runs) / med("pipeline_s", warm)
                - 1.0)
        result["traced_pipelines"] = traced_runs
        wanted = specs["per_layer"]
    metrics = {m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]}
               for m in wanted}
    missing = [k for k, v in metrics.items() if v["value"] is None]
    if missing and not problems:
        problems.append(f"metrics not measured: {missing}")
    result.update(correct=not problems and failed == 0, problems=problems,
                  attempted=attempted, failed=failed, metrics=metrics)
    return result


def save_result(result: dict) -> Path:
    out = RUNS / "results"
    out.mkdir(parents=True, exist_ok=True)
    path = out / (f"{result['workload']}-seed{result['seed']}"
                  f"-trace{result['trace']}.json")
    path.write_text(json.dumps(result, indent=1, sort_keys=True))
    return path


def print_report(result: dict):
    kind = "traced" if result["trace"] else "untraced"
    n = len(result.get("traced_pipelines") or result["pipelines"])
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"{kind}, {n} pipelines, medians")
    for name, m in result["metrics"].items():
        value = "n/a" if m["value"] is None else f"{m['value']:.6g}"
        print(f"  {name:<32} {value:>14} {m['unit']}")
    for key in ("final_loss", "eval_s", "w2_sim_vs_observed"):
        if result.get(key) is not None:
            print(f"  ({key} {result[key]:.6g})")
    gate = result["gradient_gate"]
    print(f"  gradient gate: max rel error "
          f"{gate.get('max_rel_error', float('nan')):.2e} on coords "
          f"{gate.get('coords')} -> {'pass' if gate['passed'] else 'FAIL'}")
    if result.get("untraced_points"):
        print(f"  not traced, missing in the program: "
              f"{', '.join(result['untraced_points'])}")
    for p in result["problems"]:
        print(f"  PROBLEM: {p}")


# ---------------------------------------------------------------------------
# Entry point


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             name, "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        try:
            last = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"workload {name}: no result (exit {proc.returncode})")
            merged["correct"] = False
            continue
        merged["correct"] &= last["correct"]
        merged["attempted"] += last["attempted"]
        merged["failed"] += last["failed"]
        for key, m in last["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = m
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ergodic_sysid" / "__init__.py").is_file():
        print(f"error: no ergodic_sysid package under {SRC}", file=sys.stderr)
        return 2
    if not BENCH_JSON.is_file():
        print(f"error: {BENCH_JSON} not found", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    nproc = limit_blas_threads()
    sys.path.insert(0, str(SRC))
    import ergodic_sysid
    if Path(ergodic_sysid.__file__).resolve().parent != SRC / "ergodic_sysid":
        print(f"error: imported {ergodic_sysid.__file__}, not the checkout",
              file=sys.stderr)
        return 2

    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), nproc)
    save_result(result)
    print_report(result)
    print(json.dumps({k: result[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
