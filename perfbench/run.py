"""floqep benchmark: one seeded workload per run, driven through the CLI.

Usage (from the repository root)::

    python3 perfbench/run.py --workload square-map --seed 1 --seconds 15 --trace 0

Workloads are defined in :mod:`workloads`.  A run

1. generates the workload's config from ``--seed``;
2. times ``setup_s``: fresh interpreters that import ``floqep.cli`` and
   load that config;
3. starts :mod:`runner` in a child process, which calls
   ``floqep.cli.main`` repeatedly for ``--seconds`` (``--trace 0``), or
   makes untraced calls plus one traced call (``--trace 1``);
4. checks the written outputs against a second route through the
   library, outside the timed region;
5. prints a readable report on stderr and, as the last stdout line, one
   JSON object with ``correct``, ``attempted``, ``failed`` and the
   end-to-end (``--trace 0``) or per-layer (``--trace 1``) metrics.

The program is imported from ``src/`` of this checkout; without it the
run exits with code 2 before measuring anything.  The benchmark sets no
BLAS, OpenMP or ``FLOQUET_EP_THREADS`` variable: the worker count goes
in ``--threads`` and the environment is recorded as found.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

sys.path.insert(0, str(HERE))
from calibration import at_reference, calibrate  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 7
MIN_REPS = 3
CHILD_TIMEOUT_S = 150

class BenchError(RuntimeError):
    """The benchmark could not run or the program misbehaved."""


def metric_units(kind: str) -> dict:
    """Name to unit of the ``end_to_end`` or ``per_layer`` metrics, in file order."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        return {m["name"]: m["unit"] for m in spec[kind]}
    except (OSError, ValueError, KeyError) as exc:
        raise BenchError(f"cannot read {kind} metrics from BENCHMARK.json: {exc}")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def run_child(cmd: list[str]) -> str:
    """Run ``cmd`` in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{cmd[1]} timed out after {CHILD_TIMEOUT_S}s")
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd)} exited with {proc.returncode}:\n{err[-2000:]}")
    return out


def _under_src(path: str) -> bool:
    return Path(path).resolve().is_relative_to(SRC.resolve())


def machine_record(workers: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    cpus = os.cpu_count()
    return {
        "cpu_count": cpus,
        "numpy": np.__version__,
        "blas": blas,
        "python": platform.python_version(),
        "env": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "FLOQUET_EP_THREADS")
        },
        "workers": workers,
        "note": f"parallel figures are capped by this machine's {cpus} cores",
    }


def measure_setup(config_path: Path) -> dict:
    walls, imports, loads, calibs = [], [], [], [calibrate()]
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        out = run_child([sys.executable, str(HERE / "setup_probe.py"), str(config_path)])
        walls.append(time.perf_counter() - t0)
        calibs.append(calibrate())
        probe = json.loads(out.strip().splitlines()[-1])
        if not _under_src(probe["file"]):
            raise BenchError(f"floqep imported from {probe['file']}, not {SRC}")
        imports.append(probe["import_s"])
        loads.append(probe["load_s"])
    return {
        "setup_s": at_reference(walls, calibs),
        "raw_setup_s": statistics.median(walls),
        "import_s": statistics.median(imports),
        "load_s": statistics.median(loads),
    }


def call_metrics(phase: dict, units: int) -> dict:
    """Median call and compute times of a phase, raw and at reference speed."""
    probes = phase["calib"]
    return {
        "wall_s": at_reference(phase["walls"], probes),
        "cells_per_s": units / at_reference(phase["compute"], probes),
        "raw.wall_s": statistics.median(phase["walls"]),
        "raw.cells_per_s": units / statistics.median(phase["compute"]),
        "machine.calib_ms": 1e3 * statistics.median(probes),
    }


def plan_phases(wl, config_path: Path, out: Path, seconds: float, trace: bool) -> list[dict]:
    def phase(threads, secs, traced=False):
        return {
            "workers": threads,
            "argv": [wl.subcommand, "--config", str(config_path), "--out", str(out),
                     "--threads", str(threads)],
            "compute": wl.compute,
            "csv": str(out / wl.csv_name),
            "seconds": secs,
            "min_reps": MIN_REPS,
            "trace": traced,
            "spans_path": str(out.parent / "spans.npz"),
        }

    if not trace:
        return [phase(wl.threads, seconds)]
    # untraced at the workload's workers, untraced serial, traced serial
    share = seconds / (3 if wl.threads > 1 else 2)
    phases = [phase(wl.threads, share)] if wl.threads > 1 else []
    return phases + [phase(1, share), phase(1, share, traced=True)]


def _per_call(spans: dict, name: str, prefix: str, scale: float) -> dict:
    s = spans.get(name, {})
    if s.get("count"):
        print(f"{prefix}_tail is p{s['tail_pct']:g} of {s['count']} samples", file=sys.stderr)
    return {
        f"{prefix}_p50": s.get("p50_s", 0.0) * scale,
        f"{prefix}_tail": s.get("tail_s", 0.0) * scale,
    }


def layer_metrics(wl, counts, setup, phases, out: Path) -> dict:
    traced = phases[-1]
    serial = phases[-2]
    spans = traced["spans"]
    calls = len(traced["walls"])  # counts and seconds below are per traced call

    def count(name):
        return spans.get(name, {}).get("count", 0) // calls

    def total(*names, key="total_s"):
        return sum(spans.get(n, {}).get(key, 0.0) for n in names) / calls

    units = counts["units"]
    is_map = wl.compute == "phase_diagram"
    bisect = count("sweep.cell_half_trace") - units if wl.compute == "trace_ep_contours" else 0
    roots, lost = count("sweep.classify_root"), traced["roots_lost"] // calls
    par_s = statistics.median(phases[0]["compute"]) if is_map else 0.0
    ser_s = statistics.median(serial["compute"]) if is_map else 0.0
    csv = out / wl.csv_name
    # both at reference speed, so drift between the two phases cancels out
    untraced_wall = call_metrics(serial, units)["wall_s"]
    traced_wall = call_metrics(traced, units)["wall_s"]
    return {
        "raw.setup_s": setup["raw_setup_s"],
        "cli.import_s": setup["import_s"],
        "config.load_s": setup["load_s"],
        "model.instantiate_calls": count("model.instantiate"),
        "model.instantiate_s": total("model.instantiate"),
        "model.bloch_vector_at_s": total("model.bloch_vector_at"),
        "propagator.half_trace_calls": count("sweep.cell_half_trace"),
        "propagator.segments_s": total("propagator.segment_hamiltonians"),
        "propagator.product_s": total("propagator.segment_product"),
        "propagator.quasienergy_s": total("propagator.quasienergy_from_trace"),
        **_per_call(spans, "sweep.cell_half_trace", "propagator.cell_us", 1e6),
        "propagator.monodromy_calls": count("propagator.monodromy"),
        "propagator.monodromy_s": total("propagator.monodromy"),
        "sweep.bisect_evals": bisect,
        "sweep.evals_per_root": bisect / roots if roots else 0.0,
        "sweep.roots": roots,
        "sweep.roots_lost": lost,
        "sweep.root_yield": roots / (roots + lost) if roots + lost else 0.0,
        "sweep.trace_self_s": total("sweep.trace_ep_contours", key="self_s"),
        "sweep.phase_diagram_s": par_s,
        "sweep.serial_s": ser_s,
        "sweep.parallel_speedup": ser_s / par_s if par_s else 0.0,
        "sweep.failed_cells": counts.get("failed_cells", 0),
        "sweep.persist_s": total("sweep.persist"),
        "sweep.persist_bytes": csv.stat().st_size + csv.with_name(csv.name + ".meta.json").stat().st_size,
        "floquet.calls": count("floquet.max_im_quasienergy"),
        "floquet.build_s": total("floquet.build_floquet_matrix"),
        "floquet.eigvals_s": total("floquet.complex_eigenvalues"),
        "floquet.fold_s": total("floquet.fold_spectrum"),
        **_per_call(spans, "floquet.max_im_quasienergy", "floquet.cell_ms", 1e3),
        "floquet.unconverged": counts.get("unconverged", 0),
        "berry.loops": count("berry.berry_phase_loop"),
        "berry.frames_s": total("berry.loop_frames"),
        "berry.wilson_s": total("berry.wilson_loop_phase"),
        **_per_call(spans, "berry.berry_phase_loop", "berry.loop_ms", 1e3),
        "berry.uncertified": counts.get("uncertified", 0),
        "berry.max_step_delta": counts.get("max_step_delta", 0.0),
        "berry.same_edge_pairs": counts.get("same_edge_pairs", 0),
        "render.svg_s": total("render.heatmap_svg", "render.contours_svg", "render.berry_svg"),
        "render.svg_bytes": (out / wl.svg_name).stat().st_size,
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.spans": traced["span_count"] // calls,
    }


def run(args) -> int:
    if not (SRC / "floqep" / "__init__.py").is_file():
        print(f"error: no floqep package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import floqep as fq

    if not _under_src(fq.__file__):
        raise BenchError(f"floqep imported from {fq.__file__}, not {SRC}")

    table = metric_units("per_layer" if args.trace else "end_to_end")
    wl = WORKLOADS[args.workload]
    cfg = wl.make_config(random.Random(f"{wl.name}:{args.seed}"))
    base = WORK / wl.name
    shutil.rmtree(base, ignore_errors=True)
    out = base / "out"
    out.mkdir(parents=True)
    cfg["out_dir"] = str(out)
    config_path = base / "config.json"
    config_path.write_text(json.dumps(cfg, indent=2) + "\n")
    machine = machine_record(wl.threads)
    (base / "machine.json").write_text(json.dumps(machine, indent=2) + "\n")
    print(f"machine: {json.dumps(machine)}", file=sys.stderr)

    setup = measure_setup(config_path)
    job_path = base / "job.json"
    phases = plan_phases(wl, config_path, out, args.seconds, args.trace == 1)
    job_path.write_text(json.dumps({"phases": phases}))
    res = json.loads(run_child([sys.executable, str(HERE / "runner.py"), str(job_path)])
                     .strip().splitlines()[-1])
    if not _under_src(res["floqep_file"]):
        raise BenchError(f"runner imported floqep from {res['floqep_file']}")
    done = res["phases"]

    checks, counts = wl.check(fq, cfg, out, random.Random(f"{wl.name}:{args.seed}:check"))
    digests = {d for p in done for d in p["digests"]}
    checks.append(("repeatable output", len(digests) == 1,
                   f"{sum(len(p['digests']) for p in done)} calls wrote {len(digests)} distinct CSVs"))

    reps = sum(len(p["walls"]) for p in done)
    lost = sum(p["roots_lost"] for p in done)
    failed_checks = sum(not ok for _, ok, _ in checks)
    attempted = reps * (counts["units"] + counts.get("points", 0)) + lost + len(checks)
    # failed cells from the log and from the output; the larger, so none counts twice
    failed_cells = max(sum(p["failed_cells"] for p in done), reps * counts.get("failed_cells", 0))
    failed = failed_cells + lost + reps * counts.get("uncertified", 0) + failed_checks

    metrics = call_metrics(done[0], counts["units"])
    metrics.update(setup_s=setup["setup_s"], peak_rss_mb=done[0]["peak_rss_mb"])
    if args.trace:
        metrics.update(layer_metrics(wl, counts, setup, done, out))
        metrics["failed_ratio"] = failed / attempted
    missing = [n for n in table if n not in metrics]
    if missing:
        raise BenchError(f"BENCHMARK.json names metrics the run does not make: {missing}")

    for name, ok, detail in checks:
        print(f"check {'PASS' if ok else 'FAIL'} {name}: {detail}", file=sys.stderr)
    print(f"{wl.name} seed {args.seed}: {reps} CLI calls, attempted {attempted}, "
          f"failed {failed}", file=sys.stderr)
    for name, unit in table.items():
        print(f"  {name:30s} {metrics[name]:.6g} {unit}", file=sys.stderr)
    if not args.trace:
        print(f"  raw: wall {metrics['raw.wall_s']:.4g} s, {metrics['raw.cells_per_s']:.4g} "
              f"cells/s, setup {setup['raw_setup_s']:.4g} s; probe median "
              f"{metrics['machine.calib_ms']:.4g} ms", file=sys.stderr)

    correct = failed_checks == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in table.items()},
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        return run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
