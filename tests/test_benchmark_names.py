"""The benchmark's calls into floqep must stay valid.

``perfbench/tracing.py`` wraps the names in its ``PATCHES`` table with
``getattr``/``setattr``, several of them private; a refactor that drops
one breaks only the traced benchmark run, so it is checked here.  The
same holds for the command lines ``perfbench/run.py`` builds and the
configs its workloads write: a flag or config field that a subcommand
drops breaks the benchmark while the rest of the suite stays green.
"""

import importlib
import json
import random
import runpy
import sys
from pathlib import Path

import numpy as np
import pytest

import floqep.cli as cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# run_path compiles the source in memory and writes no bytecode next to it
PATCHES = runpy.run_path(str(PERFBENCH / "tracing.py"))["PATCHES"]


def _load_run_py() -> dict:
    """Globals of ``perfbench/run.py``, imported without side effects: it
    puts ``perfbench/`` on ``sys.path`` and imports its siblings, so the
    path, the bytecode flag and ``sys.modules`` are restored afterwards."""
    saved_path, saved_flag, before = list(sys.path), sys.dont_write_bytecode, set(sys.modules)
    sys.dont_write_bytecode = True
    try:
        return runpy.run_path(str(PERFBENCH / "run.py"))
    finally:
        sys.path[:] = saved_path
        sys.dont_write_bytecode = saved_flag
        for name in set(sys.modules) - before:
            if PERFBENCH in Path(getattr(sys.modules[name], "__file__", None) or "/").parents:
                del sys.modules[name]


RUN = _load_run_py()


@pytest.mark.parametrize("span, module, attribute", PATCHES)
def test_traced_name_resolves(span, module, attribute):
    owner = importlib.import_module(module)
    for part in attribute.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", sorted(RUN["WORKLOADS"]))
def test_benchmark_argv_is_valid_input(tmp_path, workload, trace):
    wl = RUN["WORKLOADS"][workload]
    cfg = wl.make_config(random.Random(f"{wl.name}:1"))
    out = tmp_path / "out"
    cfg["out_dir"] = str(out)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(cfg))
    phases = RUN["plan_phases"](wl, config_path, out, 1.0, trace)
    assert phases
    for phase in phases:
        args = cli.build_parser().parse_args(phase["argv"])
        assert args.command == wl.subcommand
        config = cli._load(args)
        assert config.threads == phase["workers"]
        assert config.out_dir == str(out)
        # the check's _grid_matches compares the sidecar grid with these fields
        g, w = cfg["gamma"], cfg["omega"]
        if "value" in w:
            assert config.grid is None
            assert config.gammas.tolist() == np.linspace(g["min"], g["max"], g["count"]).tolist()
        else:
            grid = config.grid
            assert (grid.gamma_min, grid.gamma_max, grid.gamma_count) == (
                g["min"], g["max"], g["count"])
            assert (grid.omega_min, grid.omega_max, grid.omega_count) == (
                w["min"], w["max"], w["count"])
            assert grid.engine == cfg["engine"]
