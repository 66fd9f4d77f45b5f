"""Command-line front end.

Subcommands: ``phase-diagram``, ``ep-contours``, ``berry``,
``spectrum-scan``, ``verify``.  Progress goes to stderr; results go to
files in the output directory (plus the verify report on stdout).  Exit
codes: 0 success, 1 configuration error, 2 numerical failure,
3 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, render, verify
from .berry import DefectivePointError, NearEPError, spectrum_region_scan
from .config import ConfigError, RunConfig, load_config
from .floquet import TruncationError
from .propagator import NumericalError
from .sweep import (
    FailureBudgetExceeded,
    GridSpec,
    berry_gamma_sweep,
    persist,
    phase_diagram,
    trace_ep_contours,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_VERIFY = 3


def _progress(msg: str):
    print(msg, file=sys.stderr)


def _resolve_threads(args, config: RunConfig | None) -> int:
    if getattr(args, "threads", None) is not None:
        return args.threads
    if config is not None and config.threads is not None:
        return config.threads
    env = os.environ.get("FLOQUET_EP_THREADS")
    if env:
        try:
            n = int(env)
            if n >= 1:
                return n
        except ValueError:
            pass
        raise ConfigError(f"FLOQUET_EP_THREADS must be a positive integer, got {env!r}")
    return 1


def _load(args) -> RunConfig:
    if not args.config:
        raise ConfigError("--config <path> is required for this subcommand")
    config = load_config(args.config)
    if args.engine is not None:
        config = _replace(config, engine=args.engine)
    if args.cutoff is not None:
        config = _replace(config, cutoff=args.cutoff)
    if args.steps is not None:
        config = _replace(config, berry_steps=args.steps)
    if args.out is not None:
        config = _replace(config, out_dir=args.out)
    return config


def _replace(config: RunConfig, **kw) -> RunConfig:
    import dataclasses

    from .config import parse_config, serialize_config

    doc = serialize_config(dataclasses.replace(config, **kw))
    return parse_config(doc)  # re-validate overrides


def _grid_from(config: RunConfig) -> GridSpec:
    if not config.gamma.is_range or not config.omega.is_range:
        raise ConfigError("phase-diagram and ep-contours need gamma and omega ranges")
    return GridSpec(
        gamma_min=config.gamma.min,
        gamma_max=config.gamma.max,
        gamma_count=config.gamma.count,
        omega_min=config.omega.min,
        omega_max=config.omega.max,
        omega_count=config.omega.count,
        engine=config.engine,
    )


def cmd_phase_diagram(args) -> int:
    config = _load(args)
    threads = _resolve_threads(args, config)
    grid = _grid_from(config)
    out = Path(config.out_dir)
    _progress(
        f"phase diagram: {config.preset} beta={config.beta} {config.family}, "
        f"{grid.gamma_count}x{grid.omega_count} grid, engine {grid.engine}, "
        f"{threads} thread(s)"
    )
    diagram = phase_diagram(
        config.template, grid, threads=threads, cutoff=config.cutoff
    )
    csv_path = persist(diagram, out / "phase_diagram.csv")
    contours = None
    if args.overlay_contours:
        _progress("tracing EP contours for overlay")
        contours = trace_ep_contours(config.template, grid)
        persist(contours, out / "ep_contours.csv")
    render.heatmap_svg(
        diagram, out / "phase_diagram.svg", contours=contours,
        title=f"max Im eps: {config.template.label}",
    )
    _progress(f"wrote {csv_path} and {out / 'phase_diagram.svg'}")
    return EXIT_OK


def cmd_ep_contours(args) -> int:
    config = _load(args)
    grid = _grid_from(config)
    if grid.engine == "floquet":
        raise ConfigError("ep-contours needs a monodromy engine")
    out = Path(config.out_dir)
    _progress(
        f"EP contours: {config.preset} beta={config.beta} {config.family}, "
        f"{grid.gamma_count}x{grid.omega_count} grid"
    )
    contours = trace_ep_contours(config.template, grid)
    csv_path = persist(contours, out / "ep_contours.csv")
    render.contours_svg(
        contours,
        (grid.gamma_min, grid.gamma_max),
        (grid.omega_min, grid.omega_max),
        out / "ep_contours.svg",
        title=f"EP contours: {config.template.label}",
    )
    n_pts = sum(len(line) for line in contours.contours)
    _progress(f"wrote {csv_path} ({len(contours.contours)} contours, {n_pts} points)")
    return EXIT_OK


def cmd_berry(args) -> int:
    config = _load(args)
    threads = _resolve_threads(args, config)
    if not config.gamma.is_range:
        raise ConfigError("berry needs a gamma range")
    omega = config.omega.value if not config.omega.is_range else 1.0
    out = Path(config.out_dir)
    gammas = np.linspace(config.gamma.min, config.gamma.max, config.gamma.count)
    _progress(
        f"complex phase sweep: {config.preset} beta={config.beta}, "
        f"{config.gamma.count} gamma values, {config.berry_steps} steps, "
        f"richardson={'on' if config.richardson else 'off'}"
    )
    sweep = berry_gamma_sweep(
        config.template,
        gammas,
        omega=omega,
        steps=config.berry_steps,
        richardson=config.richardson,
        threads=threads,
    )
    csv_path = persist(sweep, out / "berry.csv")
    render.berry_svg(sweep, out / "berry.svg", title=f"complex phase: {config.template.label}")
    _progress(
        f"wrote {csv_path}; step-doubling certificate: max delta = "
        f"{sweep.metadata['max_step_delta']}"
    )
    return EXIT_OK


def cmd_spectrum_scan(args) -> int:
    config = _load(args)
    if not config.gamma.is_range:
        raise ConfigError("spectrum-scan needs a gamma range")
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    gammas = np.linspace(config.gamma.min, config.gamma.max, config.gamma.count)
    _progress(
        f"instantaneous-spectrum scan: {config.preset} beta={config.beta}, "
        f"{config.gamma.count} gamma values"
    )
    scan = spectrum_region_scan(config.template, gammas)
    csv_path = out / "spectrum_scan.csv"
    with open(csv_path, "w", newline="\n") as fh:
        fh.write("gamma,classification\n")
        for g, cls in zip(scan.gammas, scan.classifications):
            fh.write(f"{g:.12e},{cls}\n")
    meta = {
        "schema_version": 1,
        "format": "spectrum-scan",
        "model": config.template.label,
        "samples": scan.samples,
        "thresholds": [
            {"gamma": t.gamma, "below": t.below, "above": t.above}
            for t in scan.thresholds
        ],
        "version": __version__,
    }
    with open(csv_path.with_name(csv_path.name + ".meta.json"), "w", newline="\n") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _progress(f"wrote {csv_path}; thresholds at {[round(t.gamma, 6) for t in scan.thresholds]}")
    return EXIT_OK


def cmd_verify(args) -> int:
    results = verify.run(level=args.level)
    ok = verify.report(results)
    return EXIT_OK if ok else EXIT_VERIFY


# One parser per process: a parser is a web of reference cycles that only
# a full garbage collection frees, and the vectorised sweeps allocate too
# few objects to trigger one, so a parser per call piled up in memory
# over repeated in-process calls.
@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="floqep",
        description=(
            "Stability maps, exceptional-point contours, and complex "
            "geometric phases for periodically driven two-level "
            "non-Hermitian Hamiltonians."
        ),
    )
    parser.add_argument("--version", action="version", version=f"floqep {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, berry_steps=False):
        p.add_argument("--config", type=str, help="path to the JSON run configuration")
        p.add_argument("--out", type=str, default=None, help="output directory override")
        p.add_argument("--threads", type=int, default=None,
                       help="worker processes (default: config, then FLOQUET_EP_THREADS, then 1)")
        p.add_argument("--engine", type=str, default=None, help="engine override")
        p.add_argument("--cutoff", type=int, default=None,
                       help="Floquet harmonic cutoff override")
        p.add_argument("--steps", type=int, default=None,
                       help="loop steps override for the berry subcommand")

    p = sub.add_parser("phase-diagram", help="stability map over a (gamma, omega) grid")
    common(p)
    p.add_argument("--overlay-contours", action="store_true",
                   help="also trace EP contours and overlay them on the heatmap")
    p.set_defaults(func=cmd_phase_diagram)

    p = sub.add_parser("ep-contours", help="exceptional-point contours")
    common(p)
    p.set_defaults(func=cmd_ep_contours)

    p = sub.add_parser("berry", help="complex geometric phase vs gamma")
    common(p)
    p.set_defaults(func=cmd_berry)

    p = sub.add_parser("spectrum-scan", help="instantaneous-spectrum region scan")
    common(p)
    p.set_defaults(func=cmd_spectrum_scan)

    p = sub.add_parser("verify", help="run the acceptance criteria suite")
    p.add_argument("--level", choices=("fast", "full"), default="fast")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    # numerical failures, ValueError subclasses among them, before the catch-all
    except (
        NumericalError, FailureBudgetExceeded, DefectivePointError, NearEPError, TruncationError,
    ) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
