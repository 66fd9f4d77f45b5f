"""Command-line front end.

Subcommands: ``phase-diagram``, ``ep-contours``, ``berry``,
``spectrum-scan``, ``verify``.  A run subcommand reads one JSON
configuration, whose fields its flags replace before
:func:`floqep.config.parse_config` gives every setting its default and
its check.  Progress goes to stderr; results go to files in the output
directory (plus the verify report on stdout).  Log records of the
``floqep`` loggers go to stderr at WARNING and above, ERROR only with
``-q``.  Exit codes:
0 success, 1 configuration or usage error, 2 numerical failure,
3 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import logging
import os
import sys
from pathlib import Path

from . import __version__, render, verify
from .berry import SCAN_SAMPLES, DefectivePointError, spectrum_region_scan
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
    csv_lines,
    write_table,
    _fmt,
    _run_metadata,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_VERIFY = 3


def _progress(msg: str):
    print(msg, file=sys.stderr)


_STDERR_HANDLER = logging.StreamHandler()
_STDERR_HANDLER.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))


def _configure_logging(level: int):
    """Set the ``floqep`` logger level; one stderr handler per process,
    pointed at the current ``sys.stderr``."""
    logger = logging.getLogger("floqep")
    logger.setLevel(level)
    # assigned, not setStream(): that flushes the old stream, which may be closed
    _STDERR_HANDLER.stream = sys.stderr
    if _STDERR_HANDLER not in logger.handlers:
        logger.addHandler(_STDERR_HANDLER)


# flags that replace a configuration field: flag -> (field, type, help)
_OVERRIDES = {
    "--out": ("out_dir", str, "output directory override"),
    "--threads": ("threads", int, "worker processes (default: config, then 1)"),
    "--engine": ("engine", str, "engine override"),
    "--cutoff": ("cutoff", int, "Floquet harmonic cutoff override"),
}


def _load(args) -> RunConfig:
    if not args.config:
        raise ConfigError("--config <path> is required for this subcommand")
    flags = {field: getattr(args, field, None) for field, _, _ in _OVERRIDES.values()}
    return load_config(args.config, {k: v for k, v in flags.items() if v is not None})


def _out_dir(config: RunConfig) -> Path:
    """The output directory, checked before the run computes, so that one
    that cannot be made is a configuration error rather than a traceback
    after the run.  The run makes it when it writes, so a run that fails
    leaves none behind."""
    out = Path(config.out_dir)
    try:
        there = next(p for p in (out, *out.parents) if p.exists())  # the part that exists
    except OSError as exc:  # no permission to look
        raise ConfigError(f"cannot create output directory {out}: {exc.strerror or exc}") from None
    if not there.is_dir() or not os.access(there, os.W_OK | os.X_OK):
        why = "not a directory" if not there.is_dir() else "not writable"
        raise ConfigError(f"cannot create output directory {out}: {there} is {why}")
    return out


def _grid_from(config: RunConfig) -> GridSpec:
    if config.grid is None:
        raise ConfigError("phase-diagram and ep-contours need an omega range")
    return config.grid


def cmd_phase_diagram(args) -> int:
    config = _load(args)
    tpl = config.template
    grid = _grid_from(config)
    out = _out_dir(config)
    _progress(
        f"phase diagram: {tpl.name} beta={tpl.beta} {tpl.family}, "
        f"{grid.gamma_count}x{grid.omega_count} grid, engine {grid.engine}, "
        f"{config.threads} thread(s)"
    )
    contours = None
    if args.overlay_contours:  # first: an engine without contours fails before the map
        _progress("tracing EP contours for overlay")
        contours = trace_ep_contours(tpl, grid)
    diagram = phase_diagram(tpl, grid, threads=config.threads, cutoff=config.cutoff)
    csv_path = persist(diagram, out / "phase_diagram.csv")
    if contours is not None:
        persist(contours, out / "ep_contours.csv")
    render.heatmap_svg(
        diagram, out / "phase_diagram.svg", contours=contours,
        title=f"max Im eps: {tpl.label}",
    )
    _progress(f"wrote {csv_path} and {out / 'phase_diagram.svg'}")
    return EXIT_OK


def cmd_ep_contours(args) -> int:
    config = _load(args)
    tpl = config.template
    grid = _grid_from(config)
    out = _out_dir(config)
    _progress(
        f"EP contours: {tpl.name} beta={tpl.beta} {tpl.family}, "
        f"{grid.gamma_count}x{grid.omega_count} grid"
    )
    contours = trace_ep_contours(tpl, grid)
    csv_path = persist(contours, out / "ep_contours.csv")
    render.contours_svg(
        contours,
        (grid.gamma_min, grid.gamma_max),
        (grid.omega_min, grid.omega_max),
        out / "ep_contours.svg",
        title=f"EP contours: {tpl.label}",
    )
    n_pts = sum(len(line) for line in contours.contours)
    _progress(f"wrote {csv_path} ({len(contours.contours)} contours, {n_pts} points)")
    return EXIT_OK


def cmd_berry(args) -> int:
    config = _load(args)
    tpl = config.template
    out = _out_dir(config)
    _progress(f"complex phase sweep: {tpl.name} beta={tpl.beta} {tpl.family}, "
              f"{len(config.gammas)} gamma values")
    sweep = berry_gamma_sweep(tpl, config.gammas)
    csv_path = persist(sweep, out / "berry.csv")
    render.berry_svg(sweep, out / "berry.svg", title=f"complex phase: {tpl.label}")
    routes = [loop["route"] for loop in sweep.metadata["loops"]]
    _progress(
        f"wrote {csv_path}; {routes.count('spectral')} spectral, {routes.count('polygon')} "
        f"polygon and {routes.count('declined')} declined loops, max delta = "
        f"{sweep.metadata['max_step_delta']}"
    )
    return EXIT_OK


def cmd_spectrum_scan(args) -> int:
    config = _load(args)
    tpl = config.template
    out = _out_dir(config)
    _progress(
        f"instantaneous-spectrum scan: {tpl.name} beta={tpl.beta}, "
        f"{len(config.gammas)} gamma values"
    )
    scan = spectrum_region_scan(tpl, config.gammas)
    thresholds = [{"gamma": t.gamma, "below": t.below, "above": t.above} for t in scan.thresholds]
    csv_path = write_table(
        out / "spectrum_scan.csv",
        "gamma,classification",
        csv_lines((map(_fmt, scan.gammas), scan.classifications)),
        "spectrum-scan",
        _run_metadata(tpl, samples=SCAN_SAMPLES, thresholds=thresholds),
    )
    _progress(f"wrote {csv_path}; thresholds at {[round(t.gamma, 6) for t in scan.thresholds]}")
    return EXIT_OK


def cmd_verify(args) -> int:
    results = verify.run(level=args.level)
    ok = verify.report(results)
    return EXIT_OK if ok else EXIT_VERIFY


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error exits 1; argparse's 2 means a numerical failure
        raise ConfigError(f"{message}\n{self.format_usage().rstrip()}")


# One parser per process: a parser is a web of reference cycles that only
# a full garbage collection frees, and the vectorised sweeps allocate too
# few objects to trigger one, so a parser per call piled up in memory
# over repeated in-process calls.
@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="floqep",
        description=(
            "Stability maps, exceptional-point contours, and complex "
            "geometric phases for periodically driven two-level "
            "non-Hermitian Hamiltonians."
        ),
    )
    parser.add_argument("--version", action="version", version=f"floqep {__version__}")
    parser.add_argument("-q", "--quiet", dest="log_level", action="store_const",
                        const=logging.ERROR, default=logging.WARNING,
                        help="log errors only")
    sub = parser.add_subparsers(dest="command", required=True)

    def run_command(name, func, summary, *flags, helps=None):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=func)
        p.add_argument("--config", help="path to the JSON run configuration")
        for flag in ("--out", *flags):
            field, kind, text = _OVERRIDES[flag]
            text = (helps or {}).get(flag, text)
            p.add_argument(flag, dest=field, type=kind, metavar=flag[2:].upper(), help=text)
        return p

    p = run_command("phase-diagram", cmd_phase_diagram, "stability map over a (gamma, omega) grid",
                    "--threads", "--engine", "--cutoff")
    p.add_argument("--overlay-contours", action="store_true",
                   help="also trace EP contours and overlay them on the heatmap")
    # ep-contours and berry run serially; they still take --threads because
    # perfbench/run.py passes it to every workload
    run_command("ep-contours", cmd_ep_contours, "exceptional-point contours",
                "--threads", "--engine",
                helps={"--threads": "accepted and unused: the trace runs in-process"})
    run_command("berry", cmd_berry, "complex geometric phase vs gamma", "--threads",
                helps={"--threads": "accepted and unused: every loop runs in-process"})
    run_command("spectrum-scan", cmd_spectrum_scan, "instantaneous-spectrum region scan")

    p = sub.add_parser("verify", help="run the acceptance criteria suite")
    p.add_argument("--level", choices=("fast", "full"), default="fast")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _configure_logging(args.log_level)
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    # numerical failures, ValueError subclasses among them, before the catch-all
    except (NumericalError, FailureBudgetExceeded, DefectivePointError, TruncationError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
