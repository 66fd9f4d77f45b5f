"""Run configuration: a single JSON document with a schema version.

:func:`parse_config` gives each setting its default and checks the
document's shape: its keys, its objects and the JSON types of ``J`` and
a single ``omega``.  Every rule on a setting's value lives in the library
and is called from here: the grid's axes and engine
(:class:`~floqep.sweep.GridSpec`), the cutoff, the Wilson-loop settings
(which no run reads) and the worker count.  A key it does not know is an
error.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .berry import DEFAULT_LOOP_STEPS, _check_loop_settings
from .floquet import DEFAULT_CUTOFF, _check_cutoff
from .model import PresetTemplate, _is_int
from .sweep import GridSpec, _check_axis, _check_engine, _check_threads

SCHEMA_VERSION = 1
# the top-level keys parse_config reads; any other is an error
_KEYS = {"schema_version", "model", "gamma", "omega", "engine", "cutoff",
         "berry_steps", "richardson", "threads", "out_dir"}


class ConfigError(ValueError):
    """Invalid or malformed run configuration."""


def _number(value, name: str) -> float:
    """``value`` as a float: an integer or a float, not a boolean, string or null."""
    if not (_is_int(value) or isinstance(value, float)):
        raise ConfigError(f"{name} must be a number")
    return float(value)


def _checked(key: str, check, *args, **kwargs):
    """``check(*args, **kwargs)``, its ``ValueError`` or ``TypeError``
    raised as a :class:`ConfigError` that names ``key``."""
    try:
        return check(*args, **kwargs)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def _reject_unknown(doc: dict, known: set, prefix: str = ""):
    """Name every key of ``doc`` that the parser does not read."""
    extra = set(doc) - known
    if extra:
        raise ConfigError(f"{prefix}unexpected keys {sorted(extra)}")


def _axis_keys(doc, name: str, scalar: bool) -> dict:
    """``doc`` once it is an object with exactly a ``value`` (only where
    ``scalar``) or ``min``, ``max`` and ``count``."""
    if not isinstance(doc, dict):
        forms = "value or min/max/count" if scalar else "min/max/count"
        raise ConfigError(f"{name}: expected an object with {forms}")
    if "value" in doc and not scalar:
        raise ConfigError(f"{name}: must be a range (min, max, count), not a single value")
    keys = {"value"} if "value" in doc else {"min", "max", "count"}
    missing = keys - set(doc)
    if missing:
        raise ConfigError(f"{name}: missing keys {sorted(missing)}")
    _reject_unknown(doc, keys, f"{name}: ")
    return doc


@dataclass(frozen=True, eq=False)
class RunConfig:
    template: PresetTemplate
    gammas: np.ndarray
    grid: GridSpec | None  # None where omega is a single value
    cutoff: int
    threads: int
    out_dir: str


def parse_config(doc: dict) -> RunConfig:
    """Validate a configuration document and build a :class:`RunConfig`."""
    if not isinstance(doc, dict):
        raise ConfigError("configuration must be a JSON object")
    version = doc.get("schema_version")
    if not _is_int(version) or version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {version!r} (expected {SCHEMA_VERSION})")
    _reject_unknown(doc, _KEYS)
    model = doc.get("model")
    if not isinstance(model, dict):
        raise ConfigError("missing 'model' object")
    _reject_unknown(model, {"preset", "J", "beta", "family"}, "model: ")
    template = _checked(
        "model", PresetTemplate, model.get("preset"), J=_number(model.get("J", 1.0), "model: J"),
        beta=model.get("beta", 1), family=model.get("family", "smooth"),
    )

    # every subcommand sweeps gamma, so it has no default and no single value
    gamma = _axis_keys(doc.get("gamma"), "gamma", scalar=False)
    gamma = _checked("gamma", _check_axis, "gamma", gamma["min"], gamma["max"], gamma["count"],
                     False)
    omega = _axis_keys(doc.get("omega", {"value": 1.0}), "omega", scalar=True)
    engine = _checked("engine", _check_engine, doc.get("engine", "monodromy-piecewise"))
    if "value" in omega:
        # a single omega is held to the axis rule as the range [value, value]
        value = _number(omega["value"], "omega: value")
        _checked("omega", _check_axis, "omega", value, value, 2, True)
        grid = None
    else:
        grid = _checked("omega", GridSpec, *gamma, omega["min"], omega["max"], omega["count"],
                        engine)
    # whether cutoff reaches beta matters to the floquet engine only;
    # phase_diagram checks it there
    cutoff = _checked("cutoff", _check_cutoff, doc.get("cutoff", DEFAULT_CUTOFF), 1)
    # no run reads these; perfbench's berry_sweep_config sets both
    _checked("berry_steps, richardson", _check_loop_settings,
             doc.get("berry_steps", DEFAULT_LOOP_STEPS), doc.get("richardson", True))
    try:
        threads = _check_threads(doc.get("threads", 1))
    except ValueError as exc:  # the message names the key already
        raise ConfigError(str(exc)) from exc
    out_dir = doc.get("out_dir", "out")
    if not isinstance(out_dir, str) or not out_dir:
        raise ConfigError("out_dir must be a non-empty string")

    return RunConfig(
        template=template,
        gammas=np.linspace(*gamma),
        grid=grid,
        cutoff=cutoff,
        threads=threads,
        out_dir=out_dir,
    )


def load_config(path, overrides: dict | None = None) -> RunConfig:
    """Read the configuration at ``path`` and validate it in one
    :func:`parse_config` call, after the top-level fields in ``overrides``
    have replaced the file's (whose own values are then never checked)."""
    path = Path(path)
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}")
    if overrides and isinstance(doc, dict):
        doc.update(overrides)
    return parse_config(doc)
