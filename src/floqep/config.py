"""Run configuration: a single JSON document with a schema version.

:func:`parse_config` is the one place where each setting gets its
default and its check; a key it does not read is an error.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .berry import DEFAULT_LOOP_STEPS, MIN_LOOP_STEPS
from .floquet import DEFAULT_CUTOFF
from .model import PresetTemplate, _is_int
from .sweep import ENGINES

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


@dataclass(frozen=True)
class AxisSpec:
    """Either a single value or a uniform range for one sweep axis."""

    value: float | None = None
    min: float | None = None
    max: float | None = None
    count: int | None = None

    @property
    def is_range(self) -> bool:
        return self.value is None


def _reject_unknown(doc: dict, known: set, prefix: str = ""):
    """Name every key of ``doc`` that the parser does not read."""
    extra = set(doc) - known
    if extra:
        raise ConfigError(f"{prefix}unexpected keys {sorted(extra)}")


def _axis_from(doc, name: str, positive: bool, scalar: bool) -> AxisSpec:
    """The axis ``doc`` gives, checked as it is read: a finite ``value``
    (only where ``scalar``) or ``count`` >= 2 finite values from ``min``
    to ``max`` > ``min``; all > 0 if ``positive``, else >= 0."""
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
    if "value" in doc:
        lo = hi = _number(doc["value"], f"{name}: value")
        spec = AxisSpec(value=lo)
    else:
        if not _is_int(doc["count"]):
            raise ConfigError(f"{name}: count must be an integer")
        if doc["count"] < 2:
            raise ConfigError(f"{name}: range count must be >= 2")
        lo, hi = (_number(doc[key], f"{name}: {key}") for key in ("min", "max"))
        spec = AxisSpec(min=lo, max=hi, count=doc["count"])
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ConfigError(f"{name}: values must be finite")
    if spec.is_range and hi <= lo:
        raise ConfigError(f"{name}: range must be non-degenerate (max > min)")
    if positive and lo <= 0:
        raise ConfigError(f"{name}: values must be > 0")
    if lo < 0:
        raise ConfigError(f"{name}: values must be >= 0")
    return spec


@dataclass(frozen=True)
class RunConfig:
    template: PresetTemplate
    gamma: AxisSpec
    omega: AxisSpec
    engine: str
    cutoff: int
    berry_steps: int
    richardson: bool
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
    try:
        template = PresetTemplate(
            model.get("preset"),
            J=_number(model.get("J", 1.0), "J"),
            beta=model.get("beta", 1),
            family=model.get("family", "smooth"),
        )
    except ValueError as exc:
        raise ConfigError(f"model: {exc}") from exc

    # every subcommand sweeps gamma, so it has no default and no single value
    gamma = _axis_from(doc.get("gamma"), "gamma", positive=False, scalar=False)
    omega = _axis_from(doc.get("omega", {"value": 1.0}), "omega", positive=True, scalar=True)

    engine = doc.get("engine", "monodromy-piecewise")
    if engine not in ENGINES:
        raise ConfigError(f"unknown engine {engine!r}; known: {', '.join(ENGINES)}")
    # whether cutoff reaches beta matters to the floquet engine only;
    # phase_diagram checks it there
    cutoff = doc.get("cutoff", DEFAULT_CUTOFF)
    if not _is_int(cutoff) or cutoff < 1:
        raise ConfigError("cutoff must be a positive integer")
    berry_steps = doc.get("berry_steps", DEFAULT_LOOP_STEPS)
    if not _is_int(berry_steps) or berry_steps < MIN_LOOP_STEPS:
        raise ConfigError(f"berry_steps must be an integer >= {MIN_LOOP_STEPS}")
    richardson = doc.get("richardson", True)
    if not isinstance(richardson, bool):
        raise ConfigError("richardson must be a boolean")
    threads = doc.get("threads", 1)
    if not _is_int(threads) or threads < 1:
        raise ConfigError("threads must be a positive integer")
    out_dir = doc.get("out_dir", "out")
    if not isinstance(out_dir, str) or not out_dir:
        raise ConfigError("out_dir must be a non-empty string")

    return RunConfig(
        template=template,
        gamma=gamma,
        omega=omega,
        engine=engine,
        cutoff=cutoff,
        berry_steps=berry_steps,
        richardson=richardson,
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
