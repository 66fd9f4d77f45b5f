"""Run configuration: a single JSON document with a schema version."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .berry import DEFAULT_LOOP_STEPS, MIN_LOOP_STEPS
from .floquet import DEFAULT_CUTOFF
from .model import PresetTemplate
from .sweep import ENGINES

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """Invalid or malformed run configuration."""


def _is_int(value) -> bool:
    """An integer, not a boolean (``isinstance(True, int)`` holds)."""
    return isinstance(value, int) and not isinstance(value, bool)


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

    def validate(self, name: str, positive: bool = False, nonnegative: bool = False):
        if self.is_range:
            if self.min is None or self.max is None or self.count is None:
                raise ConfigError(f"{name}: range needs min, max and count")
            if not (math.isfinite(self.min) and math.isfinite(self.max)):
                raise ConfigError(f"{name}: range bounds must be finite")
            if self.count < 2:
                raise ConfigError(f"{name}: range count must be >= 2")
            if self.max <= self.min:
                raise ConfigError(f"{name}: range must be non-degenerate (max > min)")
            if positive and self.min <= 0:
                raise ConfigError(f"{name}: values must be > 0")
            if nonnegative and self.min < 0:
                raise ConfigError(f"{name}: values must be >= 0")
        else:
            if not math.isfinite(self.value):
                raise ConfigError(f"{name}: value must be finite")
            if positive and self.value <= 0:
                raise ConfigError(f"{name}: value must be > 0")
            if nonnegative and self.value < 0:
                raise ConfigError(f"{name}: value must be >= 0")


def _axis_from(doc, name) -> AxisSpec:
    if not isinstance(doc, dict):
        raise ConfigError(f"{name}: expected an object with value or min/max/count")
    if "value" in doc:
        extra = set(doc) - {"value"}
        if extra:
            raise ConfigError(f"{name}: unexpected keys {sorted(extra)}")
        return AxisSpec(value=_number(doc["value"], f"{name}: value"))
    missing = {"min", "max", "count"} - set(doc)
    if missing:
        raise ConfigError(f"{name}: missing keys {sorted(missing)}")
    extra = set(doc) - {"min", "max", "count"}
    if extra:
        raise ConfigError(f"{name}: unexpected keys {sorted(extra)}")
    if not _is_int(doc["count"]):
        raise ConfigError(f"{name}: count must be an integer")
    lo, hi = (_number(doc[key], f"{name}: {key}") for key in ("min", "max"))
    return AxisSpec(min=lo, max=hi, count=doc["count"])


@dataclass(frozen=True)
class RunConfig:
    template: PresetTemplate
    gamma: AxisSpec
    omega: AxisSpec
    engine: str
    cutoff: int
    berry_steps: int
    richardson: bool
    threads: int | None
    out_dir: str


def parse_config(doc: dict) -> RunConfig:
    """Validate a configuration document and build a :class:`RunConfig`."""
    if not isinstance(doc, dict):
        raise ConfigError("configuration must be a JSON object")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {version!r} (expected {SCHEMA_VERSION})")
    model = doc.get("model")
    if not isinstance(model, dict):
        raise ConfigError("missing 'model' object")
    try:
        template = PresetTemplate(
            model.get("preset"),
            J=_number(model.get("J", 1.0), "J"),
            beta=model.get("beta", 1),
            family=model.get("family", "smooth"),
        )
    except ValueError as exc:
        raise ConfigError(f"model: {exc}") from exc

    gamma = _axis_from(doc.get("gamma", {"value": 0.5}), "gamma")
    gamma.validate("gamma", nonnegative=True)
    omega = _axis_from(doc.get("omega", {"value": 1.0}), "omega")
    omega.validate("omega", positive=True)

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
    threads = doc.get("threads")
    if threads is not None and (not _is_int(threads) or threads < 1):
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
