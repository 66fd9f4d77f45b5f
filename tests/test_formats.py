"""Golden bytes of the on-disk formats: every CSV and its JSON sidecar.

The round-trip tests in ``test_sweep.py`` only show that ``persist`` and
``load`` agree with each other; these pin the exact bytes that readers of
the files (scripts, plots, other tools) see.
"""

import datetime
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import floqep
import floqep.cli as cli
import floqep.sweep as sweep_mod
from floqep.sweep import (
    BerrySweep,
    ContourPoint,
    EPContourSet,
    GridSpec,
    PhaseDiagram,
    load,
    persist,
)


def _diagram():
    grid = GridSpec(0.0, 1.0, 3, 0.5, 1.5, 2, engine="monodromy-piecewise")
    values = np.array([[0.0, 1.0 / 3.0, np.nan], [2.5e-9, 0.0, 3.0]])
    metadata = {
        "model": "pt-cosy-cosz beta=3 square",
        "engine": "monodromy-piecewise",
        "failed_cells": 1,
        "undecided_cells": 0,
        "version": "0.1.0",
    }
    return PhaseDiagram(grid, values, metadata)


def _contours():
    ep = (
        ContourPoint(0.6, 0.25, "EP"),
        ContourPoint(0.8, 0.3, "EP"),
        ContourPoint(1.0, 0.375, "EP"),
    )
    metadata = {"model": "apt-cosx-cosy beta=3 square", "engine": "monodromy-piecewise"}
    return EPContourSet((ep, (ContourPoint(0.8, 1.0, "Diabolic"),)), 1e-6, metadata)


def _berry():
    thetas = np.array([[0.1 + 0j, -0.1 + 0j], [math.pi + 0.25j, -math.pi - 0.25j]])
    metadata = {
        "model": "apt-cosx-siny beta=1 smooth",
        "max_step_delta": 1e-9,
        "uncertified_gammas": [],
    }
    return BerrySweep(np.array([0.5, 1.5]), thetas, ((), (0.25, 0.75)), metadata)


GOLDEN = {
    "phase-diagram": (
        _diagram,
        """\
omega,gamma,max_im_eps
5.000000000000e-01,0.000000000000e+00,0.000000000000e+00
5.000000000000e-01,5.000000000000e-01,3.333333333333e-01
5.000000000000e-01,1.000000000000e+00,nan
1.500000000000e+00,0.000000000000e+00,2.500000000000e-09
1.500000000000e+00,5.000000000000e-01,0.000000000000e+00
1.500000000000e+00,1.000000000000e+00,3.000000000000e+00
""",
        """\
{
  "format": "phase-diagram",
  "grid": {
    "engine": "monodromy-piecewise",
    "gamma_count": 3,
    "gamma_max": 1.0,
    "gamma_min": 0.0,
    "omega_count": 2,
    "omega_max": 1.5,
    "omega_min": 0.5
  },
  "metadata": {
    "engine": "monodromy-piecewise",
    "failed_cells": 1,
    "model": "pt-cosy-cosz beta=3 square",
    "undecided_cells": 0,
    "version": "0.1.0"
  },
  "schema_version": 1
}
""",
    ),
    "ep-contours": (
        _contours,
        """\
contour_id,omega,gamma,kind
0,6.000000000000e-01,2.500000000000e-01,EP
0,8.000000000000e-01,3.000000000000e-01,EP
0,1.000000000000e+00,3.750000000000e-01,EP
1,8.000000000000e-01,1.000000000000e+00,Diabolic
""",
        """\
{
  "format": "ep-contours",
  "metadata": {
    "engine": "monodromy-piecewise",
    "model": "apt-cosx-cosy beta=3 square"
  },
  "schema_version": 1,
  "tolerance": 1e-06
}
""",
    ),
    "berry": (
        _berry,
        """\
gamma,band,re_theta,im_theta,flags
5.000000000000e-01,0,1.000000000000e-01,0.000000000000e+00,
5.000000000000e-01,1,-1.000000000000e-01,0.000000000000e+00,
1.500000000000e+00,0,3.141592653590e+00,2.500000000000e-01,2.500000000000e-01;7.500000000000e-01
1.500000000000e+00,1,-3.141592653590e+00,-2.500000000000e-01,2.500000000000e-01;7.500000000000e-01
""",
        """\
{
  "format": "berry",
  "metadata": {
    "max_step_delta": 1e-09,
    "model": "apt-cosx-siny beta=1 smooth",
    "uncertified_gammas": []
  },
  "schema_version": 1
}
""",
    ),
}

SCAN_CSV = """\
gamma,classification
5.000000000000e-01,AllReal
9.000000000000e-01,AllReal
1.300000000000e+00,AllImaginaryWindow
"""

SCAN_META = """\
{
  "format": "spectrum-scan",
  "model": "apt-cosx-siny[J=1,beta=1,smooth]",
  "samples": 256,
  "schema_version": 1,
  "thresholds": [
    {
      "above": "AllImaginaryWindow",
      "below": "AllReal",
      "gamma": 0.9999996185302734
    }
  ],
  "timestamp": TIMESTAMP,
  "version": VERSION
}
"""


@pytest.mark.parametrize("fmt", sorted(GOLDEN))
@pytest.mark.parametrize("version", [True, 1.0])
def test_sidecar_version_must_be_the_integer(fmt, version, tmp_path):
    # true and 1.0 compare equal to 1, but are not the integer version
    make, _, meta_text = GOLDEN[fmt]
    path = persist(make(), tmp_path / "out.csv")
    doc = json.loads(meta_text)
    doc["schema_version"] = version
    (tmp_path / "out.csv.meta.json").write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=f"unsupported schema version {version!r}"):
        load(path)


@pytest.mark.parametrize("fmt", sorted(GOLDEN))
def test_result_bytes(fmt, tmp_path):
    make, csv_text, meta_text = GOLDEN[fmt]
    path = persist(make(), tmp_path / "out.csv")
    assert path.read_bytes() == csv_text.encode()
    assert (tmp_path / "out.csv.meta.json").read_bytes() == meta_text.encode()
    # the loaded result writes the same bytes again
    again = persist(load(path), tmp_path / "again.csv")
    assert again.read_bytes() == csv_text.encode()
    assert (tmp_path / "again.csv.meta.json").read_bytes() == meta_text.encode()


def test_spectrum_scan_bytes(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "schema_version": 1,
        "model": {"preset": "apt-cosx-siny", "beta": 1, "family": "smooth"},
        "gamma": {"min": 0.5, "max": 1.3, "count": 3},
        "omega": {"value": 1.0},
        "out_dir": str(tmp_path / "out"),
    }))
    assert cli.main(["spectrum-scan", "--config", str(cfg)]) == 0
    out = tmp_path / "out"
    assert (out / "spectrum_scan.csv").read_bytes() == SCAN_CSV.encode()
    meta = SCAN_META.replace("VERSION", json.dumps(floqep.__version__))
    text = (out / "spectrum_scan.csv.meta.json").read_text()
    stamp = json.loads(text)["timestamp"]
    assert datetime.datetime.fromisoformat(stamp).tzinfo is not None
    assert text.replace(json.dumps(stamp), "TIMESTAMP").encode() == meta.encode()


# gamma = 0.5 takes the spectral route; gamma = 1.0 puts the loop through
# two defective points and gamma = 1.5 crosses exceptional points, so the
# spectral route declines both: NaN theta, no flags.
BERRY_CSV = """\
gamma,band,re_theta,im_theta,flags
5.000000000000e-01,0,8.719671245022e-17,-4.006653052961e-01,
5.000000000000e-01,1,-8.719671245022e-17,4.006653052961e-01,
1.000000000000e+00,0,nan,nan,
1.000000000000e+00,1,nan,nan,
1.500000000000e+00,0,nan,nan,
1.500000000000e+00,1,nan,nan,
"""


def test_berry_bytes(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "schema_version": 1,
        "model": {"preset": "pt-cosy-sinz", "beta": 1, "family": "smooth"},
        "gamma": {"min": 0.5, "max": 1.5, "count": 3},
        "omega": {"value": 1.0},
        "out_dir": str(tmp_path / "out"),
    }))
    assert cli.main(["berry", "--config", str(cfg)]) == 0
    assert (tmp_path / "out" / "berry.csv").read_bytes() == BERRY_CSV.encode()
    # the spectral row is the 8192-step Richardson Wilson loop's value
    spectral = load(tmp_path / "out" / "berry.csv").thetas[0]
    wilson = floqep.berry_phase_loop(floqep.preset("pt-cosy-sinz", gamma=0.5), steps=8192)
    assert np.max(np.abs(spectral - wilson.theta)) <= 1e-10


def _per_field_diagram_csv(diagram) -> str:
    """The phase-diagram CSV as the per-field encoder wrote it: every field
    through ``f"{float(x):.12e}"``, omega outer, one line per cell."""
    def fmt(x):
        return f"{float(x):.12e}"

    lines = ["omega,gamma,max_im_eps\n"]
    for w, row in zip(diagram.grid.omegas, diagram.values):
        lines += [f"{fmt(w)},{fmt(g)},{fmt(v)}\n" for g, v in zip(diagram.grid.gammas, row)]
    return "".join(lines)


def _one_cell_grid() -> GridSpec:
    # the row template's smallest case; GridSpec itself needs two nodes per axis
    grid = object.__new__(GridSpec)
    for name, value in zip(
        ("gamma_min", "gamma_max", "gamma_count", "omega_min", "omega_max", "omega_count", "engine"),
        (0.25, 0.25, 1, 0.7, 0.7, 1, "monodromy-piecewise"),
    ):
        object.__setattr__(grid, name, value)
    return grid


SPECIAL = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324, 1e308, 2.5e-9, 1.0 / 3.0]


@pytest.mark.parametrize("shape", ["rows", "one-cell"])
def test_row_chunks_match_the_per_field_encoder(shape, tmp_path):
    rng = np.random.default_rng(7)
    if shape == "one-cell":
        grid = _one_cell_grid()
        values = np.array([[-0.0]])
    else:
        grid = GridSpec(0.0, 4.7, 17, 0.21, 2.9, 9, engine="monodromy-piecewise")
        values = rng.lognormal(-10.0, 6.0, (9, 17)) * rng.choice([-1.0, 1.0], (9, 17))
        values.flat[rng.choice(values.size, len(SPECIAL), replace=False)] = SPECIAL
    diagram = PhaseDiagram(grid, values, {"model": "m"})
    path = persist(diagram, tmp_path / "map.csv")
    assert path.read_bytes() == _per_field_diagram_csv(diagram).encode()
    # streamed: chunks of whole lines, at most DIAGRAM_CHUNK_CELLS each, made
    # as they are written
    chunks, _ = sweep_mod._diagram_table(diagram)
    assert iter(chunks) is chunks
    chunks = list(chunks)
    assert all(chunk.endswith(b"\n") for chunk in chunks)
    assert all(chunk.count(b"\n") <= sweep_mod.DIAGRAM_CHUNK_CELLS for chunk in chunks)
    assert sum(chunk.count(b"\n") for chunk in chunks) == values.size


def test_chunks_split_rows_anywhere(monkeypatch, tmp_path):
    # 10-cell chunks cut the 17-cell rows at every offset
    monkeypatch.setattr(sweep_mod, "DIAGRAM_CHUNK_CELLS", 10)
    grid = GridSpec(0.0, 4.7, 17, 0.21, 2.9, 9, engine="monodromy-piecewise")
    values = np.random.default_rng(8).lognormal(-10.0, 6.0, (9, 17))
    diagram = PhaseDiagram(grid, values, {"model": "m"})
    chunks = list(sweep_mod._diagram_table(diagram)[0])
    assert [chunk.count(b"\n") for chunk in chunks] == [10] * 15 + [3]
    assert b"".join(chunks) == _per_field_diagram_csv(diagram).encode().split(b"\n", 1)[1]


def test_persist_streams_a_large_map_in_bounded_memory(tmp_path):
    # 400x400 cells write ~9 MB of CSV, through chunks of at most 1024 cells
    if tracemalloc.is_tracing():
        pytest.skip("tracemalloc is already tracing")
    grid = GridSpec(0.0, 5.0, 400, 0.05, 3.0, 400, engine="monodromy-piecewise")
    values = np.random.default_rng(9).lognormal(-10.0, 6.0, (400, 400))
    diagram = PhaseDiagram(grid, values, {"model": "m"})
    persist(diagram, tmp_path / "warm.csv")  # builds the lazy tables
    tracemalloc.start()
    try:
        path = persist(diagram, tmp_path / "map.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.stat().st_size > 8 * 2**20
    assert peak < 2**20


def _fields(x) -> list:
    """The fields ``_fmt_array`` writes for the floats ``x``, without their end."""
    text = sweep_mod._fmt_array(np.asarray(x, dtype=float).ravel(), ",")
    return [row[row != 0].tobytes().decode()[:-1] for row in text]


def _assert_percent_e12(x):
    x = np.asarray(x, dtype=float).ravel()
    assert _fields(x) == ["%.12e" % v for v in x.tolist()]


def _neighbours(x):
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore"):  # the largest double's neighbour is inf
        return np.concatenate([x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf)])


def _ties() -> np.ndarray:
    """The doubles nearest the ties ``(m + 0.5) / 10**k`` of 13-digit
    ``m``, ``k = 0..22``: exact where ``5**k`` divides ``2m + 1`` (``k <=
    19``), and ``(m + 0.5) * 10**k``, ``k = 1..5``, ties in the decades
    where ``10**(12 - e)`` is not a double."""
    rng = np.random.default_rng(11)
    ties, exact = [], 0
    for k in range(23):
        for m in rng.integers(10**12, 10**13, 8).tolist():
            ties.append(float(Fraction(2 * m + 1, 2 * 10**k)))
        for r in range(-(-2 * 10**12 // 5**k) | 1, 2 * 10**13 // 5**k, 2)[:8]:
            ties.append(r * 5**k / (2 * 10**k))
            exact += Fraction(ties[-1]) == Fraction(r * 5**k, 2 * 10**k)
    for k in range(1, 6):
        ties += [float((2 * m + 1) * 10**k // 2) for m in rng.integers(10**12, 10**13, 8).tolist()]
    assert exact >= 20 * 3
    return np.array(ties)


# the map test's specials, the limits of the double and of the fast range,
# and three-digit exponents
SPECIAL_FORMATS = SPECIAL + [
    2.2250738585072014e-308, 1.7976931348623157e308, 1e-300, 1.5e-123, -2.7e200,
    1e-280, 1e280, 9.99e-100, -1e100,
]


@pytest.mark.parametrize(
    "values",
    [
        _ties(),
        np.array([float(f"1e{k}") for k in range(-300, 301)]),
        # within 5e-13 below a power of ten, where log |x| / log 10 may round
        # up to the integer: 9.999999999999488e-107 needs decade -107
        np.array([float(f"1e{k}") * (1.0 - t) for k in range(-300, 301) for t in (5e-14, 2e-13, 4.9e-13)]),
        np.array([9.9999999999995 * 10.0**k for k in range(-30, 31)]
                 + [99999999999999.5, 9.999999999999499, 9.9999999999995e-5]),
        np.array(SPECIAL_FORMATS),
    ],
    ids=["ties", "powers-of-ten", "below-powers-of-ten", "next-decade", "special"],
)
def test_array_formatter_matches_percent_e12(values):
    _assert_percent_e12(_neighbours(values))
    _assert_percent_e12(-_neighbours(values))


def test_array_formatter_on_random_bit_patterns():
    bits = np.random.default_rng(12).integers(0, 2**64, 200_000, dtype=np.uint64, endpoint=False)
    _assert_percent_e12(bits.view(np.float64))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.one_of(st.floats(), st.integers(0, 2**64 - 1).map(
    lambda b: float(np.array(b, dtype=np.uint64).view(np.float64)))), min_size=1, max_size=64))
def test_array_formatter_on_any_double(values):
    _assert_percent_e12(values)


def test_array_formatter_falls_back_to_the_scalar_format(monkeypatch):
    # non-finite values, those outside [1e-280, 1e280] and a tie its product
    # cannot decide (10**-1 is not a double) go to _fmt; the rest do not
    seen = []
    monkeypatch.setattr(sweep_mod, "_fmt", lambda x: seen.append(x) or f"{float(x):.12e}")
    fallback = [np.nan, np.inf, -np.inf, 1e-300, -5e-324, 1e300, 12345678901235.0]
    decided = [0.0, -0.0, 0.5, 1e-280, 1e280, 1.0001220703125, 1234567890123.5]
    assert "%.12e" % 12345678901235.0 == "1.234567890124e+13"  # half-even: 3 to 4
    _assert_percent_e12(fallback + decided)
    assert np.array_equal(seen, fallback, equal_nan=True)
