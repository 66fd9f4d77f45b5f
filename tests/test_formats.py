"""Golden bytes of the on-disk formats: every CSV and its JSON sidecar.

The round-trip tests in ``test_sweep.py`` only show that ``persist`` and
``load`` agree with each other; these pin the exact bytes that readers of
the files (scripts, plots, other tools) see.
"""

import json
import math

import numpy as np
import pytest

import floqep
import floqep.cli as cli
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
  "version": VERSION
}
"""


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
    assert (out / "spectrum_scan.csv.meta.json").read_bytes() == meta.encode()
