import base64
import json
import logging
import os
import re
import struct
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET
import zlib
from pathlib import Path

import numpy as np
import pytest

import floqep
import floqep.cli as cli
import floqep.render as render
import floqep.verify as verify_mod
from floqep.berry import berry_phase_loop
from floqep.config import ConfigError, load_config, parse_config
from floqep.floquet import fold_spectrum
from floqep.model import PresetTemplate
from floqep.sweep import EPContourSet, GridSpec, PhaseDiagram, berry_gamma_sweep, load

DARK, BRIGHT, FAILED = (8, 8, 40), (252, 238, 80), (255, 0, 255)


def png_pixels(svg: str) -> np.ndarray:
    """The one embedded heatmap PNG, checked chunk by chunk, as an
    ``(rows, cols, 3)`` array with row 0 at the top of the image."""
    assert svg.count("data:image/png;base64,") == 1
    png = base64.b64decode(svg.split("data:image/png;base64,")[1].split('"')[0])
    assert png[:8] == b"\x89PNG\r\n\x1a\n"
    chunks, pos = [], 8
    while pos < len(png):
        (n,) = struct.unpack(">I", png[pos:pos + 4])
        kind, data = png[pos + 4:pos + 8], png[pos + 8:pos + 8 + n]
        assert struct.unpack(">I", png[pos + 8 + n:pos + 12 + n]) == (zlib.crc32(kind + data),)
        chunks.append((kind, data))
        pos += 12 + n
    assert pos == len(png)
    assert [kind for kind, _ in chunks] == [b"IHDR", b"IDAT", b"IEND"] and chunks[2][1] == b""
    w, h, *fields = struct.unpack(">IIBBBBB", chunks[0][1])
    assert fields == [8, 2, 0, 0, 0]  # 8-bit truecolour, deflate, filter set 0, no interlace
    rows = np.frombuffer(zlib.decompress(chunks[1][1]), dtype=np.uint8).reshape(h, 1 + 3 * w)
    assert not rows[:, 0].any()  # filter type 0 on every row
    return rows[:, 1:].reshape(h, w, 3)


def colour_map(values: np.ndarray) -> np.ndarray:
    """Cell by cell: dark (0) to bright (max), failed magenta, grid order."""
    finite = values[np.isfinite(values)]
    vmax = finite.max() if finite.size and finite.max() > 0 else 1.0
    out = np.empty(values.shape + (3,), dtype=np.uint8)
    for idx, v in np.ndenumerate(values):
        t = min(max(v / vmax, 0.0), 1.0)
        out[idx] = [round(a + t * (b - a)) for a, b in zip(DARK, BRIGHT)] if np.isfinite(v) else FAILED
    return out


def write_config(path, **overrides):
    doc = {
        "schema_version": 1,
        "model": {"preset": "pt-cosy-cosz", "J": 1.0, "beta": 3, "family": "square"},
        "gamma": {"min": 0.0, "max": 2.0, "count": 12},
        "omega": {"min": 0.4, "max": 2.8, "count": 10},
        "engine": "monodromy-piecewise",
        "out_dir": str(path.parent / "out"),
    }
    doc.update(overrides)
    path.write_text(json.dumps(doc))
    return doc


class TestConfig:
    def test_scalar_axes(self):
        # every subcommand sweeps gamma, so only omega takes a single value
        doc = {
            "schema_version": 1,
            "model": {"preset": "apt-cosx-siny", "beta": 1},
            "gamma": {"min": 0.5, "max": 1.5, "count": 3},
            "omega": {"value": 1.0},
        }
        cfg = parse_config(doc)
        assert cfg.grid is None and cfg.gammas.tolist() == [0.5, 1.0, 1.5]
        assert cfg.template.name == "apt-cosx-siny"
        with pytest.raises(ConfigError, match="^gamma: must be a range"):
            parse_config({**doc, "gamma": {"value": 0.5}})
        with pytest.raises(ConfigError, match="^gamma: expected an object"):
            parse_config({k: v for k, v in doc.items() if k != "gamma"})

    @pytest.mark.parametrize(
        "patch",
        [
            {"schema_version": 2},
            {"model": {"preset": "nope"}},
            {"model": {"preset": "pt-cosy-cosz", "beta": 0}},
            {"model": {"preset": "pt-cosy-cosz", "family": "saw"}},
            {"gamma": {"min": -1.0, "max": 2.0, "count": 5}},
            {"gamma": {"min": 2.0, "max": 1.0, "count": 5}},
            {"gamma": {"min": 0.0, "max": 1.0, "count": 1}},
            {"omega": {"min": 0.0, "max": 1.0, "count": 5}},
            {"engine": "tensor-network"},
            {"cutoff": 0},
            {"berry_steps": 10},
            {"threads": 0},
            {"out_dir": ""},
            {"model": {"preset": "pt-cosy-cosz", "J": None}},
            {"model": {"preset": "pt-cosy-cosz", "J": float("inf")}},
            # booleans are not integers
            {"model": {"preset": "pt-cosy-cosz", "beta": 1, "family": "square"}, "cutoff": True},
            {"threads": True},
            # real-valued fields take numbers only, not booleans, strings or null
            {"model": {"preset": "pt-cosy-cosz", "beta": 3, "family": "square", "J": True}},
            {"model": {"preset": "pt-cosy-cosz", "beta": 3, "family": "square", "J": "1.0"}},
            {"omega": {"value": "0.5"}},
            {"omega": {"value": None}},
            {"omega": {"min": True, "max": 2.5, "count": 3}},
            {"omega": {"min": 1.0, "max": "2.5", "count": 3}},
            {"gamma": {"min": None, "max": 2.0, "count": 3}},
            # a misspelt key is an error, not a silent default
            {"cuttoff": 40},
            {"model": {"preset": "pt-cosy-cosz", "beta": 3, "family": "square", "gama": 0.5}},
            # the version is an integer: true and 1.0 compare equal to 1
            {"schema_version": True},
            {"schema_version": 1.0},
        ],
    )
    def test_invalid_configs(self, patch):
        doc = {
            "schema_version": 1,
            "model": {"preset": "pt-cosy-cosz", "beta": 3, "family": "square"},
            "gamma": {"min": 0.0, "max": 2.0, "count": 5},
            "omega": {"min": 0.4, "max": 2.8, "count": 5},
        }
        doc.update(patch)
        with pytest.raises(ConfigError):
            parse_config(doc)

    def test_grid_is_the_library_grid(self):
        # the config builds the GridSpec a run maps, by GridSpec's own
        # rules: a range with min == max is one point, as in the library
        doc = {
            "schema_version": 1,
            "model": {"preset": "pt-cosy-cosz", "beta": 3, "family": "smooth"},
            "gamma": {"min": 1, "max": 1, "count": 2},
            "omega": {"min": 0.4, "max": 2.8, "count": np.int64(5)},
            "engine": "floquet",
        }
        cfg = parse_config(doc)
        assert cfg.grid == GridSpec(1.0, 1.0, 2, 0.4, 2.8, 5, engine="floquet")
        assert cfg.gammas.tolist() == [1.0, 1.0]
        assert [type(v) for v in (cfg.grid.gamma_min, cfg.grid.omega_count)] == [float, int]

    def test_model_message_has_one_prefix(self):
        doc = {"schema_version": 1, "model": {"preset": "pt-cosy-cosz", "J": True}}
        with pytest.raises(ConfigError, match="^model: J must be a number$"):
            parse_config(doc)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.json")

    def test_malformed_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            load_config(p)


class TestPhaseDiagramCommand:
    def test_writes_outputs_and_reruns_identically(self, tmp_path):
        p = tmp_path / "cfg.json"
        write_config(p)
        assert cli.main(["phase-diagram", "--config", str(p)]) == 0
        out = tmp_path / "out"
        csv1 = (out / "phase_diagram.csv").read_bytes()
        svg1 = (out / "phase_diagram.svg").read_bytes()
        ET.parse(out / "phase_diagram.svg")
        assert cli.main(["phase-diagram", "--config", str(p)]) == 0
        assert (out / "phase_diagram.csv").read_bytes() == csv1
        assert (out / "phase_diagram.svg").read_bytes() == svg1

    def test_overlay_contours(self, tmp_path):
        p = tmp_path / "cfg.json"
        write_config(p, gamma={"min": 0.0, "max": 1.2, "count": 31},
                     omega={"min": 0.6, "max": 1.0, "count": 3})
        assert cli.main(["phase-diagram", "--config", str(p), "--overlay-contours"]) == 0
        out = tmp_path / "out"
        assert (out / "ep_contours.csv").exists()
        ET.parse(out / "phase_diagram.svg")

    def test_overlay_with_floquet_fails_before_the_map(self, tmp_path, monkeypatch):
        p = tmp_path / "cfg.json"
        write_config(p, model={"preset": "pt-cosy-cosz", "beta": 3, "family": "smooth"},
                     engine="floquet")
        calls = []
        monkeypatch.setattr(cli, "phase_diagram", lambda *a, **kw: calls.append(a))
        assert cli.main(["phase-diagram", "--config", str(p), "--overlay-contours"]) == 1
        assert calls == []
        assert not (tmp_path / "out").exists()

    def test_raster_branch_for_large_grids(self, tmp_path):
        p = tmp_path / "cfg.json"
        write_config(p, gamma={"min": 0.0, "max": 2.0, "count": 201},
                     omega={"min": 0.4, "max": 2.8, "count": 3})
        assert cli.main(["phase-diagram", "--config", str(p)]) == 0
        svg = (tmp_path / "out" / "phase_diagram.svg").read_text()
        assert png_pixels(svg).shape == (3, 201, 3)
        ET.parse(tmp_path / "out" / "phase_diagram.svg")

    def test_png_pixels_are_the_csv_colour_map(self, tmp_path):
        p = tmp_path / "cfg.json"
        write_config(p)
        assert cli.main(["phase-diagram", "--config", str(p)]) == 0
        values = load(tmp_path / "out" / "phase_diagram.csv").values
        svg = (tmp_path / "out" / "phase_diagram.svg").read_text()
        assert len(set(map(tuple, colour_map(values).reshape(-1, 3)))) > 2
        assert np.array_equal(png_pixels(svg)[::-1], colour_map(values))

    def test_raster_paints_failed_cells(self):
        for rows, cols in ((2, 201), (8, 8)):
            grid = GridSpec(0.0, 2.0, cols, 0.4, 2.8, rows)
            values = np.zeros((rows, cols))
            values[0, 7] = np.nan
            values[rows - 1, 3] = 1.0
            px = png_pixels(render.heatmap_svg(PhaseDiagram(grid, values, {})))
            assert px.shape == (rows, cols, 3)
            assert tuple(px[0, 3]) == BRIGHT  # the top row is the largest omega
            assert tuple(px[rows - 1, 7]) == FAILED
            assert {tuple(c) for c in px.reshape(-1, 3)} == {DARK, FAILED, BRIGHT}
            assert np.array_equal(px[::-1], colour_map(values))

    def test_no_per_cell_rects(self):
        grid = GridSpec(0.0, 2.0, 200, 0.4, 2.8, 200)
        values = np.random.default_rng(0).random((200, 200))
        svg = ET.fromstring(render.heatmap_svg(PhaseDiagram(grid, values, {})))
        assert len(svg.findall(".//{*}rect")) == 2  # the background and the plot frame
        assert len(svg.findall(".//{*}image")) == 1

    def test_exit_1_on_bad_config(self, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        write_config(p, engine="bogus")
        assert cli.main(["phase-diagram", "--config", str(p)]) == 1
        write_config(p, cuttoff=40, threds=2)
        assert cli.main(["phase-diagram", "--config", str(p)]) == 1
        assert "unexpected keys ['cuttoff', 'threds']\n" in capsys.readouterr().err

    def test_exit_1_on_bad_model(self, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        write_config(p, model={"preset": "pt-cosy-cosz", "beta": True})
        assert cli.main(["phase-diagram", "--config", str(p)]) == 1
        assert "configuration error: model: beta" in capsys.readouterr().err
        write_config(p, model={"preset": "pt-cosy-cosz", "beta": 3, "gama": 0.5})
        assert cli.main(["phase-diagram", "--config", str(p)]) == 1
        assert "configuration error: model: unexpected keys ['gama']\n" in capsys.readouterr().err

    def test_exit_1_on_missing_config(self):
        assert cli.main(["phase-diagram"]) == 1

    def test_exit_1_on_scalar_axis(self, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        write_config(p, gamma={"value": 0.4})
        assert cli.main(["phase-diagram", "--config", str(p)]) == 1
        assert "configuration error: gamma: must be a range" in capsys.readouterr().err
        write_config(p, omega={"value": 0.9})
        assert cli.main(["phase-diagram", "--config", str(p)]) == 1
        assert "need an omega range" in capsys.readouterr().err

    def test_exit_1_on_overflowing_floquet_diagonal(self, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        write_config(p, model={"preset": "pt-cosy-cosz", "beta": 3, "family": "smooth"},
                     omega={"min": 0.5, "max": 1e307, "count": 2}, engine="floquet", cutoff=20)
        assert cli.main(["phase-diagram", "--config", str(p)]) == 1
        assert "configuration error: omega_max 1e+307" in capsys.readouterr().err

    def test_exit_2_on_numerical_failure(self, tmp_path, monkeypatch):
        from floqep.sweep import FailureBudgetExceeded

        def boom(*a, **kw):
            raise FailureBudgetExceeded("synthetic")

        monkeypatch.setattr(cli, "phase_diagram", boom)
        p = tmp_path / "cfg.json"
        write_config(p)
        assert cli.main(["phase-diagram", "--config", str(p)]) == 2

    def test_exit_2_on_overflowing_grid(self, tmp_path, capsys):
        # large gamma and small omega overflow the propagator in most cells
        p = tmp_path / "cfg.json"
        write_config(p, gamma={"min": 0.0, "max": 1e300, "count": 12},
                     omega={"min": 0.05, "max": 0.1, "count": 2})
        assert cli.main(["phase-diagram", "--config", str(p)]) == 2
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize("engine", ["monodromy-piecewise", "monodromy-integrate"])
    def test_exit_2_on_overflowing_contour_grid(self, tmp_path, capsys, engine):
        p = tmp_path / "cfg.json"
        write_config(p, gamma={"min": 0.0, "max": 1e300, "count": 3},
                     omega={"min": 0.5, "max": 1.0, "count": 2}, engine=engine)
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            assert cli.main(["ep-contours", "--config", str(p)]) == 2
        assert "non-finite propagator at" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "fail",
        [
            # every eigenvalue outside the central third of the ladder
            lambda: fold_spectrum(np.array([100.0 + 0j]), 1.0, 3),
            # J = 0 and gamma = 0: the loop's Bloch vector is 0, and so is
            # every eigenvector built from it
            lambda: berry_phase_loop(
                PresetTemplate("apt-cosx-siny", J=0.0, beta=1, family="smooth").instantiate(
                    0.0, 1.0
                ),
                steps=256, on_ep="flag",
            ),
        ],
        ids=["fold-truncation", "defective-point"],
    )
    def test_exit_2_on_numerical_value_errors(self, tmp_path, monkeypatch, capsys, fail):
        monkeypatch.setattr(cli, "phase_diagram", lambda *a, **kw: fail())
        p = tmp_path / "cfg.json"
        write_config(p)
        assert cli.main(["phase-diagram", "--config", str(p)]) == 2
        assert "numerical failure" in capsys.readouterr().err

    def test_engine_family_mismatch_exit_1(self, tmp_path):
        p = tmp_path / "cfg.json"
        write_config(p, engine="floquet")  # square family model
        assert cli.main(["phase-diagram", "--config", str(p)]) == 1

    def test_threads_env_default(self, tmp_path, monkeypatch, capsys):
        # the worker count comes from --threads or the config, else 1: the
        # FLOQUET_EP_THREADS variable neither changes nor fails a run
        p = tmp_path / "cfg.json"
        write_config(p)
        for env in ("2", "zero"):
            monkeypatch.setenv("FLOQUET_EP_THREADS", env)
            assert cli.main(["phase-diagram", "--config", str(p)]) == 0
            assert ", 1 thread(s)" in capsys.readouterr().err


class TestDegenerateAxes:
    @staticmethod
    def check(svg: str):
        ET.fromstring(svg)
        text = re.sub(r'base64,[^"]*', "", svg)  # a payload may spell "nan" by chance
        assert "nan" not in text and "inf" not in text

    def test_heatmap_and_contours_with_one_gamma(self):
        grid = GridSpec(1.0, 1.0, 2, 0.5, 1.0, 3)
        self.check(render.heatmap_svg(PhaseDiagram(grid, np.ones((3, 2)), {})))
        self.check(render.contours_svg(EPContourSet((), 1e-9, {}), (1.0, 1.0), (0.5, 0.5)))

    def test_berry_with_one_gamma(self):
        tpl = PresetTemplate("apt-cosx-siny", beta=1, family="smooth")
        self.check(render.berry_svg(berry_gamma_sweep(tpl, [0.5])))


class TestOverrideFlags:
    def test_flags_reach_the_run(self, tmp_path):
        p = tmp_path / "cfg.json"
        write_config(
            p,
            model={"preset": "pt-cosy-cosz", "beta": 3, "family": "smooth"},
            gamma={"min": 0.2, "max": 1.0, "count": 2},
            omega={"min": 0.7, "max": 1.4, "count": 2},
            out_dir="",  # invalid, but replaced by --out before validation
        )
        out = tmp_path / "flagged"
        argv = ["--config", str(p), "--out", str(out)]
        assert cli.main(["phase-diagram", *argv, "--engine", "floquet", "--cutoff", "5"]) == 0
        meta = json.loads((out / "phase_diagram.csv.meta.json").read_text())["metadata"]
        assert (meta["engine"], meta["cutoff"]) == ("floquet", 5)
        write_config(p, gamma={"min": 0.2, "max": 1.0, "count": 2}, omega={"value": 0.9},
                     model={"preset": "pt-cosy-cosz", "beta": 3, "family": "smooth"})
        assert cli.main(["berry", *argv, "--threads", "2"]) == 0
        meta = json.loads((out / "berry.csv.meta.json").read_text())["metadata"]
        assert not {"omega", "threads", "steps", "richardson"} & set(meta)

    @pytest.mark.parametrize(
        "flag",  # the subcommand, then the flag it reads
        [["phase-diagram", "--cutoff", "0"], ["berry", "--threads", "0"],
         ["phase-diagram", "--threads", "0"]],
    )
    def test_invalid_flag_exits_1(self, tmp_path, flag, monkeypatch):
        p = tmp_path / "cfg.json"
        write_config(p)
        monkeypatch.setattr(cli, "phase_diagram", None)  # the run must not start
        monkeypatch.setattr(cli, "berry_gamma_sweep", None)
        assert cli.main([*flag, "--config", str(p)]) == 1

    @pytest.mark.parametrize("command", ["phase-diagram", "ep-contours", "berry", "spectrum-scan"])
    def test_cutoff_below_beta_only_matters_to_floquet(self, tmp_path, command):
        # none of these reads cutoff, so its default 20 below beta 25 is no error
        p = tmp_path / "cfg.json"
        if command == "berry":
            write_config(p, model={"preset": "pt-cosy-cosz", "beta": 25, "family": "smooth"},
                         gamma={"min": 0.2, "max": 0.4, "count": 2}, omega={"value": 1.0},
                         berry_steps=256)
        else:
            write_config(p, model={"preset": "pt-cosy-cosz", "beta": 25, "family": "square"},
                         gamma={"min": 0.2, "max": 0.4, "count": 3},
                         omega={"min": 0.8, "max": 1.2, "count": 2})
        assert cli.main([command, "--config", str(p)]) == 0

    def test_floquet_cutoff_below_beta_exits_1(self, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        write_config(p, model={"preset": "pt-cosy-cosz", "beta": 3, "family": "smooth"})
        argv = ["phase-diagram", "--config", str(p), "--engine", "floquet", "--cutoff", "2"]
        assert cli.main(argv) == 1
        assert "cutoff 2 below" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["phase-diagram", "--bogus"],
            [],
            ["phase-diagram", "--threads", "x"],
            ["ep-contours", "--cutoff", "5"],  # a flag its subcommand does not read
            ["berry", "--engine", "floquet"],
            ["spectrum-scan", "--steps", "512"],
            ["phase-diagram", "--steps", "512"],
            ["spectrum-scan", "--threads", "2"],  # it runs serially
            ["berry", "--steps", "512"],  # no loop takes a step count
        ],
    )
    def test_usage_errors_exit_1(self, tmp_path, argv, capsys):
        p = tmp_path / "cfg.json"
        write_config(p)
        assert cli.main([*argv, "--config", str(p)] if argv else []) == 1
        assert "usage: floqep" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--help"], ["--version"], ["berry", "--help"]])
    def test_help_and_version_exit_0(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 0


class TestOtherCommands:
    def test_ep_contours(self, tmp_path):
        p = tmp_path / "cfg.json"
        write_config(
            p,
            model={"preset": "apt-cosx-cosy", "beta": 3, "family": "square"},
            gamma={"min": 0.0, "max": 1.2, "count": 31},
            omega={"min": 0.6, "max": 1.0, "count": 3},
        )
        assert cli.main(["ep-contours", "--config", str(p)]) == 0
        out = tmp_path / "out"
        lines = (out / "ep_contours.csv").read_text().splitlines()
        assert lines[0] == "contour_id,omega,gamma,kind"
        assert all(r.split(",")[3] in ("EP", "Diabolic") for r in lines[1:])
        ET.parse(out / "ep_contours.svg")

    def test_berry(self, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        write_config(
            p,
            model={"preset": "apt-cosx-siny", "beta": 1, "family": "smooth"},
            gamma={"min": 0.2, "max": 1.8, "count": 5},
            omega={"value": 1.0},
        )
        assert cli.main(["berry", "--config", str(p)]) == 0
        out = tmp_path / "out"
        lines = (out / "berry.csv").read_text().splitlines()
        assert lines[0] == "gamma,band,re_theta,im_theta,flags"
        assert len(lines) == 1 + 2 * 5
        ET.parse(out / "berry.svg")
        meta = json.loads((out / "berry.csv.meta.json").read_text())
        assert "max_step_delta" in meta["metadata"]
        # gamma = 1 closes the gap on the whole loop: the spectral route declines it
        routes = [loop["route"] for loop in meta["metadata"]["loops"]]
        assert routes == ["spectral", "spectral", "declined", "spectral", "spectral"]
        err = capsys.readouterr().err
        assert "apt-cosx-siny beta=1 smooth, 5 gamma values" in err
        assert "4 spectral, 0 polygon and 1 declined loops" in err

    def test_spectrum_scan(self, tmp_path):
        p = tmp_path / "cfg.json"
        write_config(
            p,
            model={"preset": "apt-cosx-siny", "beta": 1, "family": "smooth"},
            gamma={"min": 0.5, "max": 1.5, "count": 3},
        )
        assert cli.main(["spectrum-scan", "--config", str(p)]) == 0
        out = tmp_path / "out"
        lines = (out / "spectrum_scan.csv").read_text().splitlines()
        assert lines[0] == "gamma,classification"
        meta = json.loads((out / "spectrum_scan.csv.meta.json").read_text())
        assert meta["thresholds"][0]["gamma"] == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("family", ["smooth", "square"])
    @pytest.mark.parametrize("big", [1e160, 1e200])
    def test_berry_overflowing_gamma_exits_0(self, tmp_path, capsys, family, big):
        # a valid config: the loop at the large gamma has no phase, and the
        # run says so in its outputs rather than failing
        p = tmp_path / "cfg.json"
        write_config(p, model={"preset": "apt-cosx-siny", "beta": 1, "family": family},
                     gamma={"min": 0.5, "max": big, "count": 2}, omega={"value": 1.0},
                     berry_steps=256)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["berry", "--config", str(p)]) == 0
        assert "error" not in capsys.readouterr().err
        rows = (tmp_path / "out" / "berry.csv").read_text().splitlines()[3:]
        assert [r.split(",")[2:4] for r in rows] == [["nan", "nan"]] * 2
        meta = json.loads((tmp_path / "out" / "berry.csv.meta.json").read_text())["metadata"]
        assert meta["uncertified_gammas"] == [big]

    def test_berry_needs_range(self, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        write_config(p, gamma={"value": 0.4})
        assert cli.main(["berry", "--config", str(p)]) == 1
        assert "configuration error: gamma: must be a range" in capsys.readouterr().err

    def test_berry_ignores_omega(self, tmp_path):
        # a loop runs in drive phase: any omega, scalar or range, gives the
        # bytes of omega 1
        csv = {}
        for name, omega in [("one", {"value": 1.0}), ("scalar", {"value": 0.9}),
                            ("range", {"min": 0.5, "max": 3.0, "count": 4})]:
            p = tmp_path / f"{name}.json"
            # gamma = 1 puts flags in the file
            write_config(p, model={"preset": "pt-cosy-sinz", "beta": 1, "family": "smooth"},
                         gamma={"min": 0.5, "max": 1.5, "count": 3}, omega=omega,
                         berry_steps=256, out_dir=str(tmp_path / name))
            assert cli.main(["berry", "--config", str(p)]) == 0
            csv[name] = (tmp_path / name / "berry.csv").read_bytes()
        assert csv["scalar"] == csv["range"] == csv["one"]

    def test_python_dash_m(self):
        # the package runs as a module from a checkout, installed or not
        src = str(Path(floqep.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        run = subprocess.run([sys.executable, "-m", "floqep", "--help"], env=env,
                             capture_output=True, text=True, timeout=60)
        assert run.returncode == 0, run.stderr
        assert "verify" in run.stdout


class TestVerbosity:
    @pytest.fixture(autouse=True)
    def _restore_floqep_logger(self):
        logger = logging.getLogger("floqep")
        level, handlers = logger.level, list(logger.handlers)
        yield
        logger.setLevel(level)
        logger.handlers[:] = handlers

    @pytest.mark.parametrize(
        "flags, level",
        [([], logging.WARNING), (["-q"], logging.ERROR), (["--quiet"], logging.ERROR)],
    )
    def test_flags_set_floqep_level(self, flags, level):
        assert cli.main(flags + ["phase-diagram"]) == 1  # no --config: exits after configuring
        assert logging.getLogger("floqep").level == level

    def test_one_handler_and_warnings_by_default(self, caplog, capsys):
        sweep_log = logging.getLogger("floqep.sweep")
        for _ in range(3):
            cli.main(["phase-diagram"])
        capsys.readouterr()
        sweep_log.warning("3 of 9 cells failed")
        sweep_log.info("sweep done")
        assert capsys.readouterr().err.count("cells failed") == 1
        assert [r.getMessage() for r in caplog.records] == ["3 of 9 cells failed"]

        caplog.clear()
        cli.main(["-q", "phase-diagram"])
        capsys.readouterr()
        sweep_log.warning("3 of 9 cells failed")
        sweep_log.error("sweep aborted")
        assert capsys.readouterr().err.strip() == "ERROR floqep.sweep: sweep aborted"
        assert [r.getMessage() for r in caplog.records] == ["sweep aborted"]


class TestVerifyCommand:
    def test_exit_codes(self, monkeypatch, capsys):
        def fake_pass():
            return True, "ok"

        def fake_fail():
            return False, "nope"

        passing = (
            verify_mod.Criterion(1, "a", "fast", fake_pass),
            verify_mod.Criterion(2, "b", "fast", fake_pass),
        )
        monkeypatch.setattr(verify_mod, "CRITERIA", passing)
        assert cli.main(["verify", "--level", "fast"]) == 0
        out = capsys.readouterr().out
        assert "[criterion  1] PASS" in out and "2/2 criteria passed" in out

        failing = passing + (verify_mod.Criterion(3, "c", "fast", fake_fail),)
        monkeypatch.setattr(verify_mod, "CRITERIA", failing)
        assert cli.main(["verify", "--level", "fast"]) == 3
        out = capsys.readouterr().out
        assert "[criterion  3] FAIL" in out

    def test_crashing_criterion_reports_failure(self, monkeypatch, capsys):
        def crash():
            raise RuntimeError("synthetic crash")

        monkeypatch.setattr(
            verify_mod, "CRITERIA", (verify_mod.Criterion(1, "a", "fast", crash),)
        )
        assert cli.main(["verify", "--level", "fast"]) == 3
        assert "synthetic crash" in capsys.readouterr().out

    def test_level_filter(self, monkeypatch):
        ran = []

        def fast():
            ran.append("fast")
            return True, ""

        def full():
            ran.append("full")
            return True, ""

        monkeypatch.setattr(
            verify_mod,
            "CRITERIA",
            (
                verify_mod.Criterion(1, "a", "fast", fast),
                verify_mod.Criterion(2, "b", "full", full),
            ),
        )
        assert cli.main(["verify", "--level", "fast"]) == 0
        assert ran == ["fast"]
        ran.clear()
        assert cli.main(["verify", "--level", "full"]) == 0
        assert ran == ["fast", "full"]


class TestMutationDetection:
    def test_corrupted_drive_sign_fails_cross_check(self):
        # flip the sign of the gain-loss drive in one route only: the
        # closed-form product of the corrupted model must disagree with
        # the integration of the correct one far beyond the 1e-7 oracle
        # contract (the literal sign-vector tests catch same-route flips)
        import dataclasses

        import numpy as np

        from floqep.model import preset
        from floqep.propagator import monodromy

        good = preset("pt-cosy-cosz", J=1.0, gamma=0.5, omega=0.9, beta=3,
                      family="square")
        terms = list(good.terms)
        terms[2] = dataclasses.replace(terms[2], amplitude=-terms[2].amplitude)
        mutant = dataclasses.replace(good, terms=tuple(terms))
        g_bad = monodromy(mutant, engine="piecewise").G
        g_ref = monodromy(good, engine="integrate").G
        assert np.max(np.abs(g_bad - g_ref)) > 1e-3
