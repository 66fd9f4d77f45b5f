import base64
import json
import logging
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import floqep.cli as cli
import floqep.render as render
import floqep.verify as verify_mod
from floqep.berry import biorthonormalize, instantaneous_eigensystem
from floqep.config import ConfigError, load_config, parse_config
from floqep.floquet import fold_spectrum
from floqep.model import SIGMA_X, SIGMA_Y, SIGMA_Z
from floqep.sweep import GridSpec, PhaseDiagram


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
        cfg = parse_config(
            {
                "schema_version": 1,
                "model": {"preset": "apt-cosx-siny", "beta": 1},
                "gamma": {"value": 0.5},
                "omega": {"value": 1.0},
            }
        )
        assert not cfg.gamma.is_range
        assert cfg.template.name == "apt-cosx-siny"

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
            {"gamma": {"value": "0.5"}},
            {"gamma": {"value": None}},
            {"omega": {"min": True, "max": 2.5, "count": 3}},
            {"omega": {"min": 1.0, "max": "2.5", "count": 3}},
            {"gamma": {"min": None, "max": 2.0, "count": 3}},
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
        assert "data:image/x-portable-pixmap;base64," in svg
        ET.parse(tmp_path / "out" / "phase_diagram.svg")

    def test_raster_paints_failed_cells(self):
        grid = GridSpec(0.0, 2.0, 201, 0.4, 2.8, 2)
        values = np.zeros((2, 201))
        values[0, 7] = np.nan
        values[1, 3] = 1.0
        svg = render.heatmap_svg(PhaseDiagram(grid, values, {}))
        ppm = base64.b64decode(svg.split("base64,")[1].split('"')[0])
        header = b"P6 201 2 255\n"
        assert ppm.startswith(header)
        rgb = np.frombuffer(ppm[len(header):], dtype=np.uint8).reshape(2, 201, 3)[::-1]
        assert tuple(rgb[0, 7]) == (255, 0, 255)
        assert tuple(rgb[1, 3]) == (252, 238, 80)
        colours = {tuple(px) for px in rgb.reshape(-1, 3)}
        assert colours == {(8, 8, 40), (255, 0, 255), (252, 238, 80)}

    def test_exit_1_on_bad_config(self, tmp_path):
        p = tmp_path / "cfg.json"
        write_config(p, engine="bogus")
        assert cli.main(["phase-diagram", "--config", str(p)]) == 1

    def test_exit_1_on_bad_model(self, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        write_config(p, model={"preset": "pt-cosy-cosz", "beta": True})
        assert cli.main(["phase-diagram", "--config", str(p)]) == 1
        assert "configuration error: model: beta" in capsys.readouterr().err

    def test_exit_1_on_missing_config(self):
        assert cli.main(["phase-diagram"]) == 1

    def test_exit_1_on_scalar_axis(self, tmp_path):
        p = tmp_path / "cfg.json"
        write_config(p, gamma={"value": 0.4})
        assert cli.main(["phase-diagram", "--config", str(p)]) == 1

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

    @pytest.mark.parametrize(
        "fail",
        [
            # every eigenvalue outside the central third of the ladder
            lambda: fold_spectrum(np.array([100.0 + 0j]), 1.0, 3),
            # d = (1, i, 0): d.d = 0, a single eigenvector
            lambda: instantaneous_eigensystem(SIGMA_X + 1j * SIGMA_Y),
            # d = (1, i, 1e-9): coalescing eigenvectors
            lambda: biorthonormalize(
                instantaneous_eigensystem(SIGMA_X + 1j * SIGMA_Y + 1e-9 * SIGMA_Z)
            ),
        ],
        ids=["fold-truncation", "defective-point", "near-ep"],
    )
    def test_exit_2_on_numerical_value_errors(self, tmp_path, monkeypatch, fail):
        monkeypatch.setattr(cli, "phase_diagram", lambda *a, **kw: fail())
        p = tmp_path / "cfg.json"
        write_config(p)
        assert cli.main(["phase-diagram", "--config", str(p)]) == 2

    def test_engine_family_mismatch_exit_1(self, tmp_path):
        p = tmp_path / "cfg.json"
        write_config(p, engine="floquet")  # square family model
        assert cli.main(["phase-diagram", "--config", str(p)]) == 1

    def test_threads_env_default(self, tmp_path, monkeypatch):
        p = tmp_path / "cfg.json"
        write_config(p)
        monkeypatch.setenv("FLOQUET_EP_THREADS", "2")
        assert cli.main(["phase-diagram", "--config", str(p)]) == 0
        monkeypatch.setenv("FLOQUET_EP_THREADS", "zero")
        assert cli.main(["phase-diagram", "--config", str(p)]) == 1


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
        assert cli.main(["berry", *argv, "--steps", "256"]) == 0
        meta = json.loads((out / "berry.csv.meta.json").read_text())["metadata"]
        assert (meta["steps"], meta["omega"]) == (256, 0.9)

    @pytest.mark.parametrize(
        "flag",  # the subcommand, then the flag it reads
        [["phase-diagram", "--cutoff", "0"], ["berry", "--steps", "100"],
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

    def test_berry(self, tmp_path):
        p = tmp_path / "cfg.json"
        write_config(
            p,
            model={"preset": "apt-cosx-siny", "beta": 1, "family": "smooth"},
            gamma={"min": 0.2, "max": 1.8, "count": 5},
            omega={"value": 1.0},
            berry_steps=512,
        )
        assert cli.main(["berry", "--config", str(p)]) == 0
        out = tmp_path / "out"
        lines = (out / "berry.csv").read_text().splitlines()
        assert lines[0] == "gamma,band,re_theta,im_theta,flags"
        assert len(lines) == 1 + 2 * 5
        ET.parse(out / "berry.svg")
        meta = json.loads((out / "berry.csv.meta.json").read_text())
        assert "max_step_delta" in meta["metadata"]

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

    def test_berry_needs_range(self, tmp_path):
        p = tmp_path / "cfg.json"
        write_config(p, gamma={"value": 0.4})
        assert cli.main(["berry", "--config", str(p)]) == 1

    def test_berry_rejects_omega_range(self, tmp_path, monkeypatch, capsys):
        p = tmp_path / "cfg.json"
        write_config(p, model={"preset": "apt-cosx-siny", "beta": 1, "family": "smooth"},
                     omega={"min": 0.5, "max": 3.0, "count": 4})
        monkeypatch.setattr(cli, "berry_gamma_sweep", None)  # the sweep must not start
        assert cli.main(["berry", "--config", str(p)]) == 1
        assert "scalar omega" in capsys.readouterr().err


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
