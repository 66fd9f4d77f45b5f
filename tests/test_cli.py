import json
import logging
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import floqep.cli as cli
import floqep.verify as verify_mod
from floqep.berry import biorthonormalize, instantaneous_eigensystem
from floqep.config import ConfigError, load_config, parse_config
from floqep.floquet import fold_spectrum
from floqep.model import SIGMA_X, SIGMA_Y, SIGMA_Z


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
            # booleans are not integers; beta 1 so that True passes cutoff >= beta
            {"model": {"preset": "pt-cosy-cosz", "beta": 1, "family": "square"}, "cutoff": True},
            {"threads": True},
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

    def test_raster_branch_for_large_grids(self, tmp_path):
        p = tmp_path / "cfg.json"
        write_config(p, gamma={"min": 0.0, "max": 2.0, "count": 201},
                     omega={"min": 0.4, "max": 2.8, "count": 3})
        assert cli.main(["phase-diagram", "--config", str(p)]) == 0
        svg = (tmp_path / "out" / "phase_diagram.svg").read_text()
        assert "data:image/x-portable-pixmap;base64," in svg
        ET.parse(tmp_path / "out" / "phase_diagram.svg")

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
        assert cli.main(["berry", *argv, "--steps", "256"]) == 0
        assert json.loads((out / "berry.csv.meta.json").read_text())["metadata"]["steps"] == 256

    @pytest.mark.parametrize("flag", [["--cutoff", "0"], ["--steps", "100"]])
    def test_invalid_flag_exits_1(self, tmp_path, flag):
        p = tmp_path / "cfg.json"
        write_config(p)
        assert cli.main(["phase-diagram", "--config", str(p), *flag]) == 1


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
