import json
import math
import re
import tracemalloc
import warnings
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import floqep.cli as cli
import floqep.propagator as propagator_mod
import floqep.sweep as sweep_mod
from floqep.berry import berry_phase_loop, polygon_phase_rows
from floqep.floquet import _sector_matrix
from floqep.model import PRESET_NAMES, PresetTemplate
from floqep.render import berry_svg
from floqep.propagator import (
    DEFAULT_STEPS_PER_PERIOD,
    EPKind,
    ep_indicator,
    indicator_from_trace,
    monodromy,
    piecewise_traces,
    root_kinds,
    segment_hamiltonians,
)
from floqep.sweep import (
    INSTABILITY_THRESHOLD,
    BerrySweep,
    ContourPoint,
    EPContourSet,
    FailureBudgetExceeded,
    GridSpec,
    PhaseDiagram,
    _cell_half_trace,
    berry_gamma_sweep,
    instability_window,
    load,
    persist,
    phase_diagram,
    trace_ep_contours,
)

PT3 = PresetTemplate("pt-cosy-cosz", beta=3, family="square")
APT3 = PresetTemplate("apt-cosx-siny", beta=3, family="square")  # the C05 model: reflected
APT1 = PresetTemplate("apt-cosx-siny", beta=1, family="square")  # one distinct segment row
PT3_SMOOTH = PresetTemplate("pt-cosy-cosz", beta=3, family="smooth")
# the ep-contours benchmark's grids at seeds 1-3 (its 128x24 shape, jittered)
BENCH_GRIDS = [
    GridSpec(0.0, 5.08271687071928, 128, 0.20260572287649456, 2.9937473792716625, 24),
    GridSpec(0.0, 4.9887467361092925, 128, 0.20159773011458626, 2.946846347343983, 24),
    GridSpec(0.0, 4.961567344169439, 128, 0.19822875307917653, 2.992495375445624, 24),
]


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(0, 1, 1, 0.5, 2, 4)
        with pytest.raises(ValueError):
            GridSpec(0, 1, 4, 0.0, 2, 4)
        with pytest.raises(ValueError):
            GridSpec(-0.1, 1, 4, 0.5, 2, 4)
        with pytest.raises(ValueError):
            GridSpec(1, 0, 4, 0.5, 2, 4)
        with pytest.raises(ValueError):
            GridSpec(0, 1, 4, 0.5, 2, 4, engine="nope")

    @pytest.mark.parametrize(
        "args, match",
        [
            ((0, float("nan"), 3, 0.5, 1, 2), "finite"),
            ((0, float("inf"), 3, 0.5, 1, 2), "finite"),
            ((float("nan"), 1, 3, 0.5, 1, 2), "finite"),
            ((0, 1, 3, 0.5, float("inf"), 2), "finite"),
            ((0, 1, 3.0, 0.5, 1, 2), "integers"),
            ((0, 1, 3, 0.5, 1, 2.0), "integers"),
            ((0, 1, True, 0.5, 1, 2), "integers"),
        ],
    )
    def test_rejects_non_finite_bounds_and_non_integer_counts(self, args, match):
        with pytest.raises(ValueError, match=match):
            GridSpec(*args)

    def test_numpy_integer_counts(self):
        g = GridSpec(0, 1, np.int64(3), 0.5, 2.5, np.int32(5))
        assert g.cells()[0].size == 15

    def test_axes(self):
        g = GridSpec(0, 1, 3, 0.5, 2.5, 5)
        assert np.allclose(g.gammas, [0, 0.5, 1])
        assert np.allclose(g.omegas, [0.5, 1.0, 1.5, 2.0, 2.5])


class TestCellKernels:
    def test_cell_equals_monodromy(self):
        # a map cell has the bits of the one-cell monodromy route, on grids
        # with random bounds: piecewise at even and odd beta, and integrate
        rng = np.random.default_rng(17)
        for template, engine in [
            (PresetTemplate("pt-cosy-cosz", beta=2, family="square"), "monodromy-piecewise"),
            (PT3, "monodromy-piecewise"),
            (PT3, "monodromy-integrate"),
        ]:
            g0, w0 = rng.uniform(0.1, 1.0), rng.uniform(0.4, 1.5)
            grid = GridSpec(g0, g0 + rng.uniform(0.5, 1.5), 5, w0, w0 + rng.uniform(0.5, 1.5), 4,
                            engine=engine)
            values = phase_diagram(template, grid).values.ravel()
            for k, (g, w) in enumerate(zip(*grid.cells())):
                want = monodromy(template.instantiate(g, w), engine.removeprefix("monodromy-"))
                assert np.float64(want.max_im_eps).tobytes() == values[k].tobytes()

    def test_engine_family_mismatch(self):
        grid = GridSpec(0, 1, 4, 0.5, 2, 4, engine="floquet")
        with pytest.raises(ValueError, match="smooth"):
            phase_diagram(PT3, grid)
        grid = GridSpec(0, 1, 4, 0.5, 2, 4, engine="monodromy-piecewise")
        with pytest.raises(ValueError, match="square"):
            phase_diagram(PT3_SMOOTH, grid)

    @pytest.mark.parametrize(
        "template, engine, kwargs, match",
        [
            (PT3_SMOOTH, "floquet", {"cutoff": 2}, "cutoff 2 below"),
            (PT3_SMOOTH, "floquet", {"cutoff": 2.5}, "cutoff must be an integer"),
            (PT3_SMOOTH, "floquet", {"cutoff": True}, "cutoff must be an integer"),
        ],
        ids=["floquet-cutoff", "float-cutoff", "bool-cutoff"],
    )
    def test_argument_errors_raise_before_the_cells(self, template, engine, kwargs, match):
        # a bad argument fails every cell alike: it must not turn into NaN
        # cells and FailureBudgetExceeded (a numerical failure)
        grid = GridSpec(0.2, 1.0, 3, 0.6, 1.0, 2, engine=engine)
        with pytest.raises(ValueError, match=match):
            phase_diagram(template, grid, **kwargs)

    def test_programming_errors_propagate_from_the_cells(self, monkeypatch):
        # a column solve that breaks on a bug: only numerical failures may
        # become NaN cells and FailureBudgetExceeded
        def broken(*args):
            raise TypeError("injected")

        monkeypatch.setattr(sweep_mod, "cells_max_im", broken)
        grid = GridSpec(0.2, 1, 3, 0.6, 1, 2, engine="floquet")
        with pytest.raises(TypeError, match="injected"):
            phase_diagram(PresetTemplate("pt-cosy-cosz", beta=1), grid)


class TestPhaseDiagram:
    def test_zero_gamma_row_is_stable(self):
        # at gamma=0 the half-trace can graze +/-1 at resonant nodes, so
        # "zero" means below the instability threshold, not exactly 0.0
        grid = GridSpec(0.0, 1.0, 5, 0.4, 2.8, 9, engine="monodromy-piecewise")
        diag = phase_diagram(PT3, grid)
        assert np.all(diag.values[:, 0] < 1e-8)
        assert diag.values.shape == (9, 5)

    def test_thread_determinism(self):
        grid = GridSpec(0.0, 2.0, 10, 0.4, 2.8, 10, engine="monodromy-piecewise")
        ref = phase_diagram(PT3, grid, threads=1).values.tobytes()
        par = phase_diagram(PT3, grid, threads=2).values.tobytes()
        assert ref == par

    def test_floquet_worker_count_identity(self):
        # the piecewise engine above starts no pool; this map runs its
        # columns over two real worker processes
        tpl = PresetTemplate("apt-cosx-siny", beta=2, family="smooth")
        grid = GridSpec(0.0, 1.5, 6, 0.5, 2.0, 4, engine="floquet")
        ref = phase_diagram(tpl, grid, threads=1, cutoff=10).values
        par = phase_diagram(tpl, grid, threads=2, cutoff=10).values
        assert np.isfinite(ref).all() and ref.tobytes() == par.tobytes()

    def test_integrate_worker_count_identity(self):
        # the RK4 oracle's rows over two real worker processes
        grid = GridSpec(0.0, 1.5, 6, 0.5, 2.0, 3, engine="monodromy-integrate")
        ref = phase_diagram(PT3, grid, threads=1).values
        par = phase_diagram(PT3, grid, threads=2).values
        assert np.isfinite(ref).all() and ref.tobytes() == par.tobytes()

    def test_gamma_sign_symmetry(self):
        # diagrams depend on gamma only through |gamma|
        for name in ("pt-cosy-cosz", "apt-cosx-cosy", "apt-cosx-siny"):
            tpl = PresetTemplate(name, beta=2, family="square")
            for g, w in [(0.3, 0.8), (1.1, 1.7)]:
                plus = monodromy(tpl.instantiate(g, w), engine="piecewise").max_im_eps
                minus = monodromy(tpl.instantiate(-g, w), engine="piecewise").max_im_eps
                assert plus == pytest.approx(minus, abs=1e-12)

    @pytest.mark.parametrize(
        "template, engine, settings",
        [
            (PT3, "monodromy-piecewise", {}),
            (PT3_SMOOTH, "floquet", {"cutoff": 7}),
            (PT3_SMOOTH, "monodromy-integrate", {"steps_per_period": DEFAULT_STEPS_PER_PERIOD}),
        ],
        ids=["piecewise", "floquet", "integrate"],
    )
    def test_sidecar_records_the_settings_the_engine_read(
        self, monkeypatch, template, engine, settings
    ):
        # only the sidecar matters: no oracle cell integrates
        monkeypatch.setattr(propagator_mod, "_integrate_monodromy", lambda *args: np.eye(2) + 0j)
        grid = GridSpec(0.0, 1.0, 2, 0.5, 1.0, 2, engine=engine)
        meta = phase_diagram(template, grid, cutoff=7).metadata
        assert {k: meta[k] for k in ("cutoff", "steps_per_period") if k in meta} == settings

    @staticmethod
    def _overflow_kernel(monkeypatch, template, hit):
        """Run the real kernel, with gamma 1e300 (an overflow) where ``hit``."""
        real = propagator_mod._segment_pairs
        # the halved routes pass fewer segments, each still period / n_seg long
        n_seg = len(sweep_mod._segment_vectors(template)[0])

        def overflowing(a, b, gammas, taus):
            gammas = np.where(hit(gammas, 2.0 * np.pi / (n_seg * taus)), 1e300, gammas)
            return real(a, b, gammas, taus)

        monkeypatch.setattr(propagator_mod, "_segment_pairs", overflowing)

    def test_failure_budget(self, monkeypatch):
        # ~14% of the cells overflow, on the half-period and the reflected route
        for template in (PT3, APT3):
            with monkeypatch.context() as patch:
                self._overflow_kernel(patch, template, lambda g, w: np.arange(g.size) % 7 == 6)
                grid = GridSpec(0.0, 1.0, 6, 0.4, 2.8, 6, engine="monodromy-piecewise")
                with pytest.raises(FailureBudgetExceeded):
                    phase_diagram(template, grid)

    def test_isolated_failures_become_nan(self, monkeypatch, caplog):
        for template in (PT3, APT3):
            caplog.clear()
            with monkeypatch.context() as patch:
                self._overflow_kernel(
                    patch, template, lambda g, w: (np.abs(g - 1.0) < 1e-12) & (np.abs(w - 0.4) < 1e-12)
                )
                grid = GridSpec(0.0, 1.0, 21, 0.4, 2.8, 13, engine="monodromy-piecewise")
                with caplog.at_level("WARNING", logger="floqep.sweep"), np.errstate(all="raise"):
                    diag = phase_diagram(template, grid)
            assert np.isnan(diag.values[0, -1])
            assert np.sum(~np.isfinite(diag.values)) == 1
            assert diag.metadata["failed_cells"] == 1
            assert [r.getMessage() for r in caplog.records] == [
                "1 of 273 cells failed; first (omega index, gamma index): (0, 20)"
            ]

    @pytest.mark.parametrize("template", [PT3, APT3], ids=["pt-cosy-cosz", "apt-cosx-siny"])
    def test_contour_scan_raises_on_an_overflowed_product(self, monkeypatch, template):
        # the scan and the bisection read only f: an overflowed cell still raises
        self._overflow_kernel(
            monkeypatch, template, lambda g, w: (np.abs(g - 1.0) < 1e-12) & (np.abs(w - 0.4) < 1e-12)
        )
        grid = GridSpec(0.0, 1.0, 21, 0.4, 2.8, 13, engine="monodromy-piecewise")
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            with pytest.raises(propagator_mod.NumericalError, match="non-finite propagator at 1 of"):
                trace_ep_contours(template, grid)

    @staticmethod
    def _overflow_oracle(monkeypatch, gamma, omega):
        """Run the real integrator, with gamma 1e300 (an overflow) at the cell ``(gamma, omega)``."""
        real = propagator_mod._integrate_monodromy
        hit, overflowing = PT3.instantiate(gamma, omega), PT3.instantiate(1e300, omega)
        monkeypatch.setattr(
            propagator_mod, "_integrate_monodromy",
            lambda model, steps: real(overflowing if model == hit else model, steps),
        )

    def test_per_cell_engine_failures(self, monkeypatch, caplog):
        # an overflowing oracle cell is NaN, as a kernel cell is: no trap, no warning
        self._overflow_oracle(monkeypatch, 1.0, 0.4)
        grid = GridSpec(0.0, 1.0, 11, 0.4, 2.8, 10, engine="monodromy-integrate")
        with (
            caplog.at_level("WARNING", logger="floqep.sweep"),
            warnings.catch_warnings(),
            np.errstate(all="raise"),
        ):
            warnings.simplefilter("error")
            diag = phase_diagram(PT3, grid)
        assert np.isnan(diag.values[0, -1])
        assert np.sum(~np.isfinite(diag.values)) == 1
        assert diag.metadata["failed_cells"] == 1
        assert diag.metadata["undecided_cells"] == 3
        assert [r.getMessage() for r in caplog.records] == [
            "1 of 110 cells failed; first (omega index, gamma index): (0, 10)"
        ]
        grid = GridSpec(0.0, 1.0, 6, 0.4, 2.8, 6, engine="monodromy-integrate")
        with pytest.raises(FailureBudgetExceeded):
            phase_diagram(PT3, grid)

    @pytest.mark.parametrize("engine", ["monodromy-piecewise", "monodromy-integrate"])
    def test_contour_scan_raises_on_non_finite_cells(self, engine):
        grid = GridSpec(0.0, 1e300, 3, 0.5, 1.0, 2, engine=engine)
        for template in (PT3, APT3):
            with warnings.catch_warnings(), np.errstate(all="raise"):
                warnings.simplefilter("error")
                with pytest.raises(propagator_mod.NumericalError, match="non-finite propagator at"):
                    trace_ep_contours(template, grid)


def _oracle_max_im(mp, template, gamma, omega):
    """``max Im eps`` from the full-period segment product in 40-digit
    arithmetic, on the same double inputs as the kernel: the segment
    vectors, gamma and the segment duration."""
    a, b = sweep_mod._segment_vectors(template)
    T = 2.0 * np.pi / np.array([omega])
    tau = mp.mpf(float((T / len(a))[0]))
    with mp.workdps(40):
        G = mp.eye(2)
        for l in range(len(a)):
            dx, dy, dz = (mp.mpc(complex(a[l, k])) + mp.mpf(gamma) * mp.mpc(complex(b[l, k]))
                          for k in range(3))
            mu = mp.sqrt(dx * dx + dy * dy + dz * dz)
            sinc = mp.sin(mu * tau) / mu if mu != 0 else tau
            d_sigma = mp.matrix([[dz, dx - 1j * dy], [dx + 1j * dy, -dz]])
            G = (mp.cos(mu * tau) * mp.eye(2) - 1j * sinc * d_sigma) * G
        return float(abs(mp.im(mp.acos((G[0, 0] + G[1, 1]) / 2))) / mp.mpf(float(T[0])))


class TestNoiseFloor:
    def test_omega_third_row_matches_the_oracle(self):
        # at omega = 1/3 the beta=3 PT half-trace sits on c = +1 for most
        # gamma, where arccos(c) keeps half the digits of c: the full-period
        # route leaves those verdicts to the rounding, the half-period route
        # decides them as 40-digit arithmetic on the same inputs does
        mp = pytest.importorskip("mpmath")
        grid = GridSpec(0.0, 5.0, 200, 1.0 / 3.0, 0.5, 2, engine="monodromy-piecewise")
        diag = phase_diagram(PT3, grid)
        assert diag.metadata["undecided_cells"] == 0
        gammas = grid.gammas
        want = np.array([_oracle_max_im(mp, PT3, g, 1.0 / 3.0) > INSTABILITY_THRESHOLD
                         for g in gammas])
        assert np.array_equal(diag.values[0] > INSTABILITY_THRESHOLD, want)

        a, b = sweep_mod._segment_vectors(PT3)
        T = 2.0 * np.pi / np.full(gammas.size, 1.0 / 3.0)
        full = piecewise_traces(a, b, gammas, T, None, None)
        misread = (np.abs(full.eps_F.imag) > INSTABILITY_THRESHOLD) != want
        assert np.count_nonzero(~want) > 100 and np.count_nonzero(misread) > 10


class TestHalfPeriodRoute:
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_monodromy_takes_the_sweep_route(self, name):
        # odd beta: the one-cell route gives the bits of the map and of the
        # contour classifier, which is what re-evaluating a file relies on
        tpl = PresetTemplate(name, beta=3, family="square")
        grid = GridSpec(0.0, 3.0, 9, 0.3, 2.5, 6, engine="monodromy-piecewise")
        values = phase_diagram(tpl, grid).values.ravel()
        roots = [pt for line in trace_ep_contours(tpl, grid).contours for pt in line]
        assert roots
        gammas = np.concatenate([grid.cells()[0], [pt.gamma for pt in roots]])
        omegas = np.concatenate([grid.cells()[1], [pt.omega for pt in roots]])
        (_, _, traces), = sweep_mod._block_propagators(tpl, gammas, omegas, grid.engine)
        kinds = root_kinds(indicator_from_trace(traces.half_trace), traces.defectiveness)
        for k, (g, w) in enumerate(zip(gammas, omegas)):
            r = monodromy(tpl.instantiate(g, w), "piecewise")
            if k < values.size:
                assert np.float64(r.max_im_eps).tobytes() == values[k].tobytes()
            assert np.complex128(r.half_trace).tobytes() == traces.half_trace[k].tobytes()
            assert np.float64(r.defectiveness).tobytes() == traces.defectiveness[k].tobytes()
            assert ep_indicator(r)[1] is kinds[k]
        assert [pt.kind for pt in roots] == [kind.value for kind in kinds[values.size:]]

    @pytest.mark.parametrize("beta", [2, 4])
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_even_beta_keeps_the_full_period(self, name, beta):
        # no parity at even beta: the *-cos* presets multiply the full period,
        # bit for bit; the *-sin* presets multiply half of it and reflect, so
        # their map has the bits of monodromy, within the bounds of the full product
        tpl = PresetTemplate(name, beta=beta, family="square")
        parity, reflection = sweep_mod._segment_symmetries(tpl)
        assert parity is None and (reflection is None) == name.endswith(("cosz", "cosy"))
        grid = GridSpec(0.0, 5.0, 40, 0.2, 3.0, 30, engine="monodromy-piecewise")
        gammas, omegas = grid.cells()
        a, b = sweep_mod._segment_vectors(tpl)
        T = 2.0 * np.pi / omegas
        g00, _, _, g11, full_bound = propagator_mod._segment_product(a, b, gammas, T / len(a))
        values = phase_diagram(tpl, grid).values.ravel()
        if reflection is None:
            want = np.abs(propagator_mod.quasienergy_from_trace(0.5 * (g00 + g11), T).imag)
            assert values.tobytes() == want.tobytes()
            return
        want = [monodromy(tpl.instantiate(g, w), "piecewise").max_im_eps for g, w in zip(gammas, omegas)]
        assert values.tobytes() == np.array(want).tobytes()
        traces = piecewise_traces(a, b, gammas, T, parity, reflection)
        assert np.all(np.abs(traces.half_trace - 0.5 * (g00 + g11)) <= traces.bound + full_bound)

    def test_a_verdict_on_the_threshold_is_undecided(self):
        # gamma bisected to adjacent doubles across a stability edge: the two
        # verdicts differ by the rounding alone, so both count as undecided
        gammas = np.linspace(0.0, 3.0, 61)
        omegas = np.full(gammas.size, 0.9)
        (_, _, traces), = sweep_mod._block_propagators(PT3, gammas, omegas, "monodromy-piecewise")
        unstable = np.abs(traces.eps_F.imag) > INSTABILITY_THRESHOLD
        edges = np.flatnonzero(unstable[:-1] != unstable[1:])
        assert edges.size
        for i in edges:
            lo, hi = gammas[i], gammas[i + 1]
            while np.nextafter(lo, hi) != hi:
                mid = 0.5 * (lo + hi)
                (_, _, tr), = sweep_mod._block_propagators(PT3, np.array([mid]), omegas[:1], "monodromy-piecewise")
                if (abs(tr.eps_F[0].imag) > INSTABILITY_THRESHOLD) == unstable[i]:
                    lo = mid
                else:
                    hi = mid
            (_, T, tr), = sweep_mod._block_propagators(
                PT3, np.array([lo, hi]), omegas[:2], "monodromy-piecewise"
            )
            assert (np.abs(tr.eps_F.imag) > INSTABILITY_THRESHOLD).tolist() == [unstable[i], not unstable[i]]
            assert sweep_mod._undecided(tr, T).all()

    @pytest.mark.parametrize(
        "template, engine, parity",
        [
            (PT3, "monodromy-piecewise", True),
            (PresetTemplate("pt-cosy-cosz", beta=2, family="square"), "monodromy-piecewise", False),
            (PT3, "monodromy-integrate", False),
        ],
        ids=["parity", "full-period", "integrate"],
    )
    def test_max_im_eps_has_the_bits_of_the_folded_quasienergy(self, template, engine, parity):
        # the branch fold only negates Im w, so |Im w| / T needs no fold;
        # gamma 1e300 overflows the propagator, a NaN cell
        gammas, omegas = (np.append(x, y) for x, y in zip(GridSpec(0.0, 4.0, 8, 0.3, 3.0, 6).cells(), (1e300, 1.0)))
        (_, _, traces), = sweep_mod._block_propagators(template, gammas, omegas, engine)
        assert (traces.parity_trace is not None) == parity
        want = np.abs(traces.eps_F.imag)
        assert np.isnan(want[-1]) and np.count_nonzero(want[:-1] > INSTABILITY_THRESHOLD) >= 20
        assert traces.max_im_eps.tobytes() == want.tobytes()

    def test_integrate_map_counts_undecided_cells(self):
        # G is the identity at omega 0.5, gamma 0, so c = 1 exactly on the
        # threshold; the oracle reads 1 - 3.9e-12, within its bound
        tpl = PresetTemplate("pt-cosy-cosz", beta=2, family="square")
        grid = GridSpec(0.0, 4.0, 2, 0.5, 3.0, 2, engine="monodromy-integrate")
        (_, T, traces), = sweep_mod._block_propagators(tpl, *grid.cells(), grid.engine)
        assert traces.half_trace[0] == 0.9999999999960831
        assert sweep_mod._undecided(traces, T).tolist() == [True, False, False, False]
        assert phase_diagram(tpl, grid).metadata["undecided_cells"] == 1


@pytest.fixture(scope="module")
def diagram():
    grid = GridSpec(0.0, 0.05, 2, 0.3, 3.0, 136, engine="monodromy-piecewise")
    return phase_diagram(PT3, grid)


class TestInstabilityWindow:

    def test_primary_resonance_window(self, diagram):
        windows = instability_window(diagram, 0.05)
        hits = [w for w in windows if w[0] <= 2.0 / 3.0 <= w[1]]
        assert len(hits) == 1
        assert hits[0][1] - hits[0][0] < 0.2

    def test_zero_row_empty(self, diagram):
        assert instability_window(diagram, 0.0) == []

    def test_out_of_range(self, diagram):
        with pytest.raises(ValueError):
            instability_window(diagram, 2.0)

    def test_failed_cell_raises(self):
        # one NaN cell at omega 0.73 would split the window (0.53, 0.92)
        grid = GridSpec(0.0, 0.5, 2, 0.3, 3.0, 271, engine="monodromy-piecewise")
        diag = phase_diagram(PT3, grid)
        assert [(round(a, 6), round(b, 6)) for a, b in instability_window(diag, 0.5)] == [
            (0.53, 0.92)]
        diag.values[43, 1] = np.nan
        with pytest.raises(propagator_mod.NumericalError, match=r"gamma 0\.5, omega 0\.73$"):
            instability_window(diag, 0.5)
        assert instability_window(diag, 0.0) == []  # the other row is unaffected


def _reference_link(omegas, column_roots, dgamma):
    """Reference linker, with each open line's last column tracked
    explicitly; :func:`sweep._link_ep_roots` must give the same lines."""
    open_lines, open_last_col, closed_lines, singletons = [], [], [], []
    for j, w in enumerate(omegas):
        roots = sorted(column_roots[j], key=lambda r: r[0])
        ep_roots = [g for g, kind in roots if kind is EPKind.EP]
        for g, kind in roots:
            if kind is EPKind.DIABOLIC:
                singletons.append([ContourPoint(float(w), g, kind.value)])
        still_open, still_cols = [], []
        candidates = [
            (li, line) for li, (line, col) in enumerate(zip(open_lines, open_last_col))
            if col == j - 1
        ]
        used, assigned = set(), {}
        pairs = sorted(
            (abs(line[-1].gamma - g), li, ri)
            for li, line in candidates
            for ri, g in enumerate(ep_roots)
        )
        for dist, li, ri in pairs:
            if dist > 3.0 * dgamma or li in used or ri in assigned:
                continue
            used.add(li)
            assigned[ri] = li
        for ri, g in enumerate(ep_roots):
            if ri in assigned:
                open_lines[assigned[ri]].append(ContourPoint(float(w), g, EPKind.EP.value))
            else:
                open_lines.append([ContourPoint(float(w), g, EPKind.EP.value)])
                open_last_col.append(j)
        for li, (line, col) in enumerate(zip(open_lines, open_last_col)):
            if li in used or col == j:
                still_open.append(line)
                still_cols.append(j)
            elif col <= j - 1:
                closed_lines.append(line)
            else:
                still_open.append(line)
                still_cols.append(col)
        open_lines, open_last_col = still_open, still_cols
    closed_lines.extend(open_lines)
    closed_lines.extend(singletons)
    closed_lines.sort(key=lambda line: (line[0].omega, line[0].gamma))
    return closed_lines


def _reference_refine(f_at, lo, hi, flo):
    """One midpoint of every active bracket per pass, the lockstep
    bisection that :func:`sweep._refine_brackets` walks down trees of
    midpoints: the two must find the same roots and lose the same
    brackets.  Returns the roots (NaN where lost) and, per bracket, the
    midpoints evaluated: the steps the bracket took."""
    lo, hi, flo = (np.array(v, dtype=float) for v in (lo, hi, flo))
    found = np.full(lo.size, np.nan)
    active = np.arange(lo.size)
    steps = np.zeros(lo.size, dtype=int)
    for _ in range(sweep_mod.MAX_BISECTIONS):
        if not active.size:
            break
        mid = 0.5 * (lo[active] + hi[active])
        fmid = f_at(mid, active)
        steps[active] += 1
        if not np.isfinite(fmid).all():
            raise propagator_mod.NumericalError("non-finite midpoint")
        done = ((hi[active] - lo[active] < 1e-6) & (np.abs(fmid) <= 1e-6)) | (fmid == 0.0)
        found[active[done]] = mid[done]
        go_on = ~done & (mid != lo[active]) & (mid != hi[active])
        active, mid, fmid = active[go_on], mid[go_on], fmid[go_on]
        same = (fmid > 0) == (flo[active] > 0)
        lo[active[same]], flo[active[same]] = mid[same], fmid[same]
        hi[active[~same]] = mid[~same]
    return found, steps


def _tree_passes(steps, pass_cells=sweep_mod.BLOCK_CELLS):
    """Passes of the lockstep tree bisection that preceded the predicted
    path: every active bracket takes ``max(1, floor(log2(pass_cells // n
    + 1)))`` steps per pass, and a bracket leaves after the pass that
    holds its last step (``steps`` from :func:`_reference_refine`)."""
    taken = passes = 0
    while (steps > taken).any():
        n = int((steps > taken).sum())
        taken += max(1, (pass_cells // n + 1).bit_length() - 1)
        passes += 1
    return passes


@pytest.fixture(scope="module")
def contours():
    grid = GridSpec(0.0, 1.2, 61, 0.6, 1.0, 5, engine="monodromy-piecewise")
    tpl = PresetTemplate("apt-cosx-cosy", beta=3, family="square")
    return tpl, grid, trace_ep_contours(tpl, grid)


class TestEPContours:

    def test_roots_satisfy_indicator(self, contours):
        tpl, grid, cs = contours
        n_checked = 0
        for line in cs.contours:
            for pt in line:
                f = indicator_from_trace(
                    _cell_half_trace(tpl, pt.gamma, pt.omega, grid.engine)
                )
                assert abs(f) < 1e-6
                n_checked += 1
        assert n_checked > 0

    def test_kinds_schema(self, contours):
        _, _, cs = contours
        kinds = {pt.kind for line in cs.contours for pt in line}
        assert kinds <= {"EP", "Diabolic"}

    def test_diabolic_points_are_singletons(self, contours):
        _, _, cs = contours
        for line in cs.contours:
            if any(pt.kind == "Diabolic" for pt in line):
                assert len(line) == 1

    def test_polyline_linking(self, contours):
        _, grid, cs = contours
        dgamma = grid.gammas[1] - grid.gammas[0]
        multi = [line for line in cs.contours if len(line) > 1]
        assert multi, "expected at least one linked contour"
        for line in multi:
            omegas = [pt.omega for pt in line]
            assert all(b > a for a, b in zip(omegas, omegas[1:]))
            for a, b in zip(line, line[1:]):
                assert abs(b.gamma - a.gamma) <= 3 * dgamma + 1e-12

    def test_roots_match_scalar_bisection(self, contours):
        # the old route, one bracket at a time: the lockstep bisection must
        # keep its midpoints and stop rule, so the roots are the same floats
        tpl, grid, cs = contours
        gammas = grid.gammas

        def f_at(g, w):
            return indicator_from_trace(_cell_half_trace(tpl, g, w, grid.engine))

        want = []
        for w in grid.omegas:
            fs = [f_at(g, w) for g in gammas]
            roots = [g for g, f in zip(gammas, fs) if abs(f) <= 1e-6]
            for i in range(len(gammas) - 1):
                f0, f1 = fs[i], fs[i + 1]
                if abs(f0) <= 1e-6 or abs(f1) <= 1e-6 or f0 * f1 > 0:
                    continue
                lo, hi, flo = gammas[i], gammas[i + 1], f0
                for _ in range(200):
                    mid = 0.5 * (lo + hi)
                    fmid = f_at(mid, w)
                    if (hi - lo < 1e-6 and abs(fmid) <= 1e-6) or fmid == 0.0:
                        roots.append(mid)
                        break
                    if (fmid > 0) == (flo > 0):
                        lo, flo = mid, fmid
                    else:
                        hi = mid
            want += [(float(w), float(g)) for g in sorted(roots)]
        got = sorted((pt.omega, pt.gamma) for line in cs.contours for pt in line)
        assert got == sorted(want)

    @pytest.mark.parametrize(
        "template, grid",
        [
            (PresetTemplate("apt-cosx-cosy", beta=3, family="square"),
             GridSpec(0.0, 1.2, 61, 0.6, 1.0, 5)),  # the contours fixture
            (PresetTemplate("apt-cosx-siny", beta=3, family="square"),
             GridSpec(0.0, 5.0, 128, 0.2, 3.0, 24)),  # the ep-contours benchmark's shape
            (PresetTemplate("apt-cosx-siny", beta=3, family="square"),
             GridSpec(0.0, 1.5, 151, 0.05, 0.1, 2)),  # criterion C05's grid
        ],
        ids=["fixture", "benchmark-shape", "c05"],
    )
    def test_linker_matches_reference(self, monkeypatch, template, grid):
        calls = []
        real = sweep_mod._link_ep_roots

        def spy(omegas, column_roots, dgamma):
            calls.append((omegas, [list(roots) for roots in column_roots], dgamma))
            return real(omegas, column_roots, dgamma)

        monkeypatch.setattr(sweep_mod, "_link_ep_roots", spy)
        cs = trace_ep_contours(template, grid)
        [(omegas, column_roots, dgamma)] = calls
        assert any(len(line) > 1 for line in cs.contours)
        assert cs.contours == tuple(map(tuple, _reference_link(omegas, column_roots, dgamma)))

    def test_linker_tie_order(self):
        # every gap below is exact in binary: ties are real ties
        EP, DIABOLIC = EPKind.EP, EPKind.DIABOLIC
        omegas = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        column_roots = [
            [(1.5, EP), (1.0, EP)],
            [(1.25, EP), (2.0, DIABOLIC), (0.5, EP)],  # 1.25: equidistant lines, first wins
            [(0.875, EP)],  # equidistant from the continued line and the new one
            [(1.125, EP), (0.625, EP)],  # equidistant roots: the first in gamma wins
            [(1.875, EP)],  # exactly 3 steps from 1.125: still linked
        ]
        want = [
            [(1.0, 1.0, "EP"), (2.0, 1.25, "EP"), (3.0, 0.875, "EP"), (4.0, 0.625, "EP")],
            [(1.0, 1.5, "EP")],
            [(2.0, 0.5, "EP")],
            [(2.0, 2.0, "Diabolic")],
            [(4.0, 1.125, "EP"), (5.0, 1.875, "EP")],
        ]
        for link in (sweep_mod._link_ep_roots, _reference_link):
            assert [list(map(tuple, line)) for line in link(omegas, column_roots, 0.25)] == want

    def test_sign_changes_without_overflow(self):
        # |f| is 1e212 to 1e271 here: the product of two neighbours overflows
        tpl = PresetTemplate("apt-cosx-siny", beta=3, family="square")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace_ep_contours(tpl, GridSpec(4.5, 5.0, 6, 0.07, 0.08, 2))

    def test_stuck_bracket_is_lost_at_once(self, monkeypatch, caplog):
        # a step with no root: each column's bracket halves down to two
        # adjacent doubles around the step, whose midpoint rounds onto one
        # of them; from there no pass can move it, so it is lost on that pass
        # rather than re-evaluated up to MAX_BISECTIONS times
        calls = []

        def step(template, gammas, omegas, engine, roots):
            calls.append(len(gammas))
            return np.where(np.asarray(gammas) < 0.3, -1.0, 1.0)

        monkeypatch.setattr(sweep_mod, "_indicator_at", step)
        grid = GridSpec(0.0, 1.0, 11, 0.6, 1.0, 2)
        with caplog.at_level("WARNING", logger="floqep.sweep"):
            cs = trace_ep_contours(PT3, grid)
        assert cs.contours == ()
        assert [r.getMessage() for r in caplog.records] == [
            f"EP root lost during bisection at omega={w:.6g}, gamma in [0.2, 0.3]"
            for w in (0.6, 1.0)
        ]
        # the grid, then passes over both brackets: about 53 halvings from
        # width 0.1 down to adjacent doubles, in no more passes than trees of
        # k = floor(log2(512 // 2 + 1)) = 8 levels, well short of
        # MAX_BISECTIONS passes
        lo, hi = grid.gammas[[2, 2]], grid.gammas[[3, 3]]
        _, want = _reference_refine(lambda x, b: np.where(x < 0.3, -1.0, 1.0), lo, hi, [-1.0, -1.0])
        assert calls[0] == 22 and max(calls[1:]) <= sweep_mod._block_cells(PT3, grid.engine) == 512
        assert len(calls) - 1 <= _tree_passes(want) <= -(-54 // 8) + 1 < sweep_mod.MAX_BISECTIONS
        assert cs.metadata["refinement"] == {
            "brackets": 2, "node_roots": 0, "passes": len(calls) - 1,
            "cells": sum(calls[1:]), "steps": want.sum(), "kernel_calls": len(calls),
            "found": 0, "lost": 2,
        }

    @pytest.mark.parametrize(
        "template, grid, max_calls",
        [
            (APT3, GridSpec(0.0, 5.0, 128, 0.2, 3.0, 24), 7),  # the ep-contours benchmark's shape
            (APT3, GridSpec(0.0, 1.5, 151, 0.05, 0.1, 2), None),  # criterion C05's grid
            (APT3, GridSpec(0.0, 5.0, 128, 0.2, 3.0, 240), None),  # more brackets than a call holds
            (APT3, GridSpec(0.0, 5.0, 24, 0.2, 3.0, 6, engine="monodromy-integrate"), None),
        ],
        ids=["benchmark-shape", "c05", "many-brackets", "integrate"],
    )
    def test_refinement_matches_one_step_passes(self, monkeypatch, template, grid, max_calls):
        refinements, kernel_cells = [], []
        refine, kernel = sweep_mod._refine_brackets, sweep_mod.piecewise_traces

        def refine_spy(f_at, lo, hi, flo, fhi, pass_cells):
            refinements.append((f_at, lo, hi, flo, pass_cells, refine(f_at, lo, hi, flo, fhi, pass_cells)))
            return refinements[-1][-1]

        def kernel_spy(a, b, gammas, *args):
            kernel_cells.append(len(gammas))
            return kernel(a, b, gammas, *args)

        monkeypatch.setattr(sweep_mod, "_refine_brackets", refine_spy)
        monkeypatch.setattr(sweep_mod, "piecewise_traces", kernel_spy)
        cs = trace_ep_contours(template, grid)
        traced = kernel_cells[:]  # the trace's kernel calls, not the reference's below
        [(f_at, lo, hi, flo, pass_cells, got)] = refinements
        want, want_steps = _reference_refine(f_at, lo, hi, flo)
        roots, passes, cells, steps = got
        np.testing.assert_array_equal(roots, want)  # NaN where both lost the bracket
        record = cs.metadata["refinement"]
        assert record["brackets"] == lo.size > 0 and record["found"] + record["lost"] == lo.size
        assert (record["passes"], record["cells"], record["steps"]) == (passes, cells, steps)
        assert steps == want_steps.sum() and passes <= _tree_passes(want_steps, pass_cells)
        if grid.engine == "monodromy-integrate":
            assert not traced and cells == steps  # one step per pass: no extra cell
        else:
            # every call within the size the span's distinct segment rows set, the
            # passes' budget too
            assert 0 < max(traced) <= pass_cells == sweep_mod._block_cells(template, grid.engine)
            assert record["kernel_calls"] == len(traced)
        if max_calls is not None:
            assert len(traced) <= max_calls

    @staticmethod
    def _brackets(name):
        """``(f(x, b), lo, hi)`` of a synthetic indicator over its brackets."""
        dyadic = np.array([0.5, 0.25, 0.375, 0.4375, 0.5 + 2.0**-12, 0.3])
        if name == "exact-zero-at-node":  # f = 0 exactly at a tree node, at levels 1-4 and 12
            return lambda x, b: x - dyadic[b], np.zeros(6), np.ones(6)
        if name == "nan-off-path":  # NaN above 0.55, where the walk from [0, 1] never goes
            return lambda x, b: np.where(x > 0.55, np.nan, x - 0.3), [0.0], [1.0]
        if name == "step":  # no root: lost at adjacent doubles
            return lambda x, b: np.where(x < 0.3, -1.0, 1.0), [0.0, 0.0], [1.0, 0.5]
        if name == "width-at-tol":  # widths 16e-6, 8e-6, ... exactly: one is ROOT_TOL itself
            return lambda x, b: x - 1e-9, [0.0], [2.0**4 * 1e-6]
        rng = np.random.default_rng(29)
        n = 1 if name == "one" else 600
        lo = rng.uniform(0.0, 5.0, n)
        hi = lo + rng.uniform(1e-3, 5.0, n)  # often across a binade: hi - lo rounds
        root = rng.uniform(lo, hi)
        return lambda x, b: np.sin(x - root[b]) * (1.0 + b % 3), lo, hi

    @pytest.mark.parametrize(
        "name, max_bisections",
        [("exact-zero-at-node", 200), ("exact-zero-at-node", 3), ("nan-off-path", 200),
         ("step", 200), ("width-at-tol", 200), ("one", 200), ("one", 5), ("many", 200),
         ("many", 13)],
    )
    def test_synthetic_refinement_matches_one_step_passes(self, monkeypatch, name, max_bisections):
        monkeypatch.setattr(sweep_mod, "MAX_BISECTIONS", max_bisections)
        f, lo, hi = self._brackets(name)
        lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
        flo, fhi = f(lo, np.arange(lo.size)), f(hi, np.arange(lo.size))
        seen, xs = [], []

        def f_at(x, b):
            xs.append(x)
            seen.append(f(x, b))
            return seen[-1]

        roots, passes, cells, steps = sweep_mod._refine_brackets(f_at, lo, hi, flo, fhi)
        midpoints = []
        want, want_steps = _reference_refine(lambda x, b: f(midpoints.append(x) or x, b), lo, hi, flo)
        np.testing.assert_array_equal(roots, want)
        assert steps == want_steps.sum()
        # every midpoint of one step per pass is a tree node, to the bit
        assert set(np.concatenate(midpoints).tolist()) <= set(np.concatenate(xs).tolist())
        assert (passes, cells) == (len(seen), sum(v.size for v in seen))
        assert max(v.size for v in seen) <= max(sweep_mod.BLOCK_CELLS, lo.size)
        if name == "nan-off-path":
            assert np.isnan(np.concatenate(seen)).any() and not np.isnan(roots).any()
        if name == "step":
            assert np.isnan(roots).all()
        if max_bisections < 200:
            assert np.isnan(want).any()  # some bracket runs out of steps

    @pytest.mark.parametrize("name", ["steep-cubic", "step", "step-pair", "kink"])
    def test_misleading_estimates_take_no_more_passes_than_trees(self, name):
        # the secant on asinh(f) points the path the wrong way: a cubic is
        # flat at its root, a step gives the midpoint, a kink's slopes differ
        # by 1e6; brackets then fall back to full trees
        rng = np.random.default_rng(31)
        lo = rng.uniform(0.0, 1.0, 64)
        hi = lo + rng.uniform(0.01, 1.0, 64)
        root = rng.uniform(lo, hi)
        f = {
            "steep-cubic": lambda x, b: 1e6 * (x - root[b]) ** 3,
            "step": lambda x, b: np.where(x < root[b], -1.0, 1.0),
            "step-pair": lambda x, b: np.where(x < 0.3, -1.0, 1.0),
            "kink": lambda x, b: (x - root[b]) * np.where(x < root[b], 1e-3, 1e3),
        }[name]
        if name == "step-pair":  # 256 cells per bracket and pass
            lo, hi = np.zeros(2), np.array([1.0, 0.5])
        b = np.arange(lo.size)
        roots, passes, _, steps = sweep_mod._refine_brackets(f, lo, hi, f(lo, b), f(hi, b))
        want, want_steps = _reference_refine(f, lo, hi, f(lo, b))
        np.testing.assert_array_equal(roots, want)
        assert steps == want_steps.sum() and passes <= _tree_passes(want_steps)

    def test_non_finite_midpoint_on_the_path_raises(self):
        # NaN around 0.5, the first midpoint of [0, 1]: one step per pass evaluates it too
        f = lambda x, b: np.where(abs(x - 0.5) < 0.01, np.nan, x - 0.3)
        with pytest.raises(propagator_mod.NumericalError):
            sweep_mod._refine_brackets(f, [0.0], [1.0], [-0.3], [0.7])
        with pytest.raises(propagator_mod.NumericalError):
            _reference_refine(f, [0.0], [1.0], [-0.3])

    def test_large_real_traces_are_not_roots(self):
        # Im c of a real half-trace carries rounding noise that grows with
        # |c|: against REAL_TRACE_TOL alone, 27 nodes here with |Re c| of
        # 5.5e5 and more (omega 0.44-0.57, gamma >= 4.09) read as EP roots
        tpl = PresetTemplate("pt-cosy-sinz", beta=4, family="square")
        grid = GridSpec(0.0, 5.0, 128, 0.2, 3.0, 24)
        cs = trace_ep_contours(tpl, grid)
        g, w = grid.cells()
        c = np.concatenate([
            traces.half_trace for _, _, traces in sweep_mod._block_propagators(tpl, g, w, grid.engine)
        ])
        large = {(float(wk), float(gk)) for gk, wk, ck in zip(g, w, c) if abs(ck.real) > 2.0}
        assert large and not large & {(pt.omega, pt.gamma) for line in cs.contours for pt in line}

    def test_rejects_floquet_engine(self):
        grid = GridSpec(0.0, 1.0, 11, 0.6, 1.0, 3, engine="floquet")
        with pytest.raises(ValueError, match="monodromy"):
            trace_ep_contours(PT3_SMOOTH, grid)

    @pytest.mark.parametrize("grid", BENCH_GRIDS, ids=["seed1", "seed2", "seed3"])
    def test_benchmark_grids_take_seven_kernel_calls(self, monkeypatch, grid):
        # three grid blocks and four passes of 1024 cells, where 512-cell
        # calls took six blocks, five passes and a classification call
        calls = []
        kernel = sweep_mod.piecewise_traces
        monkeypatch.setattr(sweep_mod, "piecewise_traces",
                            lambda a, b, g, *rest: (calls.append(len(g)), kernel(a, b, g, *rest))[1])
        record = trace_ep_contours(APT3, grid).metadata["refinement"]
        assert record["kernel_calls"] == len(calls) <= 7 and record["passes"] == len(calls) - 3
        assert calls[:3] == [1024] * 3 and max(calls) <= sweep_mod._block_cells(APT3, grid.engine) == 1024

    @pytest.mark.parametrize(
        "template, grid, node_roots",
        [
            *((APT3, grid, 0) for grid in BENCH_GRIDS),
            (APT3, GridSpec(0.0, 1.5, 151, 0.05, 0.1, 2), 2),  # criterion C05's grid
            (APT3, GridSpec(0.0, 5.0, 128, 0.2, 3.0, 240), 1),
            (PresetTemplate("pt-cosy-sinz", beta=4, family="square"), GridSpec(0.0, 5.0, 128, 0.2, 3.0, 24), 1),
            (APT3, GridSpec(0.0, 5.0, 24, 0.2, 3.0, 6, engine="monodromy-integrate"), 1),
        ],
        ids=["seed1", "seed2", "seed3", "c05", "128x240", "pt-cosy-sinz-4", "integrate"],
    )
    def test_kinds_from_the_passes_match_one_call(self, template, grid, node_roots):
        # each root's kind comes from the kernel call that evaluated it: the
        # grid block for a root on a node, the pass for a bisected one; one
        # call over all the roots must give the same kinds
        cs = trace_ep_contours(template, grid)
        points = [pt for line in cs.contours for pt in line]
        gammas, omegas = (np.array(v) for v in zip(*((pt.gamma, pt.omega) for pt in points)))
        blocks = list(sweep_mod._block_propagators(template, gammas, omegas, grid.engine))
        assert len(blocks) == 1
        (_, _, traces), = blocks
        want = root_kinds(indicator_from_trace(traces.half_trace), traces.defectiveness)
        assert [pt.kind for pt in points] == [kind.value for kind in want]
        record = cs.metadata["refinement"]
        assert np.count_nonzero(np.isin(gammas, grid.gammas)) == record["node_roots"] == node_roots
        assert len(points) == node_roots + record["found"] and record["found"] > 0
        if grid.omega_max == 0.1:  # C05's root at the static limit stays an exceptional point
            assert [pt.kind for pt in points if pt.omega == 0.05 and round(pt.gamma, 6) == 0.14326] == ["EP"]


# cells per kernel call of each square preset: BLOCK_ROWS over the distinct
# segment rows of the span the kernel multiplies, at most MAX_BLOCK_CELLS
BLOCK_SIZES = {
    ("apt-cosx-siny", 1): 1024, ("apt-cosx-siny", 2): 1024, ("apt-cosx-siny", 3): 1024, ("apt-cosx-siny", 4): 512,
    ("apt-cosx-cosy", 1): 1024, ("apt-cosx-cosy", 2): 512, ("apt-cosx-cosy", 3): 512, ("apt-cosx-cosy", 4): 512,
    ("pt-cosy-cosz", 1): 1024, ("pt-cosy-cosz", 2): 512, ("pt-cosy-cosz", 3): 512, ("pt-cosy-cosz", 4): 512,
    ("pt-cosy-sinz", 1): 1024, ("pt-cosy-sinz", 2): 1024, ("pt-cosy-sinz", 3): 1024, ("pt-cosy-sinz", 4): 512,
}


class TestBlockSizes:
    @pytest.mark.parametrize("name, beta", sorted(BLOCK_SIZES))
    def test_cells_per_call(self, monkeypatch, name, beta):
        tpl = PresetTemplate(name, beta=beta, family="square")
        size = BLOCK_SIZES[name, beta]
        rows = propagator_mod.span_rows(*sweep_mod._segment_vectors(tpl), *sweep_mod._segment_symmetries(tpl))
        assert sweep_mod._block_cells(tpl, "monodromy-piecewise") == size
        assert size == min(sweep_mod.MAX_BLOCK_CELLS, sweep_mod.BLOCK_ROWS // rows)
        assert sweep_mod._block_cells(tpl, "monodromy-integrate") == sweep_mod.BLOCK_CELLS
        calls = []
        kernel = sweep_mod.piecewise_traces
        monkeypatch.setattr(sweep_mod, "piecewise_traces",
                            lambda a, b, g, *rest: (calls.append(len(g)), kernel(a, b, g, *rest))[1])
        phase_diagram(tpl, GridSpec(0.0, 5.0, size + 3, 0.2, 3.0, 2))
        assert calls == [size, size, 6]

    def test_the_square_map_keeps_its_calls(self):
        assert BLOCK_SIZES["pt-cosy-cosz", 3] == sweep_mod.BLOCK_CELLS == 512

    @pytest.mark.parametrize(
        "run, limit_mib",
        [
            # 0.77 MiB at 1024-cell calls; 2048-cell ones would take 1.16
            (lambda: trace_ep_contours(APT3, GridSpec(0.0, 5.0, 128, 0.2, 3.0, 24)), 1.0),
            # 0.59 MiB at 512-cell calls; 1024-cell ones would take 1.03
            (lambda: phase_diagram(PT3, GridSpec(0.0, 5.0, 256, 0.2, 3.0, 24)), 0.80),
            # a 1-row span: 0.67 and 0.73 MiB at 1024-cell calls; 2048-cell
            # ones would take 1.03 and 1.12
            (lambda: trace_ep_contours(APT1, GridSpec(0.0, 5.0, 128, 0.2, 3.0, 24)), 0.85),
            (lambda: phase_diagram(APT1, GridSpec(0.0, 5.0, 256, 0.2, 3.0, 24)), 0.85),
        ],
        ids=["ep-contours", "square-map", "1-row-contours", "1-row-map"],
    )
    def test_peak_traced_memory(self, run, limit_mib):
        # the benchmark's shapes and a 1-row span's: the peak of numpy's and
        # Python's allocations
        if tracemalloc.is_tracing():
            pytest.skip("tracemalloc is already tracing")
        run()  # warm-up: the cached preset plans
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= limit_mib * 2**20


class TestBerrySweep:
    def test_deterministic_threads(self, tmp_path, monkeypatch):
        # berry accepts --threads and runs every loop in-process: the CSV is
        # the same bytes at any worker count, and no pool starts
        monkeypatch.setattr(sweep_mod, "Pool", None)
        for family in ("smooth", "square"):
            cfg = tmp_path / f"{family}.json"
            cfg.write_text(json.dumps({
                "schema_version": 1,
                "model": {"preset": "pt-cosy-sinz", "beta": 1, "family": family},
                "gamma": {"min": 0.5, "max": 1.5, "count": 3},
            }))
            csv = set()
            for threads in ("1", "2"):
                out = tmp_path / f"{family}-{threads}"
                argv = ["berry", "--config", str(cfg), "--threads", threads, "--out", str(out)]
                assert cli.main(argv) == 0
                csv.add((out / "berry.csv").read_bytes())
            assert len(csv) == 1

    def test_square_loops_are_the_polygon(self):
        # a square sweep is polygon_phase_rows on the preset's segment
        # vectors, bit for bit: one point per segment and delta 0
        gammas = [0.5, math.sqrt(0.5), 1.5]
        for name, beta in (("pt-cosy-sinz", 1), ("apt-cosx-cosy", 2)):
            tpl = PresetTemplate(name, beta=beta, family="square")
            sw = berry_gamma_sweep(tpl, gammas)
            want = polygon_phase_rows(*sweep_mod._segment_vectors(tpl), gammas)
            assert sw.thetas.tobytes() == np.array([p.theta for p in want]).tobytes()
            assert sw.flags == tuple(p.flags for p in want)
            record = {"route": "polygon", "points": 4 * beta, "delta": 0.0}
            assert sw.metadata["loops"] == [record] * 3
            uncertified = [g for g, p in zip(gammas, want) if not p.certified]
            assert sw.metadata["uncertified_gammas"] == uncertified
        # at gamma = sqrt(1/2), d.d = 1 - 2 gamma^2 rounds to ~0 on every vertex of apt-cosx-cosy
        assert uncertified == [math.sqrt(0.5)] and sw.flags[1]

    def test_slow_loops_take_the_spectral_route(self):
        # loops that the spectral route accepts only beyond 4096 points; the
        # 65536-step Richardson Wilson loop is their oracle
        for name, beta, gamma, points in (("apt-cosx-siny", 3, 2.0843917928676112, 32768),
                                          ("pt-cosy-sinz", 4, 1.07720156555773, 8192)):
            tpl = PresetTemplate(name, beta=beta, family="smooth")
            sw = berry_gamma_sweep(tpl, [gamma])
            loop = sw.metadata["loops"][0]
            assert (loop["route"], loop["points"]) == ("spectral", points)
            assert loop["delta"] <= 1e-12 and sw.metadata["all_certified"]
            wilson = berry_phase_loop(tpl.instantiate(gamma, 1.0), 65536, True)
            assert np.max(np.abs(sw.thetas[0] - wilson.theta)) <= 1e-9

    def test_loop_records(self):
        # gamma 0.5 goes spectral; gamma 1.0 touches defective points and
        # 1.5 crosses exceptional points, so the spectral route declines
        # both: NaN, no flags, uncertified
        tpl = PresetTemplate("pt-cosy-sinz", beta=1, family="smooth")
        sw = berry_gamma_sweep(tpl, [0.5, 1.0, 1.5])
        loops = sw.metadata["loops"]
        assert [loop["route"] for loop in loops] == ["spectral", "declined", "declined"]
        assert [loop["points"] for loop in loops] == [128, None, None]
        assert [loop["delta"] for loop in loops[1:]] == [None, None]
        assert sw.metadata["max_step_delta"] == loops[0]["delta"] <= 1e-12
        assert sw.metadata["uncertified_gammas"] == [1.0, 1.5]
        assert np.isnan(sw.thetas[1:].view(float)).all() and sw.flags == ((), (), ())

    def test_zero_bloch_vector_reads_nan(self, tmp_path):
        # J = 0 and gamma = 0: H = 0 on the whole loop, which has no
        # eigenframes; the sweep keeps its other gammas
        for family, record in (("smooth", {"route": "declined", "points": None, "delta": None}),
                               ("square", {"route": "polygon", "points": 4, "delta": None})):
            tpl = PresetTemplate("apt-cosx-siny", J=0.0, beta=1, family=family)
            sw = berry_gamma_sweep(tpl, [0.0, 0.5])
            alone = berry_gamma_sweep(tpl, [0.5])
            assert np.isnan(sw.thetas[0].view(float)).all()
            assert sw.flags == ((), alone.flags[0])
            assert sw.thetas[1].tobytes() == alone.thetas[0].tobytes()
            # the square loop at 0.5 is uncertified, as the sampled Wilson loop is
            assert sw.metadata["uncertified_gammas"] == [0.0, *alone.metadata["uncertified_gammas"]]
            assert not sw.metadata["all_certified"]
            assert sw.metadata["max_step_delta"] == alone.metadata["max_step_delta"]
            assert sw.metadata["loops"][0] == record
            persist(sw, tmp_path / "b.csv")
            loaded = load(tmp_path / "b.csv")
            assert np.isnan(loaded.thetas[0].view(float)).all()
            assert np.max(np.abs(loaded.thetas[1] - sw.thetas[1])) < 1e-12
            svg = ET.fromstring(berry_svg(loaded))
            assert "nan" not in ET.tostring(svg).decode()
            assert len(svg.findall(".//{*}polyline")) == 4

    # the Wilson-loop settings steer no sweep, but a run configuration
    # still accepts them, and checks them before any loop runs
    @staticmethod
    def _run_with(tmp_path, monkeypatch, **settings):
        calls = []
        monkeypatch.setattr(sweep_mod, "spectral_phase_rows", lambda *a: calls.append(a))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "schema_version": 1, "model": {"preset": "apt-cosx-siny", "beta": 1},
            "gamma": {"min": 0.05, "max": 2.95, "count": 8}, **settings,
        }))
        assert cli.main(["berry", "--config", str(cfg)]) == 1
        assert calls == []

    @pytest.mark.parametrize("steps", [300.5, 10, True, 512.0])
    def test_steps_checked_before_any_loop(self, tmp_path, monkeypatch, capsys, steps):
        self._run_with(tmp_path, monkeypatch, berry_steps=steps)
        assert "steps must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("richardson", ["yes", 0, 1, None])
    def test_richardson_checked_before_any_loop(self, tmp_path, monkeypatch, capsys, richardson):
        self._run_with(tmp_path, monkeypatch, richardson=richardson)
        assert "richardson must be a bool" in capsys.readouterr().err

    @pytest.mark.parametrize("family", ["smooth", "square"])
    @pytest.mark.parametrize("big", [1e160, 1e200])
    def test_overflowing_loop_reads_nan(self, family, big):
        # d.d overflows at the large gamma: the spectral route declines it and
        # the polygon finds it defective, with no warning; the sweep keeps
        # its other gamma
        tpl = PresetTemplate("apt-cosx-siny", beta=1, family=family)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sw = berry_gamma_sweep(tpl, [0.5, big])
        alone = berry_gamma_sweep(tpl, [0.5])
        assert sw.thetas[0].tobytes() == alone.thetas[0].tobytes()
        assert np.isnan(sw.thetas[1].view(float)).all() and sw.flags[1] == ()
        assert sw.metadata["uncertified_gammas"] == [big]
        assert sw.metadata["loops"][1] == {
            "route": "declined" if family == "smooth" else "polygon",
            "points": None if family == "smooth" else 4, "delta": None,
        }


class TestGammaSplit:
    """The grid engines' affine forms from :meth:`PresetTemplate.parts`
    equal the old instantiate-at-1-minus-instantiate-at-0 construction."""

    @pytest.mark.parametrize("name", PRESET_NAMES)
    @pytest.mark.parametrize("beta", [1, 2, 3, 4])
    def test_segment_vectors(self, name, beta):
        tpl = PresetTemplate(name, beta=beta, family="square")
        a, b = sweep_mod._segment_vectors(tpl)
        at_0, at_1 = (segment_hamiltonians(tpl.instantiate(g, 1.0)) for g in (0.0, 1.0))
        assert np.array_equal(a, at_0) and np.array_equal(b, at_1 - at_0)
        for g in (0.0, np.sqrt(0.5), 1.0, 2.95, 1e200):
            assert np.array_equal(a + g * b, segment_hamiltonians(tpl.instantiate(g, 1.0)))

    @pytest.mark.parametrize("name", PRESET_NAMES)
    @pytest.mark.parametrize("beta", [1, 2, 3, 4])
    def test_floquet_sector(self, name, beta):
        tpl = PresetTemplate(name, beta=beta)
        a, b, harmonics = sweep_mod._floquet_sector(tpl, 8)
        (at_0, want_harmonics), (at_1, _) = (
            _sector_matrix(tpl.instantiate(g, 1.0), 8) for g in (0.0, 1.0))
        assert np.array_equal(a, at_0) and np.array_equal(b, at_1 - at_0)
        assert np.array_equal(harmonics, want_harmonics)


class TestMapCells:
    @pytest.mark.parametrize(
        "template, engine",
        [
            (PT3, "monodromy-piecewise"),
            (PT3_SMOOTH, "floquet"),
            (PT3, "monodromy-integrate"),
        ],
        ids=["piecewise", "floquet", "integrate"],
    )
    def test_split_invariance(self, template, engine):
        # any contiguous split of a cell list gives the same bits
        grid = GridSpec(0.0, 2.0, 7, 0.5, 2.5, 3, engine=engine)
        gammas, omegas = grid.cells()
        whole = sweep_mod._map_cells(template, engine, 8, gammas, omegas)
        n = gammas.size
        for cuts in (np.arange(grid.gamma_count, n, grid.gamma_count), np.arange(1, n), [n // 3]):
            values, undecided, errors = zip(*(
                sweep_mod._map_cells(template, engine, 8, g, w)
                for g, w in zip(np.split(gammas, cuts), np.split(omegas, cuts))
            ))
            assert np.concatenate(values).tobytes() == whole[0].tobytes()
            assert (None if None in undecided else sum(undecided)) == whole[1]
            assert [e for errs in errors for e in errs] == whole[2] == []


class TestPoolSize:
    class FakePool:
        """Records the process count it is asked for and maps in-process."""

        processes = []

        def __init__(self, processes):
            self.processes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def starmap(self, fn, tasks, chunksize=1):
            return [fn(*t) for t in tasks]

    @pytest.fixture()
    def pools(self, monkeypatch):
        monkeypatch.setattr(self.FakePool, "processes", [])
        monkeypatch.setattr(sweep_mod, "Pool", self.FakePool)
        return self.FakePool.processes

    def test_no_more_processes_than_columns(self, pools):
        tpl = PresetTemplate("pt-cosy-cosz", beta=1, family="smooth")
        grid = GridSpec(0.2, 0.8, 2, 1.0, 2.0, 2, engine="floquet")
        wide = phase_diagram(tpl, grid, threads=64, cutoff=8).values
        assert pools == [2]
        assert wide.tobytes() == phase_diagram(tpl, grid, threads=1, cutoff=8).values.tobytes()

    @pytest.fixture()
    def no_wilson_loop(self, monkeypatch):
        def wilson(*args, **kwargs):
            raise AssertionError("a sweep ran the Wilson loop")

        monkeypatch.setattr(sweep_mod, "berry_phase_loop", wilson)

    def test_spectral_loops_start_no_pool(self, pools, no_wilson_loop):
        tpl = PresetTemplate("apt-cosx-siny", beta=1, family="smooth")
        sw = berry_gamma_sweep(tpl, np.linspace(0.05, 2.95, 40))
        assert {loop["route"] for loop in sw.metadata["loops"]} == {"spectral"}
        assert pools == []

    def test_declined_and_square_loops_start_no_pool(self, pools, no_wilson_loop):
        # gamma 0.5 is spectral; 1.0 and 1.5 are declined.  Every square
        # loop is a polygon
        smooth = PresetTemplate("pt-cosy-sinz", beta=1, family="smooth")
        loops = berry_gamma_sweep(smooth, [0.5, 1.0, 1.5]).metadata["loops"]
        assert [loop["route"] for loop in loops] == ["spectral", "declined", "declined"]
        for name in PRESET_NAMES:
            square = PresetTemplate(name, beta=3, family="square")
            loops = berry_gamma_sweep(square, np.linspace(0.05, 2.95, 16)).metadata["loops"]
            assert {loop["route"] for loop in loops} == {"polygon"}
        assert pools == []

    def test_one_task_runs_in_process(self, pools):
        # the piecewise engine runs the whole grid as one task
        grid = GridSpec(0.2, 0.8, 3, 1.0, 2.0, 4, engine="monodromy-piecewise")
        wide = phase_diagram(PT3, grid, threads=64).values
        assert pools == []
        assert wide.tobytes() == phase_diagram(PT3, grid, threads=1).values.tobytes()

    @pytest.mark.parametrize("threads", [0, -3, True, 2.5, "2", None])
    def test_bad_threads_raise_before_any_cell(self, pools, monkeypatch, threads):
        calls = []
        monkeypatch.setattr(sweep_mod, "_map_cells", lambda *a: calls.append(a))
        grid = GridSpec(0.2, 0.8, 2, 1.0, 2.0, 3, engine="floquet")
        with pytest.raises(ValueError, match="^threads must be a positive integer$"):
            phase_diagram(PT3_SMOOTH, grid, threads=threads, cutoff=8)
        assert calls == [] and pools == []

    def test_numpy_integer_threads(self, pools):
        grid = GridSpec(0.2, 0.8, 2, 1.0, 2.0, 3, engine="floquet")
        two = phase_diagram(PT3_SMOOTH, grid, threads=np.int64(2), cutoff=8).values
        assert pools == [2]
        assert two.tobytes() == phase_diagram(PT3_SMOOTH, grid, cutoff=8).values.tobytes()


class TestPersistence:
    @pytest.fixture()
    def diagram(self):
        grid = GridSpec(0.0, 1.0, 4, 0.5, 1.5, 3, engine="monodromy-piecewise")
        return phase_diagram(PT3, grid)

    def test_diagram_roundtrip_bytes(self, diagram, tmp_path):
        p1 = tmp_path / "d.csv"
        persist(diagram, p1)
        loaded = load(p1)
        p2 = tmp_path / "d2.csv"
        persist(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()
        meta1 = (tmp_path / "d.csv.meta.json").read_bytes()
        meta2 = (tmp_path / "d2.csv.meta.json").read_bytes()
        assert meta1 == meta2

    @pytest.mark.parametrize("run", ["counts", "cutoff"])
    def test_numpy_integer_settings_roundtrip(self, tmp_path, run):
        # numpy integers pass every check and are written as plain integers
        if run == "counts":
            result = phase_diagram(PT3, GridSpec(0.0, 1.0, np.int64(3), 0.5, 1.0, 3))
        else:
            grid = GridSpec(0.0, 1.0, 3, 0.5, 1.0, 2, engine="floquet")
            result = phase_diagram(PT3_SMOOTH, grid, cutoff=np.int64(8))
        p = persist(result, tmp_path / "r.csv")
        assert load(p).metadata == result.metadata

    def test_unwritable_payload_writes_nothing(self, diagram, tmp_path):
        diagram.metadata["bad"] = object()
        with pytest.raises(TypeError, match="not JSON serializable"):
            persist(diagram, tmp_path / "out" / "d.csv")
        assert not (tmp_path / "out").exists()

    def test_nan_survives_roundtrip(self, diagram, tmp_path):
        diagram.values[1, 2] = np.nan
        p = tmp_path / "d.csv"
        persist(diagram, p)
        loaded = load(p)
        assert np.isnan(loaded.values[1, 2])
        assert np.array_equal(
            np.isfinite(loaded.values), np.isfinite(diagram.values)
        )

    def test_record_count(self, diagram, tmp_path):
        p = tmp_path / "d.csv"
        persist(diagram, p)
        lines = p.read_text().splitlines()
        assert lines[0] == "omega,gamma,max_im_eps"
        assert len(lines) == 1 + 3 * 4

    def test_contours_roundtrip(self, tmp_path):
        grid = GridSpec(0.0, 1.2, 61, 0.6, 1.0, 3, engine="monodromy-piecewise")
        tpl = PresetTemplate("apt-cosx-cosy", beta=3, family="square")
        cs = trace_ep_contours(tpl, grid)
        p1 = tmp_path / "c.csv"
        persist(cs, p1)
        loaded = load(p1)
        assert isinstance(loaded, EPContourSet)
        assert set(loaded.metadata["refinement"]) == {
            "brackets", "node_roots", "passes", "cells", "steps", "kernel_calls", "found", "lost",
        }
        p2 = tmp_path / "c2.csv"
        persist(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()
        sidecars = [json.loads(p.with_name(p.name + ".meta.json").read_text()) for p in (p1, p2)]
        assert sidecars[0] == sidecars[1] and sidecars[1]["metadata"]["refinement"] == cs.metadata["refinement"]

    def test_berry_roundtrip(self, tmp_path):
        tpl = PresetTemplate("apt-cosx-siny", beta=1, family="smooth")
        sw = berry_gamma_sweep(tpl, np.array([0.3, 1.5]))
        p1 = tmp_path / "b.csv"
        persist(sw, p1)
        loaded = load(p1)
        assert isinstance(loaded, BerrySweep)
        assert np.max(np.abs(loaded.thetas - sw.thetas)) < 1e-12
        p2 = tmp_path / "b2.csv"
        persist(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_version_mismatch(self, diagram, tmp_path):
        import json

        p = tmp_path / "d.csv"
        persist(diagram, p)
        meta_path = tmp_path / "d.csv.meta.json"
        doc = json.loads(meta_path.read_text())
        doc["schema_version"] = 99
        meta_path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="schema version"):
            load(p)

    def test_non_finite_sidecar_grid(self, diagram, tmp_path):
        import json

        p = persist(diagram, tmp_path / "d.csv")
        meta_path = tmp_path / "d.csv.meta.json"
        doc = json.loads(meta_path.read_text())
        doc["grid"]["gamma_max"] = float("nan")
        meta_path.write_text(json.dumps(doc))  # json writes NaN, and reads it back
        with pytest.raises(ValueError, match="grid bounds must be finite"):
            load(p)

    @pytest.mark.parametrize("key, value", [("gamma_max", "3.0"), ("gamma_step", 0.1)])
    def test_malformed_sidecar_grid(self, diagram, tmp_path, key, value):
        import json

        p = persist(diagram, tmp_path / "d.csv")
        meta_path = tmp_path / "d.csv.meta.json"
        doc = json.loads(meta_path.read_text())
        doc["grid"][key] = value
        meta_path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="malformed grid"):
            load(p)

    def test_malformed_header(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("bogus,header\n1,2\n")
        with pytest.raises(ValueError, match="unrecognized"):
            load(p)

    def test_missing_sidecar(self, diagram, tmp_path):
        p = tmp_path / "d.csv"
        persist(diagram, p)
        (tmp_path / "d.csv.meta.json").unlink()
        with pytest.raises(FileNotFoundError):
            load(p)

    def test_truncated_rows(self, diagram, tmp_path):
        p = tmp_path / "d.csv"
        persist(diagram, p)
        lines = p.read_text().splitlines()
        p.write_text("\n".join(lines[:-2]) + "\n")
        with pytest.raises(ValueError, match="row count"):
            load(p)

    @pytest.mark.parametrize(
        "result, rows, match",
        [
            ("diagram", ["1.0,2.0"], "malformed row"),
            ("contours", ["0,1.0,2.0"], "malformed row"),
            ("berry", ["1.0,0,0.0,0.0"], "malformed row"),
            ("contours", ["0,1.0,2.0,Bogus"], "unknown contour kind 'Bogus'"),
            ("berry", ["1.0,1,0.0,0.0,", "1.0,0,0.0,0.0,"], "pairs"),  # band 1 first
            ("berry", ["1.0,0,0.0,0.0,", "1.0,1,0.0,0.0,", "2.0,0,0.0,0.0,"], "pairs"),
            ("berry", ["1.0,0,0.0,0.0,", "2.0,1,0.0,0.0,"], "pairs"),  # two gammas
        ],
    )
    def test_rejects_bad_rows(self, diagram, tmp_path, result, rows, match):
        p = persist(self._results(diagram)[result], tmp_path / "r.csv")
        header = p.read_text().splitlines()[0]
        p.write_text("\n".join([header, *rows]) + "\n")
        with pytest.raises(ValueError, match=match):
            load(p)

    @staticmethod
    def _results(diagram):
        return {
            "diagram": diagram,
            "contours": EPContourSet(((ContourPoint(1.0, 0.5, "EP"),),), 1e-6, {}),
            "berry": BerrySweep(np.array([1.0]), np.zeros((1, 2), complex), ((),), {}),
        }

    @pytest.mark.parametrize(
        "result, key",
        [
            ("diagram", "grid"),
            ("diagram", "metadata"),
            ("contours", "tolerance"),
            ("contours", "metadata"),
            ("berry", "metadata"),
            ("diagram", None),  # the sidecar is a JSON list
        ],
    )
    def test_malformed_sidecar_names_it(self, diagram, tmp_path, result, key):
        import json

        p = persist(self._results(diagram)[result], tmp_path / "r.csv")
        meta_path = tmp_path / "r.csv.meta.json"
        doc = json.loads(meta_path.read_text())
        if key is None:
            doc = [doc]
        else:
            del doc[key]
        meta_path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=re.escape(str(meta_path))):
            load(p)

    @pytest.mark.parametrize("edit", ["swap", "rewrite"])
    def test_rejects_rows_off_the_grid(self, diagram, tmp_path, edit):
        p = persist(diagram, tmp_path / "d.csv")
        lines = p.read_text().splitlines()
        if edit == "swap":
            lines[1], lines[2] = lines[2], lines[1]
        else:
            lines[3] = "9.9,7.7," + lines[3].split(",")[2]
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="is not grid cell"):
            load(p)

    def test_unknown_type(self, tmp_path):
        with pytest.raises(TypeError):
            persist({"not": "a result"}, tmp_path / "z.csv")
