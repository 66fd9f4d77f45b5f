import warnings
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import floqep.propagator as propagator_mod
import floqep.sweep as sweep_mod
from floqep.berry import berry_phase_loop
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
    _cell_max_im,
    berry_gamma_sweep,
    instability_window,
    load,
    persist,
    phase_diagram,
    trace_ep_contours,
)

PT3 = PresetTemplate("pt-cosy-cosz", beta=3, family="square")
PT3_SMOOTH = PresetTemplate("pt-cosy-cosz", beta=3, family="smooth")


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
        # the sweep fast path and the full monodromy must agree exactly
        rng = np.random.default_rng(17)
        for _ in range(10):
            g, w = rng.uniform(0.1, 2), rng.uniform(0.4, 3)
            got = _cell_max_im(PT3, g, w, "monodromy-piecewise")
            want = monodromy(PT3.instantiate(g, w), engine="piecewise").max_im_eps
            assert got == want

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

        monkeypatch.setattr(sweep_mod, "column_max_im", broken)
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
    def _overflow_kernel(monkeypatch, hit):
        """Run the real kernel, with gamma 1e300 (an overflow) where ``hit``."""
        real = propagator_mod._segment_product
        # the half-period route passes half the segments, each still period / n_seg long
        n_seg = len(sweep_mod._segment_vectors(PT3)[0])

        def overflowing(a, b, gammas, taus):
            gammas = np.where(hit(gammas, 2.0 * np.pi / (n_seg * taus)), 1e300, gammas)
            return real(a, b, gammas, taus)

        monkeypatch.setattr(propagator_mod, "_segment_product", overflowing)

    def test_failure_budget(self, monkeypatch):
        # ~14% of the cells overflow
        self._overflow_kernel(monkeypatch, lambda g, w: np.arange(g.size) % 7 == 6)
        grid = GridSpec(0.0, 1.0, 6, 0.4, 2.8, 6, engine="monodromy-piecewise")
        with pytest.raises(FailureBudgetExceeded):
            phase_diagram(PT3, grid)

    def test_isolated_failures_become_nan(self, monkeypatch, caplog):
        self._overflow_kernel(
            monkeypatch, lambda g, w: (np.abs(g - 1.0) < 1e-12) & (np.abs(w - 0.4) < 1e-12)
        )
        grid = GridSpec(0.0, 1.0, 21, 0.4, 2.8, 13, engine="monodromy-piecewise")
        with caplog.at_level("WARNING", logger="floqep.sweep"), np.errstate(all="raise"):
            diag = phase_diagram(PT3, grid)
        assert np.isnan(diag.values[0, -1])
        assert np.sum(~np.isfinite(diag.values)) == 1
        assert diag.metadata["failed_cells"] == 1
        assert [r.getMessage() for r in caplog.records] == [
            "1 of 273 cells failed; first (omega index, gamma index): (0, 20)"
        ]

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
        assert diag.metadata["undecided_cells"] is None
        assert [r.getMessage() for r in caplog.records] == [
            "1 of 110 cells failed; first (omega index, gamma index): (0, 10)"
        ]
        grid = GridSpec(0.0, 1.0, 6, 0.4, 2.8, 6, engine="monodromy-integrate")
        with pytest.raises(FailureBudgetExceeded):
            phase_diagram(PT3, grid)

    @pytest.mark.parametrize("engine", ["monodromy-piecewise", "monodromy-integrate"])
    def test_contour_scan_raises_on_non_finite_cells(self, engine):
        grid = GridSpec(0.0, 1e300, 3, 0.5, 1.0, 2, engine=engine)
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            with pytest.raises(propagator_mod.NumericalError, match="non-finite propagator at"):
                trace_ep_contours(PT3, grid)


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
        full, _ = piecewise_traces(a, b, gammas, T, None)
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
        (_, _, traces, _), = sweep_mod._block_propagators(tpl, gammas, omegas, grid.engine)
        kinds = sweep_mod._classify_root(tpl, gammas, omegas, grid.engine)
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
        tpl = PresetTemplate(name, beta=beta, family="square")
        assert sweep_mod._segment_parity(tpl) is None
        grid = GridSpec(0.0, 5.0, 40, 0.2, 3.0, 30, engine="monodromy-piecewise")
        gammas, omegas = grid.cells()
        a, b = sweep_mod._segment_vectors(tpl)
        T = 2.0 * np.pi / omegas
        g00, _, _, g11, _ = propagator_mod._segment_product(a, b, gammas, T / len(a))
        want = np.abs(propagator_mod.quasienergy_from_trace(0.5 * (g00 + g11), T).imag)
        assert phase_diagram(tpl, grid).values.ravel().tobytes() == want.tobytes()

    def test_a_verdict_on_the_threshold_is_undecided(self):
        # gamma bisected to adjacent doubles across a stability edge: the two
        # verdicts differ by the rounding alone, so both count as undecided
        gammas = np.linspace(0.0, 3.0, 61)
        omegas = np.full(gammas.size, 0.9)
        (_, _, traces, _), = sweep_mod._block_propagators(PT3, gammas, omegas, "monodromy-piecewise")
        unstable = np.abs(traces.eps_F.imag) > INSTABILITY_THRESHOLD
        edges = np.flatnonzero(unstable[:-1] != unstable[1:])
        assert edges.size
        for i in edges:
            lo, hi = gammas[i], gammas[i + 1]
            while np.nextafter(lo, hi) != hi:
                mid = 0.5 * (lo + hi)
                (_, _, tr, _), = sweep_mod._block_propagators(PT3, np.array([mid]), omegas[:1], "monodromy-piecewise")
                if (abs(tr.eps_F[0].imag) > INSTABILITY_THRESHOLD) == unstable[i]:
                    lo = mid
                else:
                    hi = mid
            (_, T, tr, bound), = sweep_mod._block_propagators(
                PT3, np.array([lo, hi]), omegas[:2], "monodromy-piecewise"
            )
            assert (np.abs(tr.eps_F.imag) > INSTABILITY_THRESHOLD).tolist() == [unstable[i], not unstable[i]]
            assert sweep_mod._undecided(tr, bound, T).all()


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

        def step(template, gammas, omegas, engine):
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
        # the grid, then one call per halving: about 53 bits from width 0.1
        # down to adjacent doubles, well short of MAX_BISECTIONS passes
        assert calls[0] == 22 and set(calls[1:]) == {2}
        assert len(calls) < 60 < sweep_mod.MAX_BISECTIONS

    def test_rejects_floquet_engine(self):
        grid = GridSpec(0.0, 1.0, 11, 0.6, 1.0, 3, engine="floquet")
        with pytest.raises(ValueError, match="monodromy"):
            trace_ep_contours(PT3_SMOOTH, grid)


class TestBerrySweep:
    def test_deterministic_threads(self):
        # these smooth loops all take the spectral route
        self._check_deterministic_threads("smooth", "spectral")

    def test_deterministic_threads_wilson_route(self):
        # square loops fall back to the Wilson loop, which at 8192 steps with
        # Richardson (the CLI default) reuses one loop workspace per worker
        # across its gammas
        self._check_deterministic_threads("square", "wilson")

    @staticmethod
    def _check_deterministic_threads(family, route):
        tpl = PresetTemplate("apt-cosx-siny", beta=1, family=family)
        gammas = np.array([0.3, 0.6, 1.4])
        for steps, richardson in ((512, False), (8192, True)):
            a = berry_gamma_sweep(tpl, gammas, steps=steps, richardson=richardson, threads=1)
            b = berry_gamma_sweep(tpl, gammas, steps=steps, richardson=richardson, threads=2)
            assert a.thetas.tobytes() == b.thetas.tobytes()
            assert a.flags == b.flags
            assert a.metadata["max_step_delta"] == b.metadata["max_step_delta"]
            assert a.metadata["loops"] == b.metadata["loops"]
            assert {loop["route"] for loop in a.metadata["loops"]} == {route}
            assert a.metadata["all_certified"] and b.metadata["all_certified"]

    def test_mixed_routes_match_across_threads(self):
        # the spectral pass runs in-process and the two Wilson fallbacks
        # over a pool: the sweep is the same bits at 1 and 2 threads
        tpl = PresetTemplate("pt-cosy-sinz", beta=1, family="smooth")
        a, b = (berry_gamma_sweep(tpl, [0.5, 1.0, 1.5], steps=256, threads=n) for n in (1, 2))
        assert [loop["route"] for loop in a.metadata["loops"]] == ["spectral", "wilson", "wilson"]
        assert a.thetas.tobytes() == b.thetas.tobytes() and a.flags == b.flags
        assert a.metadata["loops"] == b.metadata["loops"]

    def test_wilson_fallback_is_the_wilson_loop(self):
        # square loops and loops across exceptional points keep the Wilson
        # loop's theta, flags and certificate bit for bit
        cases = [(PresetTemplate("pt-cosy-sinz", beta=1, family="square"), [0.5, 1.5])]
        cases += [
            (PresetTemplate(name, beta=beta, family="smooth"), [gamma])
            for name, beta, gamma in (
                ("pt-cosy-cosz", 3, 1.5), ("pt-cosy-cosz", 3, 2.5), ("apt-cosx-cosy", 2, 0.9),
                ("apt-cosx-cosy", 2, 1.5), ("pt-cosy-sinz", 1, 1.5),
            )
        ]
        for tpl, gammas in cases:
            sw = berry_gamma_sweep(tpl, gammas, steps=1024)
            for g, theta, flags, loop in zip(gammas, sw.thetas, sw.flags, sw.metadata["loops"]):
                want = berry_phase_loop(tpl.instantiate(g, 1.0), 1024, True, on_ep="flag")
                assert theta.tobytes() == want.theta.tobytes() and flags == want.degeneracy_flags
                assert loop == {"route": "wilson", "points": 2048, "delta": want.step_delta}
                assert (g in sw.metadata["uncertified_gammas"]) == (not want.certified)
                assert tpl.family == "square" or not want.certified

    def test_loop_records(self):
        # gamma 0.5 goes spectral; gamma 1.0 touches defective points and
        # 1.5 crosses exceptional points, so both fall back, uncertified
        tpl = PresetTemplate("pt-cosy-sinz", beta=1, family="smooth")
        sw = berry_gamma_sweep(tpl, [0.5, 1.0, 1.5], steps=256, richardson=False)
        loops = sw.metadata["loops"]
        assert [loop["route"] for loop in loops] == ["spectral", "wilson", "wilson"]
        assert [loop["points"] for loop in loops] == [128, 256, 256]
        assert [loop["delta"] for loop in loops[1:]] == [None, None]
        assert sw.metadata["max_step_delta"] == loops[0]["delta"] <= 1e-12
        assert sw.metadata["uncertified_gammas"] == [1.0, 1.5]

    def test_zero_bloch_vector_reads_nan(self, tmp_path):
        # J = 0 and gamma = 0: H = 0 on the whole loop, which has no
        # eigenframes; the sweep keeps its other gammas
        tpl = PresetTemplate("apt-cosx-siny", J=0.0, beta=1, family="smooth")
        sw = berry_gamma_sweep(tpl, [0.0, 0.5], steps=256)
        alone = berry_gamma_sweep(tpl, [0.5], steps=256)
        assert np.isnan(sw.thetas[0].view(float)).all()
        assert sw.flags == ((), alone.flags[0])
        assert sw.thetas[1].tobytes() == alone.thetas[0].tobytes()
        assert sw.metadata["uncertified_gammas"] == [0.0]
        assert not sw.metadata["all_certified"] and alone.metadata["all_certified"]
        assert sw.metadata["max_step_delta"] == alone.metadata["max_step_delta"]
        assert sw.metadata["loops"][0] == {"route": "wilson", "points": 512, "delta": None}
        persist(sw, tmp_path / "b.csv")
        loaded = load(tmp_path / "b.csv")
        assert np.isnan(loaded.thetas[0].view(float)).all()
        assert np.max(np.abs(loaded.thetas[1] - sw.thetas[1])) < 1e-12
        svg = ET.fromstring(berry_svg(loaded))
        assert "nan" not in ET.tostring(svg).decode()
        assert len(svg.findall(".//{*}polyline")) == 4


    # every loop of this sweep takes the spectral route, which uses neither setting
    ALL_SPECTRAL = (PresetTemplate("apt-cosx-siny", beta=1), np.linspace(0.05, 2.95, 8))

    @pytest.mark.parametrize("steps", [300.5, 10, True, 512.0])
    def test_steps_checked_before_any_loop(self, steps):
        with pytest.raises(ValueError, match="steps must be an integer"):
            berry_gamma_sweep(*self.ALL_SPECTRAL, steps=steps)

    @pytest.mark.parametrize("richardson", ["yes", 0, 1, None])
    def test_richardson_checked_before_any_loop(self, richardson):
        with pytest.raises(ValueError, match="richardson must be a bool"):
            berry_gamma_sweep(*self.ALL_SPECTRAL, richardson=richardson)

    @pytest.mark.parametrize("family", ["smooth", "square"])
    @pytest.mark.parametrize("big", [1e160, 1e200])
    def test_overflowing_loop_reads_nan(self, family, big):
        # d.d overflows at the large gamma: the spectral route declines it and
        # the Wilson loop finds it defective, with no warning; the sweep keeps
        # its other gamma
        tpl = PresetTemplate("apt-cosx-siny", beta=1, family=family)
        sw = berry_gamma_sweep(tpl, [0.5, big], steps=256)
        alone = berry_gamma_sweep(tpl, [0.5], steps=256)
        assert sw.thetas[0].tobytes() == alone.thetas[0].tobytes()
        assert np.isnan(sw.thetas[1].view(float)).all() and sw.flags[1] == ()
        assert sw.metadata["uncertified_gammas"] == [big]
        assert sw.metadata["loops"][1] == {"route": "wilson", "points": 512, "delta": None}


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

        def map(self, fn, tasks, chunksize=1):
            return [fn(t) for t in tasks]

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

    def test_no_more_processes_than_gammas(self, pools):
        # square loops all take the Wilson route: one task per gamma
        tpl = PresetTemplate("apt-cosx-siny", beta=1, family="square")
        wide = berry_gamma_sweep(tpl, [0.3, 0.6], steps=256, threads=64)
        assert pools == [2]
        one = berry_gamma_sweep(tpl, [0.3, 0.6], steps=256, threads=1)
        assert wide.thetas.tobytes() == one.thetas.tobytes() and wide.flags == one.flags

    def test_spectral_loops_start_no_pool(self, pools):
        tpl = PresetTemplate("apt-cosx-siny", beta=1, family="smooth")
        sw = berry_gamma_sweep(tpl, np.linspace(0.05, 2.95, 40), steps=256, threads=64)
        assert {loop["route"] for loop in sw.metadata["loops"]} == {"spectral"}
        assert pools == []

    def test_only_wilson_fallbacks_are_tasks(self, pools):
        # gamma 0.5 is spectral; 1.0 and 1.5 fall back to the Wilson loop
        tpl = PresetTemplate("pt-cosy-sinz", beta=1, family="smooth")
        berry_gamma_sweep(tpl, [0.5, 1.0, 1.5], steps=256, threads=64)
        assert pools == [2]

    def test_one_task_runs_in_process(self, pools):
        tpl = PresetTemplate("apt-cosx-siny", beta=1, family="square")
        berry_gamma_sweep(tpl, [0.3], steps=256, threads=64)
        assert pools == []


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

    @pytest.mark.parametrize("run", ["counts", "cutoff", "steps"])
    def test_numpy_integer_settings_roundtrip(self, tmp_path, run):
        # numpy integers pass every check and are written as plain integers
        if run == "counts":
            result = phase_diagram(PT3, GridSpec(0.0, 1.0, np.int64(3), 0.5, 1.0, 3))
        elif run == "cutoff":
            grid = GridSpec(0.0, 1.0, 3, 0.5, 1.0, 2, engine="floquet")
            result = phase_diagram(PT3_SMOOTH, grid, cutoff=np.int64(8))
        else:
            tpl = PresetTemplate("apt-cosx-siny", beta=1, family="square")
            result = berry_gamma_sweep(tpl, [0.5], steps=np.int64(256))
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
        p2 = tmp_path / "c2.csv"
        persist(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_berry_roundtrip(self, tmp_path):
        tpl = PresetTemplate("apt-cosx-siny", beta=1, family="smooth")
        sw = berry_gamma_sweep(tpl, np.array([0.3, 1.5]), steps=512, richardson=False)
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
        results = {
            "diagram": diagram,
            "contours": EPContourSet(((ContourPoint(1.0, 0.5, "EP"),),), 1e-6, {}),
            "berry": BerrySweep(np.array([1.0]), np.zeros((1, 2), complex), ((),), {}),
        }
        p = persist(results[result], tmp_path / "r.csv")
        header = p.read_text().splitlines()[0]
        p.write_text("\n".join([header, *rows]) + "\n")
        with pytest.raises(ValueError, match=match):
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
