import warnings

import numpy as np
import pytest

import floqep.sweep as sweep_mod
from floqep.model import PresetTemplate
from floqep.propagator import (
    EPKind,
    _ordered_product,
    _segment_product,
    indicator_from_trace,
    monodromy,
    quasienergy_from_trace,
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
            got = _cell_max_im(PT3, g, w, "monodromy-piecewise", 20)
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
        [(PT3_SMOOTH, "floquet", {"cutoff": 2}, "cutoff 2 below")],
        ids=["floquet-cutoff"],
    )
    def test_argument_errors_raise_before_the_cells(self, template, engine, kwargs, match):
        # a bad argument fails every cell alike: it must not turn into NaN
        # cells and FailureBudgetExceeded (a numerical failure)
        grid = GridSpec(0.2, 1.0, 3, 0.6, 1.0, 2, engine=engine)
        with pytest.raises(ValueError, match=match):
            phase_diagram(template, grid, **kwargs)

    def test_programming_errors_propagate_from_the_cells(self):
        # a float cutoff passes the argument check and breaks every cell: only
        # numerical failures may become NaN cells and FailureBudgetExceeded
        grid = GridSpec(0.2, 1, 3, 0.6, 1, 2, engine="floquet")
        with pytest.raises(TypeError):
            phase_diagram(PresetTemplate("pt-cosy-cosz", beta=1), grid, cutoff=2.5)


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

    def test_gamma_sign_symmetry(self):
        # diagrams depend on gamma only through |gamma|
        for name in ("pt-cosy-cosz", "apt-cosx-cosy", "apt-cosx-siny"):
            tpl = PresetTemplate(name, beta=2, family="square")
            for g, w in [(0.3, 0.8), (1.1, 1.7)]:
                plus = monodromy(tpl.instantiate(g, w), engine="piecewise").max_im_eps
                minus = monodromy(tpl.instantiate(-g, w), engine="piecewise").max_im_eps
                assert plus == pytest.approx(minus, abs=1e-12)

    @staticmethod
    def _overflow_kernel(monkeypatch, hit):
        """Run the real kernel, with gamma 1e300 (an overflow) where ``hit``."""
        real = sweep_mod._segment_product

        def overflowing(a, b, gammas, taus):
            gammas = np.where(hit(gammas, 2.0 * np.pi / (len(a) * taus)), 1e300, gammas)
            return real(a, b, gammas, taus)

        monkeypatch.setattr(sweep_mod, "_segment_product", overflowing)

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

    def test_per_cell_engine_failures(self, monkeypatch, caplog):
        real = sweep_mod._cell_max_im

        def flaky(template, gamma, omega, engine, cutoff):
            if gamma > 0.9 and omega < 0.5:
                raise RuntimeError("synthetic")
            return real(template, gamma, omega, engine, cutoff)

        monkeypatch.setattr(sweep_mod, "_cell_max_im", flaky)
        grid = GridSpec(0.0, 1.0, 11, 0.4, 2.8, 10, engine="monodromy-integrate")
        with caplog.at_level("WARNING", logger="floqep.sweep"):
            diag = phase_diagram(PT3, grid)
        assert diag.metadata["failed_cells"] == 1
        assert diag.metadata["undecided_cells"] is None
        assert [r.getMessage() for r in caplog.records] == [
            "1 of 110 cells failed; first (omega index, gamma index): (0, 10); "
            "first error: RuntimeError: synthetic"
        ]
        grid = GridSpec(0.0, 1.0, 6, 0.4, 2.8, 6, engine="monodromy-integrate")
        with pytest.raises(FailureBudgetExceeded):
            phase_diagram(PT3, grid)


class TestNoiseFloor:
    def test_order_flips_are_undecided(self):
        # at omega = 1/3 the beta=3 PT half-trace sits on |c| = 1 for most
        # gamma, so its verdict is decided by the rounding alone
        grid = GridSpec(0.0, 5.0, 200, 1.0 / 3.0, 0.5, 2, engine="monodromy-piecewise")
        diag = phase_diagram(PT3, grid)
        gammas, omegas = grid.cells()
        periods = 2.0 * np.pi / omegas
        a, b = sweep_mod._segment_vectors(PT3)
        g00, _, _, g11, bound = _segment_product(a, b, gammas, periods / len(a))
        undecided = sweep_mod._undecided(0.5 * (g00 + g11), bound, periods)
        assert np.count_nonzero(undecided) == diag.metadata["undecided_cells"]

        # the same exponentials: the kernel's product of one segment
        mats = np.stack([
            np.stack(_segment_product(a[l:l + 1], b[l:l + 1], gammas, periods / len(a))[:4], -1)
            for l in range(len(a))
        ]).reshape(len(a), -1, 2, 2)
        flipped = np.zeros(gammas.size, dtype=bool)
        for k, T in enumerate(periods):
            c_tree = 0.5 * np.trace(_ordered_product(mats[:, k]))
            tree_unstable = abs(quasienergy_from_trace(c_tree, T).imag) > INSTABILITY_THRESHOLD
            flipped[k] = tree_unstable != (diag.values.flat[k] > INSTABILITY_THRESHOLD)
        assert np.count_nonzero(flipped) > 10
        assert np.all(undecided[flipped])


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

    def test_rejects_floquet_engine(self):
        grid = GridSpec(0.0, 1.0, 11, 0.6, 1.0, 3, engine="floquet")
        with pytest.raises(ValueError, match="monodromy"):
            trace_ep_contours(PT3_SMOOTH, grid)


class TestBerrySweep:
    def test_deterministic_threads(self):
        tpl = PresetTemplate("apt-cosx-siny", beta=1, family="smooth")
        gammas = np.array([0.3, 0.6, 1.4])
        a = berry_gamma_sweep(tpl, gammas, steps=512, richardson=False, threads=1)
        b = berry_gamma_sweep(tpl, gammas, steps=512, richardson=False, threads=2)
        assert a.thetas.tobytes() == b.thetas.tobytes()
        assert a.metadata["all_certified"]


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
