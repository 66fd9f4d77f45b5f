import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

import floqep.propagator as propagator_mod
import floqep.sweep as sweep_mod
from floqep.model import (
    PRESET_NAMES,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    Axis,
    DriveTerm,
    Hermiticity,
    ModelSpec,
    PresetTemplate,
    Waveform,
    bloch_vector_at,
    half_period_parity,
    matrix_from_bloch_vector,
    preset,
    time_reflection,
)
from floqep.propagator import (
    DEFAULT_STEPS_PER_PERIOD,
    EPKind,
    MonodromyResult,
    NumericalError,
    _integrate_monodromy,
    _segment_product,
    ep_indicator,
    expm_two_level,
    indicator_from_trace,
    Traces,
    monodromy,
    piecewise_traces,
    quasienergy_from_trace,
    segment_hamiltonians,
)


def expm_series_oracle(A, terms=30):
    """Scaling-and-squaring Taylor series, independent of the closed form."""
    norm = float(np.max(np.sum(np.abs(A), axis=1)))
    k = max(0, int(np.ceil(np.log2(norm))) + 1) if norm > 0 else 0
    B = A / (2 ** k)
    out = np.eye(2, dtype=complex)
    term = np.eye(2, dtype=complex)
    for n in range(1, terms + 1):
        term = term @ B / n
        out = out + term
    for _ in range(k):
        out = out @ out
    return out


def det_extended(G):
    gl = G.astype(np.clongdouble)
    return complex(gl[0, 0] * gl[1, 1] - gl[0, 1] * gl[1, 0])


class TestExpm:
    def test_zero_hamiltonian(self):
        assert np.array_equal(expm_two_level(np.zeros((2, 2)), 1.0), np.eye(2))

    def test_quarter_rotation(self):
        out = expm_two_level(SIGMA_X, np.pi / 2)
        assert np.allclose(out, -1j * SIGMA_X, atol=1e-15)

    def test_nilpotent_drive(self):
        # d.d = 0: the exponential truncates after the linear term
        gamma, tau = 0.7, 1.3
        H = gamma * (SIGMA_Y - 1j * SIGMA_Z)
        out = expm_two_level(H, tau)
        assert np.allclose(out, np.eye(2) - 1j * tau * H, atol=1e-15)

    def test_series_oracle_random(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            d = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            tau = rng.uniform(0.0, 2.0)
            H = matrix_from_bloch_vector(d)
            got = expm_two_level(H, tau)
            want = expm_series_oracle(-1j * tau * H)
            assert np.max(np.abs(got - want)) < 1e-12

    def test_small_phase_branch_continuous(self):
        # both sides of the Taylor/closed-form switch at |mu*tau| = 1e-4
        # must match the series oracle
        H = matrix_from_bloch_vector([1.0, 0.0, 0.0])
        for tau in (0.97e-4, 1.03e-4):
            got = expm_two_level(H, tau)
            want = expm_series_oracle(-1j * tau * H)
            assert np.max(np.abs(got - want)) < 1e-14

    def test_composition_property(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            d = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            H = matrix_from_bloch_vector(d)
            a, b = rng.uniform(0, 1.0, size=2)
            whole = expm_two_level(H, a + b)
            split = expm_two_level(H, a) @ expm_two_level(H, b)
            assert np.max(np.abs(whole - split)) < 1e-12

    def test_with_trace_part(self):
        H = 0.3 * np.eye(2) + SIGMA_Z
        got = expm_two_level(H, 0.9)
        want = expm_series_oracle(-0.9j * H)
        assert np.max(np.abs(got - want)) < 1e-13

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            expm_two_level(np.array([[np.inf, 0], [0, 0]]), 1.0)


class TestSegments:
    def test_counts_and_durations(self):
        for beta in (1, 2, 3, 5):
            m = preset("pt-cosy-cosz", beta=beta, omega=0.8, family="square")
            ds = segment_hamiltonians(m)
            assert len(ds) == 4 * beta

    def test_pt_sign_vectors_beta1(self):
        m = preset("pt-cosy-cosz", gamma=0.5, beta=1, family="square")
        ds = segment_hamiltonians(m)
        v_y = (ds[:, 1].real / 0.5).astype(int)
        v_z = (-ds[:, 2].imag / 0.5).astype(int)
        assert v_y.tolist() == [1, -1, -1, 1]
        assert v_z.tolist() == [1, -1, -1, 1]

    def test_pt_sign_vectors_beta2(self):
        m = preset("pt-cosy-cosz", gamma=0.5, beta=2, family="square")
        ds = segment_hamiltonians(m)
        v_y = (ds[:, 1].real / 0.5).astype(int)
        v_z = (-ds[:, 2].imag / 0.5).astype(int)
        assert v_y.tolist() == [1, 1, -1, -1, -1, -1, 1, 1]
        assert v_z.tolist() == [1, -1, -1, 1, 1, -1, -1, 1]

    def test_apt_cs_sign_vectors_beta1(self):
        m = preset("apt-cosx-siny", gamma=0.5, beta=1, family="square")
        ds = segment_hamiltonians(m)
        v_x = (ds[:, 0].imag / 0.5).astype(int)
        v_y = (ds[:, 1].imag / 0.5).astype(int)
        assert v_x.tolist() == [1, -1, -1, 1]
        assert v_y.tolist() == [1, 1, -1, -1]

    def test_rejects_smooth(self):
        m = preset("pt-cosy-cosz", family="smooth")
        with pytest.raises(ValueError, match="square-family"):
            segment_hamiltonians(m)

    # custom square models whose distinct segment rows fall in two sign
    # groups (X terms at harmonics 1 and 2), so no row shares another's
    # cos/sinc factors; the values were frozen when each group shared its first row's
    MIXED = (
        ModelSpec((DriveTerm(Axis.X, 1.0, Waveform.SQUARE_COS, 1),
                   DriveTerm(Axis.X, 0.5, Waveform.SQUARE_COS, 2),
                   DriveTerm(Axis.Z, 0.3, Waveform.CONSTANT, 1, Hermiticity.ANTI_HERMITIAN)), 0.7),
        ModelSpec((DriveTerm(Axis.X, 1.0, Waveform.SQUARE_COS, 1, Hermiticity.ANTI_HERMITIAN),
                   DriveTerm(Axis.X, 0.25, Waveform.SQUARE_SIN, 2),
                   DriveTerm(Axis.Y, 0.6, Waveform.SQUARE_COS, 1)), 1.3),
    )

    @pytest.mark.parametrize("k, want, defect", [
        (0, [(0.7217165598312942, 0.0), (0.0, -0.04939667351678084), (0.0, -0.04939667351678087),
             (1.3822046273659874, 0.0), (1.0519605935986407, 0.0), (-0.0, 0.03576081159107222)],
         0.4722312001413116),
        (1, [(0.9999999999999992, 2.7755575615628914e-17), (2.220446049250313e-16, -2.7755575615628914e-17),
             (8.881784197001252e-16, 1.1102230246251565e-16), (0.9999999999999996, 1.3877787807814457e-16),
             (0.9999999999999993, 8.326672684688674e-17), (-7.566630486605802e-09, 4.710813763032362e-10)],
         9.586729210015212e-16),
    ])
    def test_mixed_sign_groups_keep_the_monodromy_bits(self, k, want, defect):
        # want: the entries of G (row-major), the half-trace and eps_F, as (re, im)
        ds = segment_hamiltonians(self.MIXED[k])
        assert not propagator_mod._segment_plan(np.concatenate([ds, 0 * ds], axis=1).tobytes())[2]
        r = monodromy(self.MIXED[k], "piecewise")
        got = np.array([*r.G.ravel(), r.half_trace, r.eps_F])
        assert got.view(float).tobytes() == np.array(want).tobytes()
        assert np.float64(r.defectiveness).tobytes() == np.float64(defect).tobytes()

    def test_mixed_sign_groups_keep_the_segment_product(self):
        # the segment product of a (model 0) + gamma b at three cells: equal
        # to the frozen values under ==, which leaves the sign of a zero free
        slope = ModelSpec((DriveTerm(Axis.X, 0.4, Waveform.SQUARE_COS, 1),
                           DriveTerm(Axis.X, 0.2, Waveform.SQUARE_COS, 2),
                           DriveTerm(Axis.Z, 0.1, Waveform.SQUARE_SIN, 1, Hermiticity.ANTI_HERMITIAN)), 0.7)
        a, b = segment_hamiltonians(self.MIXED[0]), segment_hamiltonians(slope)
        *entries, bound = _segment_product(a, b, np.array([0.0, 0.5, 1.7]), np.array([0.3, 0.2, 0.9]))
        want = [
            [1.7575438791838247, 1.5057407322715752, 1.372828019055064],
            [-0.12581297295741015j, -0.08409056617876925j, 0.10813139507228903j],
            [-0.12581297295741012j, -0.014050076438642034j, 0.016045037610562307j],
            [0.5599695731594769, 0.6633403080028207, 0.7271595668525928],
        ]
        assert np.array_equal(entries, want)
        assert bound.tolist() == [1.2097227043216125e-13, 1.1701156865915651e-13, 1.600991469283467e-13]


class TestMonodromy:
    def test_static_limit(self):
        # gamma=0: G = exp(-i H_static T), half trace cos(2 pi J / omega)
        omega = 0.9
        m = preset("pt-cosy-cosz", J=1.0, gamma=0.0, omega=omega, beta=3, family="square")
        r = monodromy(m, engine="piecewise")
        assert r.half_trace == pytest.approx(np.cos(2 * np.pi / omega), abs=1e-12)
        assert r.max_im_eps < 1e-12

    def test_piecewise_vs_integrate(self):
        rng = np.random.default_rng(21)
        tpl = PresetTemplate("pt-cosy-cosz", beta=3, family="square")
        for _ in range(5):
            m = tpl.instantiate(rng.uniform(0, 2), rng.uniform(0.5, 3))
            r_pw = monodromy(m, engine="piecewise")
            r_it = monodromy(m, engine="integrate")
            assert np.max(np.abs(r_pw.G - r_it.G)) < 1e-7

    def test_unimodularity_random_sample(self):
        # determinant drift scales as ||G||^2 * eps, so the 1e-9 contract is
        # checked where doubles can represent it (|c| <= 1e3); deep in the
        # broken phase the entries overflow what the check can resolve
        rng = np.random.default_rng(22)
        for name in ("pt-cosy-cosz", "apt-cosx-cosy", "apt-cosx-siny"):
            tpl = PresetTemplate(name, beta=2, family="square")
            n_done = 0
            while n_done < 20:
                m = tpl.instantiate(rng.uniform(0, 2), rng.uniform(0.4, 3))
                r = monodromy(m, engine="piecewise")
                if abs(r.half_trace) > 1e3:
                    continue
                assert abs(det_extended(r.G) - 1.0) < 1e-9
                n_done += 1

    def test_eigenvalue_pairing(self):
        # unimodular + antilinear symmetry: {lambda} = {conj lambda}, product 1
        rng = np.random.default_rng(23)
        tpl = PresetTemplate("apt-cosx-cosy", beta=3, family="square")
        for _ in range(20):
            m = tpl.instantiate(rng.uniform(0, 1.5), rng.uniform(0.4, 3))
            lams = np.linalg.eigvals(monodromy(m, engine="piecewise").G)
            scale = max(1.0, float(np.abs(lams).max() ** 2))
            assert abs(lams[0] * lams[1] - 1.0) < 1e-8 * scale
            remaining = list(np.conj(lams))
            for z in lams:
                idx = int(np.argmin(np.abs(np.array(remaining) - z)))
                assert abs(remaining.pop(idx) - z) < 1e-8 * np.sqrt(scale)

    def test_trace_invariants(self):
        m = preset("pt-cosy-cosz", gamma=0.5, omega=0.8, beta=3, family="square")
        r = monodromy(m, engine="piecewise")
        assert abs(np.cos(r.eps_F * m.period) - r.half_trace) < 1e-10
        assert r.max_im_eps == abs(r.eps_F.imag)

    def test_integrate_square_splits_segments(self):
        # modest step count still exact for square models: the integrator
        # aligns steps with the segment boundaries
        m = preset("pt-cosy-cosz", gamma=0.7, omega=0.8, beta=2, family="square")
        r_few = monodromy(m, engine="integrate", steps_per_period=4000)
        r_ref = monodromy(m, engine="piecewise")
        assert np.max(np.abs(r_few.G - r_ref.G)) < 1e-9

    def test_unknown_engine(self):
        m = preset("pt-cosy-cosz", family="square")
        with pytest.raises(ValueError, match="unknown engine"):
            monodromy(m, engine="magnus")

    @pytest.mark.parametrize("family", ["smooth", "square"])
    @pytest.mark.parametrize("steps", [4000.7, 4000.0, True])
    def test_steps_must_be_an_integer(self, family, steps):
        # smooth models truncated 4000.7 to 4000; square ones took its ceiling per segment
        m = preset("pt-cosy-cosz", gamma=0.7, omega=0.8, beta=2, family=family)
        with pytest.raises(ValueError, match="integer"):
            monodromy(m, engine="integrate", steps_per_period=steps)

    @pytest.mark.parametrize("family", ["smooth", "square"])
    def test_numpy_integer_steps(self, family):
        m = preset("pt-cosy-cosz", gamma=0.7, omega=0.8, beta=2, family=family)
        want = monodromy(m, engine="integrate", steps_per_period=4001).G
        got = monodromy(m, engine="integrate", steps_per_period=np.int64(4001)).G
        assert got.tobytes() == want.tobytes()


# The RK4 oracle before it ran both families through one batch-last
# pipeline, copied verbatim (names prefixed) as the reference it must keep.
def _reference_ordered_product(mats: np.ndarray) -> np.ndarray:
    """Product ``mats[-1] @ ... @ mats[0]`` by deterministic pairwise tree."""
    while mats.shape[0] > 1:
        n = mats.shape[0]
        even = n - (n % 2)
        paired = np.matmul(mats[1:even:2], mats[0:even:2])
        if n % 2:
            mats = np.concatenate([paired, mats[-1:]], axis=0)
        else:
            mats = paired
    return mats[0]


def _reference_rk4_transfer(a_start, a_mid, a_end, h):
    """Per-step RK4 transfer matrices for ``G' = A(t) G`` (batched)."""
    eye = np.eye(2, dtype=complex)
    k1 = a_start
    k2 = a_mid + (0.5 * h) * np.matmul(a_mid, k1)
    k3 = a_mid + (0.5 * h) * np.matmul(a_mid, k2)
    k4 = a_end + h * np.matmul(a_end, k3)
    return eye + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _reference_integrate_monodromy(model: ModelSpec, steps_per_period: int) -> np.ndarray:
    """Fixed-step RK4 solution of ``G' = -i H(t) G`` over one period.

    Square-family models are integrated segment by segment so the jump
    discontinuities always coincide with step boundaries; the constant
    per-segment step matrix is raised to the step count by binary
    powering.  The composition order is a fixed pairwise tree, making the
    result bitwise reproducible.
    """
    if steps_per_period < 4:
        raise ValueError("steps_per_period must be >= 4")
    T = model.period
    if model.is_square_family:
        ds = segment_hamiltonians(model)
        m = int(math.ceil(steps_per_period / len(ds)))
        h = T / len(ds) / m
        g = np.eye(2, dtype=complex)
        for d in ds:
            a = -1.0j * matrix_from_bloch_vector(d)
            step = _reference_rk4_transfer(a, a, a, h)
            g = np.linalg.matrix_power(step, m) @ g
        return g
    n = int(steps_per_period)
    h = T / n

    def a_at(t):
        return -1.0j * matrix_from_bloch_vector(bloch_vector_at(model, t))

    a_edges = a_at(np.arange(n + 1) * h)
    steps = _reference_rk4_transfer(a_edges[:-1], a_at((np.arange(n) + 0.5) * h), a_edges[1:], h)
    return _reference_ordered_product(steps)


def _oracle_gap(model, steps):
    """``|G - G_ref| / max(1, ||G_ref||)`` of the oracle against the reference."""
    got, want = _integrate_monodromy(model, steps), _reference_integrate_monodromy(model, steps)
    return float(np.max(np.abs(got - want))) / max(1.0, float(np.linalg.norm(want)))


def _seeded_cells(name, beta, family, count=3):
    rng = np.random.default_rng([beta, PRESET_NAMES.index(name)])
    tpl = PresetTemplate(name, beta=beta, family=family)
    return [tpl.instantiate(float(rng.uniform(0.0, 2.0)), float(rng.uniform(0.3, 3.0))) for _ in range(count)]


class TestOracleReference:
    # 4001 is odd, so the smooth tree carries a step, and no square
    # segment count (4 * beta) divides it; a smooth cell at the default
    # steps costs ~0.5 s here, so those run on one cell per preset
    @pytest.mark.parametrize("family", ["smooth", "square"])
    @pytest.mark.parametrize("beta", [1, 2, 3])
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_matches_the_reference(self, name, beta, family):
        steps = [4001] + ([DEFAULT_STEPS_PER_PERIOD] if family == "square" else [])
        gap = max(_oracle_gap(m, n) for m in _seeded_cells(name, beta, family) for n in steps)
        print(f"{name} beta={beta} {family} steps {steps}: max |dG|/max(1, ||G||) = {gap:.2e}")
        assert gap <= 1e-10

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_smooth_matches_the_reference_at_the_default_steps(self, name):
        beta = 1 + PRESET_NAMES.index(name) % 3
        gap = _oracle_gap(_seeded_cells(name, beta, "smooth", 1)[0], DEFAULT_STEPS_PER_PERIOD)
        print(f"{name} beta={beta} smooth steps {DEFAULT_STEPS_PER_PERIOD}: {gap:.2e}")
        assert gap <= 1e-10

    @pytest.mark.parametrize("family", ["smooth", "square"])
    def test_bitwise_reproducible(self, family):
        model = preset("pt-cosy-cosz", gamma=0.9, omega=1.1, beta=3, family=family)
        first = _integrate_monodromy(model, 4001)
        assert first.tobytes() == _integrate_monodromy(model, 4001).tobytes()


def _grid_cells(n=40):
    gammas, omegas = np.meshgrid(np.linspace(0.0, 5.0, n), np.linspace(0.2, 3.0, n))
    return gammas.ravel(), 2.0 * np.pi / omegas.ravel()


# the signs P d P gives the components of a Bloch vector d, per parity axis P
_PARITY_SIGNS = {Axis.Z: np.array([-1.0, -1.0, 1.0]), Axis.X: np.array([1.0, -1.0, -1.0])}


def _reference_parity(model):
    """The half-period parity read off each term's segment vectors at unit
    amplitude, as ``d[l + n/2] = P d[l] P`` compared exactly (Z first)."""
    units = [segment_hamiltonians(ModelSpec((replace(t, amplitude=1.0),), 1.0)) for t in model.terms]
    for axis, signs in _PARITY_SIGNS.items():
        if all(np.array_equal(d[len(d) // 2:], d[:len(d) // 2] * signs) for d in units):
            return axis
    return None


class TestHalfPeriod:
    @pytest.mark.parametrize("name", PRESET_NAMES)
    @pytest.mark.parametrize("beta", [1, 2, 3, 4])
    def test_parity_axis(self, name, beta):
        tpl = PresetTemplate(name, beta=beta, family="square")
        want = None if beta % 2 == 0 else {"pt": Axis.X, "apt": Axis.Z}[name.split("-")[0]]
        # the same at every gamma, 0 included, where the static term alone would have one
        for gamma in (0.0, 1.3):
            assert half_period_parity(tpl.instantiate(gamma, 0.7)) is want
        # the segment vectors have it
        a, b = sweep_mod._segment_vectors(tpl)
        h = len(a) // 2
        for axis, sign in _PARITY_SIGNS.items():
            assert (np.array_equal(a[h:], a[:h] * sign) and np.array_equal(b[h:], b[:h] * sign)) == (want is axis)

    def test_rule_matches_the_segment_vectors(self):
        # random square models against the exact comparison of their segment vectors
        rng = np.random.default_rng(20)
        waveforms = (Waveform.CONSTANT, Waveform.SQUARE_COS, Waveform.SQUARE_SIN)
        found = {Axis.X: 0, Axis.Z: 0, None: 0}
        for _ in range(1500):
            terms = tuple(
                DriveTerm(Axis(rng.integers(3)), float(rng.choice([0.0, 1.0, -0.7, 2.5])),
                          waveforms[rng.integers(3)], int(rng.integers(1, 7)),
                          (Hermiticity.HERMITIAN, Hermiticity.ANTI_HERMITIAN)[rng.integers(2)])
                for _ in range(rng.integers(5))
            )
            model = ModelSpec(terms, 1.0)
            parity = half_period_parity(model)
            assert parity is _reference_parity(model), terms
            found[parity] += 1
        assert min(found.values()) > 100  # every outcome is exercised

    @pytest.mark.parametrize("name", PRESET_NAMES)
    @pytest.mark.parametrize("beta", [1, 3])
    def test_identity_against_the_full_period(self, name, beta):
        # c = 1 + t^2/2 and ||G - cI|| = |t| ||M - t/2 I|| against the full product
        a, b = sweep_mod._segment_vectors(PresetTemplate(name, beta=beta, family="square"))
        gammas, T = _grid_cells()
        parity = half_period_parity(PresetTemplate(name, beta=beta, family="square").instantiate(1.0, 1.0))
        half = piecewise_traces(a, b, gammas, T, parity, None)
        full = piecewise_traces(a, b, gammas, T, None, None)
        scale = np.maximum(np.abs(full.half_trace), 1.0)
        assert np.all(np.abs(half.half_trace - full.half_trace) <= 2e-12 * scale)
        norm = np.sqrt(sum(np.abs(g) ** 2 for g in full.entries))
        assert np.all(np.abs(half.defectiveness - full.defectiveness) <= 1e-11 * norm)
        # the branch of quasienergy_from_trace, which arccos(c) resolves away from |c| = 1
        eps_T = half.eps_F * T
        assert np.all(eps_T.imag >= -1e-10)
        assert np.all(np.abs(np.cos(eps_T) - full.half_trace) <= 1e-9 * scale)
        away = np.abs(np.abs(full.half_trace) - 1.0) > 1e-3
        assert np.allclose(eps_T[away], full.eps_F[away] * T[away], rtol=1e-9, atol=1e-12)

    def test_monodromy_keeps_the_full_period_G(self):
        # the half-period and reflected routes leave G the full-period product (C07)
        cases = [("pt-cosy-cosz", 3)] + [(n, beta) for n in _REFLECTIONS for beta in (1, 2, 3)]
        for name, beta in cases:
            model = preset(name, gamma=0.7, omega=0.9, beta=beta, family="square")
            ds = segment_hamiltonians(model)
            G = np.stack(_segment_product(ds, np.zeros_like(ds), np.zeros(1),
                                          np.full(1, model.period / len(ds)))[:4])
            r = monodromy(model, "piecewise")
            assert r.G.tobytes() == G.reshape(2, 2).tobytes()
            assert r.half_trace == pytest.approx(0.5 * np.trace(r.G), rel=1e-12)

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_c_plus_one_is_diabolic(self, name):
        # at gamma = 0 and omega = 2J/k, G = +/-I; where G = +I (t = 0) the
        # half-period route gives a defectiveness of exactly 0
        r = monodromy(preset(name, J=1.0, gamma=0.0, omega=0.5, beta=3, family="square"), "piecewise")
        assert abs(r.half_trace - 1.0) < 1e-12
        assert r.defectiveness < 1e-12 and ep_indicator(r)[1] is EPKind.DIABOLIC


# the reflections of the presets that have one, at (odd, even) beta, as the
# Bloch axis flipped: Y for Q = I, Z for Q = sigma_x, X for Q = sigma_z
_REFLECTIONS = {"pt-cosy-sinz": (Axis.Y, Axis.Z), "apt-cosx-siny": (Axis.X, Axis.Y)}
_REFLECTION_Q = {Axis.X: SIGMA_Z, Axis.Y: np.eye(2), Axis.Z: SIGMA_X}


def _reflects(d, span, Q) -> bool:
    """``H[span - 1 - l] = Q H[l]^T Q`` for the segment vectors ``d``, compared exactly."""
    H = matrix_from_bloch_vector(d[:span])
    return np.array_equal(H[::-1], Q @ np.swapaxes(H, -1, -2) @ Q)


def _reference_reflection(model):
    """The time reflection read off each term's segment vectors at unit
    amplitude, on the half period where :func:`_reference_parity` finds a
    parity and the whole period otherwise (X first)."""
    units = [segment_hamiltonians(ModelSpec((replace(t, amplitude=1.0),), 1.0)) for t in model.terms]
    half = _reference_parity(model) is not None
    for axis, Q in _REFLECTION_Q.items():
        if all(_reflects(d, len(d) // 2 if half else len(d), Q) for d in units):
            return axis
    return None


def _mp_span_product(mp, a, b, gamma, tau, span):
    """The product of segments ``0 .. span - 1`` in 40-digit arithmetic, on
    the same double inputs as the kernel: the segment vectors, gamma and
    the segment duration."""
    with mp.workdps(40):
        G = mp.eye(2)
        for l in range(span):
            dx, dy, dz = (mp.mpc(complex(a[l, k])) + mp.mpf(gamma) * mp.mpc(complex(b[l, k]))
                          for k in range(3))
            mu = mp.sqrt(dx * dx + dy * dy + dz * dz)
            sinc = mp.sin(mu * tau) / mu if mu != 0 else mp.mpf(tau)
            d_sigma = mp.matrix([[dz, dx - 1j * dy], [dx + 1j * dy, -dz]])
            G = (mp.cos(mu * tau) * mp.eye(2) - 1j * sinc * d_sigma) * G
        return G


class TestReflection:
    @pytest.mark.parametrize("name", PRESET_NAMES)
    @pytest.mark.parametrize("beta", [1, 2, 3, 4])
    def test_preset_table(self, name, beta):
        tpl = PresetTemplate(name, beta=beta, family="square")
        want = _REFLECTIONS.get(name, (None, None))[beta % 2 == 0]
        # the same at every gamma, 0 included
        for gamma in (0.0, 1.3):
            assert time_reflection(tpl.instantiate(gamma, 0.7)) is want
        assert sweep_mod._segment_symmetries(tpl)[1] is want
        # the segment vectors have it, on the span the kernel multiplies
        a, b = sweep_mod._segment_vectors(tpl)
        span = len(a) // 2 if beta % 2 else len(a)
        for axis, Q in _REFLECTION_Q.items():
            assert (_reflects(a, span, Q) and _reflects(b, span, Q)) == (want is axis)

    def test_rule_matches_the_segment_vectors(self):
        # random square models against the exact comparison of their segment vectors
        rng = np.random.default_rng(28)
        waveforms = (Waveform.CONSTANT, Waveform.SQUARE_COS, Waveform.SQUARE_SIN)
        found = {Axis.X: 0, Axis.Y: 0, Axis.Z: 0, None: 0}
        for _ in range(1500):
            terms = tuple(
                DriveTerm(Axis(rng.integers(3)), float(rng.choice([0.0, 1.0, -0.7, 2.5])),
                          waveforms[rng.integers(3)], int(rng.integers(1, 7)),
                          (Hermiticity.HERMITIAN, Hermiticity.ANTI_HERMITIAN)[rng.integers(2)])
                for _ in range(rng.integers(5))
            )
            model = ModelSpec(terms, 1.0)
            reflection = time_reflection(model)
            assert reflection is _reference_reflection(model), terms
            found[reflection] += 1
        assert min(found.values()) > 100  # every outcome is exercised

    def test_the_reflected_span_halves_the_segments(self):
        # apt-cosx-siny beta=3: the half period's 6 segments become 3, and
        # their distinct rows, equal up to sign per component, share one d.d
        a, b = sweep_mod._segment_vectors(PresetTemplate("apt-cosx-siny", beta=3, family="square"))
        half, _, half_shared = propagator_mod._segment_plan(np.concatenate([a[:6], b[:6]], axis=1).tobytes())
        quarter, _, quarter_shared = propagator_mod._segment_plan(np.concatenate([a[:3], b[:3]], axis=1).tobytes())
        assert half == (0, 0, 1, 2, 3, 3) and quarter == (0, 0, 1)
        assert half_shared and quarter_shared

    @pytest.mark.parametrize("name", sorted(_REFLECTIONS))
    @pytest.mark.parametrize("beta", [1, 2, 3, 4])
    def test_identity_against_the_full_period(self, name, beta):
        tpl = PresetTemplate(name, beta=beta, family="square")
        a, b = sweep_mod._segment_vectors(tpl)
        gammas, T = _grid_cells()
        parity, reflection = sweep_mod._segment_symmetries(tpl)
        assert reflection is not None
        got = piecewise_traces(a, b, gammas, T, parity, reflection)
        full = piecewise_traces(a, b, gammas, T, None, None)
        scale = np.maximum(np.abs(full.half_trace), 1.0)
        assert np.all(np.abs(got.half_trace - full.half_trace) <= 2e-12 * scale)
        norm = np.sqrt(sum(np.abs(g) ** 2 for g in full.entries))
        assert np.all(np.abs(got.defectiveness - full.defectiveness) <= 1e-11 * norm)

    @pytest.mark.parametrize("name", sorted(_REFLECTIONS))
    @pytest.mark.parametrize("beta", [1, 2, 3, 4])
    def test_bound_holds_against_the_exact_product(self, name, beta):
        # the composed bound on S = Q A^T Q A against 40-digit arithmetic on
        # the span's own double segment vectors, entry by entry
        mp = pytest.importorskip("mpmath")
        tpl = PresetTemplate(name, beta=beta, family="square")
        a, b = sweep_mod._segment_vectors(tpl)
        parity, reflection = sweep_mod._segment_symmetries(tpl)
        span = len(a) // 2 if parity else len(a)
        rng = np.random.default_rng([beta, PRESET_NAMES.index(name)])
        gammas, omegas = rng.uniform(0.0, 5.0, 20), rng.uniform(0.2, 3.0, 20)
        T = 2.0 * np.pi / omegas
        traces = piecewise_traces(a, b, gammas, T, parity, reflection)
        P = mp.matrix(SIGMA_Z if parity is Axis.Z else SIGMA_X if parity is Axis.X else np.eye(2))
        for k in range(gammas.size):
            exact = P * _mp_span_product(mp, a, b, gammas[k], float(T[k] / len(a)), span)
            got = [complex(e[k]) for e in traces.entries]
            err = math.sqrt(sum(float(abs(mp.mpc(g) - exact[i // 2, i % 2])) ** 2 for i, g in enumerate(got)))
            assert 0.0 < traces.bound[k] and err <= traces.bound[k], (gammas[k], omegas[k])


class TestQuasienergy:
    def test_trivial_values(self):
        assert quasienergy_from_trace(1.0, 2.0) == 0.0
        assert quasienergy_from_trace(0.0, np.pi) == pytest.approx(0.5)

    def test_hyperbolic_value(self):
        eps = quasienergy_from_trace(np.cosh(0.3), 1.0)
        assert eps == pytest.approx(0.3j, abs=1e-12)

    def test_negative_hyperbolic(self):
        eps = quasienergy_from_trace(-np.cosh(0.4), 2.0)
        assert eps.imag == pytest.approx(0.2, abs=1e-12)
        assert eps.real == pytest.approx(np.pi / 2.0, abs=1e-12)
        assert abs(np.cos(eps * 2.0) - (-np.cosh(0.4))) < 1e-10

    def test_noise_floor_keeps_branch(self):
        # noise-level negative imaginary parts must not flip Re
        eps = quasienergy_from_trace(complex(-0.5, -1e-16), 1.0)
        assert eps.real == pytest.approx(np.arccos(-0.5), abs=1e-9)

    def test_range_and_sign(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            c = rng.uniform(-3, 3)
            eps = quasienergy_from_trace(c, 1.0)
            assert -1e-12 <= eps.real <= np.pi + 1e-12
            assert eps.imag >= -1e-10
            assert abs(np.cos(eps) - c) < 1e-9 * max(1.0, abs(c))
        # non-real c: with Im arccos(c) < 0 the Im >= 0 representative leaves
        # the [0, pi] strip, for [-pi/2, 0) or (pi, 3pi/2); the first value
        # is a cell of the square pt-cosy-sinz beta=3 map
        cs = [0.99692 + 0.00288j, 0.99692 - 0.00288j, -0.99692 + 0.00288j, 0.5j, -0.5j]
        cs += list(rng.uniform(-3, 3, 200) + 1j * rng.uniform(-3, 3, 200))
        for c in cs:
            eps = quasienergy_from_trace(c, 1.0)
            assert eps.imag >= -1e-10
            assert abs(np.cos(eps) - c) < 1e-9 * max(1.0, abs(c))
            if np.arccos(c).imag >= -1e-10:
                assert 0.0 <= eps.real <= np.pi
            else:
                assert -np.pi / 2 <= eps.real < 0.0 or np.pi < eps.real < 1.5 * np.pi
        assert quasienergy_from_trace(0.99692 + 0.00288j, 1.0).real < 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            quasienergy_from_trace(1.0, 0.0)


class TestEPIndicator:
    def _result(self, G):
        G = np.asarray(G, dtype=complex)
        c = 0.5 * (G[0, 0] + G[1, 1])
        eps = quasienergy_from_trace(c, 1.0)
        return MonodromyResult(
            G=G,
            half_trace=complex(c),
            eps_F=eps,
            max_im_eps=abs(eps.imag),
            defectiveness=float(np.linalg.norm(G - c * np.eye(2), "fro")),
        )

    def test_identity_is_diabolic(self):
        f, kind = ep_indicator(self._result(np.eye(2)))
        assert f == 0.0 and kind is EPKind.DIABOLIC

    def test_hermitian_resonance_diabolic(self):
        # static X at omega = 2J/k gives G = +/-I exactly
        m = preset("pt-cosy-cosz", J=1.0, gamma=0.0, omega=1.0, beta=1, family="square")
        r = monodromy(m, engine="piecewise")
        f, kind = ep_indicator(r)
        assert abs(f) < 1e-12 and kind is EPKind.DIABOLIC

    def test_defective_root_is_ep(self):
        G = np.array([[1.0, 0.5], [0.0, 1.0]])  # nilpotent part, trace 2
        f, kind = ep_indicator(self._result(G))
        assert abs(f) < 1e-12 and kind is EPKind.EP

    def test_off_root_is_none(self):
        f, kind = ep_indicator(self._result(0.5 * np.eye(2)))
        assert f == pytest.approx(-0.5)
        assert kind is EPKind.NONE

    def test_broken_phase_positive(self):
        f, _ = ep_indicator(self._result(np.diag([2.0, 0.5])))
        assert f == pytest.approx(0.25)

    @pytest.mark.parametrize(
        "c, f",
        [
            (5.6e5 + 1.5e-9j, 5.6e5 - 1.0),  # Im c at the rounding level of |c|: real
            (-1.8e6 - 5e-9j, 1.8e6 - 1.0),
            (0.5 + 2e-9j, 2e-9),  # |c| < 1: the absolute tolerance
            (3.0 + 1e-3j, 1e-3),
        ],
    )
    def test_real_trace_tolerance_scales_with_c(self, c, f):
        assert indicator_from_trace(c) == f
        assert indicator_from_trace(np.array([c]))[0] == f


class TestErrors:
    def test_nonfinite_segment_reported(self):
        m = preset("pt-cosy-cosz", gamma=1e308, omega=0.05, beta=1, family="square")
        with pytest.raises(NumericalError, match="segment"):
            monodromy(m, engine="piecewise")

    @pytest.mark.parametrize("half_period", [False, True])
    def test_a_non_finite_entry_masks_the_cell(self, half_period):
        # an entry that is not finite makes the whole cell NaN, even where the
        # trace the indicator reads is finite, so no finite f comes of it
        parts = np.zeros((2, 2, 2, 3))
        parts[0, 0, 0] = parts[0, 1, 1] = 1.0
        parts[0, 0, 1, 1] = np.inf
        parts[1, 1, 0, 2] = np.nan
        traces = Traces(parts, np.ones(3), half_period)
        f = indicator_from_trace(traces.half_trace)
        assert np.isfinite(f[0]) and np.isnan(f[1:]).all()
        assert all(np.isfinite(e[0]) and np.isnan(e[1:]).all() for e in traces.entries)

    @pytest.mark.parametrize("engine", ["piecewise", "integrate"])
    def test_overflow_raises_numerical_error_not_a_trap(self, engine):
        m = preset("pt-cosy-cosz", gamma=1e300, omega=0.5, beta=3, family="square")
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="non-finite"):
                monodromy(m, engine=engine)
