"""Property tests of the batched segment-product kernel.

The kernel evaluates whole blocks of (gamma, omega) cells; these tests
pin down that a cell's result does not depend on the block it sits in,
that it is the propagator of the one-cell route, that it stays
unimodular and agrees with the integration oracle, and that it gives the
bits of the frozen per-segment reference below.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import floqep.sweep as sweep_mod
from floqep.model import PRESET_NAMES, PresetTemplate
from floqep.propagator import (
    SMALL_PHASE,
    UNIT_ROUNDOFF,
    _add,
    _complex,
    _cos_sinc,
    _dot,
    _expm_pauli_elements,
    _mul,
    _segment_product,
    monodromy,
    segment_hamiltonians,
)
from floqep.sweep import GridSpec, phase_diagram


def examples(n):
    # derandomized and without an example database: tier-1 runs stay reproducible
    return settings(
        max_examples=n, deadline=None, derandomize=True, database=None,
        suppress_health_check=[HealthCheck.too_slow],
    )


templates = st.builds(
    PresetTemplate,
    name=st.sampled_from(PRESET_NAMES),
    beta=st.integers(1, 3),
    family=st.just("square"),
)


def cells(gamma_max=5.0, omega=(0.2, 4.0), min_size=1, max_size=40):
    cell = st.tuples(
        st.floats(0.0, gamma_max, allow_nan=False), st.floats(*omega, allow_nan=False)
    )
    return st.lists(cell, min_size=min_size, max_size=max_size)


def kernel(template, gammas, omegas):
    a, b = sweep_mod._segment_vectors(template)
    gammas = np.asarray(gammas, dtype=float)
    periods = 2.0 * np.pi / np.asarray(omegas, dtype=float)
    return _segment_product(a, b, gammas, periods / len(a))


@examples(60)
@given(templates, cells(min_size=2), st.data())
def test_block_bits_do_not_depend_on_the_block(template, batch, data):
    gammas, omegas = (np.array(x) for x in zip(*batch))
    whole = np.stack(kernel(template, gammas, omegas))
    # another block split and another position inside the block
    shift = data.draw(st.integers(1, len(batch) - 1))
    rolled = np.stack(kernel(template, np.roll(gammas, shift), np.roll(omegas, shift)))
    assert np.roll(rolled, -shift, axis=1).tobytes() == whole.tobytes()
    for k in data.draw(st.lists(st.integers(0, len(batch) - 1), min_size=1, max_size=5)):
        single = np.stack(kernel(template, gammas[k:k + 1], omegas[k:k + 1]))
        assert single[:, 0].tobytes() == whole[:, k].tobytes()
        # the one-cell route runs the same kernel
        G = monodromy(template.instantiate(gammas[k], omegas[k]), "piecewise").G
        assert np.array_equal(G.ravel(), whole[:4, k])


@examples(60)
@given(templates, cells(gamma_max=3.0, omega=(0.3, 4.0)))
def test_unimodular(template, batch):
    g00, g01, g10, g11, _ = kernel(template, *zip(*batch))
    norm2 = np.abs(g00) ** 2 + np.abs(g01) ** 2 + np.abs(g10) ** 2 + np.abs(g11) ** 2
    ok = norm2 < 1e200
    assume(ok.any())
    det = g00 * g11 - g01 * g10
    assert np.all(np.abs(det - 1.0)[ok] <= 1e-12 * norm2[ok])


@examples(30)
@given(templates, cells(gamma_max=2.0, omega=(0.5, 3.0), max_size=4))
def test_matches_integration_oracle_on_c07_domain(template, batch):
    gammas, omegas = zip(*batch)
    g00, g01, g10, g11, _ = kernel(template, gammas, omegas)
    for k, (g, w) in enumerate(batch):
        # C07's contract: |c| up to 1e3 keeps the absolute 1e-7 representable
        if abs(0.5 * (g00[k] + g11[k])) > 1e3:
            continue
        G_rk4 = monodromy(template.instantiate(g, w), "integrate").G
        G = np.array([[g00[k], g01[k]], [g10[k], g11[k]]])
        assert np.max(np.abs(G - G_rk4)) < 1e-7


@examples(6)
@given(
    templates,
    st.integers(2, 7),
    st.integers(2, 5),
    st.sampled_from(["monodromy-piecewise", "monodromy-integrate"]),
)
def test_worker_count_bit_identity(template, n_gamma, n_omega, engine):
    grid = GridSpec(0.0, 2.5, n_gamma, 0.3, 3.0, n_omega, engine=engine)
    blobs = {
        phase_diagram(template, grid, threads=t).values.tobytes()
        for t in (1, 2, 4)
    }
    assert len(blobs) == 1


@pytest.mark.parametrize(
    "n_cells, engine",
    [
        pytest.param(n, engine, id=f"{n}" if engine == "piecewise" else f"{n}-{engine}")
        for engine in ("piecewise", "integrate")
        for n in (511, 515)
    ],
)
def test_map_blocks_match_single_cells(monkeypatch, n_cells, engine):
    # a grid that does not fill its last block, and one that spills into it:
    # the piecewise map is one task over both rows of 1024-cell blocks, the
    # integrate map a task per row, here in 512-cell blocks so that a row
    # spills into a second
    tpl = PresetTemplate("pt-cosy-cosz", beta=3, family="square")
    grid = GridSpec(0.0, 5.0, n_cells, 0.4, 2.8, 2, engine=f"monodromy-{engine}")
    # one call size for every span, this preset's 4-row half period too
    assert sweep_mod._block_cells(grid.engine) == sweep_mod.BLOCK_CELLS == 1024
    if engine == "integrate":
        monkeypatch.setattr(sweep_mod, "BLOCK_CELLS", 512)
    values = phase_diagram(tpl, grid).values
    rng = np.random.default_rng(n_cells)
    for j, i in zip(rng.integers(0, 2, 12), rng.integers(0, n_cells, 12)):
        model = tpl.instantiate(float(grid.gammas[i]), float(grid.omegas[j]))
        assert values[j, i] == monodromy(model, engine).max_im_eps


def test_non_finite_cells_become_nan():
    # an overflowing cell is NaN in every entry, silently, and leaves its
    # neighbours in the block untouched
    tpl = PresetTemplate("pt-cosy-cosz", beta=3, family="square")
    gammas = [0.5, 1e300, 1.5]
    with np.errstate(all="raise"):
        block = np.stack(kernel(tpl, gammas, [0.4] * 3))
    assert np.all(np.isnan(block[:4, 1]))
    for k in (0, 2):
        single = np.stack(kernel(tpl, gammas[k:k + 1], [0.4]))
        assert single[:, 0].tobytes() == block[:, k].tobytes()
    # exp(710 sigma_z): one entry overflows to inf, the others stay finite
    a = np.array([[0.0, 0.0, 710.0j]])
    G = np.stack(_segment_product(a, np.zeros_like(a), [0.0], [1.0])[:4])
    assert np.all(np.isnan(G))


def _reference_segment_product(a, b, gammas, taus):
    """The kernel before its distinct segments were stacked: one
    exponential per distinct ``(a[l], b[l])`` row (its cos/sinc factors
    once per distinct ``d.d``) and a per-step product on ``(real, imag)``
    pairs.  Kept to pin the bits of :func:`_segment_product`."""
    gammas = np.asarray(gammas, dtype=float)
    taus = np.asarray(taus, dtype=float)
    distinct: dict = {}
    order = [distinct.setdefault((tuple(a[l]), tuple(b[l])), len(distinct)) for l in range(len(a))]
    with np.errstate(all="ignore"):
        E, norms, factors = [], [], {}
        for av, bv in distinct:
            d = [(av[k].real + gammas * bv[k].real, av[k].imag + gammas * bv[k].imag)
                 for k in range(3)]
            dd = _dot(d)
            key = dd[0].tobytes() + dd[1].tobytes()
            if key not in factors:
                factors[key] = _cos_sinc(dd, taus)
            re, im = _expm_pauli_elements(d, factors[key], taus, np.empty((2, 2, 2, gammas.size)))
            E.append((re, im))
            sq = re * re + im * im
            norms.append(np.sqrt(sq[0, 0] + sq[0, 1] + sq[1, 0] + sq[1, 1]))
        G, norm = E[order[0]], norms[order[0]]
        for l in order[1:]:
            col = [tuple(part[:, k, None] for part in E[l]) for k in (0, 1)]
            row = [tuple(part[None, k] for part in G) for k in (0, 1)]
            G = _add(_mul(col[0], row[0]), _mul(col[1], row[1]))
            norm = norm * norms[l]
    G = _complex(G)
    G[:, :, ~np.all(np.isfinite(G), axis=(0, 1))] = np.nan
    return G[0, 0], G[0, 1], G[1, 0], G[1, 1], len(order) * 8.0 * UNIT_ROUNDOFF * norm


# d.d = 1 - 2 gamma^2 on every segment of the apt presets: an EP line,
# where |mu tau| falls below SMALL_PHASE and cos/sinc take the Taylor branch
EP_GAMMA = math.sqrt(0.5)
# cells that take the kernel's edge branches: the EP line and its
# neighbours, gamma = 0, and overflows that come back as NaN
EDGE_GAMMAS = (0.0, EP_GAMMA, math.nextafter(EP_GAMMA, 1.0), 1e150, 1e300)
# omega so high that |mu tau| < SMALL_PHASE on every preset
TAYLOR_OMEGAS = (1e5, 1e7)


def assert_same_bits(a, b, gammas, taus):
    got = _segment_product(a, b, gammas, taus)
    want = _reference_segment_product(a, b, gammas, taus)
    for x, y in zip(got, want, strict=True):
        assert x.shape == y.shape and x.tobytes() == y.tobytes()


mixed_cells = st.lists(
    st.tuples(
        st.one_of(st.floats(0.0, 5.0), st.sampled_from(EDGE_GAMMAS)),
        st.one_of(st.floats(0.05, 4.0), st.sampled_from(TAYLOR_OMEGAS)),
    ),
    min_size=1,
    max_size=40,
)


@examples(80)
@given(templates, mixed_cells)
def test_bits_match_the_frozen_reference(template, batch):
    a, b = sweep_mod._segment_vectors(template)
    gammas, omegas = (np.array(x) for x in zip(*batch))
    assert_same_bits(a, b, gammas, 2.0 * np.pi / omegas / len(a))


@examples(6)
@given(templates, st.integers(0, 2**32 - 1))
def test_bits_match_the_frozen_reference_beyond_one_block(template, seed):
    rng = np.random.default_rng(seed)
    n = sweep_mod.BLOCK_CELLS + 89
    gammas = np.where(rng.random(n) < 0.1, rng.choice(EDGE_GAMMAS, n), rng.uniform(0.0, 5.0, n))
    omegas = np.where(rng.random(n) < 0.1, rng.choice(TAYLOR_OMEGAS, n), rng.uniform(0.05, 4.0, n))
    a, b = sweep_mod._segment_vectors(template)
    assert_same_bits(a, b, gammas, 2.0 * np.pi / omegas / len(a))


@examples(30)
@given(templates, st.one_of(st.floats(0.0, 5.0), st.sampled_from(EDGE_GAMMAS)), st.floats(0.05, 4.0))
def test_bits_match_the_frozen_reference_on_the_one_cell_route(template, gamma, omega):
    # monodromy(model, "piecewise"): the model's own segments, b = 0
    model = template.instantiate(gamma, omega)
    ds = segment_hamiltonians(model)
    assert_same_bits(ds, np.zeros_like(ds), np.zeros(1), np.full(1, model.period / len(ds)))


@pytest.mark.parametrize("name", ["apt-cosx-cosy", "apt-cosx-siny"])
def test_ep_line_takes_the_taylor_branch(name):
    # the edge cells above do reach the branch they are there for
    a, b = sweep_mod._segment_vectors(PresetTemplate(name, beta=3, family="square"))
    d = a + EP_GAMMA * b
    tau = 2.0 * np.pi / 1.3 / len(a)
    assert np.all(np.abs(np.sqrt((d * d).sum(axis=1))) * tau < SMALL_PHASE)
    gammas = np.array([EP_GAMMA, 1e300, 0.4])
    g00, *_ = _segment_product(a, b, gammas, np.full(3, tau))
    assert np.isnan(g00[1]) and np.all(np.isfinite(g00[[0, 2]]))
    assert_same_bits(a, b, gammas, np.full(3, tau))
