import csv
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    as_state,
    column_flat_sum,
    dense_geometric_pure,
    dense_grid,
    dense_l1p_pure,
    dense_tsallis_pure,
    geometric_coherence_pure,
    l1p_coherence_density,
    make_instance,
    l1p_coherence_pure,
    pure_density,
    relative_entropy_coherence,
    skew_info_coherence,
    to_dense,
    tsallis_coherence_density,
    tsallis_coherence_pure,
)
from shormeter import measures, run_order_finding_circuit, statevec, theorems
from shormeter.cli import main
from shormeter.measures import (
    ALPHA_ONE_TOL,
    l1p_coherence_grid,
    tsallis_and_geometric_coherence,
    tsallis_coherence_grid,
)
from shormeter.statevec import uniform_state

PLUS = np.array([1.0, 1.0]) / math.sqrt(2.0)


def random_pure(dim, rng):
    vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return vec / np.linalg.norm(vec)


def uniform(dim):
    return np.full(dim, 1.0 / math.sqrt(dim), dtype=complex)


def test_tsallis_pure_uniform_closed_form():
    q = 2048
    for alpha in (0.3, 0.5, 1.5, 2.0):
        expected = (q ** (1 - 1 / alpha) - 1) / (alpha - 1)
        assert tsallis_coherence_pure(uniform(q), alpha) == pytest.approx(expected, abs=1e-9)


def test_tsallis_pure_basics():
    basis = np.array([0, 0, 1, 0], dtype=complex)
    assert tsallis_coherence_pure(basis, 1.7) == pytest.approx(0.0, abs=1e-12)
    assert tsallis_coherence_pure(PLUS, 0.5) == pytest.approx(1.0, abs=1e-12)


def test_tsallis_alpha_domain():
    for alpha in (0.0, -1.0, 2.5):
        with pytest.raises(ValueError):
            tsallis_coherence_pure(PLUS, alpha)


def test_tsallis_density_matches_pure_fast_path():
    rng = np.random.default_rng(17)
    for dim in (2, 4, 8, 16, 64):
        for _ in range(5):
            psi = random_pure(dim, rng)
            rho = pure_density(psi)
            for alpha in (0.3, 0.5, 1.5, 2.0):
                assert tsallis_coherence_density(rho, alpha) == pytest.approx(
                    tsallis_coherence_pure(psi, alpha), abs=1e-9
                )


def test_tsallis_density_diagonal_states_vanish():
    rng = np.random.default_rng(2)
    p = rng.random(8)
    rho = np.diag(p / p.sum()).astype(complex)
    for alpha in (0.3, 1.5, 2.0):
        assert tsallis_coherence_density(rho, alpha) == pytest.approx(0.0, abs=1e-10)
    assert tsallis_coherence_density(np.eye(2, dtype=complex) / 2, 0.5) == pytest.approx(
        0.0, abs=1e-12
    )


def test_tsallis_density_rejects_non_hermitian():
    bad = np.array([[0.5, 0.3], [0.0, 0.5]], dtype=complex)
    with pytest.raises(ValueError):
        tsallis_coherence_density(bad, 1.5)


def test_relative_entropy_examples():
    assert relative_entropy_coherence(pure_density(PLUS)) == pytest.approx(1.0, abs=1e-12)
    assert relative_entropy_coherence(np.diag([0.25, 0.75]).astype(complex)) == pytest.approx(
        0.0, abs=1e-12
    )
    assert relative_entropy_coherence(pure_density(uniform(4))) == pytest.approx(2.0, abs=1e-12)


def test_alpha_limit_continuity():
    rng = np.random.default_rng(23)
    ln2 = math.log(2.0)
    for dim in (2, 4, 8, 16):
        psi = random_pure(dim, rng)
        rho = pure_density(psi)
        target = ln2 * relative_entropy_coherence(rho)
        for alpha in (1.0 - 1e-4, 1.0 + 1e-4):
            assert abs(tsallis_coherence_pure(psi, alpha) - target) <= 1e-3
            assert abs(tsallis_coherence_density(rho, alpha) - target) <= 1e-3


def test_l1p_pure_uniform_closed_form():
    q = 2048
    for p in (1.0, 1.5, 2.0):
        assert l1p_coherence_pure(uniform(q), p) == pytest.approx((q - 1) ** (1 / p), rel=1e-12)


def test_l1p_pure_basics():
    assert l1p_coherence_pure(PLUS, 1.0) == pytest.approx(1.0, abs=1e-12)
    assert l1p_coherence_pure(np.array([1, 0, 0, 0], dtype=complex), 1.7) == 0.0
    with pytest.raises(ValueError):
        l1p_coherence_pure(PLUS, 0.9)
    with pytest.raises(ValueError):
        l1p_coherence_pure(PLUS, 2.1)


def test_l1p_pure_matches_out_of_place_formula_bitwise():
    # each sum runs column by column over the dense (Q, 2) array of the
    # padded vector, as the single-point wrapper holds it
    rng = np.random.default_rng(47)
    for psi in (random_pure(4096, rng), uniform(256), PLUS):
        grid = dense_grid(as_state(psi))
        a = np.abs(grid)
        for p in (1.0, 1.05, 1.5, 2.0):
            ap = a**p
            rest = np.clip(column_flat_sum(grid, ap) - ap, 0.0, None) ** (1.0 / p)
            assert l1p_coherence_pure(psi, p) == column_flat_sum(grid, a * rest)


def test_l1p_density_matches_pure_and_l1_reduction():
    rng = np.random.default_rng(31)
    for dim in (2, 4, 8, 16, 64):
        psi = random_pure(dim, rng)
        rho = pure_density(psi)
        for p in (1.0, 1.5, 2.0):
            assert l1p_coherence_density(rho, p) == pytest.approx(
                l1p_coherence_pure(psi, p), abs=1e-9
            )
        off_sum = np.abs(rho - np.diag(np.diag(rho))).sum()
        assert l1p_coherence_density(rho, 1.0) == pytest.approx(off_sum, abs=1e-10)
    assert l1p_coherence_density(np.diag([0.5, 0.5]).astype(complex), 1.5) == 0.0


def test_geometric_coherence_values():
    assert geometric_coherence_pure(as_state(uniform(2048))) == pytest.approx(
        1 - 1 / 2048, abs=1e-12
    )
    assert geometric_coherence_pure(as_state(np.array([0, 1], dtype=complex))) == 0.0


def test_skew_info_identity():
    rng = np.random.default_rng(5)
    for dim in (2, 4, 8, 16):
        psi = random_pure(dim, rng)
        rho = pure_density(psi)
        assert tsallis_coherence_pure(psi, 0.5) == pytest.approx(
            2.0 * skew_info_coherence(rho), abs=1e-9
        )
    assert skew_info_coherence(np.diag([0.3, 0.7]).astype(complex)) == pytest.approx(
        0.0, abs=1e-12
    )
    assert skew_info_coherence(pure_density(PLUS)) == pytest.approx(0.5, abs=1e-12)


def test_diagonal_phase_invariance():
    rng = np.random.default_rng(77)
    for dim in (4, 16):
        psi = random_pure(dim, rng)
        phases = np.exp(2j * np.pi * rng.random(dim))
        rotated = psi * phases
        for p in (1.0, 1.5, 2.0):
            assert l1p_coherence_pure(rotated, p) == pytest.approx(
                l1p_coherence_pure(psi, p), abs=1e-9
            )
        for alpha in (0.3, 0.5, 1.5, 2.0):
            assert tsallis_coherence_pure(rotated, alpha) == pytest.approx(
                tsallis_coherence_pure(psi, alpha), abs=1e-9
            )
        assert geometric_coherence_pure(as_state(rotated)) == pytest.approx(
            geometric_coherence_pure(as_state(psi)), abs=1e-12
        )


def test_positive_on_coherent_states():
    rng = np.random.default_rng(13)
    psi = random_pure(8, rng)
    assert tsallis_coherence_pure(psi, 1.5) > 1e-6
    assert l1p_coherence_pure(psi, 1.5) > 1e-6
    assert geometric_coherence_pure(as_state(psi)) > 1e-6


def test_modexp_stage_keeps_all_coherences(pipeline15):
    psi1, psi2 = (to_dense(state) for state in pipeline15[:2])
    for p in (1.0, 1.5, 2.0):
        assert l1p_coherence_pure(psi2, p) == pytest.approx(
            l1p_coherence_pure(psi1, p), abs=1e-9
        )
    for alpha in (0.3, 0.5, 1.5, 2.0):
        assert tsallis_coherence_pure(psi2, alpha) == pytest.approx(
            tsallis_coherence_pure(psi1, alpha), abs=1e-9
        )
    assert geometric_coherence_pure(pipeline15[1]) == pytest.approx(
        geometric_coherence_pure(pipeline15[0]), abs=1e-12
    )


def test_density_dim_cap():
    with pytest.raises(ValueError):
        tsallis_coherence_density(np.eye(512, dtype=complex) / 512, 1.5)


# --- grids from the nonzero amplitudes against the dense expressions ------

ALPHAS_EDGE = (0.05, 0.5, 1.0 - ALPHA_ONE_TOL / 2, 1.0, 1.0 + ALPHA_ONE_TOL / 2, 1.5, 2.0)
PS_EDGE = (1.0, 1.25, 1.5, 2.0)


@st.composite
def pure_states(draw, max_dim=64):
    """Normalised random states, some with a random exact-zero pattern.

    Some components may be scaled to 1e-100 or 1e-200.  At 1e-200, |c|**2
    underflows to 0 while |c| does not: such amplitudes are outside the
    |c|**2 support but inside the |c| support, and the dense l_{1,p}
    expression still counts them.
    """
    dim = draw(st.integers(1, max_dim))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    tiny = draw(st.sampled_from((1.0, 1e-100, 1e-200)))
    vec[rng.random(dim) < 0.3] *= tiny
    if draw(st.booleans()):
        vec[rng.random(dim) < draw(st.floats(0.0, 1.0))] = 0.0
    keep = draw(st.integers(0, dim - 1))
    if abs(vec[keep]) < 1e-50:
        vec[keep] = 1.0
    return vec / np.linalg.norm(vec)


alphas_st = st.lists(
    st.one_of(
        st.floats(1e-3, 2.0),
        st.floats(1.0 - ALPHA_ONE_TOL, 1.0 + ALPHA_ONE_TOL),
        st.sampled_from(ALPHAS_EDGE),
    ),
    min_size=1,
    max_size=8,
)
ps_st = st.lists(st.one_of(st.floats(1.0, 2.0), st.sampled_from(PS_EDGE)), min_size=1, max_size=8)


@settings(deadline=None)
@given(pure_states(), alphas_st, ps_st)
@example(np.array([1.0, 1.8e-200j, 1.2e-200 + 0j]), [1.0], [1.0])
def test_grids_equal_dense_expressions(psi, alphas, ps):
    # the state drops its all-zero columns; the dense expressions run over
    # the same zero-padded vector
    state = as_state(psi)
    assert tsallis_coherence_grid(state, alphas) == [dense_tsallis_pure(state, a) for a in alphas]
    assert l1p_coherence_grid(state, ps) == [dense_l1p_pure(state, p) for p in ps]
    assert geometric_coherence_pure(state) == dense_geometric_pure(state)
    assert tsallis_coherence_pure(psi, alphas[0]) == dense_tsallis_pure(state, alphas[0])
    assert l1p_coherence_pure(psi, ps[0]) == dense_l1p_pure(state, ps[0])


def tsallis_rounding(alpha):
    """Rounding bound on C_alpha for dim <= 64.

    The sum of |c|**(2/alpha) carries about dim * eps / alpha of rounding,
    and away from the alpha -> 1 limit it is divided by alpha - 1.
    """
    gap = abs(alpha - 1.0)
    return 1e-13 * max(1.0, 1.0 / alpha) / (gap if gap > ALPHA_ONE_TOL else 1.0)


@settings(deadline=None)
@given(pure_states(), alphas_st, ps_st, st.integers(0, 2**32 - 1))
def test_measures_invariant_under_permutation(psi, alphas, ps, seed):
    state = as_state(psi)
    moved = as_state(psi[np.random.default_rng(seed).permutation(psi.size)])
    tsallis = tsallis_coherence_grid(state, alphas)
    for alpha, a, b in zip(alphas, tsallis_coherence_grid(moved, alphas), tsallis):
        assert a == pytest.approx(b, rel=1e-12, abs=tsallis_rounding(alpha))
    for a, b in zip(l1p_coherence_grid(moved, ps), l1p_coherence_grid(state, ps)):
        assert a == pytest.approx(b, rel=1e-12, abs=1e-12)
    assert geometric_coherence_pure(moved) == geometric_coherence_pure(state)


@settings(deadline=None)
@given(pure_states(), alphas_st, ps_st)
def test_measures_stay_within_bounds(psi, alphas, ps):
    dim, state = psi.size, as_state(psi)
    assert 0.0 <= geometric_coherence_pure(state) <= 1.0 - 1.0 / dim + 1e-12
    for alpha, value in zip(alphas, tsallis_coherence_grid(state, alphas)):
        assert value >= -tsallis_rounding(alpha)
    for p, value in zip(ps, l1p_coherence_grid(state, ps)):
        assert 0.0 <= value <= (dim - 1) ** (1.0 / p) * (1.0 + 1e-12)


def test_basis_state_has_no_coherence():
    for dim in (1, 2, 64):
        for k in {0, dim - 1}:
            basis = np.zeros(dim, dtype=complex)
            basis[k] = 1.0
            state = as_state(basis)
            assert tsallis_coherence_grid(state, ALPHAS_EDGE) == [0.0] * len(ALPHAS_EDGE)
            assert l1p_coherence_grid(state, PS_EDGE) == [0.0] * len(PS_EDGE)
            assert geometric_coherence_pure(state) == 0.0


def test_grid_edge_points_closed_forms():
    rng = np.random.default_rng(91)
    psi = random_pure(32, rng)
    psi[rng.random(32) < 0.5] = 0.0
    psi /= np.linalg.norm(psi)
    probs = np.abs(psi) ** 2
    mods = np.abs(psi)
    nz = probs[probs > 0]
    shannon = -float(np.sum(nz * np.log(nz)))
    near_one = (1.0 - ALPHA_ONE_TOL / 2, 1.0, 1.0 + ALPHA_ONE_TOL / 2)
    limit = tsallis_coherence_grid(as_state(psi), near_one)
    assert limit == pytest.approx([shannon] * 3, rel=1e-12)
    c1, c2 = l1p_coherence_grid(as_state(psi), (1.0, 2.0))
    assert c1 == pytest.approx(mods.sum() ** 2 - probs.sum(), rel=1e-12)
    assert c2 == pytest.approx(float(np.sum(mods * np.sqrt(1.0 - probs))), rel=1e-12)


def test_grids_reject_out_of_range_points():
    with pytest.raises(ValueError):
        tsallis_coherence_grid(as_state(PLUS), (0.5, 2.5))
    with pytest.raises(ValueError):
        l1p_coherence_grid(as_state(PLUS), (1.5, 0.9))


@pytest.mark.parametrize("n,x,t", [(15, 7, 11), (21, 2, 10), (49, 3, 10)])
def test_grids_equal_dense_expressions_on_circuit_states(tmp_path, n, x, t):
    states = run_order_finding_circuit(make_instance(n, x, t=t))
    sweeps = {}
    for measure in ("tsallis", "l1p"):
        out = tmp_path / f"{measure}.csv"
        argv = ["sweep", "--n", str(n), "--x", str(x), "--t", str(t), "--measure", measure]
        assert main(argv + ["--out", str(out)]) == 0
        with open(out, newline="") as fh:
            sweeps[measure] = [[float(v) for v in row[:4]] for row in list(csv.reader(fh))[1:]]
    for column, state in enumerate(states, start=1):
        for row in sweeps["tsallis"]:
            assert row[column] == dense_tsallis_pure(state, row[0])
        for row in sweeps["l1p"]:
            assert row[column] == dense_l1p_pure(state, row[0])
        alphas, ps = theorems.ALPHA_GRID_DEFAULT, theorems.P_GRID_DEFAULT
        assert tsallis_coherence_grid(state, alphas) == [
            dense_tsallis_pure(state, a) for a in alphas
        ]
        assert l1p_coherence_grid(state, ps) == [dense_l1p_pure(state, p) for p in ps]
        assert geometric_coherence_pure(state) == dense_geometric_pure(state)


@pytest.mark.parametrize("n,x,t", [(15, 7, 11), (21, 2, 10), (49, 3, 10)])
def test_a_report_forms_each_stage_squares_once(monkeypatch, n, x, t):
    # C_alpha and C_g of a report come from one |c|**2 array per stage, with
    # the floats of the Tsallis grid and of geometric coherence read alone;
    # the perturbed psi3 has a single largest entry
    formed = []
    squared_moduli = measures._squared_moduli

    def recorded(state):
        formed.append(state)
        return squared_moduli(state)

    monkeypatch.setattr(measures, "_squared_moduli", recorded)
    states = tuple(run_order_finding_circuit(make_instance(n, x, t=t)))
    rng = np.random.default_rng(n)
    drawn = [as_state(random_pure(dim, rng)) for dim in (2, 7, 64)]
    alphas = theorems.ALPHA_GRID_DEFAULT
    for state in states + (statevec.perturbed(states[2], 1e-3), *drawn):
        formed.clear()
        rows = theorems.verify_stage("psi3", state, (None, None, None))["measures"]
        assert len(formed) == 1 and formed[0] is state
        assert [row["numeric"] for row in rows["C_alpha"]] == tsallis_coherence_grid(state, alphas)
        assert rows["C_g"][0]["numeric"] == geometric_coherence_pure(state)
        assert tsallis_and_geometric_coherence(state, alphas) == (
            tsallis_coherence_grid(state, alphas),
            geometric_coherence_pure(state),
        )


def uniform_stage(n, x, t):
    return uniform_state(make_instance(n, x, t=t))


def test_grids_peak_below_four_bytes_per_basis_state():
    # a zeroed float64 buffer over all basis states alone would be 8 bytes each
    psi1 = uniform_stage(21, 2, 14)
    assert psi1.layout.n == 19
    tracemalloc.start()
    try:
        l1p_coherence_grid(psi1, theorems.P_GRID_DEFAULT)
        tsallis_coherence_grid(psi1, theorems.ALPHA_GRID_DEFAULT)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * psi1.layout.dim


@pytest.mark.parametrize(
    "n, x, t",
    [pytest.param(15, 7, t, id=str(t)) for t in (18, 19, 20)]
    + [pytest.param(3, 2, t, id=f"n3-{t}") for t in (21, 22)],
)
def test_l1_coherence_of_the_uniform_stage_meets_the_gate(n, x, t):
    # C_1p(psi1) at p = 1 has the closed form Q - 1.  Rounding the amplitude
    # by 1/sqrt(2) once per qubit drifted from it by 1.75e-9 at t = 19;
    # rounded once, the gap stays within the gate up to t = 22, the largest
    # t the budget admits (N=3 has L = 2)
    value = l1p_coherence_grid(uniform_stage(n, x, t), (1.0,))[0]
    assert abs(value - (2**t - 1)) <= theorems.COHERENCE_GAP_TOL
