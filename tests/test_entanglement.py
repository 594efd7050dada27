import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from shormeter import entanglement as ent
from oracles import make_instance
from shormeter import run_order_finding_circuit
from shormeter.cli import _perturbed
from shormeter.numtheory import RegisterLayout
from shormeter.statevec import weight_sums


def product_state(layout, rng):
    qubits = []
    for _ in range(layout.n):
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        qubits.append(v / np.linalg.norm(v))
    vec = qubits[0]
    for q in qubits[1:]:
        vec = np.kron(vec, q)
    return oracles.from_dense(layout, vec)


def random_state(layout, rng):
    vec = rng.standard_normal(layout.dim) + 1j * rng.standard_normal(layout.dim)
    return oracles.from_dense(layout, vec / np.linalg.norm(vec))


def bell_state():
    lay = RegisterLayout(t=1, L=1)
    return oracles.from_dense(lay, np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2))


def test_weight_term_edges_and_interior():
    assert ent.hamming_weight_term(0, 15) == 1.0
    assert ent.hamming_weight_term(15, 15) == 1.0
    w, n = 4, 15
    expected = ((n - w) / n) ** ((n - w) / 2) * (w / n) ** (w / 2)
    assert ent.hamming_weight_term(w, n) == pytest.approx(expected, rel=1e-15)
    with pytest.raises(ValueError):
        ent.hamming_weight_term(16, 15)


def test_closed_form_overlaps_evaluate_each_weight_and_phase_once(monkeypatch, inst15):
    weights, phases = [], []
    term, exp = ent.hamming_weight_term, np.exp

    def counted_term(w, n):
        weights.append((w, n))
        return term(w, n)

    def counted_exp(z):
        phases.append(z)
        return exp(z)

    monkeypatch.setattr(ent, "hamming_weight_term", counted_term)
    monkeypatch.setattr(ent.np, "exp", counted_exp)
    ent.closed_form_overlaps(inst15)
    assert weights == [(w, 15) for w in range(16)]
    assert len(phases) == inst15.r


def test_hamming_table_requires_divisible_order():
    inst = make_instance(21, 2)
    assert inst.m is None
    assert ent.closed_form_overlaps(inst) is None
    assert oracles.closed_form_overlaps_loop(inst) is None


def test_symmetric_overlap_trivial_angles():
    lay = RegisterLayout(t=2, L=1)
    zero = oracles.from_dense(lay, np.eye(8, dtype=complex)[0])
    assert oracles.symmetric_overlap(zero, 0.0) == pytest.approx(1.0, abs=1e-12)
    rng = np.random.default_rng(4)
    state = random_state(lay, rng)
    got = oracles.symmetric_overlap(state, math.pi)
    assert got == pytest.approx(complex(oracles.to_dense(state)[-1].conjugate()), abs=1e-9)


def test_symmetric_overlap_matches_weight_table_expression(inst15, pipeline15):
    # the one-pass overlap must equal the per-weight-table double sum
    psi2 = pipeline15[1]
    n, q = 15, inst15.Q
    # the (a, b) labels are j * 2**L + x**j mod N for j < Q
    weights = [(j * 2**inst15.L + pow(inst15.x, j, inst15.N)).bit_count() for j in range(q)]
    for angle in (0.3, 1.0, 1.7, 2.9):
        c, s = math.cos(angle / 2), math.sin(angle / 2)
        expected = sum(c ** (n - w) * s**w for w in weights) / math.sqrt(q)
        assert oracles.symmetric_overlap(psi2, angle) == pytest.approx(expected, abs=1e-9)


def test_symmetric_entanglement_product_state_zero():
    lay = RegisterLayout(t=2, L=1)
    zero = oracles.from_dense(lay, np.eye(8, dtype=complex)[0])
    opt = oracles.symmetric_optimum(zero)
    assert opt.entanglement == pytest.approx(0.0, abs=1e-12)
    assert opt.alpha_angle == pytest.approx(0.0, abs=1e-6)


def test_symmetric_entanglement_bell():
    opt = oracles.symmetric_optimum(bell_state())
    assert opt.entanglement == pytest.approx(0.5, abs=1e-9)


def test_overlap_matches_the_uncached_sum_float_for_float(pipeline15):
    # the optimizer scores all its candidate angles in one pass; each value
    # is the one-angle sum of the oracle, float for float
    state = pipeline15[2]
    angles = np.linspace(0.0, math.pi, 50)
    got = ent._overlaps(weight_sums(state), angles)
    assert got.tolist() == [oracles.symmetric_overlap(state, a) for a in angles.tolist()]


def symmetric_slope(coeff, alpha):
    """d/dalpha |<state|eta(alpha)^n>|**2 at 0 < alpha < pi, from the weight sums."""
    n = len(coeff) - 1
    w = np.arange(n + 1)
    c, s = math.cos(alpha / 2.0), math.sin(alpha / 2.0)
    overlap = np.sum(coeff * c ** (n - w) * s**w)
    # twice the derivative of the overlap
    turn = np.sum(
        coeff * (w * c ** (n - w + 1) * s ** (w - 1.0) - (n - w) * c ** (n - w - 1.0) * s ** (w + 1))
    )
    return float((overlap.conjugate() * turn).real)


def assert_certified(coeff, opt):
    # the optimum's angle is at least as good as the best of 200,001 grid
    # angles; both overlaps are exact, since their float sums can each be
    # off by a few ulps (1.7e-15 and 1.2e-15 on one drawn vector of n = 22,
    # where the optimum was the better angle by 6e-16)
    best = oracles.dense_symmetric_argmax(coeff)
    reached = oracles.exact_symmetric_overlap_sq(coeff, opt.alpha_angle)
    assert reached >= oracles.exact_symmetric_overlap_sq(coeff, best) - 1e-15


@pytest.mark.parametrize(
    "n, x, t", [(15, 7, 8), (21, 2, 10), (51, 2, 12), (17, 3, 8), (17, 3, 15), (129, 5, 9)]
)
def test_symmetric_optimum_is_certified_on_the_golden_ladder(n, x, t):
    # no grid angle beats the optimum, and an interior optimum is polished:
    # its slope is at most 1.3e-16 here, where the unpolished roots of g
    # left up to 1.4e-15
    for state in run_order_finding_circuit(make_instance(n, x, t=t)):
        coeff = weight_sums(state)
        opt = ent.geometric_entanglement_symmetric(coeff)
        assert_certified(coeff, opt)
        assert opt.entanglement == 1.0 - opt.overlap_sq
        assert 0.0 < opt.alpha_angle < math.pi
        assert abs(symmetric_slope(coeff, opt.alpha_angle)) <= 3e-16


@st.composite
def weight_vectors(draw):
    """Weight sums of a normalized state, whose overlaps are then at most 1:
    sum_w |W_w|**2 / C(n, w) = 1, real or complex, n in [1, 27]."""
    n = draw(st.integers(1, 27))
    part = st.lists(st.floats(-1.0, 1.0), min_size=n + 1, max_size=n + 1)
    coeff = np.array(draw(part), dtype=np.complex128)
    if draw(st.booleans()):
        coeff += 1j * np.array(draw(part))
    norm = math.sqrt(sum(abs(v) ** 2 / math.comb(n, w) for w, v in enumerate(coeff)))
    assume(norm > 0.0)
    return coeff / norm


def near_grid_draw():
    """Weight sums (n = 22) whose optimum lies 9e-9 from a grid angle, where
    the float overlaps of the two angles are both a few ulps off."""
    coeff = np.zeros(23)
    coeff[[15, 16, 19, 21, 22]] = [1.66131323, -0.41532831, 0.32681081, 1.10492371, 0.97181206]
    return coeff / math.sqrt(sum(v**2 / math.comb(22, w) for w, v in enumerate(coeff)))


@settings(deadline=None, max_examples=150)
@given(weight_vectors())
@example(np.array([0.0, 1.0, 3.2e-38]) * math.sqrt(2.0))
@example(near_grid_draw())
def test_symmetric_optimum_is_certified_on_drawn_weight_sums(coeff):
    # the example's tiny top weight makes a tiny leading coefficient of g;
    # kept, it would scale the companion matrix by its inverse and lose the
    # root u = 1 (alpha = pi/2, overlap 1/2)
    opt = ent.geometric_entanglement_symmetric(coeff)
    assert_certified(coeff, opt)
    assert 0.0 <= opt.alpha_angle <= math.pi


@pytest.mark.parametrize(
    "coeff, alpha, overlap_sq",
    [
        (np.array([0.6, 0.0, 0.0, 0.0]), 0.0, 0.36),
        (np.array([0.0, 0.0, 0.0, 0.8j]), math.pi, 0.64),
        (np.array([1.0, 0.0, 1.0]) / math.sqrt(2.0), None, 0.5),
    ],
    ids=["weight-0", "weight-n", "bell"],
)
def test_symmetric_optimum_edge_cases(coeff, alpha, overlap_sq):
    # all mass on w = 0 peaks at alpha = 0 and all on w = n at alpha = pi;
    # the Bell state's overlap is 1/2 at every angle
    opt = ent.geometric_entanglement_symmetric(coeff)
    assert_certified(coeff, opt)
    assert opt.overlap_sq == pytest.approx(overlap_sq, abs=1e-15)
    if alpha is not None:
        assert opt.alpha_angle == alpha


@pytest.mark.parametrize(
    "n, alpha", [(12, math.pi / 4), (12, 3 * math.pi / 4), (27, math.pi - 1e-6)]
)
def test_symmetric_product_states_are_found(n, alpha):
    # eta(alpha)^n has weight sums C(n, w) c**(n-w) s**w and overlap 1 at
    # alpha.  The first two are grid angles, one on each side of pi/2; the
    # last has u = tan(alpha/2) = 2e6, where u**(2n) overflows, so the
    # optimizer's Newton step must run on 1/u
    w = np.arange(n + 1)
    binomials = np.array([math.comb(n, k) for k in range(n + 1)], dtype=float)
    coeff = binomials * math.cos(alpha / 2) ** (n - w) * math.sin(alpha / 2) ** w
    assert oracles.exact_symmetric_overlap_sq(coeff, alpha) == pytest.approx(1.0, abs=1e-15)
    if n == 12:
        assert oracles.dense_symmetric_argmax(coeff) == pytest.approx(alpha, abs=1e-12)
    opt = ent.geometric_entanglement_symmetric(coeff.astype(np.complex128))
    assert_certified(coeff, opt)
    assert opt.overlap_sq == pytest.approx(1.0, abs=1e-14)
    assert opt.alpha_angle == pytest.approx(alpha, abs=1e-12)


def test_per_weight_maximum_identity():
    # single-label states: the 1-D optimizer must land on the per-weight maximum
    lay = RegisterLayout(t=11, L=4)
    n = lay.n
    for w in range(n + 1):
        vec = np.zeros(lay.dim, dtype=complex)
        vec[(1 << w) - 1] = 1.0  # label with w low bits set
        opt = oracles.symmetric_optimum(oracles.from_dense(lay, vec))
        target = ent.hamming_weight_term(w, n)
        assert math.sqrt(opt.overlap_sq) == pytest.approx(target, abs=1e-9)
        if 0 < w < n:
            expected_angle = 2.0 * math.acos(math.sqrt((n - w) / n))
            assert opt.alpha_angle == pytest.approx(expected_angle, abs=1e-3)


def test_closed_form_psi2_value(inst15):
    value = 1 - ent.closed_form_overlaps(inst15).psi2
    assert value == pytest.approx(0.8445, abs=1e-3)


def test_closed_form_psi2_degenerate_table_warns(inst15):
    weights_ab = np.zeros((4, 512), dtype=np.int64)
    weights_as = np.zeros((4, 4), dtype=np.int64)
    with pytest.warns(UserWarning, match="non-physical"):
        value = 1 - ent._overlaps_from_weights(weights_ab, weights_as, 15, inst15.Q).psi2
    assert value == pytest.approx(1 - inst15.Q)


def test_closed_form_psi2_single_term_collapse(inst15):
    w = 6
    single = np.array([[w]], dtype=np.int64)
    expected = 1 - ent.hamming_weight_term(w, 15) ** 2 / inst15.Q
    overlaps = ent._overlaps_from_weights(single, single, 15, inst15.Q)
    assert 1 - overlaps.psi2 == pytest.approx(expected, rel=1e-12)


def test_closed_form_psi3_value(inst15):
    overlaps = ent.closed_form_overlaps(inst15)
    assert 1 - overlaps.psi3 == pytest.approx(0.9876, abs=1e-3)
    assert 1 - overlaps.psi3_literal == pytest.approx(0.9876, abs=1e-3)
    # the phase-weighted sum is real for this instance, so the readings agree
    _, total = oracles.weight_sums_loop(inst15)
    assert abs(total.imag) < 1e-12
    assert overlaps.psi3 == abs(total) ** 2 / 16
    assert overlaps.psi3_literal == (total * total).real / 16


def test_literal_reading_is_not_an_overlap():
    # at N=51 x=2 (r = 8) S_as leaves the real axis: the two readings differ
    overlaps = ent.closed_form_overlaps(make_instance(51, 2))
    assert 1 - overlaps.psi3 == pytest.approx(0.988327, abs=5e-7)
    assert 1 - overlaps.psi3_literal == pytest.approx(0.988463, abs=5e-7)
    assert overlaps.psi3 - overlaps.psi3_literal == pytest.approx(1.357e-4, abs=5e-8)
    # Re(S**2) <= |S|**2 on every r | Q instance of the golden ladder
    for n, x, t in ((15, 7, 8), (51, 2, 12), (17, 3, 8), (17, 3, 15)):
        overlaps = ent.closed_form_overlaps(make_instance(n, x, t=t))
        assert overlaps.psi3_literal <= overlaps.psi3


def test_closed_form_overlaps_warn_outside_unit_interval(inst15):
    # r = 2 with a light (a, s) = (1, 1) term: S_as ~ 3 > r, so 1 - |S_as|**2 / r**2 < 0
    weights_ab = np.full((2, 2), 7, dtype=np.int64)
    weights_as = np.array([[0, 0], [0, 7]], dtype=np.int64)
    with pytest.warns(UserWarning, match="outside") as record:
        overlaps = ent._overlaps_from_weights(weights_ab, weights_as, 15, inst15.Q)
    assert len(record) == 1 and "psi3" in str(record[0].message)
    assert overlaps.psi3 > 1.0


def test_closed_form_psi3_hand_sum():
    # r = 2 with all-equal weights: phases are {+1, +1, +1, -1}
    # (the sign of S_as never reaches an output: r**2 * overlap is |S_as|**2)
    w, n = 7, 15
    weights_as = np.full((2, 2), w, dtype=np.int64)
    term = ent.hamming_weight_term(w, n)
    overlaps = ent._overlaps_from_weights(np.zeros((2, 2), dtype=np.int64), weights_as, n, 16)
    assert 4 * overlaps.psi3 == pytest.approx((2 * term) ** 2, abs=1e-12)
    assert 4 * overlaps.psi3_literal == pytest.approx((2 * term) ** 2, abs=1e-12)


def test_closed_form_psi3_trivial_order():
    from shormeter.numtheory import ShorInstance

    inst = ShorInstance(N=15, x=1, t=3, L=4)
    overlaps = ent.closed_form_overlaps(inst)
    assert overlaps.psi3_literal == pytest.approx(overlaps.psi3, abs=1e-12)


def test_gamma_factor_values_and_identity(inst15):
    # gamma = S**2 = D * overlap (D = Q for psi2, r**2 for psi3) links the
    # geometric quantities of a stage: C_g + (1 - E_g) / gamma == 1
    overlaps = ent.closed_form_overlaps(inst15)
    eg2, eg3 = 1 - overlaps.psi2, 1 - overlaps.psi3
    s_ab, s_as = oracles.weight_sums_loop(inst15)
    g_ab = inst15.Q * overlaps.psi2  # S_ab**2
    assert g_ab == pytest.approx(s_ab**2, rel=1e-12)
    assert g_ab == pytest.approx(2048 * (1 - eg2), rel=1e-12)
    assert g_ab == pytest.approx(318.5, abs=0.1)
    assert 0.0 < g_ab < inst15.Q
    c_g2 = 1 - 1 / inst15.Q
    assert c_g2 + (1 - eg2) / g_ab == pytest.approx(1.0, abs=1e-9)
    g_as = inst15.r**2 * overlaps.psi3  # |S_as|**2
    assert g_as == pytest.approx(abs(s_as) ** 2, rel=1e-12)
    assert 0.0 < g_as < inst15.r**2
    assert (1 - 1 / 16) + (1 - eg3) / g_as == pytest.approx(1.0, abs=1e-9)
    # gamma > 1 iff geometric coherence exceeds entanglement at that stage
    assert g_ab > 1 and c_g2 > eg2
    assert g_as < 1 and (1 - 1 / 16) < eg3


def test_bruteforce_known_values():
    assert oracles.bruteforce_geometric_entanglement(bell_state()) == pytest.approx(0.5, abs=1e-9)
    lay = RegisterLayout(t=2, L=1)
    w = np.zeros(8, dtype=complex)
    w[[1, 2, 4]] = 1 / math.sqrt(3)
    assert oracles.bruteforce_geometric_entanglement(oracles.from_dense(lay, w)) == pytest.approx(
        5 / 9, abs=1e-9
    )


def test_bruteforce_product_states_vanish():
    rng = np.random.default_rng(9)
    for _ in range(5):
        state = product_state(RegisterLayout(t=2, L=1), rng)
        assert oracles.bruteforce_geometric_entanglement(state) <= 1e-6


def test_bruteforce_scale_cap():
    lay = RegisterLayout(t=3, L=1)
    state = oracles.from_dense(lay, np.eye(16, dtype=complex)[0])
    with pytest.raises(ValueError):
        oracles.bruteforce_geometric_entanglement(state)


def test_subset_ordering_symmetric_vs_bruteforce():
    rng = np.random.default_rng(33)
    layouts = [RegisterLayout(t=1, L=1), RegisterLayout(t=2, L=1)]
    for lay in layouts:
        for _ in range(10):
            state = random_state(lay, rng)
            sym = oracles.symmetric_optimum(state).entanglement
            brute = oracles.bruteforce_geometric_entanglement(state)
            assert sym >= brute - 1e-12


@pytest.fixture(scope="module")
def pipeline15_t8():
    return tuple(run_order_finding_circuit(make_instance(15, 7, t=8)))


def single_column_state(make_state, t, L, y, rng):
    """make_state's state on t qubits as register A, with register B in |y>."""
    phi = oracles.to_dense(make_state(RegisterLayout(t=t - 1, L=1), rng))
    return oracles.state_of(RegisterLayout(t=t, L=L), phi[:, None], [y])


def test_product_family_never_exceeds_symmetric(pipeline15, pipeline15_t8):
    # the all-starts oracle includes the symmetric optimum among its starts
    psi1 = pipeline15[0]
    for state in (psi1, _perturbed(psi1, 1e-3), *pipeline15_t8[1:]):
        sym = oracles.symmetric_optimum(state).entanglement
        assert oracles.all_starts_product_entanglement(state) <= sym + 1e-12


def test_entanglement_values_stay_physical(pipeline15):
    for state in pipeline15:
        value = oracles.symmetric_optimum(state).entanglement
        assert 0.0 <= value <= 1.0


def test_all_starts_product_entanglement_vanishes_on_random_product_states():
    # register A holds a random product state, register B one basis state
    rng = np.random.default_rng(404)
    for t, L in ((2, 1), (3, 2), (4, 3)):
        for _ in range(6):
            state = single_column_state(product_state, t, L, int(rng.integers(2**L)), rng)
            assert oracles.all_starts_product_entanglement(state) == 0.0


@pytest.mark.parametrize("n, x, t", [(15, 7, 11), (21, 2, 10), (25, 7, 10)])
def test_product_family_exact_zero_on_psi1_ladder(n, x, t):
    psi1 = tuple(run_order_finding_circuit(make_instance(n, x, t=t)))[0]
    assert oracles.all_starts_product_entanglement(psi1) == 0.0


def test_weight_sums_match_bit_loop():
    # in column-major order: down each register-B column, label by label
    rng = np.random.default_rng(5)
    state = random_state(RegisterLayout(t=3, L=3), rng)
    lay = state.layout
    dense = oracles.to_dense(state)
    expected = np.zeros(lay.n + 1, dtype=np.complex128)
    for y in range(lay.dim_b):
        for j in range(lay.Q):
            i = j * lay.dim_b + y
            if dense[i] != 0:
                expected[i.bit_count()] += dense[i].conj()
    assert np.array_equal(weight_sums(state), expected)


# orders r = 4, 4, 16, 8, 16, 1, 2
@pytest.mark.parametrize(
    "n, x, t", [(15, 7, 11), (15, 2, 6), (17, 3, 9), (51, 2, 12), (51, 5, 8), (15, 1, 3), (15, 4, 8)]
)
def test_hamming_table_matches_bit_count_loop(n, x, t):
    # the popcount grids and weight sums behind the closed forms, bit for bit
    inst = make_instance(n, x, t=t)
    got, want = ent.closed_form_overlaps(inst), oracles.closed_form_overlaps_loop(inst)
    assert [v.hex() for v in got] == [v.hex() for v in want]
