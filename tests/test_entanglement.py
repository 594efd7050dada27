import math

import numpy as np
import pytest

import oracles
from shormeter import entanglement as ent
from shormeter import make_instance, run_order_finding_circuit
from shormeter.cli import _perturbed
from shormeter.statevec import PureState, RegisterLayout


def product_state(layout, rng):
    qubits = []
    for _ in range(layout.n):
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        qubits.append(v / np.linalg.norm(v))
    vec = qubits[0]
    for q in qubits[1:]:
        vec = np.kron(vec, q)
    return PureState(layout, vec)


def random_state(layout, rng):
    vec = rng.standard_normal(layout.dim) + 1j * rng.standard_normal(layout.dim)
    return PureState(layout, vec / np.linalg.norm(vec))


def bell_state():
    lay = RegisterLayout(t=1, L=1)
    return PureState(lay, np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2))


def test_weight_term_edges_and_interior():
    assert ent.hamming_weight_term(0, 15) == 1.0
    assert ent.hamming_weight_term(15, 15) == 1.0
    w, n = 4, 15
    expected = ((n - w) / n) ** ((n - w) / 2) * (w / n) ** (w / 2)
    assert ent.hamming_weight_term(w, n) == pytest.approx(expected, rel=1e-15)
    with pytest.raises(ValueError):
        ent.hamming_weight_term(16, 15)


def test_hamming_table_entries(inst15):
    table = ent.build_hamming_table(inst15)
    assert table.weights_ab.shape == (4, 512)
    assert table.weights_as.shape == (4, 4)
    assert table.weights_ab[0, 0] == 1  # label (0, 1) -> popcount 1
    assert table.weights_as[1, 1] == 4  # label 8192 + 7 -> popcount 4
    assert table.weights_ab.max() <= 15 and table.weights_as.max() <= 15
    assert table.weights_ab.min() >= 0


def test_hamming_table_requires_divisible_order():
    from shormeter import make_instance

    with pytest.raises(ValueError, match="divide"):
        ent.build_hamming_table(make_instance(21, 2))


def test_symmetric_overlap_trivial_angles():
    lay = RegisterLayout(t=2, L=1)
    zero = PureState(lay, np.eye(8, dtype=complex)[0])
    assert oracles.symmetric_overlap(zero, 0.0) == pytest.approx(1.0, abs=1e-12)
    rng = np.random.default_rng(4)
    state = random_state(lay, rng)
    got = oracles.symmetric_overlap(state, math.pi)
    assert got == pytest.approx(complex(state.amplitudes[-1].conjugate()), abs=1e-9)


def test_symmetric_overlap_matches_weight_table_expression(inst15, pipeline15):
    # the one-pass overlap must equal the per-weight-table double sum
    psi2 = pipeline15[1]
    table = ent.build_hamming_table(inst15)
    n, q = 15, inst15.Q
    for angle in (0.3, 1.0, 1.7, 2.9):
        c, s = math.cos(angle / 2), math.sin(angle / 2)
        expected = sum(
            c ** (n - int(w)) * s ** int(w) for w in table.weights_ab.flat
        ) / math.sqrt(q)
        assert oracles.symmetric_overlap(psi2, angle) == pytest.approx(expected, abs=1e-9)


def test_symmetric_entanglement_product_state_zero():
    lay = RegisterLayout(t=2, L=1)
    zero = PureState(lay, np.eye(8, dtype=complex)[0])
    opt = ent.geometric_entanglement_symmetric(zero)
    assert opt.entanglement == pytest.approx(0.0, abs=1e-12)
    assert opt.alpha_angle == pytest.approx(0.0, abs=1e-6)


def test_symmetric_entanglement_bell():
    opt = ent.geometric_entanglement_symmetric(bell_state())
    assert opt.entanglement == pytest.approx(0.5, abs=1e-9)


def test_symmetric_entanglement_grid_doubling_invariance(pipeline15):
    for state in pipeline15[1:]:
        coarse = ent.geometric_entanglement_symmetric(state, grid_points=2048)
        fine = ent.geometric_entanglement_symmetric(state, grid_points=4096)
        assert abs(coarse.entanglement - fine.entanglement) < 1e-9


def test_per_weight_maximum_identity():
    # single-label states: the 1-D optimizer must land on the per-weight maximum
    lay = RegisterLayout(t=11, L=4)
    n = lay.n
    for w in range(n + 1):
        vec = np.zeros(lay.dim, dtype=complex)
        vec[(1 << w) - 1] = 1.0  # label with w low bits set
        opt = ent.geometric_entanglement_symmetric(PureState(lay, vec))
        target = ent.hamming_weight_term(w, n)
        assert math.sqrt(opt.overlap_sq) == pytest.approx(target, abs=1e-9)
        if 0 < w < n:
            expected_angle = 2.0 * math.acos(math.sqrt((n - w) / n))
            assert opt.alpha_angle == pytest.approx(expected_angle, abs=1e-3)


def test_closed_form_psi2_value(inst15):
    table = ent.build_hamming_table(inst15)
    value = 1 - ent.closed_form_overlaps(table, inst15.Q).psi2
    assert value == pytest.approx(0.8445, abs=1e-3)


def test_closed_form_psi2_degenerate_table_warns(inst15):
    table = ent.HammingTable(
        n=15,
        weights_ab=np.zeros((4, 512), dtype=np.int64),
        weights_as=np.zeros((4, 4), dtype=np.int64),
    )
    with pytest.warns(UserWarning, match="non-physical"):
        value = 1 - ent.closed_form_overlaps(table, inst15.Q).psi2
    assert value == pytest.approx(1 - inst15.Q)


def test_closed_form_psi2_single_term_collapse(inst15):
    w = 6
    table = ent.HammingTable(
        n=15,
        weights_ab=np.array([[w]], dtype=np.int64),
        weights_as=np.array([[w]], dtype=np.int64),
    )
    expected = 1 - ent.hamming_weight_term(w, 15) ** 2 / inst15.Q
    assert 1 - ent.closed_form_overlaps(table, inst15.Q).psi2 == pytest.approx(expected, rel=1e-12)


def test_closed_form_psi3_value(inst15):
    table = ent.build_hamming_table(inst15)
    overlaps = ent.closed_form_overlaps(table, inst15.Q)
    assert 1 - overlaps.psi3 == pytest.approx(0.9876, abs=1e-3)
    assert 1 - overlaps.psi3_literal == pytest.approx(0.9876, abs=1e-3)
    # the phase-weighted sum is real for this instance, so the readings agree
    assert abs(ent.weight_sum_as(table).imag) < 1e-12
    total = ent.weight_sum_as(table)
    assert overlaps.psi3 == abs(total) ** 2 / 16
    assert overlaps.psi3_literal == (total * total).real / 16


def test_closed_form_overlaps_warn_outside_unit_interval(inst15):
    # r = 2 with a light (a, s) = (1, 1) term: S_as ~ 3 > r, so 1 - |S_as|**2 / r**2 < 0
    table = ent.HammingTable(
        n=15,
        weights_ab=np.full((2, 2), 7, dtype=np.int64),
        weights_as=np.array([[0, 0], [0, 7]], dtype=np.int64),
    )
    with pytest.warns(UserWarning, match="outside") as record:
        overlaps = ent.closed_form_overlaps(table, inst15.Q)
    assert len(record) == 1 and "psi3" in str(record[0].message)
    assert overlaps.psi3 > 1.0


def test_closed_form_psi3_hand_sum():
    # r = 2 with all-equal weights: phases are {+1, +1, +1, -1}
    w, n = 7, 15
    table = ent.HammingTable(
        n=n,
        weights_ab=np.zeros((2, 2), dtype=np.int64),
        weights_as=np.full((2, 2), w, dtype=np.int64),
    )
    term = ent.hamming_weight_term(w, n)
    total = ent.weight_sum_as(table)
    assert total == pytest.approx(2 * term, abs=1e-12)


def test_closed_form_psi3_trivial_order():
    from shormeter.numtheory import ShorInstance

    inst = ShorInstance(N=15, x=1, t=3, L=4, r=1)
    table = ent.build_hamming_table(inst)
    overlaps = ent.closed_form_overlaps(table, inst.Q)
    assert overlaps.psi3_literal == pytest.approx(overlaps.psi3, abs=1e-12)


def test_gamma_factor_values_and_identity(inst15):
    # gamma = S**2 = D * overlap (D = Q for psi2, r**2 for psi3) links the
    # geometric quantities of a stage: C_g + (1 - E_g) / gamma == 1
    table = ent.build_hamming_table(inst15)
    overlaps = ent.closed_form_overlaps(table, inst15.Q)
    eg2, eg3 = 1 - overlaps.psi2, 1 - overlaps.psi3
    g_ab = ent.weight_sum_ab(table) ** 2
    assert g_ab == pytest.approx(2048 * (1 - eg2), rel=1e-12)
    assert g_ab == pytest.approx(318.5, abs=0.1)
    assert 0.0 < g_ab < inst15.Q
    c_g2 = 1 - 1 / inst15.Q
    assert c_g2 + (1 - eg2) / g_ab == pytest.approx(1.0, abs=1e-9)
    g_as = abs(ent.weight_sum_as(table)) ** 2
    assert g_as == pytest.approx(16 * overlaps.psi3, rel=1e-12)
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
    assert oracles.bruteforce_geometric_entanglement(PureState(lay, w)) == pytest.approx(
        5 / 9, abs=1e-9
    )


def test_bruteforce_product_states_vanish():
    rng = np.random.default_rng(9)
    for _ in range(5):
        state = product_state(RegisterLayout(t=2, L=1), rng)
        assert oracles.bruteforce_geometric_entanglement(state) <= 1e-6


def test_bruteforce_scale_cap():
    lay = RegisterLayout(t=3, L=1)
    state = PureState(lay, np.eye(16, dtype=complex)[0])
    with pytest.raises(ValueError):
        oracles.bruteforce_geometric_entanglement(state)


def test_subset_ordering_symmetric_vs_bruteforce():
    rng = np.random.default_rng(33)
    layouts = [RegisterLayout(t=1, L=1), RegisterLayout(t=2, L=1)]
    for lay in layouts:
        for _ in range(10):
            state = random_state(lay, rng)
            sym = ent.geometric_entanglement_symmetric(state).entanglement
            brute = oracles.bruteforce_geometric_entanglement(state)
            assert sym >= brute - 1e-12


def test_product_family_optimizer_on_separable_states():
    rng = np.random.default_rng(101)
    state = product_state(RegisterLayout(t=3, L=2), rng)
    assert ent.geometric_entanglement_product(state) <= 1e-9


def test_product_family_never_exceeds_symmetric(pipeline15):
    for state in pipeline15:
        sym = ent.geometric_entanglement_symmetric(state).entanglement
        full = ent.geometric_entanglement_product(state)
        assert full <= sym + 1e-12


def test_entanglement_values_stay_physical(pipeline15):
    for state in pipeline15:
        value = ent.geometric_entanglement_symmetric(state).entanglement
        assert 0.0 <= value <= 1.0


def all_starts_product_entanglement(state, restarts=8, seed=1815):
    """Reference for the product-family optimizer: every start, no early exit."""
    n = state.layout.n
    conj_tensor = state.amplitudes.conj().reshape((2,) * n)
    rng = np.random.default_rng(seed)
    starts = [ent._marginal_seed(state), ent._symmetric_seed(state)]
    starts.append([np.full(2, 1.0 / math.sqrt(2.0), dtype=np.complex128) for _ in range(n)])
    starts.extend(ent._random_qubit_states(n, rng) for _ in range(restarts))
    best = max(ent._als_overlap(conj_tensor, start) for start in starts)
    return max(0.0, 1.0 - best * best)


@pytest.fixture(scope="module")
def pipeline15_t8():
    return run_order_finding_circuit(make_instance(15, 7, t=8))


@pytest.mark.parametrize("make_state, seed", [(product_state, 404), (random_state, 77)])
def test_product_family_matches_all_starts_on_random_states(make_state, seed):
    # product states take the early exit; entangled ones run every start, and any can win
    rng = np.random.default_rng(seed)
    for lay in (RegisterLayout(t=1, L=1), RegisterLayout(t=2, L=2), RegisterLayout(t=3, L=3)):
        for _ in range(6):
            state = make_state(lay, rng)
            assert ent.geometric_entanglement_product(state) == all_starts_product_entanglement(
                state
            )


def test_product_family_early_exit_matches_all_starts_on_pipeline(pipeline15_t8):
    psi1 = pipeline15_t8[0]
    for state in (*pipeline15_t8, _perturbed(psi1, 1e-3)):
        assert ent.geometric_entanglement_product(state) == all_starts_product_entanglement(
            state
        )


def test_product_family_stops_after_marginal_seed_on_psi1(pipeline15, monkeypatch):
    runs = []
    contractions = []
    als = ent._als_overlap
    environment = ent._environment

    def counted(*args, **kwargs):
        runs.append(1)
        return als(*args, **kwargs)

    def counted_environment(*args, **kwargs):
        contractions.append(1)
        return environment(*args, **kwargs)

    def forbidden(state):
        raise AssertionError("symmetric seed built after an exact start")

    monkeypatch.setattr(ent, "_als_overlap", counted)
    monkeypatch.setattr(ent, "_environment", counted_environment)
    monkeypatch.setattr(ent, "_symmetric_seed", forbidden)
    assert ent.geometric_entanglement_product(pipeline15[0]) == 0.0
    assert len(runs) == 1
    # the ALS run returns once the overlap reaches 1, within its first sweep
    assert 0 < len(contractions) <= pipeline15[0].layout.n


def test_weight_coefficients_match_bit_loop():
    rng = np.random.default_rng(5)
    state = random_state(RegisterLayout(t=3, L=3), rng)
    expected = np.zeros(state.layout.n + 1, dtype=np.complex128)
    for i in state.support():
        expected[int(i).bit_count()] += state.amplitudes[i].conj()
    assert np.array_equal(ent._weight_coefficients(state), expected)
