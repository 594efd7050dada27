import json
import math

import numpy as np
import pytest

from oracles import (
    apply_qft_A,
    dump_nonzero_json,
    ideal_psi3,
    modexp_all_columns,
    outcome_probability,
    register_b_support,
)
from shormeter.numtheory import ShorInstance, make_instance
from shormeter.statevec import (
    OutcomeDistribution,
    PureState,
    RegisterLayout,
    apply_hadamard_layer,
    apply_inverse_qft_A,
    apply_modexp_unitary,
    init_state,
    measurement_distribution_A,
    outcome_distribution,
    run_order_finding_circuit,
    sample_outcome,
)


def random_state(layout, rng):
    vec = rng.standard_normal(layout.dim) + 1j * rng.standard_normal(layout.dim)
    return PureState(layout, vec / np.linalg.norm(vec))


def hadamard_all_columns(state):
    """Oracle: the Hadamard layer run over every register-B column."""
    lay = state.layout
    arr = state.amplitudes.reshape((2,) * lay.t + (lay.dim_b,)).copy()
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    for axis in range(lay.t):
        view = np.moveaxis(arr, axis, 0)
        top = view[0].copy()
        view[0] = (top + view[1]) * inv_sqrt2
        view[1] = (top - view[1]) * inv_sqrt2
    return PureState(lay, arr.reshape(-1))


def inverse_qft_all_columns(state):
    """Oracle: the inverse register-A transform run over every register-B column."""
    out = np.fft.fft(state.as_grid(), axis=0) / math.sqrt(state.layout.Q)
    return PureState(state.layout, out.reshape(-1))


def assert_same_bytes(got, expected):
    assert got.amplitudes.tobytes() == expected.amplitudes.tobytes()


def few_column_state(layout, columns, rng):
    grid = np.zeros((layout.Q, layout.dim_b), dtype=complex)
    shape = (layout.Q, len(columns))
    grid[:, columns] = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return PureState(layout, grid.reshape(-1) / np.linalg.norm(grid))


def test_init_state_small():
    state = init_state(RegisterLayout(t=1, L=1))
    assert np.allclose(state.amplitudes, [0, 1, 0, 0])


def test_init_state_reference_layout():
    state = init_state(RegisterLayout(t=11, L=4))
    assert state.support().tolist() == [1]
    assert abs(np.vdot(state.amplitudes, state.amplitudes) - 1) < 1e-12


def test_norm_validation():
    lay = RegisterLayout(t=1, L=1)
    with pytest.raises(ValueError):
        PureState(lay, np.array([1.0, 1.0, 0.0, 0.0]))


def test_states_are_immutable():
    state = init_state(RegisterLayout(t=2, L=1))
    with pytest.raises(ValueError):
        state.amplitudes[0] = 1.0


def test_state_does_not_share_caller_memory():
    lay = RegisterLayout(t=1, L=1)
    vec = np.array([0.0, 1.0, 0.0, 0.0], dtype=complex)
    readonly_view = vec[:]
    readonly_view.setflags(write=False)
    states = [PureState(lay, vec), PureState(lay, readonly_view)]
    vec[1] = -1.0
    for state in states:
        assert state.amplitudes[1] == 1.0


def test_hadamard_layer_uniform(pipeline15):
    psi1 = pipeline15[0]
    grid = psi1.as_grid()
    assert np.allclose(grid[:, 1], 1.0 / math.sqrt(2048))
    assert np.abs(grid[:, [0] + list(range(2, 16))]).max() == 0.0


def test_hadamard_layer_involution():
    rng = np.random.default_rng(3)
    state = random_state(RegisterLayout(t=3, L=2), rng)
    back = apply_hadamard_layer(apply_hadamard_layer(state))
    assert np.abs(back.amplitudes - state.amplitudes).max() < 1e-12


def test_hadamard_single_qubit():
    state = apply_hadamard_layer(init_state(RegisterLayout(t=1, L=1)))
    assert np.allclose(state.amplitudes, [0, 1 / math.sqrt(2), 0, 1 / math.sqrt(2)])


def test_modexp_orbit_support(pipeline15):
    psi2 = pipeline15[1]
    assert register_b_support(psi2) == [1, 4, 7, 13]
    assert abs(np.vdot(psi2.amplitudes, psi2.amplitudes).real - 1.0) < 1e-10


def test_modexp_identity_for_x_equal_one():
    inst = ShorInstance(N=15, x=1, t=3, L=4, r=1)
    state = apply_hadamard_layer(init_state(RegisterLayout(t=3, L=4)))
    moved = apply_modexp_unitary(state, inst)
    assert np.abs(moved.amplitudes - state.amplitudes).max() == 0.0


def test_modexp_rejects_amplitude_beyond_modulus():
    inst = make_instance(15, 7, t=2)
    lay = RegisterLayout(t=2, L=4)
    vec = np.zeros(lay.dim, dtype=complex)
    vec[15] = 1.0  # register-B value 15 == N
    with pytest.raises(ValueError):
        apply_modexp_unitary(PureState(lay, vec), inst)


def test_inverse_qft_concentrates_uniform_block():
    lay = RegisterLayout(t=4, L=1)
    vec = np.zeros(lay.dim, dtype=complex)
    vec[::2] = 1.0 / math.sqrt(lay.Q)  # uniform over register A at y=0
    out = apply_inverse_qft_A(PureState(lay, vec))
    probs = measurement_distribution_A(out).probabilities
    assert probs[0] == pytest.approx(1.0, abs=1e-12)


def test_qft_roundtrip_matches_dense_kernel():
    rng = np.random.default_rng(8)
    for t in (1, 2, 3, 4):
        lay = RegisterLayout(t=t, L=2)
        state = random_state(lay, rng)
        roundtrip = apply_qft_A(apply_inverse_qft_A(state))
        assert np.abs(roundtrip.amplitudes - state.amplitudes).max() < 1e-10
        # independent check against the explicitly-built kernel matrix
        q = lay.Q
        j, k = np.meshgrid(np.arange(q), np.arange(q), indexing="ij")
        kernel = np.exp(-2j * np.pi * j * k / q) / math.sqrt(q)
        expected = (kernel @ state.as_grid()).reshape(-1)
        got = apply_inverse_qft_A(state).amplitudes
        assert np.abs(got - expected).max() < 1e-10


def test_final_stage_measurement_support(pipeline15):
    psi3 = pipeline15[2]
    probs = measurement_distribution_A(psi3).probabilities
    peaks = np.nonzero(probs > 1e-9)[0].tolist()
    assert peaks == [0, 512, 1024, 1536]
    assert np.allclose(probs[peaks], 0.25, atol=1e-12)


def test_ideal_psi3_structure(inst15):
    state = ideal_psi3(inst15)
    support = state.support()
    assert len(support) == 16
    assert np.allclose(np.abs(state.amplitudes[support]), 0.25, atol=1e-15)


def test_ideal_psi3_trivial_order():
    inst = ShorInstance(N=15, x=1, t=3, L=4, r=1)
    state = ideal_psi3(inst)
    assert state.support().tolist() == [1]


def test_ideal_psi3_requires_divisibility():
    inst = make_instance(21, 2)
    assert inst.r == 6
    with pytest.raises(ValueError, match="divide"):
        ideal_psi3(inst)


def test_ideal_matches_evolution(inst15, pipeline15):
    ideal = ideal_psi3(inst15)
    assert np.abs(ideal.amplitudes - pipeline15[2].amplitudes).max() < 1e-9


def test_gates_preserve_norm():
    rng = np.random.default_rng(21)
    inst = make_instance(15, 7, t=4)
    lay = RegisterLayout(t=4, L=4)
    vec = np.zeros((lay.Q, lay.dim_b), dtype=complex)
    vec[:, :15] = rng.standard_normal((lay.Q, 15)) + 1j * rng.standard_normal((lay.Q, 15))
    vec = vec.reshape(-1)
    state = PureState(lay, vec / np.linalg.norm(vec))
    for op in (apply_hadamard_layer, lambda s: apply_modexp_unitary(s, inst), apply_inverse_qft_A):
        state = op(state)
        norm = float(np.vdot(state.amplitudes, state.amplitudes).real)
        assert abs(norm - 1.0) < 1e-10


@pytest.mark.parametrize("t, L", [(1, 1), (3, 2), (6, 3)])
def test_gates_match_all_column_oracles_on_dense_states(t, L):
    rng = np.random.default_rng(100 * t + L)
    for _ in range(3):
        state = random_state(RegisterLayout(t=t, L=L), rng)
        assert_same_bytes(apply_hadamard_layer(state), hadamard_all_columns(state))
        assert_same_bytes(apply_inverse_qft_A(state), inverse_qft_all_columns(state))


def test_gates_match_all_column_oracles_on_few_columns():
    rng = np.random.default_rng(31)
    lay = RegisterLayout(t=6, L=4)
    for columns in ([1], [0, 5, 11], [2, 3, 15]):
        state = few_column_state(lay, columns, rng)
        for gate, oracle in (
            (apply_hadamard_layer, hadamard_all_columns),
            (apply_inverse_qft_A, inverse_qft_all_columns),
        ):
            out = gate(state)
            assert_same_bytes(out, oracle(state))
            assert register_b_support(out) == columns


@pytest.mark.parametrize("n, x, t", [(15, 7, 11), (21, 2, 10), (33, 2, None)])
def test_circuit_stages_match_all_column_oracles(n, x, t):
    inst = make_instance(n, x, t=t)
    psi1, psi2, psi3 = run_order_finding_circuit(inst)
    expected1 = hadamard_all_columns(init_state(RegisterLayout.for_instance(inst)))
    assert_same_bytes(psi1, expected1)
    expected2 = modexp_all_columns(expected1, inst)
    assert_same_bytes(psi2, expected2)
    assert_same_bytes(psi3, inverse_qft_all_columns(expected2))


@pytest.mark.parametrize("n, x", [(15, 7), (21, 2), (33, 2), (51, 2), (63, 2)])
def test_modexp_matches_all_column_oracle_on_uniform_stage(n, x):
    inst = make_instance(n, x)
    psi1 = apply_hadamard_layer(init_state(RegisterLayout.for_instance(inst)))
    assert_same_bytes(apply_modexp_unitary(psi1, inst), modexp_all_columns(psi1, inst))


def test_modexp_matches_all_column_oracle_on_few_columns():
    rng = np.random.default_rng(47)
    inst = make_instance(15, 7, t=6)
    lay = RegisterLayout.for_instance(inst)
    for columns in ([0], [1, 4], [2, 9, 14], list(range(15))):
        state = few_column_state(lay, columns, rng)
        assert_same_bytes(apply_modexp_unitary(state, inst), modexp_all_columns(state, inst))


def test_measurement_distribution_basics():
    lay = RegisterLayout(t=2, L=1)
    vec = np.zeros(lay.dim, dtype=complex)
    vec[4] = 1.0  # register-A value 2, register-B value 0
    probs = measurement_distribution_A(PureState(lay, vec)).probabilities
    assert probs.tolist() == [0.0, 0.0, 1.0, 0.0]


def test_outcome_peak_and_offpeak_values():
    assert outcome_probability(512, 4, 2048) == pytest.approx(0.25, abs=1e-12)
    assert outcome_probability(1, 4, 2048) == pytest.approx(0.0, abs=1e-12)
    for k in range(8):
        assert outcome_probability(k, 1, 8) == (1.0 if k == 0 else 0.0)


def test_outcome_dual_path_full_grids():
    # outcome_probability raises internally if the two evaluation routes disagree
    for r, q in ((4, 2048), (3, 64), (5, 128)):
        total = sum(outcome_probability(k, r, q) for k in range(q))
        assert total == pytest.approx(1.0, abs=1e-9)


def test_outcome_distribution_matches_pointwise():
    for r, q in ((3, 64), (5, 128)):
        dist = outcome_distribution(r, q).probabilities
        for k in range(q):
            assert dist[k] == pytest.approx(outcome_probability(k, r, q), abs=1e-12)


def test_simulated_distribution_matches_closed_form(pipeline15):
    probs = measurement_distribution_A(pipeline15[2]).probabilities
    closed = outcome_distribution(4, 2048).probabilities
    assert np.abs(probs - closed).max() < 1e-9


@pytest.mark.parametrize("n, x, t", [(21, 2, 10), (49, 3, 10)])
def test_closed_form_distribution_matches_simulation_when_order_does_not_divide(n, x, t):
    inst = make_instance(n, x, t=t)
    assert inst.Q % inst.r != 0
    simulated = measurement_distribution_A(run_order_finding_circuit(inst)[2]).probabilities
    closed = outcome_distribution(inst.r, inst.Q).probabilities
    assert np.abs(simulated - closed).max() < 1e-12


@pytest.mark.parametrize("r, q", [(1, 16), (16, 16), (24, 16), (40, 8)])
def test_outcome_distribution_edge_orders(r, q):
    dist = outcome_distribution(r, q).probabilities
    expected = [outcome_probability(k, r, q) for k in range(q)]
    assert np.abs(dist - expected).max() < 1e-12


def test_outcome_distribution_rejects_dimension_beyond_int64_phases():
    with pytest.raises(ValueError, match="2\\*\\*31"):
        outcome_distribution(3, 2**31 + 1)


def test_sample_outcome_delta_distribution():
    dist = OutcomeDistribution(np.array([0.0, 0.0, 1.0, 0.0]))
    for seed in (0, 1, 12345):
        assert sample_outcome(dist, seed) == 2


def test_sample_outcome_frequencies(inst15, pipeline15):
    dist = measurement_distribution_A(pipeline15[2])
    rng = np.random.default_rng(42)
    draws = np.array([sample_outcome(dist, rng) for _ in range(4096)])
    for peak in (0, 512, 1024, 1536):
        freq = np.mean(draws == peak)
        assert abs(freq - 0.25) < 0.03


def test_sample_outcome_seed_replay(pipeline15):
    dist = measurement_distribution_A(pipeline15[2])
    rng_a = np.random.default_rng(7)
    rng_b = np.random.default_rng(7)
    seq_a = [sample_outcome(dist, rng_a) for _ in range(20)]
    seq_b = [sample_outcome(dist, rng_b) for _ in range(20)]
    assert seq_a == seq_b


def test_dump_nonzero_json_sorted():
    lay = RegisterLayout(t=1, L=1)
    state = apply_hadamard_layer(init_state(lay))
    triples = json.loads(dump_nonzero_json(state))
    assert [row[0] for row in triples] == [1, 3]
    assert triples[0][1] == pytest.approx(1 / math.sqrt(2))


def test_run_circuit_returns_three_normalized_stages(pipeline15):
    for state in pipeline15:
        assert abs(np.vdot(state.amplitudes, state.amplitudes).real - 1.0) < 1e-10
