import contextlib
import io
import json
import math
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    add_at_weight_sums,
    block_of,
    dense_grid,
    dense_perturbed,
    column_flat_sum,
    distribution_of,
    apply_inverse_qft_A,
    apply_qft_A,
    dump_nonzero_json,
    from_dense,
    full_table_modexp_columns,
    mirrored_half,
    hadamard_all_columns,
    ideal_psi3,
    inverse_qft_all_columns,
    make_instance,
    measurement_probabilities_A,
    modexp_all_columns,
    outcome_probability,
    real_inverse_qft_all_columns,
    register_b_support,
    row_sums_of_squares,
    state_of,
    to_dense,
    unfolded,
    long_double_outcome_probabilities,
    whole_array_outcome_probabilities,
)
from shormeter import entanglement as ent
from shormeter import measures, statevec, theorems
from shormeter.cli import main
from shormeter.numtheory import RegisterLayout, ShorInstance
from shormeter.statevec import (
    NORM_TOL,
    PureState,
    final_distribution,
    final_probabilities,
    outcome_distribution,
    run_order_finding_circuit,
    sample_outcome,
    uniform_state,
)


def random_vector(dim, rng):
    vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return vec / np.linalg.norm(vec)


def random_state(layout, rng):
    return from_dense(layout, random_vector(layout.dim, rng))


def assert_same_bytes(got, expected):
    """`got` is a column-stored state, `expected` a dense vector: the same
    exactly nonzero amplitudes, bit for bit, at the same places, or, for a
    mirrored state, those of rows [0, Q/2f] of its fold f.  A state stores
    no zero, so the sign of a zero is not compared."""
    want = from_dense(got.layout, expected)
    assert_same_state(got, mirrored_half(want, got.fold, got.classes) if got.mirrored else want)


def few_column_state(layout, columns, rng):
    block = random_vector(layout.Q * len(columns), rng).reshape(layout.Q, len(columns))
    return state_of(layout, block, columns)


def initial_vector(layout):
    """|0...0>|1> as a dense vector: joint index 1."""
    vec = np.zeros(layout.dim, dtype=complex)
    vec[1] = 1.0
    return vec


def test_uniform_state_small():
    state = uniform_state(RegisterLayout(t=1, L=1))
    s = math.sqrt(0.5)
    assert to_dense(state).tolist() == [0, s, 0, s]


def test_uniform_state_reference_layout():
    state = uniform_state(RegisterLayout(t=11, L=4))
    assert state.labels.tolist() == [1]
    assert state.mask.shape == (1, 2048) and state.mask.all()
    assert state.starts.tolist() == [0]
    assert np.all(state.amplitudes == math.sqrt(1.0 / 2048))
    assert abs(np.vdot(state.amplitudes, state.amplitudes) - 1) < 1e-12


@pytest.mark.parametrize("t", range(1, 13))
def test_uniform_state_is_the_once_rounding_hadamard_oracle(t):
    # sqrt(1/Q) is rounded once, and exact for even t; every butterfly of
    # the oracle on |0>|1> is exact, so both give the same bytes
    lay = RegisterLayout(t=t, L=2)
    state = uniform_state(lay)
    assert state.amplitudes.tobytes() == np.full(lay.Q, math.sqrt(1.0 / lay.Q), complex).tobytes()
    if t % 2 == 0:
        assert state.amplitudes[0] == 2.0 ** (-t // 2)
    assert_same_bytes(state, hadamard_all_columns(initial_vector(lay), lay))


def test_norm_validation():
    lay = RegisterLayout(t=1, L=1)
    with pytest.raises(ValueError):
        PureState(lay, [0], np.ones((1, 2), dtype=bool), [1.0, 1.0])


@pytest.mark.parametrize("value", [np.nan, np.inf, complex(np.nan, 0.5)])
def test_norm_validation_rejects_a_non_finite_block(value):
    with pytest.raises(ValueError, match="norm"):
        PureState(RegisterLayout(2, 2), [1], np.ones((1, 4), dtype=bool), np.full(4, value))


def test_a_mirrored_state_counts_rows_between_0_and_half_twice():
    # Q = 4 holds rows 0, 1 and 2: row 1 stands for row 3 as well, so its
    # entry counts twice in the norm, and rows 0 and 2 once
    lay = RegisterLayout(t=2, L=1)
    mask = np.ones((1, 3), dtype=bool)
    state = PureState(lay, [1], mask, [0.5, 0.5j, -0.5], mirrored=True)
    assert state.ends.tolist() == [0, 2]
    assert state.flat_sum(np.array([1.0, 2.0, 4.0])) == 1.0 + 2 * 2.0 + 4.0
    with pytest.raises(ValueError, match="norm"):
        PureState(lay, [1], mask, np.full(3, math.sqrt(1 / 3)), mirrored=True)
    with pytest.raises(ValueError, match="mask"):  # a mirrored mask has Q/2 + 1 rows
        PureState(lay, [1], np.ones((1, 4), dtype=bool), np.full(4, 0.5), mirrored=True)


def test_grown_entries_keep_their_values_and_stay_writeable():
    entries = np.arange(3, dtype=np.complex128)
    statevec._grow(entries, 5)
    assert entries.shape == (5,) and entries.flags.writeable and entries.flags.owndata
    assert entries[:3].tolist() == [0, 1, 2]


def test_states_are_immutable():
    state = uniform_state(RegisterLayout(t=2, L=1))
    for field, index in (("amplitudes", 0), ("mask", (0, 0)), ("labels", 0), ("starts", 0)):
        with pytest.raises(ValueError):
            getattr(state, field)[index] = 0


def test_state_takes_its_arrays_over_read_only():
    # no copy is made: the arrays a state is built from become read-only, so
    # their holder cannot change the state through them
    lay = RegisterLayout(t=1, L=1)
    labels, mask = np.array([1]), np.array([[True, False]])
    amplitudes = np.array([1.0 + 0.0j])
    state = PureState(lay, labels, mask, amplitudes)
    assert state.labels is labels and state.mask is mask and state.amplitudes is amplitudes
    for array, index in ((labels, 0), (mask, (0, 1)), (amplitudes, 0)):
        with pytest.raises(ValueError):
            array[index] = 0
    assert state.amplitudes.tolist() == [1.0] and state.labels.tolist() == [1]


def test_construction_drops_all_zero_columns():
    lay = RegisterLayout(t=2, L=3)
    block = np.zeros((4, 4), dtype=complex)
    block[1, 1] = 0.6
    block[3, 3] = -0.8j
    block[2, 2] = -0.0  # a negative zero is no entry, so its column has none
    mask = block.T != 0
    state = PureState(lay, [0, 2, 5, 7], mask, block.T[mask])
    assert state.labels.tolist() == [2, 7]
    assert state.mask.tolist() == [[False, True, False, False], [False, False, False, True]]
    assert state.amplitudes.tobytes() == np.array([0.6, -0.8j]).tobytes()
    assert state.starts.tolist() == [0, 1]
    assert block_of(state).tolist() == [[0, 0], [0.6, 0], [0, 0], [0, -0.8j]]
    assert_same_state(state_of(lay, block, [0, 2, 5, 7]), state)
    assert_same_state(from_dense(lay, to_dense(state)), state)


@pytest.mark.parametrize("labels", [[3, 1], [2, 2], [-1, 1], [1, 8]])
def test_construction_rejects_unsorted_duplicate_or_out_of_range_labels(labels):
    lay = RegisterLayout(t=1, L=3)
    with pytest.raises(ValueError, match="labels"):
        PureState(lay, labels, np.ones((2, 2), dtype=bool), np.full(4, 0.5))


@pytest.mark.parametrize("shape", [(2,), (1, 4), (2, 2)])
def test_construction_rejects_a_block_that_does_not_fit(shape):
    # the mask must be (k, Q) for k labels
    lay = RegisterLayout(t=1, L=3)
    mask = np.zeros(shape, dtype=bool)
    mask.reshape(-1)[0] = True
    with pytest.raises(ValueError, match="mask"):
        PureState(lay, [1], mask, [1.0])


@pytest.mark.parametrize("count", [1, 3])
def test_construction_rejects_amplitudes_that_do_not_match_the_mask(count):
    lay = RegisterLayout(t=1, L=3)
    with pytest.raises(ValueError, match="entries"):
        PureState(lay, [1], np.ones((1, 2), dtype=bool), np.full(count, 0.5))


def test_circuit_stages_and_gate_outputs_are_column_major_and_read_only():
    # column by column: each stored array is contiguous, owned and read-only
    inst = make_instance(21, 2, t=7)
    rng = np.random.default_rng(13)
    wide = few_column_state(inst, [1, 4, 16], rng)
    outputs = list(run_order_finding_circuit(inst)) + [apply_inverse_qft_A(wide)]
    for state in outputs:
        for array in (state.amplitudes, state.mask):
            assert array.flags.c_contiguous and array.flags.owndata
            assert not array.flags.writeable
        assert not state.labels.flags.writeable and not state.starts.flags.writeable


def test_hadamard_layer_uniform(pipeline15):
    psi1 = pipeline15[0]
    assert psi1.labels.tolist() == [1]
    assert np.all(psi1.amplitudes == math.sqrt(1.0 / 2048))
    grid = to_dense(psi1).reshape(2048, 16)
    assert np.abs(grid[:, [0] + list(range(2, 16))]).max() == 0.0


def test_hadamard_layer_involution():
    rng = np.random.default_rng(3)
    lay = RegisterLayout(t=3, L=2)
    vec = random_vector(lay.dim, rng)
    back = hadamard_all_columns(hadamard_all_columns(vec, lay), lay)
    assert np.abs(back - vec).max() < 1e-12


def test_hadamard_single_qubit():
    lay = RegisterLayout(t=1, L=1)
    s = math.sqrt(0.5)
    for j, expected in ((0, [s, 0, s, 0]), (1, [s, 0, -s, 0])):
        vec = np.zeros(lay.dim, dtype=complex)
        vec[j * lay.dim_b] = 1.0  # |j>|0>
        assert hadamard_all_columns(vec, lay).tolist() == expected


def test_modexp_orbit_support(pipeline15):
    psi2 = pipeline15[1]
    assert register_b_support(psi2) == [1, 4, 7, 13]
    assert psi2.labels.tolist() == [1, 4, 7, 13]
    assert abs(np.vdot(psi2.amplitudes, psi2.amplitudes).real - 1.0) < 1e-10


def test_modexp_identity_for_x_equal_one():
    inst = ShorInstance(N=15, x=1, t=3, L=4)
    psi1, psi2, _ = run_order_finding_circuit(inst)
    assert_same_state(psi2, psi1)


def test_modexp_rejects_amplitude_beyond_modulus():
    # the dense oracle maps the columns below N only, so it refuses a state
    # that the circuit, which starts from |0>|1>, can never give it
    inst = make_instance(15, 7, t=2)
    lay = RegisterLayout(t=2, L=4)
    vec = np.zeros(lay.dim, dtype=complex)
    vec[15] = 1.0  # register-B value 15 == N
    with pytest.raises(ValueError, match="N=15"):
        modexp_all_columns(vec, inst)


def test_inverse_qft_concentrates_uniform_block():
    lay = RegisterLayout(t=4, L=1)
    vec = np.zeros(lay.dim, dtype=complex)
    vec[::2] = 1.0 / math.sqrt(lay.Q)  # uniform over register A at y=0
    out = apply_inverse_qft_A(from_dense(lay, vec))
    probs = measurement_probabilities_A(out)
    assert probs[0] == pytest.approx(1.0, abs=1e-12)


def test_qft_roundtrip_matches_dense_kernel():
    rng = np.random.default_rng(8)
    for t in (1, 2, 3, 4):
        lay = RegisterLayout(t=t, L=2)
        state = random_state(lay, rng)
        roundtrip = apply_qft_A(apply_inverse_qft_A(state))
        assert np.abs(to_dense(roundtrip) - to_dense(state)).max() < 1e-10
        # independent check against the explicitly-built kernel matrix
        q = lay.Q
        j, k = np.meshgrid(np.arange(q), np.arange(q), indexing="ij")
        kernel = np.exp(-2j * np.pi * j * k / q) / math.sqrt(q)
        expected = (kernel @ to_dense(state).reshape(q, lay.dim_b)).reshape(-1)
        got = to_dense(apply_inverse_qft_A(state))
        assert np.abs(got - expected).max() < 1e-10


def test_final_stage_measurement_support(pipeline15):
    psi3 = pipeline15[2]
    probs = measurement_probabilities_A(psi3)
    peaks = np.nonzero(probs > 1e-9)[0].tolist()
    assert peaks == [0, 512, 1024, 1536]
    assert np.allclose(probs[peaks], 0.25, atol=1e-12)


def test_ideal_psi3_structure(inst15):
    vec = to_dense(ideal_psi3(inst15))
    support = np.flatnonzero(np.abs(vec) > 1e-12)
    assert len(support) == 16
    assert np.allclose(np.abs(vec[support]), 0.25, atol=1e-15)


def test_ideal_psi3_trivial_order():
    inst = ShorInstance(N=15, x=1, t=3, L=4)
    vec = to_dense(ideal_psi3(inst))
    assert np.flatnonzero(np.abs(vec) > 1e-12).tolist() == [1]


def test_ideal_psi3_requires_divisibility():
    inst = make_instance(21, 2)
    assert inst.r == 6
    with pytest.raises(ValueError, match="divide"):
        ideal_psi3(inst)


def test_ideal_matches_evolution(inst15, pipeline15):
    ideal = ideal_psi3(inst15)
    assert np.abs(to_dense(ideal) - to_dense(pipeline15[2])).max() < 1e-9


def test_gates_preserve_norm():
    rng = np.random.default_rng(21)
    lay = RegisterLayout(t=4, L=4)
    vec = np.zeros((lay.Q, lay.dim_b), dtype=complex)
    vec[:, :15] = rng.standard_normal((lay.Q, 15)) + 1j * rng.standard_normal((lay.Q, 15))
    vec = vec.reshape(-1)
    state = from_dense(lay, vec / np.linalg.norm(vec))
    for op in (
        lambda s: from_dense(lay, hadamard_all_columns(to_dense(s), lay)),
        apply_inverse_qft_A,
    ):
        state = op(state)
        norm = float(np.vdot(state.amplitudes, state.amplitudes).real)
        assert abs(norm - 1.0) < 1e-10


@pytest.mark.parametrize("t, L", [(1, 1), (3, 2), (6, 3)])
def test_gates_match_all_column_oracles_on_dense_states(t, L):
    rng = np.random.default_rng(100 * t + L)
    lay = RegisterLayout(t=t, L=L)
    for _ in range(3):
        vec = random_vector(lay.dim, rng)
        state = from_dense(lay, vec)
        assert_same_bytes(apply_inverse_qft_A(state), inverse_qft_all_columns(vec, lay))


def test_gates_match_all_column_oracles_on_few_columns():
    rng = np.random.default_rng(31)
    lay = RegisterLayout(t=6, L=4)
    for columns in ([1], [0, 5, 11], [2, 3, 15]):
        state = few_column_state(lay, columns, rng)
        out = apply_inverse_qft_A(state)
        assert_same_bytes(out, inverse_qft_all_columns(to_dense(state), lay))
        assert register_b_support(out) == columns
        assert out.labels.tolist() == columns


@pytest.mark.parametrize("n, x, t", [(15, 7, 11), (21, 2, 10), (33, 2, None)])
def test_circuit_stages_match_all_column_oracles(n, x, t):
    inst = make_instance(n, x, t=t)
    psi1, psi2, psi3 = run_order_finding_circuit(inst)
    expected1 = hadamard_all_columns(initial_vector(inst), inst)
    assert_same_bytes(psi1, expected1)
    expected2 = modexp_all_columns(expected1, inst)
    assert_same_bytes(psi2, expected2)
    assert_same_bytes(psi3, real_inverse_qft_all_columns(expected2, inst))


@pytest.mark.parametrize("n, x", [(15, 7), (21, 2), (33, 2), (51, 2), (63, 2)])
def test_modexp_matches_all_column_oracle_on_uniform_stage(n, x):
    inst = make_instance(n, x)
    psi1, psi2, _ = run_order_finding_circuit(inst)
    assert_same_bytes(psi2, modexp_all_columns(to_dense(psi1), inst))


@pytest.mark.parametrize("n, x, t", [(15, 7, 1), (15, 7, 11), (21, 2, 10), (35, 3, 9), (63, 2, 15)])
def test_modexp_power_table_matches_pow(n, x, t):
    # register-B value 1 holds every row j, and modexp sends it to x**j mod N
    inst = make_instance(n, x, t=t)
    out = to_dense(tuple(run_order_finding_circuit(inst))[1]).reshape(inst.Q, inst.dim_b)
    assert np.count_nonzero(out) == inst.Q
    assert np.argmax(out != 0, axis=1).tolist() == [pow(x, j, n) for j in range(inst.Q)]


@st.composite
def column_stored_states(draw):
    """(instance, state): random t, N, x, and k random labels below N.

    The block may hold exact zeros, whole rows or whole columns of them; an
    all-zero column leaves the state at construction.
    """
    n = draw(st.integers(1, 31).map(lambda k: 2 * k + 1))
    x = draw(st.sampled_from([c for c in range(1, n) if math.gcd(c, n) == 1]))
    inst = ShorInstance(N=n, x=x, t=draw(st.integers(1, 6)), L=n.bit_length())
    labels = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    block = random_vector(inst.Q * len(labels), rng).reshape(inst.Q, len(labels))
    block[rng.random(block.shape) < draw(st.sampled_from((0.0, 0.3, 0.9)))] = 0.0
    if draw(st.booleans()):
        block[rng.random(inst.Q) < 0.5, :] = 0.0
    if draw(st.booleans()):
        block[:, rng.random(len(labels)) < 0.5] = 0.0
    block[0, 0] = 1.0  # never all zero
    return inst, state_of(inst, block / np.linalg.norm(block), labels)


@settings(max_examples=60, deadline=None)
@given(column_stored_states())
def test_gates_on_column_stored_states_keep_norm_and_match_dense_oracles(case):
    _, state = case
    lay = state.layout
    vec = to_dense(state)
    out = apply_inverse_qft_A(state)
    assert abs(float(np.vdot(out.amplitudes, out.amplitudes).real) - 1.0) <= NORM_TOL
    assert_same_bytes(out, inverse_qft_all_columns(vec, lay))
    assert np.all(np.diff(out.labels) > 0) and np.all(out.mask.any(axis=1))


@settings(max_examples=60, deadline=None)
@given(column_stored_states(), st.integers(0, 63), st.sampled_from([1e-3, 0.5, -0.999, -1.0]))
def test_perturbed_state_is_the_dense_perturbation_bit_for_bit(case, shift, eps):
    # the drawn block's largest entry is its first, and rolling its rows
    # moves it; -1 zeroes it, so it leaves the state, with its column if
    # that held no other entry; a state left with no entry is refused
    _, state = case
    state = state_of(state.layout, np.roll(block_of(state), shift, axis=0), state.labels)
    try:
        expected = dense_perturbed(state, eps)
    except ValueError:
        with pytest.raises(ValueError):
            statevec.perturbed(state, eps)
        return
    assert_same_state(statevec.perturbed(state, eps), expected)


@pytest.mark.parametrize(
    "state",
    [
        PureState(RegisterLayout(t=1, L=1), [1], [[False, True]], [1.0]),
        PureState(RegisterLayout(t=1, L=1), [0], [[True, False]], [-1j], mirrored=True),
    ],
    ids=["full", "mirrored"],
)
def test_perturbed_refuses_a_zero_norm_before_it_divides(state):
    # eps = -1 zeroes the one entry, so the norm is 0: dividing by it would
    # fill NaN and warn before the constructor refused the state
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="norm 0.0"):
            statevec.perturbed(state, -1.0)


@pytest.mark.parametrize("eps", [1e-3, -1.0])
@pytest.mark.parametrize("n, x, t", [(49, 3, 10), (51, 2, 12)])
def test_perturbed_circuit_stages_are_the_dense_perturbation_bit_for_bit(n, x, t, eps):
    # the largest entries are tied on psi1 and psi2; on psi3 of N=51 (r | Q)
    # the first of them is row 512 of the second column
    for state in run_order_finding_circuit(make_instance(n, x, t=t)):
        assert_same_state(statevec.perturbed(state, eps), dense_perturbed(state, eps))


def assert_same_state(got, expected):
    assert (got.mirrored, got.fold) == (expected.mirrored, expected.fold)
    for field in ("labels", "classes", "mask", "amplitudes", "starts"):
        assert getattr(got, field).tobytes() == getattr(expected, field).tobytes(), field


FINAL_STAGE_CASES = [
    (15, 7, 11),  # r = 4 divides Q
    (21, 2, 10),  # r = 6 does not
    (15, 4, 8),  # r = 2: two image columns
    (49, 3, None),  # r = 42 = 5 * 8 + 2 columns at Q = 2**15
    (65, 2, None),  # Q = 2**17: r = 12 = 8 + 4 columns
    (255, 2, 4),  # L = 8
]


@pytest.mark.parametrize("n, x, t", FINAL_STAGE_CASES)
def test_final_state_matches_the_gates_on_the_uniform_stage(n, x, t):
    inst = make_instance(n, x, t=t)
    _, psi2, psi3 = run_order_finding_circuit(inst)
    assert_same_bytes(psi3, real_inverse_qft_all_columns(to_dense(psi2), inst))
    assert psi3.labels.tobytes() == psi2.labels.tobytes()


# Rounding of a radix-2 FFT of length 2**t (Higham, Accuracy and Stability
# of Numerical Algorithms, 2nd ed., Thm 24.2): with twiddle factors within
# mu of the exact ones, the computed y of the exact transform y0 of x has
# |y - y0|_2 <= beta |y0|_2, beta = t eta / (1 - t eta), where eta = mu +
# gamma_4 (sqrt(2) + mu) and gamma_4 = 4u / (1 - 4u).  A radix-4 pass does
# the work of two radix-2 levels with one twiddle product instead of two,
# and its multiplications by +-i are exact, so the bound holds for the
# passes of numpy's FFTs at powers of two, with mu = u.  The complex route
# meets it on the whole column; the real-input route meets it on rows
# [0, Q/2], and its mirror at most doubles the squared error, so it meets
# sqrt(2) beta on the whole column.  psi3 keeps rows [0, Q/2f] of it and
# writes out their exact images, 2f per row, which proves only sqrt(2f)
# beta for f = 2 and 4; the test still asserts the f = 1 figure for every
# fold, and the gaps of the cases below stay within 2% of it.  Both routes
# then multiply by the same s = fl(1 / sqrt(Q)), within 2u of 1 / sqrt(Q),
# each product rounded to within u of its value, and |y0|_2 = sqrt(Q) |x|_2
# for the input column x.
# So the two psi3 columns differ by at most
#   ((1 + sqrt(2)) beta + 2u (1 + beta)(1 + u)) (1 + 2u) |x|_2.
UNIT_ROUNDOFF = 2.0**-53


def fft_route_bound(t: int) -> float:
    u = UNIT_ROUNDOFF
    eta = u + 4 * u / (1 - 4 * u) * (math.sqrt(2) + u)
    beta = t * eta / (1 - t * eta)
    return ((1 + math.sqrt(2)) * beta + 2 * u * (1 + beta) * (1 + u)) * (1 + 2 * u)


@pytest.mark.parametrize("n, x, t", FINAL_STAGE_CASES)
def test_final_state_lies_within_the_fft_bound_of_the_complex_transform(n, x, t):
    inst = make_instance(n, x, t=t)
    _, psi2, psi3 = run_order_finding_circuit(inst)
    expected = apply_inverse_qft_A(psi2)
    assert expected.labels.tobytes() == psi3.labels.tobytes()
    gaps = np.linalg.norm(block_of(psi3) - block_of(expected), axis=0)
    bounds = fft_route_bound(inst.t) * np.linalg.norm(block_of(psi2), axis=0)
    assert np.all(gaps <= bounds), (gaps / bounds).max()


HERMITIAN_CASES = FINAL_STAGE_CASES + [
    (21, 2, 1),  # Q = 2: the only row besides 0 is Q/2, f = 1
    (15, 7, 2),  # Q = 4 = r, f = 2
    (21, 2, 2),  # Q = 4 < r = 6, f = 2
    (33, 5, 3),  # Q = 8 < r = 10, f = 4: rows 0 and 1 alone
    (121, 2, 9),  # r = 110, f = 2
    (125, 2, 9),  # r = 100, f = 4
    (49, 2, 10),  # r = 21 is odd, f = 1
]


@pytest.mark.parametrize("n, x, t", HERMITIAN_CASES)
def test_final_state_and_distribution_are_mirrored_bit_for_bit(n, x, t):
    # every image column is a real comb of stride P, so with R = Q/f,
    # psi3[k + R] = w**a psi3[k] and psi3[Q - k] = conj(psi3[k]) hold
    # exactly, and psi3 holds rows [0, R/2] alone, f = gcd(P, Q/2, 4).
    # Written out in full storage, the state that `perturbed` starts from:
    # the same rows hold entries, each translation is its row turned by
    # w**a, and each row off the multiples of R/2 is the conjugate of its
    # mirror's; rows 0 and Q/2 are real, row Q/2 for f > 1 as row 0 turned
    # by (-1)**a.  The entries are compared bit for bit where the mask marks
    # them, and by value everywhere, since a turn or a conjugation changes
    # the sign of a zero.  The oracle's unfolding, by explicit index, gives
    # the same bytes
    inst = make_instance(n, x, t=t)
    labels, exponents = full_table_modexp_columns(inst)
    q, fold = inst.Q, math.gcd(len(exponents), inst.Q // 2, 4)
    period = q // fold
    psi3 = tuple(run_order_finding_circuit(inst))[2]
    assert psi3.mirrored and psi3.fold == fold
    assert psi3.mask.shape == (len(psi3.labels), period // 2 + 1)
    assert psi3.classes.tolist() == (exponents % fold)[np.isin(labels, psi3.labels)].tolist()
    mask, amplitudes = statevec._unfolded(psi3)
    full = PureState(inst, psi3.labels, mask, amplitudes)
    assert_same_state(full, unfolded(psi3))
    block = block_of(full)
    phases = np.exp(-2j * np.pi * psi3.classes / fold).round()
    for m in range(1, fold):
        rows = np.arange(m * period, (m + 1) * period)
        assert full.mask[:, rows].tobytes() == full.mask[:, rows - m * period].tobytes()
        assert np.array_equal(block[rows], block[rows - m * period] * phases**m)
    rows = np.array([k for k in range(1, q) if k % (period // 2)], dtype=np.intp)
    assert full.mask[:, q - rows].tobytes() == full.mask[:, rows].tobytes()
    assert np.array_equal(block[q - rows], np.conjugate(block[rows]))
    kept = full.mask[:, rows].T
    assert block[q - rows][kept].tobytes() == np.conjugate(block[rows][kept]).tobytes()
    assert np.all(block[[0, q // 2]].imag == 0)
    probabilities = final_probabilities(inst)
    rows = np.arange(1, q)
    assert probabilities[q - rows].tobytes() == probabilities[rows].tobytes()
    assert probabilities[period:].tobytes() == probabilities[: q - period].tobytes()


def assert_same_distribution(inst, expected):
    """The final probabilities of `inst` are the bytes of `expected`, and the
    CDF of its final distribution their running sums."""
    assert final_probabilities(inst).tobytes() == expected.tobytes()
    assert final_distribution(inst).cdf.tobytes() == np.cumsum(expected).tobytes()


@st.composite
def order_finding_instances(draw):
    """Odd N <= 63 (N = 3 included), any unit x (x = 1 included), t = 1 to
    8: x**j comes back to 1 below Q or not (r > Q, so the period is Q)."""
    n = draw(st.integers(1, 31).map(lambda k: 2 * k + 1))
    x = draw(st.sampled_from([c for c in range(1, n) if math.gcd(c, n) == 1]))
    return ShorInstance(N=n, x=x, t=draw(st.integers(1, 8)), L=n.bit_length())


@settings(max_examples=80, deadline=None)
@given(order_finding_instances(), st.integers(1, 3))
@example(ShorInstance(N=3, x=2, t=1, L=2), 1)  # r = 2 = Q
@example(ShorInstance(N=63, x=2, t=2, L=6), 1)  # r = 6 > Q = 4
@example(ShorInstance(N=15, x=1, t=3, L=4), 2)  # one image column
def test_circuit_matches_the_dense_oracles_on_drawn_instances(inst, chunk_columns):
    # chunks of 1 to 3 image columns: the last chunk may be narrower, and
    # each chunk's scatter and zeroing must leave the next one clean
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(statevec, "_CHUNK_BYTES", 16 * inst.Q * chunk_columns)
        patch.setattr(statevec, "_CHUNK_COLUMNS", chunk_columns)
        psi1, psi2, psi3 = run_order_finding_circuit(inst)
        assert_same_distribution(inst, measurement_probabilities_A(psi3))
    assert_same_bytes(psi2, modexp_all_columns(to_dense(psi1), inst))
    assert_same_bytes(psi3, real_inverse_qft_all_columns(to_dense(psi2), inst))


@pytest.mark.parametrize("n, x, t", FINAL_STAGE_CASES)
def test_final_distribution_matches_the_distribution_of_the_final_state(n, x, t):
    inst = make_instance(n, x, t=t)
    expected = measurement_probabilities_A(tuple(run_order_finding_circuit(inst))[2])
    assert_same_distribution(inst, expected)


@pytest.mark.parametrize("scale", [1 + 1e-6, 1 + 1e-10, 1 - 1e-10])
def test_final_distribution_gates_the_norm_of_the_final_state(monkeypatch, scale):
    # 1 +- 1e-10 moves norm**2 by 2e-10: past NORM_TOL, but within the 1e-9
    # that the distribution allows its probabilities' sum
    inst = make_instance(21, 2, t=10)
    rfft = np.fft.rfft

    def off_by_scale(a, *args, out=None, **kwargs):
        out = rfft(a, *args, out=out, **kwargs)
        out *= scale
        return out

    monkeypatch.setattr(np.fft, "rfft", off_by_scale)
    with pytest.raises(ValueError, match="final state norm"):
        final_distribution(inst)
    with pytest.raises(ValueError, match="norm"):
        tuple(run_order_finding_circuit(inst))


def counted_calls(monkeypatch, name):
    """Patch statevec.`name` to record each call and return that record."""
    calls = []
    function = getattr(statevec, name)

    def counted(*args):
        calls.append(args)
        return function(*args)

    monkeypatch.setattr(statevec, name, counted)
    return calls


def test_circuit_finds_the_modexp_targets_once(monkeypatch):
    calls = counted_calls(monkeypatch, "_modexp_columns")
    tuple(run_order_finding_circuit(make_instance(21, 2, t=10)))
    assert len(calls) == 1


def check_modexp_columns_on_the_full_table(inst):
    # the table stops at the first power that comes back to 1 and finds P
    # without the order search, so sweep still never reads r
    import shormeter.numtheory

    def no_search(*args):
        raise AssertionError("the order search ran")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(shormeter.numtheory, "find_order_bruteforce", no_search)
        got = statevec._modexp_columns(inst)
    for arr, want in zip(got, full_table_modexp_columns(inst)):
        assert arr.dtype == want.dtype
        np.testing.assert_array_equal(arr, want)


@pytest.mark.parametrize(
    "N, x, t",
    [
        (17, 3, 3),  # r = 16 > Q = 8, so P = Q
        (17, 3, 4),  # r = Q = 16: x**j meets no 1 below Q, so P = Q
        (15, 7, 8),  # r = 4 divides Q
        (21, 2, 10),  # r = 6 does not divide Q
        (15, 1, 5),  # x = 1: P = 1
        (129, 5, 12),  # r = 42
    ],
)
def test_modexp_columns_match_the_full_table_on_pinned_instances(N, x, t):
    check_modexp_columns_on_the_full_table(ShorInstance(N=N, x=x, t=t, L=N.bit_length()))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 150), st.integers(1, 12), st.data())
def test_modexp_columns_match_the_full_table(half, t, data):
    N = 2 * half + 1
    x = data.draw(st.integers(1, N - 1).filter(lambda c: math.gcd(c, N) == 1))
    check_modexp_columns_on_the_full_table(ShorInstance(N=N, x=x, t=t, L=N.bit_length()))


def test_circuit_transforms_psi3_from_the_chunks(monkeypatch):
    # psi3 is built from the chunk loop that the dense factor job reads, and
    # only when it is asked for; the modexp columns serve psi2 and psi3
    chunks = counted_calls(monkeypatch, "_transformed_chunks")
    targets = counted_calls(monkeypatch, "_modexp_columns")
    states = run_order_finding_circuit(make_instance(49, 3, t=10))
    next(states)
    next(states)
    assert (len(chunks), len(targets)) == (0, 1)
    next(states)
    assert (len(chunks), len(targets)) == (1, 1)


def test_each_stage_builds_its_support_once(monkeypatch, tmp_path):
    # a stage is its nonzero support: the circuit builds each stage once,
    # and a report hands that one state to each coherence reader and to the
    # weight sums that E_g receives, once each, so that a second scan cannot
    # come back unseen; sweep reads each stage by its grid only, and builds
    # no weight sums
    built, read, summed, received = [], [], [], []
    make_state, sums_of = statevec.PureState, statevec.weight_sums
    optimize = ent.geometric_entanglement_symmetric

    def recorded_state(*args, **kwargs):
        built.append(make_state(*args, **kwargs))
        return built[-1]

    def recorded(name):
        function = getattr(measures, name)

        def reader(state, *args):
            read.append((name, state))
            return function(state, *args)

        monkeypatch.setattr(measures, name, reader)

    def recorded_sums(state):
        summed.append((state, sums_of(state)))
        return summed[-1][1]

    def recorded_optimum(weight_sums):
        received.append(weight_sums)
        return optimize(weight_sums)

    readers = ("l1p_coherence_grid", "tsallis_and_geometric_coherence")
    monkeypatch.setattr(statevec, "PureState", recorded_state)
    for name in readers + ("tsallis_coherence_grid",):
        recorded(name)
    monkeypatch.setattr(statevec, "weight_sums", recorded_sums)
    monkeypatch.setattr(ent, "geometric_entanglement_symmetric", recorded_optimum)
    inst = make_instance(21, 2, t=10)
    states = tuple(run_order_finding_circuit(inst))
    theorems.verify_all(inst, states)
    assert len(built) == len(summed) == len(received) == 3
    assert all(made is state for made, state in zip(built, states))
    assert [(name, id(state)) for name, state in read] == [
        (name, id(state)) for state in states for name in readers
    ]
    assert all(scanned is state for (scanned, _), state in zip(summed, states))
    assert all(got is sums for got, (_, sums) in zip(received, summed))
    summed.clear()
    received.clear()
    argv = ["sweep", "--n", "21", "--x", "2", "--t", "10", "--out", str(tmp_path / "s.csv")]
    for measure in ("tsallis", "l1p"):
        built.clear()
        read.clear()
        assert main(argv + ["--measure", measure]) == 0
        assert [len(state.labels) for state in built] == [1, inst.r, inst.r]
        grid = f"{measure}_coherence_grid"
        assert [(name, id(state)) for name, state in read] == [(grid, id(s)) for s in built]
    assert summed == received == []


@settings(max_examples=80, deadline=None)
@given(column_stored_states(), st.booleans())
def test_weight_sums_match_add_at_over_the_dense_vector(case, real):
    # exact zeros, whole zero rows and columns; an all-real block leaves
    # every imaginary sum at +0.0, which a negated sum would turn to -0.0
    _, state = case
    if real:
        block = block_of(state).real
        state = state_of(state.layout, block / np.linalg.norm(block), state.labels)
    got = statevec.weight_sums(state)
    assert got.tobytes() == add_at_weight_sums(state).tobytes()
    if real:
        assert not np.signbit(got.imag).any()


@pytest.mark.parametrize(
    "window, qs",
    [(w, [2**e for e in range(9)]) for w in (1, 2, 8, 32)] + [(2**13, [2**12, 2**13, 2**14])],
    ids=["w1", "w2", "w8", "w32", "w8192"],
)
def test_windowed_outcome_probabilities_match_the_whole_array_form(monkeypatch, window, qs):
    # Q below, equal to and above the window; r | Q, r not dividing Q and
    # r > Q; a period P = Q / gcd(r, Q) of 1 or 2 (no mirror), below the
    # window (one partial window, then the tiling) or above it (several
    # windows over [0, P/2], the last one partial, then the mirror)
    monkeypatch.setattr(statevec, "_WINDOW", window)
    for q in qs:
        for r in list(range(1, 41)) + [64, 100, 257, 513, 1000, 2**14 + 3]:
            got = statevec._outcome_probabilities(r, q)
            assert got.tobytes() == whole_array_outcome_probabilities(r, q).tobytes(), (r, q)


@pytest.mark.parametrize("r", [41, 42, 40, 255])
def test_outcome_probabilities_match_the_whole_array_form_at_the_benchmark_size(r):
    # Q = 2**19 and the default window: r = 41 (P = Q, so the table covers
    # the last two outcomes of [0, P/2]), r = 42 (g = 2), 40 (g = 8) and 255
    q = 2**19
    got = statevec._outcome_probabilities(r, q)
    assert got.tobytes() == whole_array_outcome_probabilities(r, q).tobytes()


@pytest.mark.parametrize("r", [41, 42, 40, 255])
@pytest.mark.parametrize("q", [2**12, 2**19], ids=["below-window", "2**19"])
def test_outcome_probabilities_take_one_sine_per_table_entry(monkeypatch, r, q):
    # every phase is read from a table of sin**2 over [0, P/2], one sine per
    # entry; a sine pass per term would take (1 + terms) phases per outcome
    taken = []
    sin_squared = statevec._sin_squared

    def counted(phase, q, out):
        taken.append(len(phase))
        return sin_squared(phase, q, out)

    monkeypatch.setattr(statevec, "_sin_squared", counted)
    statevec._outcome_probabilities(r, q)
    period = q // math.gcd(r, q)
    assert sum(taken) == min(period, period // 2 + 1)


@pytest.mark.parametrize("r", [1, 40, 41, 42, 2**14 + 3])
def test_outcome_probabilities_mirror_and_repeat_bit_for_bit(r):
    # p_{Q - k} = p_k for k >= 1, and p_{k + P} = p_k with P = Q / gcd(r, Q)
    for q in (2**e for e in range(20)):
        p = statevec._outcome_probabilities(r, q)
        period = q // math.gcd(r, q)
        assert p[1:].tobytes() == p[1:][::-1].tobytes(), (r, q)
        assert p[period:].tobytes() == p[: q - period].tobytes(), (r, q)


@pytest.mark.skipif(
    not np.finfo(np.longdouble).eps < 1e-18, reason="long double is not wider than float64"
)
@pytest.mark.parametrize("r", [41, 42])
def test_outcome_probabilities_are_accurate_at_every_outcome(r):
    # the unreflected sin(pi m / Q) with m near Q loses about u * Q: 1.1e-10
    # relative at r = 41 here
    q = 2**19
    exact = long_double_outcome_probabilities(r, q)
    got = statevec._outcome_probabilities(r, q)
    kept = exact >= 1e-12
    assert kept.sum() > q // 2
    error = np.abs(got[kept] - exact[kept]) / exact[kept]
    assert float(error.max()) <= 1e-14


@settings(max_examples=60, deadline=None)
@given(column_stored_states())
def test_outcome_distribution_of_column_stored_state_matches_dense_row_sums(case):
    _, state = case
    dense = to_dense(state).reshape(state.layout.Q, state.layout.dim_b)
    expected = np.cumsum(np.abs(dense) ** 2, axis=1)[:, -1]
    got = measurement_probabilities_A(state)
    assert got.tobytes() == expected.tobytes()


def _dense_row_sums(block, labels, width):
    """Each row's running sum over the dense (Q, width) row, +0.0 included:
    the row sums in label order."""
    dense = np.zeros((block.shape[0], width))
    dense[:, labels] = np.abs(block) ** 2
    return np.cumsum(dense, axis=1)[:, -1]


@settings(max_examples=120, deadline=None)
@given(
    L=st.integers(1, 11),
    q=st.sampled_from((1, 2, 3, 8)),
    fill=st.floats(0.01, 1.0),
    zero_rows=st.booleans(),
    zero_cols=st.booleans(),
    scale=st.sampled_from((1.0, 1e-150, 1e-160, 1e-300)),
    seed=st.integers(0, 2**32 - 1),
)
def test_row_sums_match_numpy_over_the_dense_row(L, q, fill, zero_rows, zero_cols, scale, seed):
    # widths 2 to 2048, with the absent columns as +0.0 in the dense row;
    # the scales put |c|**2 at, below and past the edge of the subnormals
    width = 2**L
    rng = np.random.default_rng(seed)
    labels = np.flatnonzero(rng.random(width) < fill)
    if len(labels) == 0:
        labels = np.array([rng.integers(width)])
    block = rng.standard_normal((q, len(labels))) + 1j * rng.standard_normal((q, len(labels)))
    block *= scale * 10.0 ** rng.integers(-8, 1, size=block.shape)
    if zero_rows:
        block[rng.random(q) < 0.5, :] = 0.0
    if zero_cols:
        block[:, rng.random(len(labels)) < 0.5] = 0.0
    block = np.asfortranarray(block)
    got = row_sums_of_squares(block)
    assert got.tobytes() == _dense_row_sums(block, labels, width).tobytes()


def unnormalised_state(L, t, fill, zero_rows, zero_cols, scale, seed):
    """A random block on the columns of a random label set, with exact zeros
    in whole rows or columns, held without normalising, so that its |c|**2
    may all underflow, or a column may hold no entry, but never all zero,
    since no state is: `stored` gives the entries that a state of it
    holds."""
    width, q = 2**L, 2**t
    rng = np.random.default_rng(seed)
    labels = np.flatnonzero(rng.random(width) < fill)
    if len(labels) == 0:
        labels = np.array([rng.integers(width)])
    block = rng.standard_normal((q, len(labels))) + 1j * rng.standard_normal((q, len(labels)))
    block *= scale * 10.0 ** rng.integers(-8, 1, size=block.shape)
    if zero_rows:
        block[rng.random(q) < 0.5, :] = 0.0
    if zero_cols:
        block[:, rng.random(len(labels)) < 0.5] = 0.0
    if not block.any():
        block[0, 0] = scale
    block = np.asfortranarray(block)
    return SimpleNamespace(layout=RegisterLayout(t=t, L=L), block=block, labels=labels)


def stored(state):
    """(the `PureState` of the block normalised, the block's own entries in
    the order that state holds them).  Dividing by the largest modulus,
    then by the norm, keeps every zero and makes none, so the state's
    labels, mask and starts are the block's, and its flat sum of values of
    the unnormalised entries is their flat sum over the block."""
    block = state.block / np.abs(state.block).max()
    held = state_of(state.layout, block / np.linalg.norm(block), state.labels)
    block = state.block
    entries = block.T[block.T != 0]
    assert len(entries) == len(held.amplitudes)
    return held, entries


def unnormalised_grid(state):
    grid = np.zeros((state.layout.Q, state.layout.dim_b), dtype=complex)
    grid[:, state.labels] = state.block
    return grid


unnormalised_states = st.builds(
    unnormalised_state,
    L=st.integers(1, 11),
    t=st.integers(1, 7),
    fill=st.floats(0.01, 1.0),
    zero_rows=st.booleans(),
    zero_cols=st.booleans(),
    scale=st.sampled_from((1.0, 1e-150, 1e-160, 1e-300)),
    seed=st.integers(0, 2**32 - 1),
)


@settings(max_examples=120, deadline=None)
@given(unnormalised_states)
@example(unnormalised_state(L=1, t=1, fill=1.0, zero_rows=False, zero_cols=False, scale=1.0, seed=0))
@example(unnormalised_state(L=1, t=5, fill=0.5, zero_rows=True, zero_cols=False, scale=1.0, seed=1))
@example(unnormalised_state(L=2, t=7, fill=0.5, zero_rows=False, zero_cols=True, scale=1e-160, seed=2))
@example(unnormalised_state(L=3, t=3, fill=0.5, zero_rows=True, zero_cols=True, scale=1.0, seed=3))
@example(unnormalised_state(L=6, t=4, fill=0.3, zero_rows=True, zero_cols=False, scale=1e-300, seed=4))
def test_flat_sum_matches_numpy_over_the_dense_vector(state):
    # Q * 2**L runs from 4 to 2**18, with zero rows, zero columns and
    # |c|**2 that underflows; the reference sums each column of the dense
    # array with numpy and the column sums by math.fsum
    held, amps = stored(state)
    grid = unnormalised_grid(state)
    assert amps.tobytes() == grid.T[grid.T != 0].tobytes()  # column by column
    squared = np.square(amps.real)  # as the measures form |c|**2, in place
    squared += np.square(amps.imag)
    for got, of in ((np.abs(amps), np.abs), (squared, lambda c: c.real**2 + c.imag**2)):
        assert got.tobytes() == of(amps).tobytes()
        assert np.float64(held.flat_sum(got)).tobytes() == (
            np.float64(column_flat_sum(grid, of(grid))).tobytes()
        )


@settings(max_examples=80, deadline=None)
@given(unnormalised_states, st.data())
def test_a_chunked_fold_gives_the_flat_sum_of_the_whole_stage(state, data):
    # the column sums of each chunk of columns, gathered from the chunks in
    # any order and added by math.fsum, are the whole stage's flat sum
    k = len(state.labels)
    cuts = sorted(data.draw(st.sets(st.integers(1, max(1, k - 1)), max_size=k - 1)))
    bounds = [0, *cuts, k]
    chunks = data.draw(st.permutations(list(zip(bounds[:-1], bounds[1:]))))
    alpha = data.draw(st.floats(0.05, 2.0))
    whole, amps = stored(state)
    for values_of in (np.abs, lambda c: (c.real**2 + c.imag**2) ** (1.0 / alpha)):
        column_sums = []
        for c0, c1 in chunks:
            block = state.block[:, c0:c1]
            if block.any():  # a chunk of empty columns holds no entry
                part, entries = stored(
                    SimpleNamespace(layout=state.layout, block=block, labels=state.labels[c0:c1])
                )
                column_sums.extend(np.add.reduceat(values_of(entries), part.starts).tolist())
        assert math.fsum(column_sums) == whole.flat_sum(values_of(amps))


# The same draws on every run: the per-column term is the bound of a
# balanced pairwise tree, and numpy's blocks add up to 15 values of a lane in
# sequence, so it bounds the drawn sums but not every possible one.  On
# 18,000 random value sets per Q, Q = 2 to 128, the largest error was 5.2 of
# the 6 units allowed at Q = 16.
@settings(max_examples=120, deadline=None, derandomize=True)
@given(unnormalised_states, st.floats(0.05, 2.0))
def test_flat_sum_lies_within_the_pairwise_bound_of_the_exact_sum(state, alpha):
    # each column is summed pairwise over at most Q values, which errs by
    # ceil(log2 Q) * 2**-53 * sum|v|; math.fsum rounds the column sums once,
    # and the reference, fsum over every value, rounds once more
    held, amps = stored(state)
    probs, q = amps.real**2 + amps.imag**2, state.layout.Q
    for values in (
        np.abs(amps),
        probs,
        probs ** (1.0 / alpha),
        probs * np.log(np.where(probs > 0, probs, 1.0)),  # the Shannon terms, <= 0
    ):
        exact = math.fsum(values.tolist())
        bound = (math.ceil(math.log2(q)) + 2) * 2.0**-53 * math.fsum(np.abs(values).tolist())
        assert abs(held.flat_sum(values) - exact) <= bound


@st.composite
def mirrored_states(draw):
    """Rows [0, Q/2f] of random columns as a mirrored state with fold f of
    1, 2 or 4 and random column classes: Q = 2 (rows 0 and Q/2 alone) to
    128, rows 0 and Q/2 real for f = 1, exact zeros in entries, whole rows
    or whole columns, never all zero."""
    t, L = draw(st.integers(1, 7)), draw(st.integers(1, 5))
    lay = RegisterLayout(t=t, L=L)
    fold = draw(st.sampled_from([f for f in (1, 2, 4) if lay.Q % (2 * f) == 0]))
    half = lay.Q // (2 * fold)
    labels = sorted(draw(st.sets(st.integers(0, lay.dim_b - 1), min_size=1, max_size=lay.dim_b)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    top = rng.standard_normal((half + 1, len(labels))) + 1j * rng.standard_normal((half + 1, len(labels)))
    if fold == 1:
        top[[0, half]] = top[[0, half]].real
    top[rng.random(top.shape) < draw(st.sampled_from((0.0, 0.3, 0.9)))] = 0.0
    if draw(st.booleans()):
        top[rng.random(half + 1) < 0.5, :] = 0.0
    if draw(st.booleans()):
        top[:, rng.random(len(labels)) < 0.5] = 0.0
    top[0, 0] = 1.0
    squares = np.abs(top) ** 2
    top /= math.sqrt(fold * (2 * squares.sum() - squares[[0, half]].sum()))
    columns = top.T
    classes = rng.integers(0, fold, len(labels))
    return PureState(
        lay, labels, columns != 0, columns[columns != 0], mirrored=True, fold=fold, classes=classes
    )


MIRRORED_EDGES = [
    PureState(RegisterLayout(t=1, L=1), [0], [[True, True]], [0.6, -0.8], mirrored=True),  # Q = 2
    PureState(  # Q = 4: row 1 stands for row 3
        RegisterLayout(t=2, L=2), [1, 3], [[True, True, False], [False, True, True]],
        [0.5, 0.25 + 0.25j, -0.25 + 0.25j, -0.5], mirrored=True,
    ),
    PureState(  # Q = 4, f = 2: rows 0 and 1 stand for rows 2 and 3, -1 times in class 1
        RegisterLayout(t=2, L=1), [0, 1], [[True, False], [True, True]],
        [0.5, 0.25 + 0.25j, 0.25 - 0.25j], mirrored=True, fold=2, classes=[0, 1],
    ),
    PureState(  # Q = 8, f = 2: row 1 stands for rows 3, 5 and 7, rows 0 and 2 for 4 and 6
        RegisterLayout(t=3, L=2), [0, 2, 3], [[True, True, False], [False, True, True], [False, False, True]],
        [0.5, 0.125 - 0.125j, 0.125j, -0.125 - 0.125j, 0.25 + 0.25j], mirrored=True, fold=2,
        classes=[1, 0, 1],
    ),
    PureState(  # Q = 8, f = 4: rows 0 and 1, each with three translations
        RegisterLayout(t=3, L=2), [1, 2], [[True, True], [False, True]],
        [0.25, 0.25 + 0.25j, 0.25j], mirrored=True, fold=4, classes=[3, 2],
    ),
]


def mirrored_sum_terms(state):
    """(the values whose flat sum is taken, of each stored entry, and the
    same values over the unfolded dense array), for the values the measures
    sum: |c|, |c|**2, a power and the Shannon terms."""
    stored, grid = state.amplitudes, dense_grid(state)
    for of in (
        np.abs,
        lambda c: c.real**2 + c.imag**2,
        lambda c: (c.real**2 + c.imag**2) ** 0.7,
        lambda c: (lambda p: p * np.log(np.where(p > 0, p, 1.0)))(c.real**2 + c.imag**2),
    ):
        yield of(stored), grid, of(grid)


def check_mirrored_flat_sum(state):
    # a mirrored column with fold f adds its stored sum times 2f: pairwise
    # over at most Q/2f + 1 values, it errs by ceil(log2(Q/2f + 1)) * 2**-53
    # times the sum of the stored |v|, which times 2f is at most twice the
    # sum of |v| over the unfolded column; math.fsum rounds the total once.
    # The unfolded column sums, pairwise over Q values, meet their own
    # bound, so the two floats lie within the sum of both bounds of each
    # other.  The oracle's mirrored column sums give the same float bit for
    # bit
    q, fold = state.layout.Q, state.fold
    for values, grid, unfolded_values in mirrored_sum_terms(state):
        kept = unfolded_values[grid != 0]
        exact, scale = math.fsum(kept.tolist()), math.fsum(np.abs(kept).tolist())
        mirrored = (2 * math.ceil(math.log2(q // (2 * fold) + 1)) + 1) * 2.0**-53 * scale
        whole = (math.ceil(math.log2(q)) + 2) * 2.0**-53 * scale
        got = state.flat_sum(values)
        assert abs(got - exact) <= mirrored
        assert abs(got - column_flat_sum(grid, unfolded_values)) <= mirrored + whole
        assert got == column_flat_sum(grid, unfolded_values, mirrored=True, fold=fold)


@settings(max_examples=120, deadline=None)
@given(mirrored_states())
@example(MIRRORED_EDGES[0])
@example(MIRRORED_EDGES[1])
@example(MIRRORED_EDGES[2])
@example(MIRRORED_EDGES[3])
@example(MIRRORED_EDGES[4])
def test_mirrored_flat_sum_lies_within_the_pairwise_bound_of_the_unfolded_sum(state):
    check_mirrored_flat_sum(state)


@pytest.mark.parametrize("n, x, t", HERMITIAN_CASES)
def test_final_state_flat_sum_lies_within_the_pairwise_bound_of_the_unfolded_sum(n, x, t):
    # Q = 2, Q = 4 = r, Q = 4 < r = 6, Q = 8 < r = 10, folds 1, 2 and 4
    check_mirrored_flat_sum(tuple(run_order_finding_circuit(make_instance(n, x, t=t)))[2])


@settings(max_examples=80, deadline=None)
@given(mirrored_states())
@example(MIRRORED_EDGES[0])
@example(MIRRORED_EDGES[1])
@example(MIRRORED_EDGES[2])
@example(MIRRORED_EDGES[3])
@example(MIRRORED_EDGES[4])
def test_mirrored_weight_sums_add_each_mirror_row_as_its_conjugate(state):
    # bit for bit the sums of each image's class, each by np.add.at over the
    # rows of the unfolded array, added image by image; within rounding of
    # the sums of the unfolded state
    got = statevec.weight_sums(state)
    assert got.tobytes() == add_at_weight_sums(state).tobytes()
    assert np.abs(got - add_at_weight_sums(unfolded(state))).max() <= 1e-15 * state.layout.Q


@settings(max_examples=80, deadline=None)
@given(mirrored_states(), st.sampled_from([1e-3, 0.5, -0.999, -1.0]))
@example(MIRRORED_EDGES[0], -1.0)
@example(MIRRORED_EDGES[1], 0.5)
@example(MIRRORED_EDGES[2], -0.999)
@example(MIRRORED_EDGES[3], -1.0)
@example(MIRRORED_EDGES[4], 1e-3)
def test_perturbed_mirrored_state_is_the_dense_perturbation_of_its_unfolding(state, eps):
    # the unfolded entries are the oracle's, and the perturbed state is held
    # in full storage, since the perturbation breaks both symmetries
    mask, amplitudes = statevec._unfolded(state)
    expected = unfolded(state)
    assert mask.tobytes() == expected.mask.tobytes()
    assert amplitudes.tobytes() == expected.amplitudes.tobytes()
    try:
        expected = dense_perturbed(state, eps)
    except ValueError:
        with pytest.raises(ValueError):
            statevec.perturbed(state, eps)
        return
    assert_same_state(statevec.perturbed(state, eps), expected)


def test_a_column_without_an_entry_has_no_start():
    # np.add.reduceat gives values[i], not 0, for an empty segment, so an
    # offset for the empty middle column would add the last column's first
    # value twice; the state drops the column instead
    layout = RegisterLayout(t=2, L=2)
    block = np.zeros((4, 3), dtype=complex, order="F")
    block[:, 0] = [1.0, 2.0, 0.0, 3.0]
    block[:, 2] = [0.0, 4.0, 5.0, 0.0]
    state = state_of(layout, block / math.sqrt(55.0), [0, 1, 3])
    assert state.labels.tolist() == [0, 3]
    assert state.starts.tolist() == [0, 3]
    values = np.arange(1.0, 6.0)
    assert state.flat_sum(values) == 15.0
    assert np.add.reduceat(values, [0, 3, 3]).tolist() == [6.0, 4.0, 9.0]


@pytest.mark.parametrize("n, x, t", [(15, 7, 11), (49, 3, 8), (255, 2, 4)])
def test_measurement_distribution_matches_dense_row_sums_on_circuit_states(n, x, t):
    # N=255 puts register B at width 256: two 128-blocks
    psi3 = tuple(run_order_finding_circuit(make_instance(n, x, t=t)))[2]
    expected = _dense_row_sums(block_of(psi3), psi3.labels, psi3.layout.dim_b)
    assert measurement_probabilities_A(psi3).tobytes() == expected.tobytes()


def test_dense_factor_peaks_below_half_a_column_block():
    # psi3 is summed into the distribution a chunk at a time, so no (Q, r)
    # block is held; holding psi3 peaked at 1.27 * 16 * Q * r bytes on this
    # 21-qubit, r = 42 instance, and holding psi2 beside it at 2.19
    from shormeter.cli import main

    inst = make_instance(49, 3)
    assert (inst.Q, inst.r) == (2**15, 42)
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["factor", "--n", "49", "--x", "3"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code in (0, 1)
    assert peak < 0.5 * 16 * inst.Q * inst.r


def test_real_transform_holds_no_more_than_the_stage_blocks():
    # each transformed chunk is gathered into psi3's mask and entries, which
    # grow in place: no copy of the entries and no full-height buffer.
    # Held together, the stages take at most two blocks and one chunk's
    # real scratch and transform; built after psi2 was dropped, psi3 takes
    # its own entries and the chunk (2.03 blocks when the circuit built all
    # three stages at once); final_distribution peaked at 4.75 MiB with the
    # complex scratch of the full transform
    inst = make_instance(49, 3)
    assert (inst.t, inst.r) == (15, 42)
    block_bytes = 16 * inst.Q * inst.r

    def held():
        return tuple(run_order_finding_circuit(inst))

    def lazy():
        states = iter(run_order_finding_circuit(inst))
        next(states)
        next(states)
        return next(states)

    peaks = []
    for run in (held, lazy, lambda: final_distribution(inst)):
        tracemalloc.start()
        try:
            result = run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        del result
        peaks.append(peak)
    assert peaks[0] <= 2 * block_bytes + statevec._CHUNK_BYTES + 2**20
    assert peaks[1] < 1.25 * block_bytes
    assert peaks[2] <= 4.75 * 2**20


def test_psi2_peaks_below_a_quarter_block():
    # psi2 is Q equal entries and a (r, Q) mask: 1/r + 1/16 of a block of
    # 16 * Q * r bytes, where its zero-filled block took a whole one
    inst = make_instance(125, 2, t=13)
    states = run_order_finding_circuit(inst)
    next(states)
    tracemalloc.start()
    try:
        psi2 = next(states)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(psi2.amplitudes) == inst.Q and len(psi2.labels) == inst.r == 100
    assert peak < 0.25 * 16 * inst.Q * inst.r


def test_circuit_stays_below_one_dense_state_in_memory():
    inst = make_instance(33, 2)
    assert inst.n == 21
    tracemalloc.start()
    try:
        states = tuple(run_order_finding_circuit(inst))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [len(s.labels) for s in states] == [1, inst.r, inst.r]
    assert peak < 16 * inst.dim


def test_measurement_distribution_basics():
    lay = RegisterLayout(t=2, L=1)
    vec = np.zeros(lay.dim, dtype=complex)
    vec[4] = 1.0  # register-A value 2, register-B value 0
    probs = measurement_probabilities_A(from_dense(lay, vec))
    assert probs.tolist() == [0.0, 0.0, 1.0, 0.0]


@pytest.mark.parametrize(
    "probs", [[np.nan, np.nan], [np.nan, 1.0], [0.5, np.nan, 0.5], [np.inf, 0.0]]
)
def test_distribution_rejects_non_finite_probabilities(probs):
    with pytest.raises(ValueError, match="sum"):
        distribution_of(np.array(probs))


@pytest.mark.parametrize("probs", [[1.5, -0.5], [-1e-11, 1.0], [-np.inf, 1.0]])
def test_distribution_rejects_negative_probabilities(probs):
    with pytest.raises(ValueError, match="negative probability"):
        distribution_of(np.array(probs))


@pytest.mark.parametrize("n, x, t", [(49, 3, 10), (255, 2, 4)])
def test_final_distribution_hands_over_its_probabilities(monkeypatch, n, x, t):
    # the probabilities are fresh and no one else holds them, so the
    # distribution accumulates them in place: the CDF is the same array
    kept = []
    probabilities_of = statevec.final_probabilities

    def recorded(instance):
        kept.append(probabilities_of(instance))
        return kept[-1]

    monkeypatch.setattr(statevec, "final_probabilities", recorded)
    inst = make_instance(n, x, t=t)
    dist = final_distribution(inst)
    assert dist.cdf is kept[0]
    assert dist.cdf.tobytes() == np.cumsum(probabilities_of(inst)).tobytes()


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
        probs = statevec._outcome_probabilities(r, q)
        for k in range(q):
            assert probs[k] == pytest.approx(outcome_probability(k, r, q), abs=1e-12)


def test_simulated_distribution_matches_closed_form(pipeline15):
    probs = measurement_probabilities_A(pipeline15[2])
    closed = statevec._outcome_probabilities(4, 2048)
    assert np.abs(probs - closed).max() < 1e-9


@pytest.mark.parametrize("n, x, t", [(21, 2, 10), (49, 3, 10)])
def test_closed_form_distribution_matches_simulation_when_order_does_not_divide(n, x, t):
    inst = make_instance(n, x, t=t)
    assert inst.Q % inst.r != 0
    simulated = measurement_probabilities_A(tuple(run_order_finding_circuit(inst))[2])
    closed = statevec._outcome_probabilities(inst.r, inst.Q)
    assert np.abs(simulated - closed).max() < 1e-12


@pytest.mark.parametrize("r, q", [(1, 16), (16, 16), (24, 16), (40, 8)])
def test_outcome_distribution_edge_orders(r, q):
    probs = statevec._outcome_probabilities(r, q)
    expected = [outcome_probability(k, r, q) for k in range(q)]
    assert np.abs(probs - expected).max() < 1e-12


def test_outcome_distribution_rejects_dimension_beyond_int64_phases():
    with pytest.raises(ValueError, match="2\\*\\*31"):
        outcome_distribution(3, 2**31 + 1)


@pytest.mark.parametrize("q", [3, 6, 12, 2**20 + 2**19])
def test_outcome_distribution_rejects_dimension_that_is_not_a_power_of_two(q):
    with pytest.raises(ValueError, match="power of two"):
        outcome_distribution(3, q)


def test_distribution_holds_one_read_only_cdf_that_draws_reuse():
    q = 2**16
    dist = outcome_distribution(6, q)
    assert dist.cdf.tobytes() == np.cumsum(statevec._outcome_probabilities(6, q)).tobytes()
    assert not dist.cdf.flags.writeable
    rng = np.random.default_rng(3)
    tracemalloc.start()
    try:
        draws = [sample_outcome(dist, rng) for _ in range(10)]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(0 <= k < q for k in draws)
    assert peak < 8 * q  # no draw accumulates a Q-long CDF of its own


@pytest.mark.parametrize("r", [1, 40, 41, 42, 2**14 + 3])
def test_outcome_distribution_accumulates_the_floats_of_a_fresh_cumsum(r):
    for t in range(20):
        q = 2**t
        expected = np.cumsum(statevec._outcome_probabilities(r, q))
        assert outcome_distribution(r, q).cdf.tobytes() == expected.tobytes(), (r, q)


@pytest.mark.parametrize("n, x, t", HERMITIAN_CASES)
def test_final_distribution_accumulates_the_floats_of_a_fresh_cumsum(n, x, t):
    inst = make_instance(n, x, t=t)
    expected = np.cumsum(final_probabilities(inst))
    assert final_distribution(inst).cdf.tobytes() == expected.tobytes()


def test_fast_distribution_holds_one_outcome_long_array():
    # the probabilities become their own CDF: 16.0 bytes per outcome were
    # traced while a fresh CDF was accumulated beside them; the sin**2 table
    # lives in the probabilities, for odd r (P = Q) and even r alike
    q = 2**19
    for r in (41, 42):
        tracemalloc.start()
        try:
            dist = outcome_distribution(r, q)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(dist.cdf) == q
        assert peak < 10 * q, r
        del dist


@pytest.mark.parametrize("writeable", [False, True])
def test_distribution_leaves_the_callers_array_as_it_is(writeable):
    probs = np.array([0.125, 0.0, 0.375, 0.5])
    probs.setflags(write=writeable)
    kept = probs.tobytes()
    dist = distribution_of(probs)
    assert dist.cdf.tolist() == [0.125, 0.125, 0.5, 1.0]
    assert probs.tobytes() == kept and probs.flags.writeable == writeable
    assert not dist.cdf.flags.writeable and not np.shares_memory(dist.cdf, probs)


@pytest.mark.parametrize(
    "index, value, message",
    [(0, np.nan, "sum"), (1, -1e-9, "negative probability"), (2, 0.125 + 2e-9, "sum")],
    ids=["nan", "negative", "total"],
)
def test_outcome_distribution_checks_its_probabilities_before_it_accumulates(
    monkeypatch, index, value, message
):
    # each vector is handed over writable, as the kernel's is; a check that
    # ran after the in-place cumsum would leave it accumulated
    probs = np.full(8, 0.125)
    probs[index] = value
    if value < 0:
        probs[0] += 0.125 + 1e-9  # the total stays 1
    kept = probs.tobytes()
    monkeypatch.setattr(statevec, "_outcome_probabilities", lambda r, q: probs)
    with pytest.raises(ValueError, match=message):
        outcome_distribution(3, 8)
    assert probs.tobytes() == kept


def test_sample_outcome_delta_distribution():
    dist = distribution_of(np.array([0.0, 0.0, 1.0, 0.0]))
    for seed in (0, 1, 12345):
        assert sample_outcome(dist, np.random.default_rng(seed)) == 2


def test_sample_outcome_frequencies(inst15, pipeline15):
    dist = distribution_of(measurement_probabilities_A(pipeline15[2]))
    rng = np.random.default_rng(42)
    draws = np.array([sample_outcome(dist, rng) for _ in range(4096)])
    for peak in (0, 512, 1024, 1536):
        freq = np.mean(draws == peak)
        assert abs(freq - 0.25) < 0.03


def test_sample_outcome_seed_replay(pipeline15):
    dist = distribution_of(measurement_probabilities_A(pipeline15[2]))
    rng_a = np.random.default_rng(7)
    rng_b = np.random.default_rng(7)
    seq_a = [sample_outcome(dist, rng_a) for _ in range(20)]
    seq_b = [sample_outcome(dist, rng_b) for _ in range(20)]
    assert seq_a == seq_b


def test_dump_nonzero_json_sorted():
    lay = RegisterLayout(t=1, L=1)
    state = uniform_state(lay)
    triples = json.loads(dump_nonzero_json(state))
    assert [row[0] for row in triples] == [1, 3]
    assert triples[0][1] == pytest.approx(1 / math.sqrt(2))


def test_run_circuit_returns_three_normalized_stages(pipeline15):
    for state in pipeline15:
        vec = to_dense(state)
        assert abs(np.vdot(vec, vec).real - 1.0) < 1e-10
