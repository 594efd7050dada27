"""Reference implementations and test-only helpers the tests compare against.

Three kinds live here.  The dense expressions evaluate a pure-state measure
over the dense (Q, 2**L) array of a state, one register-B column at a time:
every sum over a state is defined that way (`column_flat_sum`), and
`shormeter.measures` must reproduce them bit for bit from the nonzero
amplitudes.  The single-point wrappers evaluate a one-element grid on the
vector zero-padded to a power of two and held as a `PureState`
(`as_state`).  The density-matrix measures (eigendecomposition
based) are independent routes, capped at dim <= 256.  The relative-entropy and skew-information
coherences are included because the Tsallis family reduces to them at
alpha -> 1 and alpha = 1/2.  The circuit and entanglement oracles (dense
materialization of column-stored states; the all-column Hadamard layer,
the only general Hadamard gate, since the library builds psi1 directly as
`statevec.uniform_state`; inverse transform on dense vectors by a complex
FFT and, on real amplitudes, by a real-input FFT and a conjugate mirror;
modexp on dense vectors, the only general modexp gate, since the library
builds psi2 and psi3 from the instance; ideal post-transform state,
dual-path outcome probability, forward and inverse transform gates on a
held state, the outcome distribution of a
held state, the whole-array form of the closed-form one and its
unreflected long-double evaluation, loop-summed
closed-form overlaps, dense all-starts product-family optimizer,
brute-force product-state search, symmetric optimum and overlap through a
state's weight sums, the dense-grid symmetric optimum and the exact
symmetric overlap that certify the library's, weight sums by np.add.at,
alpha-peak search)
the Fraction convergents and the candidate-set order recovery, and small helpers (`as_state`, `state_of`, `block_of`, `dense_perturbed`,
`dense_grid`, `mod_pow`, `register_b_support`, `dump_nonzero_json`, `make_instance`,
`distribution_of`) serve only the tests, so they are kept out of the
library.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from shormeter.entanglement import (
    ClosedFormOverlaps,
    SymmetricOptimum,
    geometric_entanglement_symmetric,
    hamming_weight_term,
)
from shormeter.measures import (
    ALPHA_ONE_TOL,
    l1p_coherence_grid,
    tsallis_coherence_grid,
    validate_alpha,
)
from shormeter.numtheory import RegisterLayout, ShorInstance, register_sizes
from shormeter.statevec import OutcomeDistribution, PureState, weight_sums

ZERO_TOL = 1e-12  # the test helpers count amplitudes below this modulus as zeros
_DENSITY_DIM_CAP = 256
_EIG_CLAMP = 1e-12  # eigenvalues below this are zeroed before fractional powers
_HERMITIAN_TOL = 1e-10
_DUAL_PATH_TOL = 1e-9


def _pure_probs(state: np.ndarray) -> np.ndarray:
    amps = np.asarray(state, dtype=np.complex128).reshape(-1)
    return amps.real**2 + amps.imag**2


def _shannon_nats(p: np.ndarray) -> float:
    nz = p[p > 0.0]
    return float(-np.sum(nz * np.log(nz)))


def column_flat_sum(grid: np.ndarray, values: np.ndarray) -> float:
    """The flat sum of `values` over the exactly nonzero entries of the dense
    (Q, 2**L) amplitude array `grid`, by its definition: each register-B
    column's values in row order, summed as np.add.reduceat sums a segment
    (its first value plus numpy's sum of the rest), then the column sums by
    math.fsum.  A column without a nonzero entry adds nothing."""
    sums = []
    for amplitudes, column in zip(grid.T, values.T):
        v = column[amplitudes != 0]
        if v.size:
            sums.append(v[0] + np.sum(v[1:]))
    return math.fsum(sums)


def dense_grid(state: PureState) -> np.ndarray:
    """The (Q, 2**L) array of all amplitudes of a column-stored state."""
    return to_dense(state).reshape(state.layout.Q, state.layout.dim_b)


def dense_tsallis_pure(state: PureState, alpha: float) -> float:
    """(sum_i |c_i|**(2/alpha) - 1) / (alpha - 1), each sum a `column_flat_sum`
    over the dense array; at alpha -> 1, -sum_i p_i log p_i, with 0 log 0 = 0."""
    validate_alpha(alpha)
    grid = dense_grid(state)
    p = grid.real**2 + grid.imag**2
    if abs(alpha - 1.0) <= ALPHA_ONE_TOL:
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(p > 0.0, p * np.log(p), 0.0)
        return -column_flat_sum(grid, terms)
    return (column_flat_sum(grid, p ** (1.0 / alpha)) - 1.0) / (alpha - 1.0)


def dense_l1p_pure(state: PureState, p: float) -> float:
    """sum_j |c_j| * (sum_{i != j} |c_i|**p)**(1/p), each sum a
    `column_flat_sum` over the dense array."""
    if not 1.0 <= p <= 2.0:
        raise ValueError(f"p must lie in [1, 2], got {p}")
    grid = dense_grid(state)
    a = np.abs(grid)
    rest = a**p
    np.subtract(column_flat_sum(grid, rest), rest, out=rest)
    np.clip(rest, 0.0, None, out=rest)
    rest **= 1.0 / p
    rest *= a
    return column_flat_sum(grid, rest)


def dense_geometric_pure(state: PureState) -> float:
    """1 - max_i |c_i|**2 over all amplitudes."""
    return float(max(0.0, 1.0 - _pure_probs(to_dense(state)).max()))


def geometric_coherence_pure(state: PureState) -> float:
    """Geometric coherence of a pure state, 1 - max_i |c_i|**2, from its own
    |c|**2 = re**2 + im**2 of the entries.  `theorems.verify_stage` takes
    C_g from the |c|**2 array of its Tsallis grid and must give the same
    float."""
    probs = np.square(state.amplitudes.real)
    probs += np.square(state.amplitudes.imag)
    return float(max(0.0, 1.0 - probs.max(initial=0.0)))


def as_state(vec: np.ndarray) -> PureState:
    """A normalized vector as a `PureState` with L = 1, zero-padded to 2**m >= 4
    amplitudes; `to_dense` gives back the padded vector."""
    amps = np.asarray(vec, dtype=np.complex128).reshape(-1)
    size = max(4, 1 << (amps.size - 1).bit_length())
    padded = np.zeros(size, dtype=np.complex128)
    padded[: amps.size] = amps
    return from_dense(RegisterLayout(t=size.bit_length() - 2, L=1), padded)


def tsallis_coherence_pure(state: np.ndarray, alpha: float) -> float:
    """Tsallis relative alpha-entropy of coherence of a vector at one alpha."""
    return tsallis_coherence_grid(as_state(state), (alpha,))[0]


def l1p_coherence_pure(state: np.ndarray, p: float) -> float:
    """l_{1,p} coherence of a vector at one p."""
    return l1p_coherence_grid(as_state(state), (p,))[0]


def pure_density(state: np.ndarray) -> np.ndarray:
    """Rank-one density matrix |psi><psi| of an amplitude vector."""
    amps = np.asarray(state, dtype=np.complex128).reshape(-1)
    return np.outer(amps, amps.conj())


def _validate_density(rho: np.ndarray) -> np.ndarray:
    rho = np.asarray(rho, dtype=np.complex128)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"density matrix must be square, got shape {rho.shape}")
    if rho.shape[0] > _DENSITY_DIM_CAP:
        raise ValueError(
            f"density-matrix oracle capped at dim {_DENSITY_DIM_CAP}, got {rho.shape[0]}"
        )
    if np.abs(rho - rho.conj().T).max() > _HERMITIAN_TOL:
        raise ValueError("density matrix is not Hermitian within tolerance")
    trace = complex(np.trace(rho))
    if abs(trace - 1.0) > _HERMITIAN_TOL:
        raise ValueError(f"density matrix trace is {trace!r}, not 1")
    return rho


def tsallis_coherence_density(rho: np.ndarray, alpha: float) -> float:
    """Tsallis relative alpha-entropy of coherence via eigendecomposition.

    Computes sum_i <i|rho**alpha|i>**(1/alpha) with eigenvalues clamped at
    zero before the fractional power (tiny negative roundoff eigenvalues
    would otherwise turn into NaN for alpha < 1).
    """
    validate_alpha(alpha)
    rho = _validate_density(rho)
    if abs(alpha - 1.0) <= ALPHA_ONE_TOL:
        return math.log(2.0) * relative_entropy_coherence(rho)
    evals, vecs = np.linalg.eigh(rho)
    evals = np.where(evals < _EIG_CLAMP, 0.0, evals)
    weights = vecs.real**2 + vecs.imag**2  # |<i|v_k>|**2
    diag_pow = np.clip(weights @ (evals**alpha), 0.0, None)
    total = float(np.sum(diag_pow ** (1.0 / alpha)))
    return (total - 1.0) / (alpha - 1.0)


def relative_entropy_coherence(rho: np.ndarray) -> float:
    """Relative entropy of coherence in bits: S(rho_diag) - S(rho)."""
    rho = _validate_density(rho)
    evals = np.clip(np.linalg.eigvalsh(rho), 0.0, None)
    diag = np.clip(np.real(np.diag(rho)), 0.0, None)
    return (_shannon_nats(diag) - _shannon_nats(evals)) / math.log(2.0)


def l1p_coherence_density(rho: np.ndarray, p: float) -> float:
    """l_{1,p} coherence: strip the diagonal, p-norm each column, sum."""
    if not 1.0 <= p <= 2.0:
        raise ValueError(f"p must lie in [1, 2], got {p}")
    rho = _validate_density(rho)
    off = rho - np.diag(np.diag(rho))
    col_norms = np.sum(np.abs(off) ** p, axis=0) ** (1.0 / p)
    return float(np.sum(col_norms))


def skew_info_coherence(rho: np.ndarray) -> float:
    """Skew-information coherence: 1 - sum_j <j|sqrt(rho)|j>**2.

    The Tsallis measure at alpha = 1/2 equals exactly twice this value,
    which is what the cross-check tests exercise.
    """
    rho = _validate_density(rho)
    evals, vecs = np.linalg.eigh(rho)
    evals = np.where(evals < _EIG_CLAMP, 0.0, evals)  # sqrt would amplify roundoff
    weights = vecs.real**2 + vecs.imag**2
    diag_sqrt = weights @ np.sqrt(evals)
    return float(1.0 - np.sum(diag_sqrt**2))


# ---------------------------------------------------------------------------
# Number theory and state helpers
# ---------------------------------------------------------------------------


def mod_pow(x: int, e: int, n: int) -> int:
    """x**e mod n by square-and-multiply, for any non-negative exponent."""
    if n < 2:
        raise ValueError(f"modulus must be >= 2, got {n}")
    if e < 0:
        raise ValueError(f"exponent must be >= 0, got {e}")
    return pow(x, e, n)


def continued_fraction_convergents(k: int, q: int) -> list[Fraction]:
    """Convergents of k/q in lowest terms, ending at k/q itself.

    Denominators are strictly increasing; when the leading 0/1 and the next
    convergent tie at denominator 1 only the later one is kept.  k=0 yields
    the single convergent 0/1.  `numtheory.recover_order` steps only the
    denominators' recurrence and must read the same denominators.
    """
    if q <= 0:
        raise ValueError(f"denominator must be positive, got {q}")
    if not 0 <= k < q:
        raise ValueError(f"need 0 <= k < q, got k={k}, q={q}")
    digits = []
    a, b = k, q
    while b:
        digits.append(a // b)
        a, b = b, a % b
    convs = [Fraction(digits[0], 1)]
    p_prev, p_cur = 1, digits[0]
    q_prev, q_cur = 0, 1
    for d in digits[1:]:
        p_prev, p_cur = p_cur, d * p_cur + p_prev
        q_prev, q_cur = q_cur, d * q_cur + q_prev
        convs.append(Fraction(p_cur, q_cur))
    if len(convs) > 1 and convs[1].denominator == 1:
        convs.pop(0)
    return convs


def candidate_set_recover_order(k: int, instance: ShorInstance) -> Optional[int]:
    """`numtheory.recover_order` as a candidate set: every multiple below N of
    every convergent denominator of k/Q in [2, N), sorted, then the first
    that maps x to 1 reduced to its smallest divisor that does.  It holds
    up to N candidates at once, so it is for small N only."""
    n, x = instance.N, instance.x
    candidates = set()
    for conv in continued_fraction_convergents(k, instance.Q):
        d = conv.denominator
        if 2 <= d < n:
            candidates.update(d * mult for mult in range(1, n // d + 1))
    for cand in sorted(candidates):
        if pow(x, cand, n) == 1:
            return min(e for e in range(1, cand + 1) if cand % e == 0 and pow(x, e, n) == 1)
    return None


def make_instance(
    N: int, x: int, *, t: Optional[int] = None, epsilon: float = 0.25
) -> ShorInstance:
    """Build a ShorInstance, sizing registers from epsilon unless t is given."""
    sizes = register_sizes(N, epsilon)
    return ShorInstance(N=N, x=x, t=sizes.t if t is None else t, L=sizes.L)


def distribution_of(probabilities) -> OutcomeDistribution:
    """The `OutcomeDistribution` of a float64 copy of `probabilities`: the
    distribution takes its vector over, and the caller's stays as it is."""
    return OutcomeDistribution(np.array(probabilities, dtype=np.float64))


def state_of(layout: RegisterLayout, block: np.ndarray, labels) -> PureState:
    """The `PureState` of a (Q, k) block of the columns with register-B
    labels `labels`: the exactly nonzero amplitudes of each column, in a
    fresh array, and their mask (all-zero columns dropped)."""
    columns = np.asarray(block, dtype=np.complex128).T
    mask = columns != 0
    return PureState(layout, np.array(labels), mask, columns[mask])


def block_of(state: PureState) -> np.ndarray:
    """The fresh, column-major (Q, k) block of a state's occupied columns,
    +0.0 where its mask has no entry."""
    block = np.zeros((state.layout.Q, len(state.labels)), dtype=np.complex128, order="F")
    block.T[state.mask] = state.amplitudes
    return block


def dense_perturbed(state: PureState, eps: float) -> PureState:
    """`statevec.perturbed` on the C-ordered (Q, k) block of a state: its
    first largest entry in row-major order scaled by 1 + eps, then the
    block divided by the square root of its np.vdot norm, and its exact
    zeros dropped."""
    block = np.ascontiguousarray(block_of(state))
    block[np.unravel_index(np.argmax(np.abs(block)), block.shape)] *= 1.0 + eps
    block /= np.sqrt(np.vdot(block, block).real)
    return state_of(state.layout, block, state.labels)


def from_dense(layout: RegisterLayout, vec: np.ndarray) -> PureState:
    """Column-stored state of a dense amplitude vector (all-zero columns dropped)."""
    grid = np.asarray(vec, dtype=np.complex128).reshape(layout.Q, layout.dim_b)
    return state_of(layout, grid, np.arange(layout.dim_b))


def to_dense(state: PureState) -> np.ndarray:
    """All 2**(t+L) amplitudes of a column-stored state, +0.0 off its mask."""
    lay = state.layout
    vec = np.zeros(lay.dim, dtype=np.complex128)
    vec.reshape(lay.Q, lay.dim_b)[:, state.labels] = block_of(state)
    return vec


def register_b_support(state: PureState) -> list[int]:
    """Register-B values carrying probability above ZERO_TOL**2."""
    marginal = np.sum(np.abs(block_of(state)) ** 2, axis=0)
    return [int(y) for y in state.labels[marginal > ZERO_TOL**2]]


def dump_nonzero_json(state: PureState) -> str:
    """JSON array of [index, re, im] triples for amplitudes above ZERO_TOL."""
    amps = to_dense(state)
    keep = np.flatnonzero(np.abs(amps) > ZERO_TOL)
    return json.dumps([[int(i), float(amps[i].real), float(amps[i].imag)] for i in keep])


def weight_sums_loop(instance: ShorInstance) -> tuple[float, complex]:
    """S_ab and S_as label by label: int.bit_count popcounts, += left to right, a-major."""
    r, m = instance.r, instance.m
    n, dim_b = instance.n, instance.dim_b
    s_ab, s_as = 0.0, 0.0 + 0.0j
    for a in range(r):
        y = pow(instance.x, a, instance.N)
        for b in range(m):
            s_ab += hamming_weight_term(((a + b * r) * dim_b + y).bit_count(), n)
        for s in range(r):
            phase = np.exp(-2.0j * math.pi * ((a * s) % r) / r)
            s_as += phase * hamming_weight_term(((s * m) * dim_b + y).bit_count(), n)
    return s_ab, complex(s_as)


def closed_form_overlaps_loop(instance: ShorInstance) -> Optional[ClosedFormOverlaps]:
    """Reference for `closed_form_overlaps` from `weight_sums_loop`; None unless r | Q."""
    if instance.m is None:
        return None
    s_ab, s_as = weight_sums_loop(instance)
    r = instance.r
    return ClosedFormOverlaps(
        psi2=s_ab * s_ab / instance.Q,
        psi3_literal=(s_as * s_as).real / r**2,
        psi3=abs(s_as) ** 2 / r**2,
    )


# ---------------------------------------------------------------------------
# Circuit oracles
# ---------------------------------------------------------------------------


def hadamard_all_columns(vec: np.ndarray, layout: RegisterLayout) -> np.ndarray:
    """The Hadamard layer run over every register-B column of a dense vector.

    Plain sums and differences per qubit, then one multiply by sqrt(1/Q),
    rounded once.  Every butterfly of a basis state is exact, so on |0>|1>
    this gives the bytes of `statevec.uniform_state`.
    """
    arr = np.array(vec, dtype=np.complex128).reshape((2,) * layout.t + (layout.dim_b,))
    for axis in range(layout.t):
        view = np.moveaxis(arr, axis, 0)
        top = view[0].copy()
        view[0] += view[1]
        np.subtract(top, view[1], out=view[1])
    flat = arr.reshape(-1)
    flat.view(np.float64)[...] *= math.sqrt(1.0 / layout.Q)
    return flat


def inverse_qft_all_columns(vec: np.ndarray, layout: RegisterLayout) -> np.ndarray:
    """The inverse register-A transform run over every register-B column of a dense vector."""
    grid = np.asarray(vec, dtype=np.complex128).reshape(layout.Q, layout.dim_b)
    flat = np.fft.fft(grid, axis=0).reshape(-1)
    flat.view(np.float64)[...] *= 1.0 / math.sqrt(layout.Q)  # as the circuit's transform scales
    return flat


def real_inverse_qft_all_columns(vec: np.ndarray, layout: RegisterLayout) -> np.ndarray:
    """The inverse register-A transform of a dense vector with real
    amplitudes, run over every register-B column by a real-input FFT.

    One np.fft.rfft over the whole (Q, 2**L) grid gives rows [0, Q/2],
    scaled as the circuit's transform scales; row Q - k is then the
    conjugate of row k for 0 < k < Q/2, written by explicit index.  A
    column without a nonzero amplitude stays +0.0, as a column-stored state
    leaves it: its conjugated rows would read -0.0j.
    """
    q, half = layout.Q, layout.Q // 2
    grid = np.asarray(vec, dtype=np.complex128).reshape(q, layout.dim_b)
    if np.any(grid.imag != 0):
        raise ValueError("the real-input transform needs real amplitudes")
    out = np.empty_like(grid)
    out[: half + 1] = np.fft.rfft(grid.real, axis=0)
    out[: half + 1].view(np.float64)[...] *= 1.0 / math.sqrt(q)
    rows = np.arange(1, half)
    out[q - rows] = np.conjugate(out[rows])
    out[:, ~grid.any(axis=0)] = 0.0
    return out.reshape(-1)


def modexp_all_columns(vec: np.ndarray, instance: ShorInstance) -> np.ndarray:
    """|j>|y> -> |j>|x**j * y mod N> on a dense vector, mapping every column below N.

    Multiplication by an invertible x permutes the residues mod N, so the map
    is unitary; basis values y >= N must carry no amplitude.  The library
    has no general modexp gate: the circuit writes psi2 straight from the
    powers of x, and must give the bytes of this gate on psi1.
    """
    q, dim_b, n_mod, x = instance.Q, instance.dim_b, instance.N, instance.x
    grid = np.asarray(vec, dtype=np.complex128).reshape(q, dim_b)
    if n_mod < dim_b and np.any(np.abs(grid[:, n_mod:]) > ZERO_TOL):
        raise ValueError(f"amplitude on register-B value >= N={n_mod}")
    powers = np.empty(q, dtype=np.int64)
    acc = 1
    for j in range(q):
        powers[j] = acc
        acc = (acc * x) % n_mod
    ys = np.arange(n_mod, dtype=np.int64)
    targets = (powers[:, None] * ys[None, :]) % n_mod
    out = np.zeros(instance.dim, dtype=np.complex128)
    out.reshape(q, dim_b)[np.arange(q)[:, None], targets] = grid[:, :n_mod]
    return out


def full_table_modexp_columns(instance: ShorInstance) -> tuple[np.ndarray, np.ndarray]:
    """(labels, exponents) of the modexp image from the whole Q-long table of
    powers x**j mod N: P is the first j >= 1 with x**j == 1, or Q if none."""
    q, n_mod = instance.Q, instance.N
    powers = np.array([pow(instance.x, j, n_mod) for j in range(q)], dtype=np.int64)
    again = np.flatnonzero(powers[1:] == 1)
    period = int(again[0]) + 1 if len(again) else q
    return np.unique(powers[:period], return_index=True)


def _register_a_gate(state: PureState, transform: Callable[[np.ndarray], np.ndarray]) -> PureState:
    """Apply a register-A transform to the occupied register-B columns.

    ``transform`` maps the (Q, k) column-major block to a fresh array of its
    images; the labels stay.
    """
    return state_of(state.layout, transform(block_of(state)), state.labels)


def _qft_columns(cols: np.ndarray) -> np.ndarray:
    out = np.fft.ifft(cols, axis=0)
    out *= math.sqrt(cols.shape[0])
    return out


def apply_qft_A(state: PureState) -> PureState:
    """Fourier transform on register A: kernel exp(+2 pi i j k / Q) / sqrt(Q)."""
    return _register_a_gate(state, _qft_columns)


def _inverse_qft_columns(cols: np.ndarray) -> np.ndarray:
    out = np.fft.fft(cols, axis=0)  # keeps the column-major layout
    out.T.view(np.float64)[...] *= 1.0 / math.sqrt(cols.shape[0])  # as the circuit's transform scales
    return out


def apply_inverse_qft_A(state: PureState) -> PureState:
    """Inverse Fourier transform on register A: kernel exp(-2 pi i j k / Q) / sqrt(Q).

    The gate on a held state, one complex FFT over the whole block.  The
    circuit builds its last stage from the real modexp columns by a
    real-input FFT and a conjugate mirror instead, whose bytes
    `real_inverse_qft_all_columns` states; on psi2 it must lie within an
    FFT rounding bound of this gate.
    """
    return _register_a_gate(state, _inverse_qft_columns)


def row_sums_of_squares(block: np.ndarray) -> np.ndarray:
    """The row sums of |block|**2, each a running sum (np.add.accumulate)
    over the stored columns in label order.  The columns that are not stored
    would add +0.0, which changes no sum of nonnegative values."""
    return np.add.accumulate(np.square(np.abs(block)), axis=1)[:, -1]


def measurement_probabilities_A(state: PureState) -> np.ndarray:
    """p_k = sum_y |amplitude(k, y)|**2 of a held state, over all 2**L values of y.

    The row sums over the occupied columns, added in label order.
    `statevec.final_probabilities` must give the same bytes on psi3 without
    holding it.
    """
    return row_sums_of_squares(block_of(state))


def _reflected_sin_squared(phase: np.ndarray, q: int) -> np.ndarray:
    """sin(pi m / Q)**2 with each phase m reflected to min(m, Q - m)."""
    return np.square(np.sin(np.pi * np.minimum(phase, q - phase) / q))


def whole_array_outcome_probabilities(r: int, q: int) -> np.ndarray:
    """The p_k of `statevec.outcome_distribution` by its definition: every k
    of [0, Q), each pass over one Q-long array, every phase reflected before
    its sine.  The library evaluates only k in [0, P/2], a window at a time,
    fills the rest by the mirror p_{P - k} = p_k and the period P, and must
    give the same bytes."""
    n0, rho = divmod(q, r)
    mask = q - 1
    peaks = slice(None, None, q // math.gcd(r, q))  # the k with r k = 0 (mod Q)
    step = np.arange(q, dtype=np.int64)
    step *= r & mask
    step &= mask
    inv_den = _reflected_sin_squared(step, q)
    inv_den[peaks] = 1.0
    np.divide(1.0, inv_den, out=inv_den)
    total = None
    for n, count in ((n0 + 1, rho), (n0, r - rho)):
        if n and count:
            phase = step * (n & mask)
            phase &= mask
            ratio = _reflected_sin_squared(phase, q)
            ratio *= inv_den
            ratio[peaks] = float(n * n)
            ratio *= count
            total = ratio if total is None else total + ratio
    total /= float(q) * q
    return total


# pi as a 32-bit head and a long-double tail: the head times any phase below
# 2**31 is exact in a 64-bit significand
_PI = Decimal("3.14159265358979323846264338327950288419716939937510582097494")
_PI_HEAD_UNITS = int(_PI * 2**30)


def _long_double_sin_squared(phase: np.ndarray, q: int) -> np.ndarray:
    """sin(pi m / Q)**2 in long double at the unreflected phase m: the
    argument is head + tail, with head = pi_head * m / Q exact and tail =
    pi_tail * m / Q below 1e-9, and sin(head + tail) is expanded by the sum
    formula, so no rounding of an argument near pi enters."""
    m = phase.astype(np.longdouble)
    head = np.ldexp(np.longdouble(_PI_HEAD_UNITS), -30) * m / q
    tail = np.longdouble(str(_PI - Decimal(_PI_HEAD_UNITS) / 2**30)) * m / q
    sin = np.sin(head) * np.cos(tail) + np.cos(head) * np.sin(tail)
    return sin * sin


def long_double_outcome_probabilities(r: int, q: int) -> np.ndarray:
    """The p_k of `statevec.outcome_distribution` by the unreflected closed
    form, evaluated in long double.  Where long double has a 64-bit
    significand it is accurate to about 1e-18 relative at Q = 2**19: an
    argument pi m / Q rounded to long double near pi alone would cost
    u * Q, 2.4e-14 there."""
    n0, rho = divmod(q, r)
    step = np.arange(q, dtype=np.int64) * r % q
    peaks = step == 0
    den = _long_double_sin_squared(step, q)
    den[peaks] = 1
    total = np.zeros(q, dtype=np.longdouble)
    for n, count in ((n0 + 1, rho), (n0, r - rho)):
        if n and count:
            ratio = _long_double_sin_squared(step * n % q, q) / den
            ratio[peaks] = n * n
            total += count * ratio
    return total / (np.longdouble(q) * q)


def ideal_psi3(instance: ShorInstance) -> PureState:
    """Post-transform state built directly, valid when r divides Q.

    Amplitude exp(-2 pi i a s / r) / r at joint index (s*m, x**a mod N); the
    support has at most r*r basis states, each of modulus 1/r.
    """
    r, m = instance.r, instance.m
    if m is None:
        raise ValueError(
            f"ideal post-transform state needs r | Q, but r={r} does not divide Q={instance.Q}"
        )
    vec = np.zeros(instance.dim, dtype=np.complex128)
    for a in range(r):
        y = pow(instance.x, a, instance.N)
        for s in range(r):
            phase = -2.0j * math.pi * ((a * s) % r) / r
            vec[(s * m) * instance.dim_b + y] += np.exp(phase) / r
    return from_dense(instance, vec)


def _peak_term(num: int, r: int, q: int) -> float:
    """|(1/Q) sum_j exp(2 pi i j num/(rQ))|**2 via the geometric series.

    With delta = num/(rQ): 1 when delta is an integer, 0 when Q*delta is an
    integer but delta is not, else (sin(pi Q delta) / (Q sin(pi delta)))**2,
    evaluated through reduced arguments so large multiples of pi never enter.
    """
    den = r * q
    num_mod_den = num % den
    if num_mod_den == 0:
        return 1.0
    if num % r == 0:  # sin(pi * Q * delta) vanishes exactly
        return 0.0
    ratio = math.sin(math.pi * (num % r) / r) / (q * math.sin(math.pi * num_mod_den / den))
    return ratio * ratio


def outcome_probability(k: int, r: int, q: int) -> float:
    """Probability of register-A outcome k for order r and dimension Q.

    Evaluates the outcome probability two ways, a direct O(Q) phase sum and
    the geometric-series closed form, checks they agree to 1e-9, and returns
    the closed form.
    """
    if r < 1:
        raise ValueError(f"order must be >= 1, got {r}")
    if q < 1 or not 0 <= k < q:
        raise ValueError(f"need 0 <= k < Q, got k={k}, Q={q}")
    closed = sum(_peak_term(s * q - k * r, r, q) for s in range(r)) / r
    j = np.arange(q)
    direct = 0.0
    for s in range(r):
        delta = s / r - k / q
        amp = np.exp(2.0j * math.pi * delta * j).sum() / q
        direct += float(abs(amp) ** 2)
    direct /= r
    if abs(direct - closed) > _DUAL_PATH_TOL:
        raise AssertionError(
            f"closed form {closed!r} disagrees with direct sum {direct!r} at k={k}, r={r}, Q={q}"
        )
    return closed


# ---------------------------------------------------------------------------
# Entanglement and alpha-peak oracles
# ---------------------------------------------------------------------------


def _environment(conj_tensor: np.ndarray, qubit_states: Sequence[np.ndarray], i: int) -> np.ndarray:
    """Contract conj(psi) with every single-qubit vector except qubit i."""
    n = conj_tensor.ndim
    v = np.moveaxis(conj_tensor, i, 0)
    for j in range(n - 1, -1, -1):
        if j == i:
            continue
        v = v @ qubit_states[j]
    return v


def _als_overlap(
    conj_tensor: np.ndarray,
    start: Sequence[np.ndarray],
    max_sweeps: int = 200,
    tol: float = 1e-14,
) -> float:
    """Alternating per-qubit maximization of |<psi|prod>| from one start.

    Each update replaces one qubit's state by the normalized environment
    vector, which is the exact conditional optimum, so the overlap is
    non-decreasing update over update.  It returns as soon as the overlap
    reaches 1 (1 - value**2 <= 0), where the clamped entanglement is 0.0.
    """
    n = conj_tensor.ndim
    states = [np.asarray(q, dtype=np.complex128).copy() for q in start]
    value = 0.0
    for _ in range(max_sweeps):
        previous = value
        for i in range(n):
            env = _environment(conj_tensor, states, i)
            norm = float(np.linalg.norm(env))
            if norm < 1e-300:
                states[i] = np.array([1.0, 0.0], dtype=np.complex128)
                continue
            states[i] = env.conj() / norm
            value = norm
            if 1.0 - value * value <= 0.0:
                return value
        if value - previous <= tol:
            break
    return value


def _random_qubit_states(n: int, rng: np.random.Generator) -> list[np.ndarray]:
    out = []
    for _ in range(n):
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        out.append(v / np.linalg.norm(v))
    return out


def dense_marginal_seed(state: PureState) -> list[np.ndarray]:
    """Per-qubit amplitude-magnitude seed over all t+L qubits."""
    n = state.layout.n
    probs = np.abs(to_dense(state).reshape((2,) * n)) ** 2
    seeds = []
    for i in range(n):
        axes = tuple(j for j in range(n) if j != i)
        p = probs.sum(axis=axes)
        seeds.append(np.sqrt(p / p.sum()).astype(np.complex128))
    return seeds


def symmetric_optimum(state: PureState) -> SymmetricOptimum:
    """The symmetric-ansatz optimum of a state, from its weight sums."""
    return geometric_entanglement_symmetric(weight_sums(state))


def _symmetric_seed(state: PureState) -> list[np.ndarray]:
    opt = symmetric_optimum(state)
    eta = np.array(
        [math.cos(opt.alpha_angle / 2.0), math.sin(opt.alpha_angle / 2.0)],
        dtype=np.complex128,
    )
    return [eta.copy() for _ in range(state.layout.n)]


def _product_starts(state: PureState, restarts: int, seed: int) -> list[list[np.ndarray]]:
    """Marginal seed, symmetric seed, uniform, then `restarts` seeded draws."""
    n = state.layout.n
    starts = [dense_marginal_seed(state), _symmetric_seed(state)]
    starts.append([np.full(2, 1.0 / math.sqrt(2.0), dtype=np.complex128) for _ in range(n)])
    rng = np.random.default_rng(seed)
    starts.extend(_random_qubit_states(n, rng) for _ in range(restarts))
    return starts


def dense_product_entanglement(
    state: PureState, starts: Sequence[Sequence[np.ndarray]]
) -> float:
    """1 - max |<state|product>|**2 over ALS runs on the dense (2,)*n tensor."""
    conj_tensor = to_dense(state).conj().reshape((2,) * state.layout.n)
    best = max(_als_overlap(conj_tensor, start) for start in starts)
    return max(0.0, 1.0 - best * best)


def all_starts_product_entanglement(
    state: PureState, restarts: int = 8, seed: int = 1815
) -> float:
    """Product-family cross-check for any state, entangled or multi-column.

    Every start runs (marginal, symmetric, uniform and `restarts` seeded
    draws) on the dense tensor.  The symmetric start keeps the result at or
    below the symmetric-ansatz value, and the marginal start makes exactly
    separable states land on zero.
    """
    return dense_product_entanglement(state, _product_starts(state, restarts, seed))


def symmetric_overlap(state: PureState, alpha_angle: float) -> complex:
    """<state | eta(alpha)^(tensor n)> from its weight sums, one angle at a time."""
    coeff = weight_sums(state)
    n = len(coeff) - 1
    w = np.arange(n + 1)
    c, s = math.cos(alpha_angle / 2.0), math.sin(alpha_angle / 2.0)
    return complex(np.sum(coeff * (c ** (n - w)) * (s**w)))


def dense_symmetric_argmax(coeff: np.ndarray, points: int = 100_001) -> float:
    """The grid angle of the largest |<state|eta(alpha)^n>|**2 of the weight
    sums `coeff`: `points` equispaced alpha in [0, pi/2] and their mirrors
    pi - alpha.

    By Horner's rule in u = tan(alpha/2) <= 1 up to pi/2, and beyond it in
    cot(alpha/2), on the reversed sums, so that no power exceeds 1.
    """
    n = len(coeff) - 1
    half = np.linspace(0.0, math.pi / 2.0, points)
    u, scale = np.tan(half / 2.0), np.cos(half / 2.0) ** n
    values = []
    for sums in (coeff, coeff[::-1]):
        acc = np.zeros(points, dtype=np.complex128)
        for value in sums[::-1]:
            acc = acc * u + value
        values.append(np.abs(acc * scale) ** 2)
    low, high = values
    if low.max() >= high.max():
        return float(half[np.argmax(low)])
    return float(math.pi - half[np.argmax(high)])


def exact_symmetric_overlap_sq(coeff: np.ndarray, alpha_angle: float) -> float:
    """|<state|eta>|**2 of the weight sums `coeff`, where eta is the unit
    vector along (c, s), the floats cos(alpha/2) and sin(alpha/2): a member
    of the symmetric family, evaluated in exact rational arithmetic and
    rounded once, so that two angles compare free of evaluation rounding."""
    n = len(coeff) - 1
    c, s = Fraction(math.cos(alpha_angle / 2.0)), Fraction(math.sin(alpha_angle / 2.0))
    terms = [c ** (n - w) * s**w for w in range(n + 1)]
    re = sum(Fraction(float(v.real)) * t for v, t in zip(coeff, terms))
    im = sum(Fraction(float(v.imag)) * t for v, t in zip(coeff, terms))
    return float((re * re + im * im) / (c * c + s * s) ** n)


def add_at_weight_sums(state: PureState) -> np.ndarray:
    """Conjugated amplitude sums per Hamming weight of the joint index: np.add.at
    over the exactly nonzero entries of the dense (Q, 2**L) array in
    column-major order, down each register-B column in label order."""
    lay = state.layout
    columns = dense_grid(state).T
    labels, rows = np.nonzero(columns)  # row-major over the transpose
    sums = np.zeros(lay.n + 1, dtype=np.complex128)
    np.add.at(sums, np.bitwise_count(rows * lay.dim_b + labels), columns[labels, rows].conj())
    return sums


def _bloch_candidates(n_theta: int = 8, n_phi: int = 8) -> np.ndarray:
    thetas = np.linspace(0.0, math.pi, n_theta)
    phis = np.linspace(0.0, 2.0 * math.pi, n_phi, endpoint=False)
    cands = np.empty((n_theta * n_phi, 2), dtype=np.complex128)
    k = 0
    for th in thetas:
        for ph in phis:
            cands[k, 0] = math.cos(th / 2.0)
            cands[k, 1] = np.exp(1.0j * ph) * math.sin(th / 2.0)
            k += 1
    return cands


def bruteforce_geometric_entanglement(
    state: PureState, restarts: int = 24, seed: int = 97
) -> float:
    """Product-state entanglement oracle for up to three qubits.

    A coarse joint Bloch grid picks the basin, then alternating per-qubit
    refinement (the conditional optimum is analytic) polishes it; seeded
    random restarts and the symmetric-ansatz optimum are thrown in so the
    search cannot land below the restricted family.
    """
    n = state.layout.n
    if n > 3:
        raise ValueError(f"brute-force oracle limited to 3 qubits, got {n}")
    conj_tensor = to_dense(state).conj().reshape((2,) * n)
    cands = _bloch_candidates()
    paths = {1: "ax->xa", 2: "ax,by->xyab", 3: "ax,by,cz->xyzabc"}
    joint = np.einsum(paths[n], *([cands] * n))
    flat = conj_tensor.reshape(-1) @ joint.reshape(2**n, -1)
    best_flat = int(np.argmax(np.abs(flat)))
    grid_start = [cands[i] for i in np.unravel_index(best_flat, (len(cands),) * n)]
    rng = np.random.default_rng(seed)
    starts = [grid_start, dense_marginal_seed(state), _symmetric_seed(state)]
    starts.extend(_random_qubit_states(n, rng) for _ in range(restarts))
    best = max(_als_overlap(conj_tensor, start) for start in starts)
    return max(0.0, 1.0 - best * best)


@dataclass(frozen=True)
class AlphaPeak:
    """Location and value of the post-transform coherence maximum."""

    alpha: float
    value: float
    degenerate: bool


def find_alpha_peak(
    r: int, window: tuple[float, float] = (1.0, 2.0), step: float = 1e-4
) -> AlphaPeak:
    """Argmax of the post-transform Tsallis coherence over (lo, hi].

    Grid search at the given step; the lower edge is excluded (the measure
    has a removable singularity there).  With r = 1 the coherence vanishes
    identically and the first grid point is returned, flagged degenerate.
    """
    lo, hi = window
    if not 0.0 < lo < hi <= 2.0:
        raise ValueError(f"window must satisfy 0 < lo < hi <= 2, got {window}")
    grid = np.arange(lo + step, hi + step / 2.0, step)
    grid = grid[grid <= hi + 1e-15]
    if r == 1:
        return AlphaPeak(alpha=float(grid[0]), value=0.0, degenerate=True)
    r2 = float(r * r)
    safe = np.abs(grid - 1.0) > ALPHA_ONE_TOL
    values = np.empty_like(grid)
    values[safe] = (r2 ** (1.0 - 1.0 / grid[safe]) - 1.0) / (grid[safe] - 1.0)
    values[~safe] = math.log(r2)
    best = int(np.argmax(values))
    return AlphaPeak(alpha=float(grid[best]), value=float(values[best]), degenerate=False)