"""Reference implementations and test-only helpers the tests compare against.

Three kinds live here.  The dense expressions evaluate a pure-state measure
over every amplitude of the state, zeros included; `shormeter.measures`
must reproduce them bit for bit from the nonzero support.  The
density-matrix measures (eigendecomposition based) are independent routes,
capped at dim <= 256.  The relative-entropy and skew-information
coherences are included because the Tsallis family reduces to them at
alpha -> 1 and alpha = 1/2.  The circuit and entanglement oracles (ideal
post-transform state, dual-path outcome probability, all-column modexp,
forward transform, brute-force product-state search, symmetric overlap,
alpha-peak search) and small helpers (`mod_pow`, `register_b_support`,
`dump_nonzero_json`) serve only the tests, so they are kept out of the
library.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from shormeter.entanglement import (
    _als_overlap,
    _marginal_seed,
    _overlap_from_coefficients,
    _random_qubit_states,
    _symmetric_seed,
    _weight_coefficients,
)
from shormeter.measures import ALPHA_ONE_TOL, validate_alpha
from shormeter.numtheory import ShorInstance
from shormeter.statevec import ZERO_TOL, PureState, RegisterLayout, _register_a_gate

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


def dense_tsallis_pure(state: np.ndarray, alpha: float) -> float:
    """(sum_i |c_i|**(2/alpha) - 1) / (alpha - 1) over all amplitudes."""
    validate_alpha(alpha)
    p = _pure_probs(state)
    if abs(alpha - 1.0) <= ALPHA_ONE_TOL:
        return _shannon_nats(p)
    total = float(np.sum(p ** (1.0 / alpha)))
    return (total - 1.0) / (alpha - 1.0)


def dense_l1p_pure(state: np.ndarray, p: float) -> float:
    """sum_j |c_j| * (sum_{i != j} |c_i|**p)**(1/p) over all amplitudes."""
    if not 1.0 <= p <= 2.0:
        raise ValueError(f"p must lie in [1, 2], got {p}")
    a = np.abs(np.asarray(state, dtype=np.complex128).reshape(-1))
    rest = a**p
    np.subtract(np.sum(rest), rest, out=rest)
    np.clip(rest, 0.0, None, out=rest)
    rest **= 1.0 / p
    rest *= a
    return float(np.sum(rest))


def dense_geometric_pure(state: np.ndarray) -> float:
    """1 - max_i |c_i|**2 over all amplitudes."""
    return float(max(0.0, 1.0 - _pure_probs(state).max()))


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


def register_b_support(state: PureState) -> list[int]:
    """Register-B values carrying probability above ZERO_TOL**2."""
    marginal = np.sum(np.abs(state.as_grid()) ** 2, axis=0)
    return [int(y) for y in np.nonzero(marginal > ZERO_TOL**2)[0]]


def dump_nonzero_json(state: PureState) -> str:
    """JSON array of [index, re, im] triples for nonzero amplitudes."""
    triples = [
        [int(i), float(state.amplitudes[i].real), float(state.amplitudes[i].imag)]
        for i in state.support()
    ]
    return json.dumps(triples)


# ---------------------------------------------------------------------------
# Circuit oracles
# ---------------------------------------------------------------------------


def modexp_all_columns(state: PureState, instance: ShorInstance) -> PureState:
    """|j>|y> -> |j>|x**j * y mod N>, mapping every register-B column below N.

    Multiplication by an invertible x permutes the residues mod N, so the map
    is unitary; basis values y >= N must carry no amplitude.
    """
    lay = state.layout
    if (lay.t, lay.L) != (instance.t, instance.L):
        raise ValueError("state layout does not match the instance registers")
    n_mod, x = instance.N, instance.x
    grid = state.as_grid()
    if n_mod < lay.dim_b and np.any(np.abs(grid[:, n_mod:]) > ZERO_TOL):
        raise ValueError(f"amplitude on register-B value >= N={n_mod}")
    powers = np.empty(lay.Q, dtype=np.int64)
    acc = 1
    for j in range(lay.Q):
        powers[j] = acc
        acc = (acc * x) % n_mod
    ys = np.arange(n_mod, dtype=np.int64)
    targets = (powers[:, None] * ys[None, :]) % n_mod
    out = np.zeros(lay.dim, dtype=np.complex128)
    out.reshape(lay.Q, lay.dim_b)[np.arange(lay.Q)[:, None], targets] = grid[:, :n_mod]
    out.setflags(write=False)
    return PureState(lay, out)


def _qft_columns(cols: np.ndarray) -> np.ndarray:
    out = np.fft.ifft(cols, axis=0)
    out *= math.sqrt(cols.shape[0])
    return out


def apply_qft_A(state: PureState) -> PureState:
    """Fourier transform on register A: kernel exp(+2 pi i j k / Q) / sqrt(Q)."""
    return _register_a_gate(state, _qft_columns)


def ideal_psi3(instance: ShorInstance) -> PureState:
    """Post-transform state built directly, valid when r divides Q.

    Amplitude exp(-2 pi i a s / r) / r at joint index (s*m, x**a mod N); the
    support has at most r*r basis states, each of modulus 1/r.
    """
    if instance.r is None:
        raise ValueError("instance needs its order r (call with_order() first)")
    r, m = instance.r, instance.m
    if m is None:
        raise ValueError(
            f"ideal post-transform state needs r | Q, but r={r} does not divide Q={instance.Q}"
        )
    lay = RegisterLayout.for_instance(instance)
    vec = np.zeros(lay.dim, dtype=np.complex128)
    for a in range(r):
        y = pow(instance.x, a, instance.N)
        for s in range(r):
            phase = -2.0j * math.pi * ((a * s) % r) / r
            vec[(s * m) * lay.dim_b + y] += np.exp(phase) / r
    return PureState(lay, vec)


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


def symmetric_overlap(state: PureState, alpha_angle: float) -> complex:
    """<state | eta(alpha)^(tensor n)> in one pass over nonzero amplitudes."""
    return _overlap_from_coefficients(_weight_coefficients(state), alpha_angle)


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
    conj_tensor = state.amplitudes.conj().reshape((2,) * n)
    cands = _bloch_candidates()
    paths = {1: "ax->xa", 2: "ax,by->xyab", 3: "ax,by,cz->xyzabc"}
    joint = np.einsum(paths[n], *([cands] * n))
    flat = conj_tensor.reshape(-1) @ joint.reshape(2**n, -1)
    best_flat = int(np.argmax(np.abs(flat)))
    grid_start = [cands[i] for i in np.unravel_index(best_flat, (len(cands),) * n)]
    rng = np.random.default_rng(seed)
    starts = [grid_start, _marginal_seed(state), _symmetric_seed(state)]
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