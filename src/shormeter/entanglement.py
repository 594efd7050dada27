"""Geometric entanglement of the pipeline states.

The production path restricts the product-state optimization to the
one-parameter symmetric family eta(alpha)^(tensor n) with
eta = cos(alpha/2)|0> + sin(alpha/2)|1>, which is what the closed forms are
derived from.  Hamming-weight tables over the joint basis labels feed those
closed forms.  Two cross-checks over the *full* product-state family are
provided as well: a seeded alternating optimizer that works at pipeline
scale, and a small brute-force oracle for up to three qubits.  The
alternating optimizer stops at the first start whose overlap reaches 1: the
clamped value is 0.0 from then on, whatever the remaining starts find, so on
the product-state stage one start returns the same float as all of them.

The closed form for the post-transform stage squares a complex sum; since
plain squaring and squared modulus differ once the sum leaves the real
axis, both readings are always computed side by side.  The squared-modulus
reading is treated as canonical (an overlap maximum is a squared modulus),
and for every power-of-two order checked the two agree anyway.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from shormeter.numtheory import ShorInstance
from shormeter.statevec import PureState

__all__ = [
    "HammingTable",
    "Psi3ClosedForm",
    "SymmetricOptimum",
    "build_hamming_table",
    "bruteforce_geometric_entanglement",
    "closed_form_eg_psi2",
    "closed_form_eg_psi3",
    "gamma_factor",
    "geometric_entanglement_product",
    "geometric_entanglement_symmetric",
    "hamming_weight_term",
    "symmetric_overlap",
    "weight_sum_ab",
    "weight_sum_as",
]

GRID_POINTS = 2048
REFINE_TOL = 1e-10
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def hamming_weight_term(w: int, n: int) -> float:
    """((n-w)/n)**((n-w)/2) * (w/n)**(w/2), with 0**0 == 1.

    This is the maximum over alpha of cos(alpha/2)**(n-w) * sin(alpha/2)**w,
    attained at alpha = 2*arccos(sqrt((n-w)/n)).
    """
    if not 0 <= w <= n:
        raise ValueError(f"weight must lie in [0, {n}], got {w}")
    lo = ((n - w) / n) ** ((n - w) / 2.0) if w < n else 1.0
    hi = (w / n) ** (w / 2.0) if w > 0 else 1.0
    return lo * hi


@dataclass(frozen=True)
class HammingTable:
    """Popcounts of the joint labels entering the closed forms.

    weights_ab[a, b] is the popcount of the label (a + b*r, x**a mod N) and
    weights_as[a, s] that of (s*Q/r, x**a mod N), both under the A-major
    index convention.  Requires r | Q, because both index families tile the
    register-A range only then.
    """

    n: int
    weights_ab: np.ndarray
    weights_as: np.ndarray


def build_hamming_table(instance: ShorInstance) -> HammingTable:
    if instance.r is None:
        raise ValueError("instance needs its order r (call with_order() first)")
    r, m = instance.r, instance.m
    if m is None:
        raise ValueError(f"weight tables need r | Q, but r={r} does not divide Q={instance.Q}")
    dim_b = 2**instance.L
    residues = [pow(instance.x, a, instance.N) for a in range(r)]
    weights_ab = np.empty((r, m), dtype=np.int64)
    weights_as = np.empty((r, r), dtype=np.int64)
    for a in range(r):
        y = residues[a]
        for b in range(m):
            weights_ab[a, b] = ((a + b * r) * dim_b + y).bit_count()
        for s in range(r):
            weights_as[a, s] = ((s * m) * dim_b + y).bit_count()
    return HammingTable(n=instance.n_qubits, weights_ab=weights_ab, weights_as=weights_as)


def _weight_coefficients(state: PureState) -> np.ndarray:
    """Conjugated amplitude sums grouped by the Hamming weight of the label."""
    n = state.layout.n
    idx = state.support()
    weights = np.bitwise_count(idx)
    coeff = np.zeros(n + 1, dtype=np.complex128)
    np.add.at(coeff, weights, state.amplitudes[idx].conj())
    return coeff


def _overlap_from_coefficients(coeff: np.ndarray, alpha_angle: float) -> complex:
    n = len(coeff) - 1
    c = math.cos(alpha_angle / 2.0)
    s = math.sin(alpha_angle / 2.0)
    w = np.arange(n + 1)
    return complex(np.sum(coeff * (c ** (n - w)) * (s**w)))


def symmetric_overlap(state: PureState, alpha_angle: float) -> complex:
    """<state | eta(alpha)^(tensor n)> in one pass over nonzero amplitudes."""
    return _overlap_from_coefficients(_weight_coefficients(state), alpha_angle)


def _golden_max(f: Callable[[float], float], a: float, b: float, tol: float) -> tuple[float, float]:
    """Golden-section maximization of f on [a, b] down to interval width tol."""
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


@dataclass(frozen=True)
class SymmetricOptimum:
    """Best symmetric-ansatz overlap: E_g value, maximizer, squared overlap."""

    entanglement: float
    alpha_angle: float
    overlap_sq: float


def geometric_entanglement_symmetric(
    state: PureState, grid_points: int = GRID_POINTS
) -> SymmetricOptimum:
    """1 - max_alpha |<state|eta(alpha)^n>|**2 over the symmetric family.

    A dense grid over [0, pi] seeds a golden-section refinement, which is
    enough because the overlap is a low-oscillation trigonometric polynomial
    in alpha.
    """
    coeff = _weight_coefficients(state)
    n = len(coeff) - 1
    grid = np.linspace(0.0, math.pi, grid_points)
    c = np.cos(grid / 2.0)
    s = np.sin(grid / 2.0)
    w = np.arange(n + 1)
    overlaps = ((c[:, None] ** (n - w[None, :])) * (s[:, None] ** w[None, :])) @ coeff
    values = np.abs(overlaps) ** 2
    best = int(np.argmax(values))
    lo = grid[max(best - 1, 0)]
    hi = grid[min(best + 1, grid_points - 1)]

    def objective(angle: float) -> float:
        return abs(_overlap_from_coefficients(coeff, angle)) ** 2

    alpha_star, val_star = _golden_max(objective, lo, hi, REFINE_TOL)
    if values[best] > val_star:
        alpha_star, val_star = float(grid[best]), float(values[best])
    return SymmetricOptimum(
        entanglement=1.0 - val_star, alpha_angle=alpha_star, overlap_sq=val_star
    )


def weight_sum_ab(table: HammingTable) -> float:
    """Sum of per-weight maxima over the (a, b) label family (a real number)."""
    return float(sum(hamming_weight_term(int(w), table.n) for w in table.weights_ab.flat))


def weight_sum_as(table: HammingTable) -> complex:
    """Phase-weighted sum of per-weight maxima over the (a, s) family."""
    r = table.weights_as.shape[0]
    total = 0.0 + 0.0j
    for a in range(r):
        for s in range(r):
            phase = np.exp(-2.0j * math.pi * ((a * s) % r) / r)
            total += phase * hamming_weight_term(int(table.weights_as[a, s]), table.n)
    return complex(total)


def closed_form_eg_psi2(instance: ShorInstance, table: HammingTable) -> float:
    """Closed-form entanglement of the post-modexp stage: 1 - S**2 / Q."""
    total = weight_sum_ab(table)
    value = 1.0 - total * total / instance.Q
    if not 0.0 <= value <= 1.0:
        warnings.warn(
            f"closed-form entanglement {value!r} outside [0, 1]; non-physical weight table",
            stacklevel=2,
        )
    return value


@dataclass(frozen=True)
class Psi3ClosedForm:
    """Both readings of the squared complex weight sum S for the final stage.

    literal:          1 - Re(S**2) / r**2
    modulus_squared:  1 - |S|**2 / r**2   (canonical)
    """

    literal: float
    modulus_squared: float
    sum_value: complex

    @property
    def canonical(self) -> float:
        return self.modulus_squared


def closed_form_eg_psi3(instance: ShorInstance, table: HammingTable) -> Psi3ClosedForm:
    """Closed-form entanglement of the post-transform stage, both readings."""
    if instance.m is None:
        raise ValueError("closed form needs r | Q")
    r = table.weights_as.shape[0]
    total = weight_sum_as(table)
    literal = 1.0 - (total * total).real / r**2
    modulus_squared = 1.0 - abs(total) ** 2 / r**2
    if not 0.0 <= modulus_squared <= 1.0:
        warnings.warn(
            f"closed-form entanglement {modulus_squared!r} outside [0, 1]", stacklevel=2
        )
    return Psi3ClosedForm(literal=literal, modulus_squared=modulus_squared, sum_value=total)


def gamma_factor(table: HammingTable, kind: str) -> float:
    """Squared weight-term sum linking the two geometric quantities.

    For a state whose largest basis probability is 1/D (D = Q for the
    post-modexp stage, D = r**2 for the post-transform stage), the identity
    C_g + (1 - E_g) / gamma == 1 holds with gamma = S**2, and 0 < gamma < D.
    """
    if kind == "ab":
        total = weight_sum_ab(table)
        gamma = total * total
    elif kind == "as":
        gamma = abs(weight_sum_as(table)) ** 2
    else:
        raise ValueError(f"kind must be 'ab' or 'as', got {kind!r}")
    if gamma == 0.0:
        warnings.warn("degenerate weight table: gamma = 0", stacklevel=2)
    return float(gamma)


# ---------------------------------------------------------------------------
# Full product-family optimizers (cross-checks for the symmetric restriction)
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
    reaches 1 (1 - value**2 <= 0): every caller clamps 1 - value**2 at 0, so
    a further sweep could not change what they report.
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


def _marginal_seed(state: PureState) -> list[np.ndarray]:
    """Per-qubit amplitude-magnitude seed; exact for product states."""
    n = state.layout.n
    probs = np.abs(state.amplitudes.reshape((2,) * n)) ** 2
    seeds = []
    for i in range(n):
        axes = tuple(j for j in range(n) if j != i)
        p = probs.sum(axis=axes)
        seeds.append(np.sqrt(p / p.sum()).astype(np.complex128))
    return seeds


def _symmetric_seed(state: PureState) -> list[np.ndarray]:
    opt = geometric_entanglement_symmetric(state)
    eta = np.array(
        [math.cos(opt.alpha_angle / 2.0), math.sin(opt.alpha_angle / 2.0)],
        dtype=np.complex128,
    )
    return [eta.copy() for _ in range(state.layout.n)]


def _product_starts(state: PureState, restarts: int, seed: int) -> Iterator[list[np.ndarray]]:
    """Marginal seed, symmetric seed, uniform, then `restarts` seeded draws."""
    n = state.layout.n
    yield _marginal_seed(state)
    yield _symmetric_seed(state)
    yield [np.full(2, 1.0 / math.sqrt(2.0), dtype=np.complex128) for _ in range(n)]
    rng = np.random.default_rng(seed)
    for _ in range(restarts):
        yield _random_qubit_states(n, rng)


def geometric_entanglement_product(
    state: PureState, restarts: int = 8, seed: int = 1815
) -> float:
    """1 - max |<state|product>|**2 over the full product-state family.

    Seeded alternating optimization; converges to a local optimum in
    general, but the start set always contains the symmetric-ansatz optimum,
    so the result never exceeds the symmetric value, and the per-qubit
    marginal seed makes exactly separable states land on zero.

    Starts are built lazily and the loop stops once 1 - best**2 <= 0.  The
    clamped result is then already 0.0, and later starts could only raise
    best, so the returned float is the one all starts would give.  On a
    product state the marginal seed stops it after one ALS run, before the
    symmetric seed is built.
    """
    conj_tensor = state.amplitudes.conj().reshape((2,) * state.layout.n)
    best = 0.0
    for start in _product_starts(state, restarts, seed):
        best = max(best, _als_overlap(conj_tensor, start))
        if 1.0 - best * best <= 0.0:
            break
    return max(0.0, 1.0 - best * best)


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
