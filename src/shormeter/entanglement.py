"""Geometric entanglement of the pipeline states.

The production path restricts the product-state optimization to the
one-parameter symmetric family eta(alpha)^(tensor n) with
eta = cos(alpha/2)|0> + sin(alpha/2)|1>, which is what the closed forms are
derived from.  Its optimizer reads a state only through its n + 1 weight
sums (`statevec.weight_sums`); its seed grid, the grid's basis and
the weight vectors depend only on n and the grid size, so `_seed_basis`
builds them once per process, read-only.  Each closed form is 1 - overlap,
and `closed_form_overlaps` is their one entry point: it evaluates the
n + 1 per-weight maxima and the r phases once each, and sums them over the
popcounts of the joint labels into the squared overlaps S_ab**2 / Q
(post-modexp) and S_as**2 / r**2 (post-transform).  An alternating
optimizer over the *full* product-state family is the cross-check on the
uniform stage, a product state.  That stage occupies one register-B column,
so the optimizer runs on the Q register-A amplitudes of that column, from
the per-qubit marginal seed, and stops at the update where the overlap
reaches 1 (E_g = 0.0).  The dense all-starts optimizer for entangled
states is a test oracle.

The post-transform overlap squares a complex sum; since plain squaring and
squared modulus differ once the sum leaves the real axis, both readings are
always computed side by side.  The squared-modulus reading is treated as
canonical (an overlap maximum is a squared modulus), and for every
power-of-two order checked the two agree anyway.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from shormeter.numtheory import ShorInstance
from shormeter.statevec import PureState

__all__ = [
    "ClosedFormOverlaps",
    "SymmetricOptimum",
    "closed_form_overlaps",
    "geometric_entanglement_product",
    "geometric_entanglement_symmetric",
    "hamming_weight_term",
]

GRID_POINTS = 2048
REFINE_TOL = 1e-10
_ALS_MAX_SWEEPS = 200
_ALS_TOL = 1e-14  # a sweep that gains less than this ends the run
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


class _SeedBasis(NamedTuple):
    """Read-only arrays of the symmetric optimizer that depend only on n and
    the grid size: the grid, its (points, n + 1) basis
    cos(alpha/2)**(n-w) * sin(alpha/2)**w, the weights w and n - w."""

    grid: np.ndarray
    basis: np.ndarray
    weights: np.ndarray
    complements: np.ndarray


@functools.lru_cache(maxsize=None)
def _seed_basis(n: int, points: int) -> _SeedBasis:
    """The `_SeedBasis` of n qubits on `points` grid angles, built once per
    process: one entry per (n, points), 8 * points * (n + 1) bytes of basis
    each."""
    grid = np.linspace(0.0, math.pi, points)
    c = np.cos(grid / 2.0)
    s = np.sin(grid / 2.0)
    w = np.arange(n + 1)
    basis = (c[:, None] ** (n - w[None, :])) * (s[:, None] ** w[None, :])
    seed = _SeedBasis(grid, basis, w, n - w)
    for arr in seed:
        arr.setflags(write=False)
    return seed


def _overlap_from_coefficients(coeff: np.ndarray, alpha_angle: float) -> complex:
    seed = _seed_basis(len(coeff) - 1, GRID_POINTS)
    c = math.cos(alpha_angle / 2.0)
    s = math.sin(alpha_angle / 2.0)
    return complex((coeff * (c**seed.complements) * (s**seed.weights)).sum())


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


def geometric_entanglement_symmetric(coeff: np.ndarray) -> SymmetricOptimum:
    """1 - max_alpha |<state|eta(alpha)^n>|**2 over the symmetric family.

    The state enters only through its n + 1 weight sums `coeff`
    (`statevec.weight_sums`).  A dense grid over [0, pi] seeds a
    golden-section refinement, which is enough because the overlap is a
    low-oscillation trigonometric polynomial in alpha.
    """
    grid, basis, _, _ = _seed_basis(len(coeff) - 1, GRID_POINTS)
    values = np.abs(basis @ coeff) ** 2
    best = int(np.argmax(values))
    lo = grid[max(best - 1, 0)]
    hi = grid[min(best + 1, GRID_POINTS - 1)]

    def objective(angle: float) -> float:
        return abs(_overlap_from_coefficients(coeff, angle)) ** 2

    alpha_star, val_star = _golden_max(objective, lo, hi, REFINE_TOL)
    if values[best] > val_star:
        alpha_star, val_star = float(grid[best]), float(values[best])
    return SymmetricOptimum(
        entanglement=1.0 - val_star, alpha_angle=alpha_star, overlap_sq=val_star
    )


class ClosedFormOverlaps(NamedTuple):
    """Closed-form squared overlaps; each stage's E_g closed form is 1 - overlap.

    psi2:          S_ab**2 / Q
    psi3_literal:  Re(S_as**2) / r**2
    psi3:          |S_as|**2 / r**2   (canonical: an overlap is a squared modulus)
    """

    psi2: float
    psi3_literal: float
    psi3: float


def closed_form_overlaps(instance: ShorInstance) -> Optional[ClosedFormOverlaps]:
    """Squared overlaps of the E_g closed forms, or None when r does not divide Q.

    Labels (a + b*r, x**a mod N) with b < Q/r enter S_ab, and labels
    (s*Q/r, x**a mod N) with s < r enter S_as with phase exp(-2 pi i a s / r);
    both families tile register A only when r | Q.
    """
    r, m = instance.r, instance.m
    if m is None:
        return None
    dim_b = instance.dim_b
    residues = np.array([pow(instance.x, a, instance.N) for a in range(r)], dtype=np.int64)[:, None]
    rows = np.arange(r, dtype=np.int64)[:, None]
    weights_ab = np.bitwise_count((rows + np.arange(m, dtype=np.int64) * r) * dim_b + residues)
    weights_as = np.bitwise_count(np.arange(r, dtype=np.int64) * m * dim_b + residues)
    return _overlaps_from_weights(weights_ab, weights_as, instance.n, instance.Q)


def _overlaps_from_weights(
    weights_ab: np.ndarray, weights_as: np.ndarray, n: int, Q: int
) -> ClosedFormOverlaps:
    """Both weight sums over the popcount grids (a-major), as squared overlaps.

    The sums accumulate left to right (np.cumsum), so their floats do not
    depend on the interpreter's sum().  Warns when an entanglement value
    1 - overlap leaves [0, 1], which only non-physical weights can cause.
    """
    r = weights_as.shape[0]
    terms = np.array([hamming_weight_term(w, n) for w in range(n + 1)])
    phases = np.array([np.exp(-2.0j * math.pi * k / r) for k in range(r)])
    exponents = np.arange(r)[:, None] * np.arange(r) % r
    s_ab = float(np.cumsum(terms[weights_ab])[-1])
    s_as = complex(np.cumsum(phases[exponents] * terms[weights_as])[-1])
    overlaps = ClosedFormOverlaps(
        psi2=s_ab * s_ab / Q,
        psi3_literal=(s_as * s_as).real / r**2,
        psi3=abs(s_as) ** 2 / r**2,
    )
    for stage, overlap in (("psi2", overlaps.psi2), ("psi3", overlaps.psi3)):
        if not 0.0 <= 1.0 - overlap <= 1.0:
            warnings.warn(
                f"closed-form {stage} entanglement {1.0 - overlap!r} outside [0, 1]; "
                "non-physical weight table",
                stacklevel=3,
            )
    return overlaps


# ---------------------------------------------------------------------------
# Full product-family optimizer on one register-B column (cross-check on psi1)
# ---------------------------------------------------------------------------


def _register_a_environment(
    right: np.ndarray, qubit_states: Sequence[np.ndarray], i: int
) -> np.ndarray:
    """Environment of register-A qubit i, before the register-B scalars.

    `right` is conj(phi_A) contracted with the qubits after i, so it holds
    qubits 0..i with i last; qubit i moves to the front and qubits
    i-1, ..., 0 are contracted, the order of a dense contraction.
    """
    v = right.reshape(-1, 2).T.reshape(-1)
    for j in range(i - 1, -1, -1):
        v = v.reshape(-1, 2) @ qubit_states[j]
    return v


def _marginal_seed(phi_a: np.ndarray, t: int) -> list[np.ndarray]:
    """Per-qubit amplitude-magnitude seed of register A; exact for product states."""
    probs = np.abs(phi_a) ** 2
    seeds = []
    for i in range(t):
        p = probs.reshape(2**i, 2, -1).sum(axis=(0, 2))
        seeds.append(np.sqrt(p / p.sum()).astype(np.complex128))
    return seeds


def _register_a_overlap(phi_a: np.ndarray, y_bits: Sequence[int]) -> float:
    """Alternating per-qubit maximization of |<phi_A (x) |y>|prod>| from the marginal seed.

    Qubits are swept in the dense order: register A, then register B (bits
    y_bits of y).  A register-B qubit enters every contraction as the scalar
    q_j[y_j], taken in the order j = n-1, ..., t, and its environment is the
    register-A contraction placed at basis vector y_j.  Each update is the
    exact conditional optimum, so the overlap never decreases; the run
    returns once it reaches 1, where the clamped entanglement is 0.0.
    """
    t = len(phi_a).bit_length() - 1
    n = t + len(y_bits)
    conj_a = phi_a.conj()
    basis = np.eye(2, dtype=np.complex128)
    states = _marginal_seed(phi_a, t) + [basis[bit] for bit in y_bits]

    def contracted(stop: int) -> list[np.ndarray]:
        # conj(phi_A), then contracted with qubits t-1, ..., stop in turn
        chain = [conj_a]
        for j in range(t - 1, stop - 1, -1):
            chain.append(chain[-1].reshape(-1, 2) @ states[j])
        return chain

    value = 0.0
    for _ in range(_ALS_MAX_SWEEPS):
        previous = value
        right = contracted(1)  # this sweep's register-A qubits, none updated yet
        for i in range(n):
            if i < t:
                env = _register_a_environment(right[t - 1 - i], states, i)
            else:
                if i == t:
                    full = contracted(0)[-1]
                env = basis[y_bits[i - t]] * full
            for j in range(n - 1, t - 1, -1):
                if j != i:
                    env = env * states[j][y_bits[j - t]]
            norm = float(np.linalg.norm(env))
            if norm < 1e-300:
                states[i] = basis[0]
                continue
            states[i] = env.conj() / norm
            value = norm
            if 1.0 - value * value <= 0.0:
                return value
        if value - previous <= _ALS_TOL:
            break
    return value


def geometric_entanglement_product(state: PureState) -> float:
    """1 - max |<state|product>|**2 over the full product-state family.

    The state must occupy one register-B column y, so it is phi_A (x) |y>
    and the maximal product overlap factorizes: one alternating-optimization
    run from the per-qubit marginal seed works on the Q amplitudes of phi_A,
    and register B enters through its basis state.  The marginal seed makes
    product states such as the uniform stage land on 0.0.  It converges to a
    local optimum in general; the all-starts dense optimizer is a test
    oracle.  Raises ValueError when more than one column is occupied.
    """
    L = state.layout.L
    if len(state.labels) != 1:
        raise ValueError(
            "product-family optimizer needs one occupied register-B column, "
            f"got {len(state.labels)}"
        )
    y = int(state.labels[0])
    y_bits = [(y >> (L - 1 - k)) & 1 for k in range(L)]
    best = _register_a_overlap(state.block[:, 0], y_bits)
    return max(0.0, 1.0 - best * best)
