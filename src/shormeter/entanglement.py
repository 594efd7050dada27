"""Geometric entanglement of the pipeline states.

The production path restricts the product-state optimization to the
one-parameter symmetric family eta(alpha)^(tensor n) with
eta = cos(alpha/2)|0> + sin(alpha/2)|1>, which is what the closed forms are
derived from.  Hamming-weight tables over the joint basis labels feed those
closed forms: `closed_form_overlaps` turns a table into the squared overlaps
S_ab**2 / Q (post-modexp) and S_as**2 / r**2 (post-transform), and each
closed form is 1 - overlap.  A seeded alternating optimizer over the *full*
product-state family is the cross-check.  It stops at the first start whose
overlap reaches 1: the clamped value is 0.0 from then on, whatever the
remaining starts find, so on the product-state stage one start returns the
same float as all of them.

The post-transform overlap squares a complex sum; since plain squaring and
squared modulus differ once the sum leaves the real axis, both readings are
always computed side by side.  The squared-modulus reading is treated as
canonical (an overlap maximum is a squared modulus), and for every
power-of-two order checked the two agree anyway.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from shormeter.numtheory import ShorInstance
from shormeter.statevec import PureState

__all__ = [
    "ClosedFormOverlaps",
    "HammingTable",
    "SymmetricOptimum",
    "build_hamming_table",
    "closed_form_overlaps",
    "geometric_entanglement_product",
    "geometric_entanglement_symmetric",
    "hamming_weight_term",
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


class ClosedFormOverlaps(NamedTuple):
    """Closed-form squared overlaps; each stage's E_g closed form is 1 - overlap.

    psi2:          S_ab**2 / Q
    psi3_literal:  Re(S_as**2) / r**2
    psi3:          |S_as|**2 / r**2   (canonical: an overlap is a squared modulus)
    """

    psi2: float
    psi3_literal: float
    psi3: float


def closed_form_overlaps(table: HammingTable, Q: int) -> ClosedFormOverlaps:
    """Both weight sums of `table`, each computed once, as squared overlaps.

    Warns when an entanglement value 1 - overlap leaves [0, 1], which only a
    non-physical weight table can cause.
    """
    s_ab = weight_sum_ab(table)
    s_as = weight_sum_as(table)
    r = table.weights_as.shape[0]
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
                stacklevel=2,
            )
    return overlaps


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
