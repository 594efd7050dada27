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
(post-modexp) and S_as**2 / r**2 (post-transform).  The uniform stage is
a product state, so its E_g is 0 by construction; the dense all-starts
optimizer over the full product-state family is a test oracle.

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
from typing import Callable, NamedTuple, Optional

import numpy as np

from shormeter.numtheory import ShorInstance

__all__ = [
    "ClosedFormOverlaps",
    "SymmetricOptimum",
    "closed_form_overlaps",
    "geometric_entanglement_symmetric",
    "hamming_weight_term",
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
