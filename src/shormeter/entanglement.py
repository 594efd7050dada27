"""Geometric entanglement of the pipeline states.

The production path restricts the product-state optimization to the
one-parameter symmetric family eta(alpha)^(tensor n) with
eta = cos(alpha/2)|0> + sin(alpha/2)|1>, which is what the closed forms are
derived from.  Its optimizer reads a state only through its n + 1 weight
sums (`statevec.weight_sums`), and finds the global maximum of the squared
overlap without a search: the stationary points are the real roots of one
polynomial of degree at most 2n in u = tan(alpha/2), and every candidate,
the two endpoints included, is scored on the overlap itself.  Its tests
certify the optimum: evaluated exactly, its angle is at least as good as
the best of a dense grid, within 1e-15.  The module builds nothing per
process.  Each closed form is 1 - overlap,
and `closed_form_overlaps` is their one entry point: it evaluates the
n + 1 per-weight maxima and the r phases once each, and sums them over the
popcounts of the joint labels into the squared overlaps S_ab**2 / Q
(post-modexp) and S_as**2 / r**2 (post-transform).  The uniform stage is
a product state, so its E_g is 0 by construction; the dense all-starts
optimizer over the full product-state family is a test oracle.

The post-transform overlap squares a complex sum S_as, and the two
readings of that square differ once S_as leaves the real axis.  The
squared modulus |S_as|**2 / r**2 is canonical: an overlap maximum is a
squared modulus.  The literal Re(S_as**2) / r**2, the paper's formula as
printed, is reported beside it, ungated.  It is never larger, since
Re(S**2) <= |S|**2, so it is not an overlap; at N=51 x=2 (r = 8) the two
overlaps are 0.011673 and 0.011537.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from shormeter.numtheory import ShorInstance

__all__ = [
    "ClosedFormOverlaps",
    "SymmetricOptimum",
    "closed_form_overlaps",
    "geometric_entanglement_symmetric",
    "hamming_weight_term",
]

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
class SymmetricOptimum:
    """Best symmetric-ansatz overlap: E_g value, maximizer, squared overlap."""

    entanglement: float
    alpha_angle: float
    overlap_sq: float


def geometric_entanglement_symmetric(coeff: np.ndarray) -> SymmetricOptimum:
    """1 - max_alpha |<state|eta(alpha)^n>|**2 over the symmetric family.

    The state enters only through its n + 1 weight sums `coeff`
    (`statevec.weight_sums`).  With u = tan(alpha/2) and
    P(u) = sum_w coeff[w] u**w, the squared overlap is |P(u)|**2 / (1 + u**2)**n,
    so its stationary points in (0, pi) are the positive real roots of

        g(u) = (|P|**2)'(u) (1 + u**2) - 2 n u |P(u)|**2,

    a real polynomial of degree at most 2n, and the maximum is attained at
    alpha = 0, at alpha = pi or at one of those roots.  Every root with a
    positive real part is a candidate: each is scored on the overlap itself,
    so a spurious one cannot win.  The winning root takes one Newton step.
    Top coefficients of g below 2**-52 times its largest, the size of its
    rounding, are dropped before `np.roots` takes the eigenvalues of its
    companion matrix: kept as the leading coefficient, such a one would
    scale that matrix by its inverse and lose every root that matters.
    """
    n = len(coeff) - 1
    # |P(u)|**2 = sum_j a[j + 1] u**j, zero-padded on both ends
    a = np.zeros(2 * n + 3)
    a[1:-1] = np.convolve(coeff, coeff.conj()).real
    k = np.arange(2 * n + 1)
    g = (k + 1) * a[k + 2] + (k - 1 - 2 * n) * a[k]
    top = np.flatnonzero(np.abs(g) >= np.finfo(np.float64).eps * np.abs(g).max())[-1]
    roots = np.roots(g[top::-1])
    u = roots.real[roots.real > 0.0]
    angles = np.concatenate(([0.0, math.pi], 2.0 * np.arctan(u)))
    best = int(np.argmax(np.abs(_overlaps(coeff, angles)) ** 2))
    alpha = float(angles[best])
    if best >= 2:
        alpha = 2.0 * math.atan(_newton_step(g, float(u[best - 2])))
    overlap_sq = abs(complex(_overlaps(coeff, np.array([alpha]))[0])) ** 2
    return SymmetricOptimum(entanglement=1.0 - overlap_sq, alpha_angle=alpha, overlap_sq=overlap_sq)


def _overlaps(coeff: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """<state|eta(alpha)^n> at each angle: sum_w coeff[w] cos(alpha/2)**(n-w) sin(alpha/2)**w."""
    n = len(coeff) - 1
    w = np.arange(n + 1)
    c = np.cos(angles / 2.0)[:, None]
    s = np.sin(angles / 2.0)[:, None]
    return (coeff * c ** (n - w) * s**w).sum(axis=1)


def _newton_step(g: np.ndarray, u: float) -> float:
    """u after one Newton step on the polynomial with coefficients g, lowest
    degree first, evaluated with its derivative by Horner's rule.  Beyond
    u = 1 the step is taken on 1/u, a root of g's reversed coefficients, so
    that no power of u exceeds 1."""
    if u > 1.0:
        return 1.0 / _newton_step(g[::-1], 1.0 / u)
    value = slope = 0.0
    for coefficient in g[::-1].tolist():
        slope = slope * u + value
        value = value * u + coefficient
    return u - value / slope


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
