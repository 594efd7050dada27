"""Coherence quantifiers of pure states in the fixed computational basis.

Three measures: the Tsallis relative alpha-entropy of coherence, the
column-wise l_{1,p} norm of coherence, and geometric coherence.  A state
arrives as the triple (positions, amplitudes, dimension) of its stored
entries (`PureState.entries`): two arrays of one shape whose row-major
order has increasing positions; amplitudes outside the positions are zero.
Zero amplitudes add nothing to any measure, so each call first reduces the
entries to their nonzero support (positions, |c|**2 and, for l_{1,p}, |c|
there).  A grid function evaluates a whole parameter grid from that
reduction.  Each grid point raises only the support values, scatters them
into a zeroed float64 buffer of the full dimension and sums that buffer,
so every value is the same float as the dense expression over
all amplitudes (0.0**e is +0.0 for e > 0, and the pairwise sum sees the
same values at the same positions).  The density-matrix oracles, the dense
expressions and the single-point wrappers live with the tests.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

Entries = tuple[np.ndarray, np.ndarray, int]  # (positions, amplitudes, dimension)

__all__ = [
    "ALPHA_ONE_TOL",
    "geometric_coherence_pure",
    "l1p_coherence_grid",
    "tsallis_coherence_grid",
    "validate_alpha",
]

ALPHA_ONE_TOL = 1e-6  # this close to 1, the removable singularity is bypassed


def validate_alpha(alpha: float) -> None:
    """Entropic order must lie in (0, 1) or (1, 2]; alpha ~ 1 uses the limit."""
    if not 0.0 < alpha <= 2.0:
        raise ValueError(f"alpha must lie in (0,1) or (1,2], got {alpha}")


def _check_p(p: float) -> None:
    if not 1.0 <= p <= 2.0:
        raise ValueError(f"p must lie in [1, 2], got {p}")


def _support(entries: Entries, modulus: bool = False) -> tuple[np.ndarray, np.ndarray, int]:
    """(positions, values, dimension) where the values are nonzero.

    The values are |c|**2, or |c| when `modulus` is set.  The two supports
    differ where |c|**2 underflows to 0 (|c| < 1.5e-154): such an amplitude
    adds nothing to the dense |c|**2 expressions but does add to the dense
    l_{1,p} sums, so it stays in the |c| support.  Positions stay intp:
    numpy converts any other index dtype to intp on every fancy-index
    operation.  The values are formed element by element in the layout of
    the amplitudes, then read in row-major order, which is the order of the
    positions.
    """
    positions, amps, dim = entries
    values = np.abs(amps) if modulus else amps.real**2 + amps.imag**2
    values = values.ravel()
    keep = np.flatnonzero(values)
    return positions.ravel()[keep], values[keep], dim


def tsallis_coherence_grid(entries: Entries, alphas: Iterable[float]) -> list[float]:
    """Tsallis relative alpha-entropy of coherence of a pure state, per alpha.

    For pure rho the matrix power collapses (rho**alpha == rho), leaving
    (sum_i |c_i|**(2/alpha) - 1) / (alpha - 1); the alpha -> 1 limit is the
    diagonal Shannon entropy in nats.
    """
    alphas = [float(alpha) for alpha in alphas]
    for alpha in alphas:
        validate_alpha(alpha)
    index, probs, dim = _support(entries)
    dense = np.zeros(dim)
    powered = np.empty_like(probs)
    values = []
    for alpha in alphas:
        if abs(alpha - 1.0) <= ALPHA_ONE_TOL:
            np.log(probs, out=powered)
            powered *= probs
            values.append(float(-np.sum(powered)))
            continue
        np.power(probs, 1.0 / alpha, out=powered)
        dense[index] = powered
        values.append((float(np.sum(dense)) - 1.0) / (alpha - 1.0))
    return values


def l1p_coherence_grid(entries: Entries, ps: Iterable[float]) -> list[float]:
    """l_{1,p} coherence of a pure state, per p.

    Column j of the off-diagonal part of |psi><psi| has p-norm
    |c_j| * (sum_{i != j} |c_i|**p)**(1/p); the measure sums those.
    """
    ps = [float(p) for p in ps]
    for p in ps:
        _check_p(p)
    index, modulus, dim = _support(entries, modulus=True)
    dense = np.zeros(dim)
    rest = np.empty_like(modulus)
    values = []
    for p in ps:
        np.power(modulus, p, out=rest)
        dense[index] = rest
        np.subtract(np.sum(dense), rest, out=rest)
        np.clip(rest, 0.0, None, out=rest)
        rest **= 1.0 / p
        rest *= modulus
        dense[index] = rest
        values.append(float(np.sum(dense)))
    return values


def geometric_coherence_pure(entries: Entries) -> float:
    """Geometric coherence of a pure state: 1 - max_i |c_i|**2."""
    _, probs, _ = _support(entries)
    return float(max(0.0, 1.0 - probs.max(initial=0.0)))
