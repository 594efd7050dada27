"""Coherence quantifiers of pure states in the fixed computational basis.

Three measures: the Tsallis relative alpha-entropy of coherence, the
column-wise l_{1,p} norm of coherence, and geometric coherence.  Each takes
a `PureState` and reads its block.  Zero amplitudes add nothing to any
measure, so each call first reduces the block to its nonzero support in
the dense joint order: |c|**2 and, for l_{1,p}, |c|.  A grid function
evaluates a whole parameter grid from that reduction.  Each grid point
raises only the support values and sums them with `statevec._flat_sum`,
which gives the float of numpy's sum over all 2**(t+L) values, so every
value is the same float as the dense expression over all amplitudes
(0.0**e is +0.0 for e > 0).  The density-matrix oracles, the dense
expressions and the single-point wrappers live with the tests.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from shormeter.statevec import PureState, _flat_sum, _flat_support

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


def _support(state: PureState, modulus: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """(values, lanes) of the nonzero |c|**2, or |c| when `modulus` is set.

    The two differ where |c|**2 underflows to 0 (|c| < 1.5e-154): the dense
    l_{1,p} sums count such an amplitude, so it stays in the |c| support.
    The values are formed in the block's column-major layout.
    """
    block = state.block
    values = np.abs(block) if modulus else block.real**2 + block.imag**2
    return _flat_support(values, state.labels, state.layout.dim_b)


def tsallis_coherence_grid(state: PureState, alphas: Iterable[float]) -> list[float]:
    """Tsallis relative alpha-entropy of coherence of a pure state, per alpha.

    For pure rho the matrix power collapses (rho**alpha == rho), leaving
    (sum_i |c_i|**(2/alpha) - 1) / (alpha - 1); the alpha -> 1 limit is the
    diagonal Shannon entropy in nats.
    """
    alphas = [float(alpha) for alpha in alphas]
    for alpha in alphas:
        validate_alpha(alpha)
    probs, lanes = _support(state)
    dim = state.layout.dim
    powered = np.empty_like(probs)
    values = []
    for alpha in alphas:
        if abs(alpha - 1.0) <= ALPHA_ONE_TOL:
            np.log(probs, out=powered)
            powered *= probs
            values.append(float(-np.sum(powered)))
            continue
        np.power(probs, 1.0 / alpha, out=powered)
        values.append((_flat_sum(powered, lanes, dim) - 1.0) / (alpha - 1.0))
    return values


def l1p_coherence_grid(state: PureState, ps: Iterable[float]) -> list[float]:
    """l_{1,p} coherence of a pure state, per p.

    Column j of the off-diagonal part of |psi><psi| has p-norm
    |c_j| * (sum_{i != j} |c_i|**p)**(1/p); the measure sums those.
    """
    ps = [float(p) for p in ps]
    for p in ps:
        _check_p(p)
    modulus, lanes = _support(state, modulus=True)
    dim = state.layout.dim
    rest = np.empty_like(modulus)
    values = []
    for p in ps:
        np.power(modulus, p, out=rest)
        np.subtract(_flat_sum(rest, lanes, dim), rest, out=rest)
        np.clip(rest, 0.0, None, out=rest)
        rest **= 1.0 / p
        rest *= modulus
        values.append(_flat_sum(rest, lanes, dim))
    return values


def geometric_coherence_pure(state: PureState) -> float:
    """Geometric coherence of a pure state: 1 - max_i |c_i|**2."""
    block = state.block
    return float(max(0.0, 1.0 - (block.real**2 + block.imag**2).max(initial=0.0)))
