"""Coherence quantifiers of pure states in the fixed computational basis.

Three measures: the Tsallis relative alpha-entropy of coherence, the
column-wise l_{1,p} norm of coherence, and geometric coherence.  Zero
amplitudes add nothing to any measure, so each reads the nonzero
amplitudes that a `statevec.PureState` holds, column by column, and forms
only the |c|**2 or |c| that it uses; a report takes the Tsallis grid and
geometric coherence from one |c|**2 array.  A grid function evaluates a
whole parameter grid from them.  Each grid point, alpha = 1 included,
raises only those values and adds them with `PureState.flat_sum`, the one
definition of a sum over a state: per register-B column, then the column
sums by `math.fsum`.  The density-matrix oracles, the column-by-column
reference sums, the single-point wrappers and the single-state geometric
coherence live with the tests.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from shormeter.statevec import PureState

__all__ = [
    "ALPHA_ONE_TOL",
    "l1p_coherence_grid",
    "tsallis_and_geometric_coherence",
    "tsallis_coherence_grid",
    "validate_alpha",
]

ALPHA_ONE_TOL = 1e-6  # this close to 1, the removable singularity is bypassed


def validate_alpha(alpha: float) -> None:
    """Entropic order must lie in (0, 1) or (1, 2]; alpha ~ 1 uses the limit."""
    if not 0.0 < alpha <= 2.0:
        raise ValueError(f"alpha must lie in (0,1) or (1,2], got {alpha}")


def tsallis_coherence_grid(state: PureState, alphas: Iterable[float]) -> list[float]:
    """Tsallis relative alpha-entropy of coherence of a pure state, per alpha.

    For pure rho the matrix power collapses (rho**alpha == rho), leaving
    (sum_i |c_i|**(2/alpha) - 1) / (alpha - 1); the alpha -> 1 limit is the
    diagonal Shannon entropy in nats.
    """
    return _tsallis_values(state, _squared_moduli(state), alphas)


def tsallis_and_geometric_coherence(
    state: PureState, alphas: Iterable[float]
) -> tuple[list[float], float]:
    """The `tsallis_coherence_grid` values and the geometric coherence
    1 - max_i |c_i|**2 of a pure state, both read from one |c|**2 array."""
    probs = _squared_moduli(state)
    return _tsallis_values(state, probs, alphas), float(max(0.0, 1.0 - probs.max(initial=0.0)))


def _squared_moduli(state: PureState) -> np.ndarray:
    """|c|**2 = re**2 + im**2 of each entry, in a fresh array."""
    probs = np.square(state.amplitudes.real)
    probs += np.square(state.amplitudes.imag)
    return probs


def _tsallis_values(state: PureState, probs: np.ndarray, alphas: Iterable[float]) -> list[float]:
    """The Tsallis grid read from the entries' |c|**2, `probs`, which it
    leaves as they are."""
    alphas = [float(alpha) for alpha in alphas]
    for alpha in alphas:
        validate_alpha(alpha)
    powered = np.empty_like(probs)
    values = []
    for alpha in alphas:
        if abs(alpha - 1.0) <= ALPHA_ONE_TOL:
            # p log p is taken as +0.0 where |c|**2 underflowed to 0: no log of 0
            powered.fill(0.0)
            np.log(probs, out=powered, where=probs != 0)
            values.append(-state.flat_sum(np.multiply(powered, probs, out=powered)))
            continue
        np.power(probs, 1.0 / alpha, out=powered)
        values.append((state.flat_sum(powered) - 1.0) / (alpha - 1.0))
    return values


def l1p_coherence_grid(state: PureState, ps: Iterable[float]) -> list[float]:
    """l_{1,p} coherence of a pure state, per p.

    Column j of the off-diagonal part of |psi><psi| has p-norm
    |c_j| * (sum_{i != j} |c_i|**p)**(1/p); the measure sums those.
    """
    ps = [float(p) for p in ps]
    for p in ps:
        if not 1.0 <= p <= 2.0:
            raise ValueError(f"p must lie in [1, 2], got {p}")
    modulus = np.abs(state.amplitudes)
    rest = np.empty_like(modulus)
    values = []
    for p in ps:
        np.power(modulus, p, out=rest)
        np.subtract(state.flat_sum(rest), rest, out=rest)
        np.clip(rest, 0.0, None, out=rest)
        rest **= 1.0 / p
        rest *= modulus
        values.append(state.flat_sum(rest))
    return values
