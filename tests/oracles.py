"""Reference implementations the coherence tests compare against.

Two kinds live here.  The dense expressions evaluate a pure-state measure
over every amplitude of the state, zeros included; `shormeter.measures`
must reproduce them bit for bit from the nonzero support.  The
density-matrix measures (eigendecomposition based) are independent routes,
capped at dim <= 256.  The relative-entropy and skew-information
coherences are included because the Tsallis family reduces to them at
alpha -> 1 and alpha = 1/2.
"""

from __future__ import annotations

import math

import numpy as np

from shormeter.measures import ALPHA_ONE_TOL, validate_alpha

_DENSITY_DIM_CAP = 256
_EIG_CLAMP = 1e-12  # eigenvalues below this are zeroed before fractional powers
_HERMITIAN_TOL = 1e-10


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
