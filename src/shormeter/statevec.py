"""Dense pure-state simulation of the order-finding circuit.

Joint basis convention: index = j * 2**L + y, register A (t qubits, value j)
major, register B (L qubits, value y) minor.  The Hamming weight of a joint
index is the popcount of the full (t+L)-bit string, which is what the
entanglement closed forms consume.

States are stored densely over all 2**(t+L) amplitudes.  Every gate reads
only the occupied register-B columns of the (Q, 2**L) grid, those holding
any exactly nonzero amplitude, and leaves the rest of its output zero: the
register-A gates (Hadamard layer, inverse Fourier transform) transform each
occupied column, and modular exponentiation relabels each occupied column
below N.  In the circuit these are 1 column before modexp and the r residues
x**a mod N after it; a generic state occupies every column and gets the
full gate.

States are immutable after construction; every operation returns a fresh
state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from shormeter.numtheory import ShorInstance

__all__ = [
    "NORM_TOL",
    "ZERO_TOL",
    "OutcomeDistribution",
    "PureState",
    "RegisterLayout",
    "apply_hadamard_layer",
    "apply_inverse_qft_A",
    "apply_modexp_unitary",
    "outcome_distribution",
    "init_state",
    "measurement_distribution_A",
    "run_order_finding_circuit",
    "sample_outcome",
]

ZERO_TOL = 1e-12  # amplitudes below this modulus count as exact zeros
NORM_TOL = 1e-10


@dataclass(frozen=True)
class RegisterLayout:
    """Qubit split: t control qubits (register A), L work qubits (register B)."""

    t: int
    L: int

    def __post_init__(self) -> None:
        if self.t < 1 or self.L < 1:
            raise ValueError(f"need t >= 1 and L >= 1, got t={self.t}, L={self.L}")

    @property
    def n(self) -> int:
        return self.t + self.L

    @property
    def Q(self) -> int:
        return 2**self.t

    @property
    def dim_b(self) -> int:
        return 2**self.L

    @property
    def dim(self) -> int:
        return 2**self.n

    @staticmethod
    def for_instance(instance: ShorInstance) -> "RegisterLayout":
        return RegisterLayout(t=instance.t, L=instance.L)


@dataclass(frozen=True)
class PureState:
    """Normalized complex amplitude vector over the joint basis.

    The amplitudes are copied into a read-only array, except an array that
    owns its data and is already read-only, which is kept as is: the gates
    hand over their fresh outputs this way instead of paying for a copy.
    """

    layout: RegisterLayout
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.amplitudes, dtype=np.complex128)
        if arr.shape != (self.layout.dim,):
            raise ValueError(f"expected {self.layout.dim} amplitudes, got shape {arr.shape}")
        norm = float(np.vdot(arr, arr).real)
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"state norm**2 = {norm!r} is not 1 within {NORM_TOL}")
        if arr.flags.writeable or not arr.flags.owndata:
            arr = arr.copy()
            arr.setflags(write=False)
        object.__setattr__(self, "amplitudes", arr)

    def as_grid(self) -> np.ndarray:
        """(Q, 2**L) view: rows are register-A values, columns register-B."""
        return self.amplitudes.reshape(self.layout.Q, self.layout.dim_b)

    def support(self) -> np.ndarray:
        """Joint indices carrying amplitude above the zero threshold."""
        return np.nonzero(np.abs(self.amplitudes) > ZERO_TOL)[0]



def init_state(layout: RegisterLayout) -> PureState:
    """|0...0> on register A, |1> on register B."""
    vec = np.zeros(layout.dim, dtype=np.complex128)
    vec[1] = 1.0
    vec.setflags(write=False)
    return PureState(layout, vec)


def _register_a_gate(
    state: PureState, transform: Callable[[np.ndarray], np.ndarray]
) -> PureState:
    """Apply a register-A transform to the occupied register-B columns.

    ``transform`` maps a fresh (Q, k) array of columns, which it may
    overwrite, to their images.  Columns with no exactly nonzero amplitude
    map to zero under any register-A gate, so they are skipped (and come out
    +0.0 even where the input held -0.0).
    """
    lay = state.layout
    grid = state.as_grid()
    cols = np.flatnonzero(grid.any(axis=0))
    out = np.zeros(lay.dim, dtype=np.complex128)
    out.reshape(lay.Q, lay.dim_b)[:, cols] = transform(grid[:, cols])
    out.setflags(write=False)
    return PureState(lay, out)


def apply_hadamard_layer(state: PureState) -> PureState:
    """Hadamard on every register-A qubit (register B untouched)."""
    t = state.layout.t
    inv_sqrt2 = 1.0 / math.sqrt(2.0)

    def butterflies(cols: np.ndarray) -> np.ndarray:
        arr = cols.reshape((2,) * t + (cols.shape[1],))
        for axis in range(t):
            view = np.moveaxis(arr, axis, 0)
            top = view[0].copy()
            view[0] += view[1]
            view[0] *= inv_sqrt2
            np.subtract(top, view[1], out=view[1])
            view[1] *= inv_sqrt2
        return cols

    return _register_a_gate(state, butterflies)


def apply_modexp_unitary(state: PureState, instance: ShorInstance) -> PureState:
    """|j>|y> -> |j>|x**j * y mod N> on register-B values below N.

    Multiplication by an invertible x permutes the residues mod N, so the map
    is unitary; basis values y >= N must carry no amplitude.  Only the
    occupied columns y < N, those holding any exactly nonzero amplitude, are
    mapped (one column on the uniform stage); the rest of the output stays
    zero, as in ``_register_a_gate``.
    """
    lay = state.layout
    if (lay.t, lay.L) != (instance.t, instance.L):
        raise ValueError("state layout does not match the instance registers")
    n_mod, x = instance.N, instance.x
    grid = state.as_grid()
    if n_mod < lay.dim_b and np.any(np.abs(grid[:, n_mod:]) > ZERO_TOL):
        raise ValueError(f"amplitude on register-B value >= N={n_mod}")
    cols = np.flatnonzero(grid[:, :n_mod].any(axis=0))
    powers = np.empty(lay.Q, dtype=np.int64)
    acc = 1
    for j in range(lay.Q):
        powers[j] = acc
        acc = (acc * x) % n_mod
    targets = (powers[:, None] * cols[None, :]) % n_mod
    out = np.zeros(lay.dim, dtype=np.complex128)
    out.reshape(lay.Q, lay.dim_b)[np.arange(lay.Q)[:, None], targets] = grid[:, cols]
    out.setflags(write=False)
    return PureState(lay, out)


def _inverse_qft_columns(cols: np.ndarray) -> np.ndarray:
    out = np.fft.fft(cols, axis=0)
    out /= math.sqrt(cols.shape[0])
    return out


def apply_inverse_qft_A(state: PureState) -> PureState:
    """Inverse Fourier transform on register A: kernel exp(-2 pi i j k / Q) / sqrt(Q)."""
    return _register_a_gate(state, _inverse_qft_columns)


def run_order_finding_circuit(instance: ShorInstance) -> tuple[PureState, PureState, PureState]:
    """Evolve init -> Hadamard layer -> modular exponentiation -> inverse QFT."""
    psi1 = apply_hadamard_layer(init_state(RegisterLayout.for_instance(instance)))
    psi2 = apply_modexp_unitary(psi1, instance)
    psi3 = apply_inverse_qft_A(psi2)
    return psi1, psi2, psi3


@dataclass(frozen=True)
class OutcomeDistribution:
    """Probabilities of the register-A measurement outcomes."""

    probabilities: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.probabilities, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError("probabilities must be a one-dimensional vector")
        if np.any(arr < -1e-12):
            raise ValueError(f"negative probability {arr.min()!r}")
        total = float(arr.sum())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"probabilities sum to {total!r}, not 1")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "probabilities", arr)

    @property
    def Q(self) -> int:
        return len(self.probabilities)


def measurement_distribution_A(state: PureState) -> OutcomeDistribution:
    """p_k = sum_y |amplitude(k, y)|**2."""
    probs = np.sum(np.abs(state.as_grid()) ** 2, axis=1)
    return OutcomeDistribution(probs)


def outcome_distribution(r: int, q: int) -> OutcomeDistribution:
    """Outcome distribution of the circuit for order r and dimension Q, in O(Q).

    Write Q = n0*r + rho.  After modexp, register-B value x**a holds the
    rows j = a, a + r, ... below Q: n0 + 1 of them for the rho residues
    a < rho and n0 for the others.  The inverse transform maps such a column
    to a geometric series in exp(-2 pi i r k / Q), so

        p_k = [rho * F(n0 + 1, k) + (r - rho) * F(n0, k)] / Q**2,
        F(n, k) = sin(pi (n r k mod Q) / Q)**2 / sin(pi (r k mod Q) / Q)**2,

    with F(n, k) = n**2 where r k = 0 (mod Q).  This is exact for every r,
    including r not dividing Q and r > Q (n0 = 0, a uniform distribution).
    The phases are reduced mod Q in int64, so Q is capped at 2**31.
    """
    if r < 1:
        raise ValueError(f"order must be >= 1, got {r}")
    if not 1 <= q <= 2**31:
        raise ValueError(f"dimension must lie in [1, 2**31], got {q}")
    n0, rho = divmod(q, r)
    k = np.arange(q, dtype=np.int64)
    step = (r % q) * k % q
    peak = step == 0
    total = np.zeros(q, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):  # only at the peaks, replaced below
        inv_den = 1.0 / np.sin(np.pi * step / q) ** 2
        for n, count in ((n0 + 1, rho), (n0, r - rho)):
            if n == 0 or count == 0:
                continue
            ratio = np.sin(np.pi * ((n * r) % q * k % q) / q) ** 2 * inv_den
            total += count * np.where(peak, float(n * n), ratio)
    return OutcomeDistribution(total / (float(q) * q))


def sample_outcome(
    distribution: OutcomeDistribution,
    rng: Union[int, np.random.Generator],
) -> int:
    """Inverse-CDF draw of one outcome; an int seeds a fresh generator."""
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(int(rng))
    cdf = np.cumsum(distribution.probabilities)
    u = rng.random() * cdf[-1]
    k = int(np.searchsorted(cdf, u, side="right"))
    return min(k, len(cdf) - 1)
