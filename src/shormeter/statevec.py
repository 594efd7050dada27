"""Pure-state simulation of the order-finding circuit on occupied columns.

Joint basis convention: index = j * 2**L + y, register A (t qubits, value j)
major, register B (L qubits, value y) minor.  The Hamming weight of a joint
index is the popcount of the full (t+L)-bit string, which is what the
entanglement closed forms consume.

A state stores only its occupied register-B columns, those holding any
exactly nonzero amplitude: a (Q, k) block and the k sorted labels of its
columns, whose row-major order is the dense joint order.  In the circuit k
is 1 before modexp and r (the residues x**a mod N) after it.  The register-A
gates (Hadamard layer, inverse Fourier transform) transform the block and
keep the labels; modular exponentiation relabels it.  Nothing allocates the
2**(t+L) complex amplitudes: only the float64 sum buffers of the measures
and of `measurement_distribution_A` have that size, to keep numpy's dense
summation order.

States are immutable after construction; every operation returns a fresh
state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

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
    """Normalized state held as its occupied register-B columns.

    `block[j, c]` is the amplitude of joint index j * 2**L + labels[c], with
    strictly increasing register-B labels.  Construction drops every column
    without an exactly nonzero amplitude and copies the block into a
    read-only array, except an owned, already read-only array: the gates
    hand over their fresh outputs this way instead of paying for a copy.
    """

    layout: RegisterLayout
    block: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        lay = self.layout
        block = np.asarray(self.block, dtype=np.complex128)
        labels = np.asarray(self.labels, dtype=np.intp)
        if labels.ndim != 1 or block.shape != (lay.Q, len(labels)):
            raise ValueError(
                f"expected a ({lay.Q}, k) block for k labels, got {block.shape}, {labels.shape}"
            )
        if np.any(labels[1:] <= labels[:-1]) or np.any((labels < 0) | (labels >= lay.dim_b)):
            raise ValueError(f"labels must increase strictly within [0, {lay.dim_b})")
        occupied = block.any(axis=0)
        if not occupied.all():
            block, labels = block[:, occupied], labels[occupied]
        norm = float(np.vdot(block, block).real)
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"state norm**2 = {norm!r} is not 1 within {NORM_TOL}")
        if block.flags.writeable or not block.flags.owndata:
            block = block.copy()
            block.setflags(write=False)
        labels = labels.copy()
        labels.setflags(write=False)
        object.__setattr__(self, "block", block)
        object.__setattr__(self, "labels", labels)

    def entries(self) -> tuple[np.ndarray, np.ndarray, int]:
        """(joint positions, amplitudes, dimension) of the block, in dense order."""
        lay = self.layout
        rows = np.arange(lay.Q, dtype=np.intp) * lay.dim_b
        positions = (rows[:, None] + self.labels[None, :]).reshape(-1)
        return positions, self.block.reshape(-1), lay.dim


def init_state(layout: RegisterLayout) -> PureState:
    """|0...0> on register A, |1> on register B."""
    block = np.zeros((layout.Q, 1), dtype=np.complex128)
    block[0, 0] = 1.0
    block.setflags(write=False)
    return PureState(layout, block, np.array([1]))


def _register_a_gate(state: PureState, transform: Callable[[np.ndarray], np.ndarray]) -> PureState:
    """Apply a register-A transform to the occupied register-B columns.

    ``transform`` maps a fresh (Q, k) array of columns, which it may
    overwrite, to their images; the labels stay.
    """
    out = transform(state.block.copy())
    out.setflags(write=False)
    return PureState(state.layout, out, state.labels)


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
    is unitary; basis values y >= N must carry no amplitude.  Row j of
    column y < N moves to column x**j * y mod N: the distinct targets are the
    new labels, filled by one scatter.  Residue products are formed in
    int64, which holds them for every N below 2**31.
    """
    lay = state.layout
    if (lay.t, lay.L) != (instance.t, instance.L):
        raise ValueError("state layout does not match the instance registers")
    n_mod, x = instance.N, instance.x
    inside = int(np.searchsorted(state.labels, n_mod))
    if np.any(np.abs(state.block[:, inside:]) > ZERO_TOL):
        raise ValueError(f"amplitude on register-B value >= N={n_mod}")
    powers = np.ones(lay.Q, dtype=np.int64)
    k = 1
    while k < lay.Q:  # x**(k + j) = x**j * x**k, doubling the filled prefix
        powers[k : 2 * k] = powers[:k] * pow(x, k, n_mod) % n_mod
        k *= 2
    targets = (powers[:, None] * state.labels[None, :inside]) % n_mod
    labels, columns = np.unique(targets, return_inverse=True)
    out = np.zeros((lay.Q, len(labels)), dtype=np.complex128)
    out[np.arange(lay.Q)[:, None], columns.reshape(targets.shape)] = state.block[:, :inside]
    out.setflags(write=False)
    return PureState(lay, out, labels)


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
    """p_k = sum_y |amplitude(k, y)|**2, summed over all 2**L values of y.

    A zeroed (Q, 2**L) buffer keeps the dense summation order, and with it
    the sampled draws.
    """
    lay = state.layout
    probs = np.zeros((lay.Q, lay.dim_b))
    probs[:, state.labels] = np.abs(state.block) ** 2
    return OutcomeDistribution(np.sum(probs, axis=1))


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


def sample_outcome(distribution: OutcomeDistribution, rng: np.random.Generator) -> int:
    """Inverse-CDF draw of one outcome."""
    cdf = np.cumsum(distribution.probabilities)
    u = rng.random() * cdf[-1]
    k = int(np.searchsorted(cdf, u, side="right"))
    return min(k, len(cdf) - 1)
