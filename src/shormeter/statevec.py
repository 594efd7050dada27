"""Pure-state simulation of the order-finding circuit on occupied columns.

Joint basis convention: index = j * 2**L + y, register A (t qubits, value j)
major, register B (L qubits, value y) minor.  The Hamming weight of a joint
index is the popcount of the full (t+L)-bit string, which is what the
entanglement closed forms consume.  The split (t, L) is a
`numtheory.RegisterLayout`; the circuit's states carry their
`ShorInstance`, which is one.

A state stores only its occupied register-B columns, those holding any
exactly nonzero amplitude: a (Q, k) block and the k sorted labels of its
columns.  In the circuit k is 1 before modexp and r (the residues x**a mod
N) after it.  The block is column-major, so each column is one contiguous
run of Q amplitudes; its logical row-major order is the dense joint order.
The circuit is a function of the instance, not of a state: every stage
follows from x, N and t.  psi1, the Hadamard layer on |0>|1>, is built
directly (`uniform_state`): one column of sqrt(1/Q), rounded once, so no
general Hadamard gate is needed, and the all-column one is a test oracle.
Modular exponentiation sends row j of psi1's column to label x**j mod N,
so the image has one column per power of x, holding sqrt(1/Q) on every
P-th row (`_modexp_columns`, with P the period of x**j below Q).
Every image amplitude is real, so each column of psi3, the inverse Fourier
transform on register A, is Hermitian, psi3[Q - k] = conj(psi3[k]): a
real-input FFT gives rows [0, Q/2], and the other rows are their exact
conjugates.  One routine transforms the image columns a chunk at a time
(`_transformed_chunks`): `run_order_finding_circuit`, which yields psi1,
psi2 and psi3 one at a time, copies the chunks into the psi3 block, and the
dense `factor` job, which holds no (Q, r) block, adds them into the row sums
(`final_probabilities`).  No array has one element per basis state.  Every
sum over a stage is defined column by column, so that it does not depend on
which chunk of columns holds a column: `final_probabilities` adds each
column's |c|**2 into the row sums in label order, and a flat sum over a
state's `Support`, the one scan of its exactly nonzero entries that every
coherence quantifier reads, sums each column and adds the column sums by
`math.fsum`.
`weight_sums`, E_g's input, reads the block in the same column-major order.
States are immutable after construction.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from shormeter.numtheory import RegisterLayout, ShorInstance

__all__ = [
    "NORM_TOL",
    "OutcomeDistribution",
    "PureState",
    "Support",
    "final_distribution",
    "final_probabilities",
    "nonzero_support",
    "outcome_distribution",
    "run_order_finding_circuit",
    "sample_outcome",
    "uniform_state",
    "weight_sums",
]

NORM_TOL = 1e-10


@dataclass(frozen=True)
class PureState:
    """Normalized state held as its occupied register-B columns.

    `block[j, c]` is the amplitude of joint index j * 2**L + labels[c], with
    strictly increasing register-B labels.  Construction drops every column
    without an exactly nonzero amplitude and copies the block into a
    read-only column-major array, except an owned, already read-only
    column-major array: the circuit hands over its fresh blocks this way
    instead of paying for a copy.
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
        if block.flags.writeable or not block.flags.owndata or not block.flags.f_contiguous:
            block = np.array(block, order="F")
            block.setflags(write=False)
        # vdot ravels in C order: the transpose is the contiguous view
        norm = float(np.vdot(block.T, block.T).real)
        if not abs(norm - 1.0) <= NORM_TOL:  # written so that a NaN norm fails
            raise ValueError(f"state norm**2 = {norm!r} is not 1 within {NORM_TOL}")
        labels = labels.copy()
        labels.setflags(write=False)
        object.__setattr__(self, "block", block)
        object.__setattr__(self, "labels", labels)


def uniform_state(layout: RegisterLayout) -> PureState:
    """psi1 = H^t|0>|1>: one column at register-B label 1, every amplitude
    sqrt(1/Q), rounded once (exact for even t)."""
    block = np.full((layout.Q, 1), math.sqrt(1.0 / layout.Q), dtype=np.complex128, order="F")
    block.setflags(write=False)
    return PureState(layout, block, np.array([1]))


def _modexp_columns(instance: ShorInstance) -> tuple[np.ndarray, np.ndarray]:
    """(labels, exponents) of the modexp image of psi1.

    x**j mod N repeats with a period P, the order of x (or Q, if x**j does
    not come back to 1 below Q), and the P powers x**j, j < P, are distinct.
    So the image has P columns: column c has the register-B label
    labels[c] = x**exponents[c] mod N, sorted, and holds psi1's amplitude on
    the rows j = exponents[c] (mod P).  The powers are formed in int64,
    which holds their products for every N below 2**31.  The table doubles
    until its new half holds a 1, so it fills at most 2P entries, and P
    comes from the powers, not from the order search.
    """
    q, n_mod = instance.Q, instance.N
    powers = np.empty(q, dtype=np.int64)
    powers[0] = 1
    k = 1
    while k < q:  # x**(k + j) = x**j * x**k, doubling the filled prefix
        powers[k : 2 * k] = powers[:k] * pow(instance.x, k, n_mod) % n_mod
        again = np.flatnonzero(powers[k : 2 * k] == 1)
        if len(again):
            period = k + int(again[0])
            break
        k *= 2
    else:
        period = q
    return np.unique(powers[:period], return_index=True)


def _scatter(out: np.ndarray, value: float, exponents: np.ndarray, c0: int) -> None:
    """Write `value` on the rows of the image columns c0, c0 + 1, ... of
    `_modexp_columns` into the columns of `out`: one strided write per
    column, rows a, a + P, ... for its exponent a."""
    period = len(exponents)
    for c, a in enumerate(exponents[c0 : c0 + out.shape[1]].tolist()):
        out[a::period, c] = value


# The inverse transform runs on chunks of image columns of about this many
# bytes, counted as 16 per row for the real (Q, width) scratch and the
# complex (Q/2 + 1, width) transform read from it, so that each chunk stays
# in cache from its scatter to its last read, but of at least
# _CHUNK_COLUMNS columns, since each np.fft.rfft call has a fixed cost.
# `final_distribution` with chunks of 1, 2, 4, 8 and 16 columns (medians of
# 15 interleaved runs on a 2-vCPU x86 host) took 23.7, 18.5, 17.5, 19.3 and
# 22.1 ms at Q = 2**15 (N=49, r = 42), and 255, 254, 244, 245 and 246 ms at
# Q = 2**17 (N=125, r = 100); over 30 runs, 4 columns matched or beat 8 at
# Q = 2**15 and 2**16 for r = 42 and 100.
_CHUNK_BYTES = 2**21
_CHUNK_COLUMNS = 4


def _transformed_chunks(q: int, exponents: np.ndarray) -> Iterator[np.ndarray]:
    """Yield rows [0, Q/2], which hold all of a real column's transform, of
    the inverse transform of the modexp image columns of psi1 in column
    order, a chunk at a time: each chunk is scattered into one reused real
    scratch, transformed by one batched real-input FFT into one reused
    complex array, scaled by fl(1 / sqrt(Q)) through its float64 view (the
    floats of complex division) and, once the caller has read it, zeroed by
    scattering 0.0 onto the same rows."""
    k = len(exponents)
    width = min(k, max(_CHUNK_COLUMNS, _CHUNK_BYTES // (16 * q)))
    scratch = np.empty((q, width), order="F")
    # zeroed by writing, not by np.zeros: its untouched pages, once read by
    # the FFT, would fault again on the next write
    scratch.fill(0)
    top = np.empty((q // 2 + 1, width), dtype=np.complex128, order="F")
    amplitude = math.sqrt(1.0 / q)  # psi1's, as `uniform_state` rounds it
    for c0 in range(0, k, width):
        size = min(width, k - c0)
        chunk, image = scratch[:, :size], top[:, :size]
        _scatter(chunk, amplitude, exponents, c0)
        np.fft.rfft(chunk, axis=0, out=image)
        image.T.view(np.float64)[...] *= 1.0 / math.sqrt(q)
        yield image
        _scatter(chunk, 0.0, exponents, c0)


def final_probabilities(instance: ShorInstance) -> np.ndarray:
    """The register-A outcome probabilities of psi3, without holding psi3,
    in a fresh array that the caller owns.

    Each transformed chunk, rows [0, Q/2] of its columns, is read in place:
    |column|**2 is added into those row sums column by column, in label
    order, so the floats do not depend on the chunking.  |conj(c)|**2 is
    |c|**2, so p_(Q - k) = p_k, and a reversed copy fills rows (Q/2, Q): the
    floats of the row sums of the held, mirrored psi3.  The sum of the p_k,
    the norm**2 of psi3, must be 1 within NORM_TOL, the gate of `PureState`.
    The peak is the scratch, its transform and the probabilities.
    """
    _, exponents = _modexp_columns(instance)
    q = instance.Q
    half = q // 2
    probabilities = np.zeros(q)
    head = probabilities[: half + 1]
    col = np.empty(half + 1)
    for image in _transformed_chunks(q, exponents):
        for column in image.T:
            np.abs(column, out=col)
            np.square(col, out=col)
            head += col
    probabilities[half + 1 :] = probabilities[half - 1 : 0 : -1]
    norm = float(probabilities.sum())
    if not abs(norm - 1.0) <= NORM_TOL:  # written so that a NaN norm fails
        raise ValueError(f"final state norm**2 = {norm!r} is not 1 within {NORM_TOL}")
    return probabilities


def final_distribution(instance: ShorInstance) -> OutcomeDistribution:
    """The register-A outcome distribution of psi3: `final_probabilities`,
    turned into their CDF in place."""
    return OutcomeDistribution(final_probabilities(instance))


def run_order_finding_circuit(instance: ShorInstance) -> Iterator[PureState]:
    """Yield psi1 (the uniform stage), psi2 (after modexp) and psi3 (after
    the inverse QFT), each built when it is asked for and not held here once
    yielded, so a caller that drops each stage before asking for the next
    holds one (Q, k) block at a time.  The modexp columns are found once."""
    yield uniform_state(instance)
    labels, exponents = _modexp_columns(instance)
    image = np.zeros((instance.Q, len(labels)), dtype=np.complex128, order="F")
    _scatter(image, math.sqrt(1.0 / instance.Q), exponents, 0)
    image.setflags(write=False)
    yield PureState(instance, image, labels)
    del image
    yield PureState(instance, _final_block(instance.Q, exponents), labels)


def _final_block(q: int, exponents: np.ndarray) -> np.ndarray:
    """psi3's block, read-only: rows [0, Q/2] of each transformed chunk,
    then rows (Q/2, Q) in place as the conjugates of rows Q/2 - 1, ..., 1.
    Conjugation is exact, so psi3 is Hermitian bit for bit."""
    half = q // 2
    block = np.empty((q, len(exponents)), dtype=np.complex128, order="F")
    c0 = 0
    for image in _transformed_chunks(q, exponents):
        block[: half + 1, c0 : c0 + image.shape[1]] = image
        c0 += image.shape[1]
    np.conjugate(block[half - 1 : 0 : -1], out=block[half + 1 :])
    block.setflags(write=False)
    return block


@dataclass(frozen=True, init=False)
class OutcomeDistribution:
    """The running sums of the register-A outcome probabilities, read-only:
    all that a `sample_outcome` draw reads.

    It takes `probabilities` over: a fresh float64 vector that no one else
    holds, as `outcome_distribution` and `final_distribution` build it.
    After its checks the vector becomes its own CDF, in place, so a job
    holds one Q-long array from the kernel to its last draw.
    """

    cdf: np.ndarray

    def __init__(self, probabilities: np.ndarray) -> None:
        object.__setattr__(self, "cdf", _running_sums(probabilities))


def _running_sums(probabilities: np.ndarray) -> np.ndarray:
    """Check `probabilities`, then turn them into their running sums in
    place (np.cumsum with out=, the floats of a fresh cumsum) and return
    them read-only."""
    if probabilities.ndim != 1:
        raise ValueError("probabilities must be a one-dimensional vector")
    if probabilities.min(initial=0.0) < -1e-12:  # a NaN passes here and fails the total
        raise ValueError(f"negative probability {probabilities.min()!r}")
    total = float(probabilities.sum())
    if not abs(total - 1.0) <= 1e-9:  # a NaN anywhere makes the total NaN
        raise ValueError(f"probabilities sum to {total!r}, not 1")
    np.cumsum(probabilities, out=probabilities)
    probabilities.setflags(write=False)
    return probabilities


@dataclass(frozen=True)
class Support:
    """A state's exactly nonzero amplitudes, as |c|**2 and |c|, column by
    column: register-B columns in label order, each in row order.

    `starts` holds the offset of the first entry of each column that has
    one.  A column without an entry has no offset: `np.add.reduceat` would
    give the next column's first value, not 0, for an empty segment.  Where
    |c| < 1.5e-154, |c|**2 underflows to +0.0, which adds nothing to a flat
    sum, while the l_{1,p} sums still count that |c|.
    """

    probabilities: np.ndarray
    moduli: np.ndarray
    starts: np.ndarray

    def flat_sum(self, values: np.ndarray) -> float:
        """The sum of `values`, one per entry: numpy's sum of each column's
        values (`np.add.reduceat`), then the column sums by `math.fsum`, which
        rounds their exact total once.  A column's sum depends on that column
        alone and fsum on no order, so the float is the same however the
        columns are split into chunks."""
        return math.fsum(np.add.reduceat(values, self.starts).tolist())


def nonzero_support(state: PureState) -> Support:
    """The `Support` of `state`.

    The transpose of the column-major block is C-contiguous, so one boolean
    mask over it reads the entries column by column, in memory order.
    """
    columns = state.block.T
    keep = columns != 0
    amplitudes = columns[keep]
    counts = np.count_nonzero(keep, axis=1)
    starts = (np.cumsum(counts) - counts)[counts > 0]
    return Support(amplitudes.real**2 + amplitudes.imag**2, np.abs(amplitudes), starts)


def weight_sums(state: PureState) -> np.ndarray:
    """The n + 1 sums of conj(c) over the amplitudes c of `state`, per Hamming
    weight of the joint index: all that the symmetric E_g optimizer reads.

    One bincount each for the real and imaginary parts adds the entries in
    column-major order, label by label and down each column, zeros
    included: bincount adds in order from +0.0, and a zero of either sign
    leaves a sum as it is, so the sums are those of the nonzero entries
    alone.  A stream of column chunks keeps these floats if it adds each
    chunk, in order, into the same sums (np.add.at).  The conjugate's
    0.0 - sum keeps a +0.0 sum from turning into -0.0.
    """
    lay = state.layout
    columns = state.block.T  # C-contiguous: one row per column
    bins = np.add.outer(np.bitwise_count(state.labels), np.bitwise_count(np.arange(lay.Q)))
    bins = bins.ravel()
    sums = np.empty(lay.n + 1, dtype=np.complex128)
    sums.real = np.bincount(bins, columns.real.ravel(), minlength=lay.n + 1)
    sums.imag = 0.0 - np.bincount(bins, columns.imag.ravel(), minlength=lay.n + 1)
    return sums


def outcome_distribution(r: int, q: int) -> OutcomeDistribution:
    """Outcome distribution of the circuit for order r and dimension Q, in O(Q).

    Write Q = n0*r + rho.  After modexp, register-B value x**a holds the
    rows j = a, a + r, ... below Q: n0 + 1 of them for the rho residues
    a < rho and n0 for the others.  The inverse transform maps such a column
    to a geometric series in exp(-2 pi i r k / Q), so

        p_k = [rho * F(n0 + 1, k) + (r - rho) * F(n0, k)] / Q**2,
        F(n, k) = sin(pi (n r k mod Q) / Q)**2 / sin(pi (r k mod Q) / Q)**2,

    with F(n, k) = n**2 where r k = 0 (mod Q), that is at the multiples of
    P = Q / gcd(r, Q).  This is exact for every r, including r not dividing
    Q and r > Q (n0 = 0, a uniform distribution).  Each sine is evaluated at
    its phase m reflected to min(m, Q - m), the same value in exact
    arithmetic and a float argument of at most pi / 2, so every p_k is
    accurate to a few ulps for every Q; then p_k repeats with period P and
    p_(P - k) = p_k, bit for bit, and only k in [0, P/2] is evaluated.  Q
    must be a power of two, so a phase reduces mod Q with a mask; it is
    capped at 2**31, so the phase products fit int64.  The passes run a
    window of outcomes at a time in four small buffers, and the distribution
    accumulates the probabilities in place, so the one Q-long array is the
    probabilities, then their CDF.
    """
    if r < 1:
        raise ValueError(f"order must be >= 1, got {r}")
    if not 1 <= q <= 2**31:
        raise ValueError(f"dimension must lie in [1, 2**31], got {q}")
    if q & (q - 1):
        raise ValueError(f"dimension must be a power of two, got {q}")
    return OutcomeDistribution(_outcome_probabilities(r, q))


def _sin_squared(phase: np.ndarray, q: int, out: np.ndarray) -> np.ndarray:
    """sin(pi m / Q)**2 into `out` for each phase m in [0, Q), taken at
    min(m, Q - m), the same value in exact arithmetic: m and Q - m give the
    same float, and the argument stays at most pi / 2, where its rounding
    costs a few ulps, not the u * Q it costs near pi."""
    np.subtract(q, phase, out=out)
    np.minimum(phase, out, out=out)
    out *= np.pi
    out /= q
    np.sin(out, out=out)
    return np.square(out, out=out)


# `_outcome_probabilities` runs its passes over windows of this many
# outcomes, on four buffers of 64 KiB that stay in cache
_WINDOW = 2**13


def _outcome_probabilities(r: int, q: int) -> np.ndarray:
    """The p_k of `outcome_distribution`, in a fresh array that the caller
    owns.

    p_k reads k only through the phases r k mod Q and n r k mod Q, so it
    repeats with the period P = Q / gcd(r, Q), float for float; and with
    every phase reflected (`_sin_squared`), k and P - k give the same
    phases, so p_{P - k} = p_k bit for bit.  The passes therefore run on
    k in [0, P/2] only, whose one peak is k = 0; one reversed copy fills
    (P/2, P), and copies of [0, P), doubling, fill the rest.  Each window of
    outcomes runs the same per-element passes that one Q-long array would,
    on small reused buffers, so the floats do not depend on the window; only
    the output is Q long.
    """
    n0, rho = divmod(q, r)
    mask = q - 1
    period = q // math.gcd(r, q)  # r k = 0 (mod Q) at the multiples of period
    head = min(period, period // 2 + 1)  # k in [0, P/2]
    terms = [(n, count) for n, count in ((n0 + 1, rho), (n0, r - rho)) if n and count]
    width = min(head, _WINDOW)
    offsets = np.arange(width, dtype=np.int64)
    steps, phases = np.empty(width, dtype=np.int64), np.empty(width, dtype=np.int64)
    inv_dens, ratios = np.empty(width), np.empty(width)
    total = np.empty(q)
    for c0 in range(0, head, width):
        size = min(width, head - c0)
        window = total[c0 : c0 + size]
        step, phase = steps[:size], phases[:size]
        inv_den, ratio = inv_dens[:size], ratios[:size]
        np.add(offsets[:size], c0, out=step)
        step *= r & mask
        step &= mask
        _sin_squared(step, q, inv_den)
        if c0 == 0:
            inv_den[0] = 1.0  # keeps 1/0 out; the peak takes n**2 below
        np.divide(1.0, inv_den, out=inv_den)
        for index, (n, count) in enumerate(terms):
            # n r k = n (r k mod Q) (mod Q); the first term fills the window
            out = ratio if index else window
            np.multiply(step, n & mask, out=phase)
            phase &= mask
            _sin_squared(phase, q, out)
            out *= inv_den
            if c0 == 0:
                out[0] = float(n * n)
            out *= count
            if index:
                window += ratio
        window /= float(q) * q
    total[head:period] = total[period - head : 0 : -1]
    while period < q:
        total[period : 2 * period] = total[:period]
        period *= 2
    return total


def sample_outcome(distribution: OutcomeDistribution, rng: np.random.Generator) -> int:
    """Inverse-CDF draw of one outcome: one search of the distribution's
    read-only CDF, which no draw copies."""
    cdf = distribution.cdf
    u = rng.random() * cdf[-1]
    k = int(np.searchsorted(cdf, u, side="right"))
    return min(k, len(cdf) - 1)
