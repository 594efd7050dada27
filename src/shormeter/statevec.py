"""Pure-state simulation of the order-finding circuit on its nonzero amplitudes.

Joint basis convention: index = j * 2**L + y, register A (t qubits, value j)
major, register B (L qubits, value y) minor.  The Hamming weight of a joint
index is the popcount of the full (t+L)-bit string, which is what the
entanglement closed forms consume.  The split (t, L) is a
`numtheory.RegisterLayout`; the circuit's states carry their
`ShorInstance`, which is one.

A state holds its exactly nonzero amplitudes, all that the coherence
quantifiers and E_g's weight sums read: the k sorted register-B labels of
its occupied columns, a (k, Q) mask of each column's nonzero rows, the
amplitudes column by column in row order (the column-major order of the
dense (Q, 2**L) array), and each column's first offset.  In the circuit k
is 1 before modexp and r (the residues x**a mod N) after it.
Every stage follows from x, N and t, not from a held state.  psi1, the
Hadamard layer on |0>|1>, is one column of sqrt(1/Q), rounded once
(`uniform_state`); the all-column Hadamard gate is a test oracle.
Modular exponentiation sends row j of psi1's column to label x**j mod N,
so psi2 is Q amplitudes sqrt(1/Q), one column per power of x holding
every P-th row (`_modexp_columns`, with P the period of x**j below Q).
Every image amplitude is real, so each column of psi3, the inverse Fourier
transform on register A, is Hermitian, psi3[Q - k] = conj(psi3[k]): a
real-input FFT gives rows [0, Q/2], and the other rows are their exact
conjugates.  One routine transforms the image columns a chunk at a time
(`_transformed_chunks`): `run_order_finding_circuit`, which yields psi1,
psi2 and psi3 one at a time, gathers each chunk's nonzero entries and
their mirror into psi3, and the dense `factor` job adds them into the row
sums (`final_probabilities`).  No stage is held as a (Q, k) block.  Every
sum over a stage is defined column by column, so that it does not depend
on the chunking: `final_probabilities` adds each column's |c|**2 into the
row sums in label order, `PureState.flat_sum` adds the column sums by
`math.fsum`, and `weight_sums` adds the entries in their stored order.
States are immutable after construction.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from shormeter.numtheory import RegisterLayout, ShorInstance

__all__ = [
    "NORM_TOL",
    "OutcomeDistribution",
    "PureState",
    "final_distribution",
    "final_probabilities",
    "outcome_distribution",
    "perturbed",
    "run_order_finding_circuit",
    "sample_outcome",
    "uniform_state",
    "weight_sums",
]

NORM_TOL = 1e-10


@dataclass(frozen=True)
class PureState:
    """Normalized state held as its exactly nonzero amplitudes.

    Column c is register-B label labels[c], strictly increasing; mask[c, j]
    marks the nonzero amplitude of joint index j * 2**L + labels[c], and
    `amplitudes` holds them column by column in row order, column c's from
    starts[c].  Construction takes the arrays over, read-only, and drops
    each column without an entry: `np.add.reduceat` would give the next
    column's first value, not 0, for an empty segment.
    """

    layout: RegisterLayout
    labels: np.ndarray
    mask: np.ndarray
    amplitudes: np.ndarray
    starts: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        lay = self.layout
        labels = np.asarray(self.labels, dtype=np.intp)
        mask = np.asarray(self.mask, dtype=bool)
        amplitudes = np.asarray(self.amplitudes, dtype=np.complex128)
        if labels.ndim != 1 or mask.shape != (len(labels), lay.Q) or amplitudes.ndim != 1:
            raise ValueError(f"expected a (k, {lay.Q}) mask for k labels, got {mask.shape}")
        if np.any(labels[1:] <= labels[:-1]) or np.any((labels < 0) | (labels >= lay.dim_b)):
            raise ValueError(f"labels must increase strictly within [0, {lay.dim_b})")
        counts = np.count_nonzero(mask, axis=1)
        if counts.sum() != len(amplitudes):
            raise ValueError(f"the mask marks {counts.sum()} entries, not {len(amplitudes)}")
        if not counts.all():
            labels, mask, counts = labels[counts > 0], mask[counts > 0], counts[counts > 0]
        norm = float(np.vdot(amplitudes, amplitudes).real)
        if not abs(norm - 1.0) <= NORM_TOL:  # written so that a NaN norm fails
            raise ValueError(f"state norm**2 = {norm!r} is not 1 within {NORM_TOL}")
        starts = np.cumsum(counts) - counts
        arrays = dict(labels=labels, mask=mask, amplitudes=amplitudes, starts=starts)
        for name, value in arrays.items():
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    def flat_sum(self, values: np.ndarray) -> float:
        """The sum of `values`, one per entry: numpy's sum of each column's
        values (`np.add.reduceat`), then the column sums by `math.fsum`, which
        rounds their exact total once, so the float is the same however the
        columns are split into chunks.  Where |c| < 1.5e-154, |c|**2
        underflows to +0.0, which adds nothing."""
        return math.fsum(np.add.reduceat(values, self.starts).tolist())


def uniform_state(layout: RegisterLayout) -> PureState:
    """psi1 = H^t|0>|1>: one column at register-B label 1, every amplitude
    sqrt(1/Q), rounded once (exact for even t)."""
    q = layout.Q
    amplitudes = np.full(q, math.sqrt(1.0 / q), dtype=np.complex128)
    return PureState(layout, np.array([1]), np.ones((1, q), dtype=bool), amplitudes)


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
# psi3 gathers each chunk straight into its own mask and entries, with no
# full-height buffer, so a chunk holds no more than these two.
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
    holds one stage at a time.  The modexp columns are found once."""
    yield uniform_state(instance)
    labels, exponents = _modexp_columns(instance)
    q = instance.Q
    mask = np.zeros((len(labels), q), dtype=bool)
    _scatter(mask.T, True, exponents, 0)
    # each row j lies in one column, so psi2 has Q entries, all of psi1's value
    yield PureState(instance, labels, mask, np.full(q, math.sqrt(1.0 / q), dtype=np.complex128))
    del mask
    yield _final_state(instance, labels, exponents)


def _final_state(instance: ShorInstance, labels: np.ndarray, exponents: np.ndarray) -> PureState:
    """psi3 from its transformed chunks.  Each chunk writes its mask rows:
    [0, Q/2] where the transform is nonzero, (Q/2, Q) as the mirror of
    Q/2 - 1, ..., 1.  The entries grow in place by the chunk's count, and
    each column gathers its nonzero rows [0, Q/2], then the exact conjugates
    of its entries in rows Q/2 - 1, ..., 1, reversed: psi3 is Hermitian bit
    for bit."""
    q, half = instance.Q, instance.Q // 2
    mask = np.empty((len(labels), q), dtype=bool)
    amplitudes = np.empty(0, dtype=np.complex128)
    c0 = end = 0
    for image in _transformed_chunks(q, exponents):
        rows = mask[c0 : c0 + image.shape[1]]
        c0 += image.shape[1]
        np.not_equal(image.T, 0, out=rows[:, : half + 1])
        rows[:, half + 1 :] = rows[:, half - 1 : 0 : -1]
        counts = np.count_nonzero(rows, axis=1).tolist()
        # no view of the entries outlives its statement, so they may move;
        # refcheck would also count a profiler's hold on the bound method
        amplitudes.resize(end + sum(counts), refcheck=False)
        for column, keep, count in zip(image.T, rows, counts):
            # rows 0 and Q/2 are their own mirrors; each row in [1, Q/2) comes twice
            first, last = int(keep[0]), int(keep[half])
            top = end + (count + first + last) // 2
            np.compress(keep[: half + 1], column, out=amplitudes[end:top])
            np.conjugate(amplitudes[end + first : top - last][::-1], out=amplitudes[top : end + count])
            end += count
    return PureState(instance, labels, mask, amplitudes)


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


def weight_sums(state: PureState) -> np.ndarray:
    """The n + 1 sums of conj(c) over the amplitudes c of `state`, per Hamming
    weight of the joint index: all that the symmetric E_g optimizer reads.

    One bincount each for the real and imaginary parts adds the entries in
    their stored order, label by label and down each column, from +0.0: the
    sums over the column-major dense order, since an exact zero leaves a
    sum as it is.  A stream of column chunks keeps these floats if it adds
    each chunk, in order, into the same sums (np.add.at).  The conjugate's
    0.0 - sum keeps a +0.0 sum from turning into -0.0.
    """
    lay = state.layout
    rows = np.bitwise_count(np.arange(lay.Q))
    bins = np.add.outer(np.bitwise_count(state.labels), rows)[state.mask]
    sums = np.empty(lay.n + 1, dtype=np.complex128)
    sums.real = np.bincount(bins, state.amplitudes.real, minlength=lay.n + 1)
    sums.imag = 0.0 - np.bincount(bins, state.amplitudes.imag, minlength=lay.n + 1)
    return sums


def perturbed(state: PureState, eps: float) -> PureState:
    """`state` with its first largest amplitude in the row-major order of its
    (Q, k) block scaled by 1 + eps, then divided by the square root of
    np.vdot over that block; both floats need the C-ordered block, dropped
    before the entries are scaled.  An entry that becomes exactly 0.0 leaves
    the state; ValueError if no normalized state is left."""
    block = np.zeros((state.layout.Q, len(state.labels)), dtype=np.complex128)
    block.T[state.mask] = state.amplitudes
    row, column = np.unravel_index(np.argmax(np.abs(block)), block.shape)
    block[row, column] *= 1.0 + eps
    norm = np.sqrt(np.vdot(block, block).real)
    del block
    amplitudes = state.amplitudes.copy()
    amplitudes[state.starts[column] + np.count_nonzero(state.mask[column, :row])] *= 1.0 + eps
    amplitudes /= norm
    keep, mask = amplitudes != 0, state.mask
    if not keep.all():
        mask, amplitudes = mask.copy(), amplitudes[keep]
        mask[state.mask] = keep
    return PureState(state.layout, state.labels, mask, amplitudes)


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
    p_(P - k) = p_k, bit for bit, and only k in [0, P/2] is evaluated.
    Every phase is a multiple of gcd(r, Q), so the sines are taken once, as a
    table of P/2 + 1 entries (at most P) that the passes read.  Q must be a
    power of two, so a phase reduces mod Q with a mask; it is capped at
    2**31, so the phase products fit int64.  The passes run a window of
    outcomes at a time in four small buffers, the table lives in the unused
    tail of the output, and the distribution accumulates the probabilities
    in place, so the one Q-long array is the probabilities, then their CDF.
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
# outcomes, on four buffers of 64 KiB that stay in cache, and builds its
# sin**2 table this many entries at a time
_WINDOW = 2**13


def _outcome_probabilities(r: int, q: int) -> np.ndarray:
    """The p_k of `outcome_distribution`, in a fresh array that the caller
    owns.

    With g = gcd(r, Q), every phase r k mod Q and n r k mod Q is g j for a j
    in [0, P), P = Q / g, and reflected (`_sin_squared`) it is g min(j, P - j).
    So p_k repeats with the period P, float for float, and k and P - k give
    the same phases: p_{P - k} = p_k bit for bit.  The passes therefore run
    on k in [0, P/2] only, whose one peak is k = 0; one reversed copy fills
    (P/2, P), and copies of [0, P), doubling, fill the rest.

    Each sine is read from a table T[j] = sin(pi g j / Q)**2, j in [0, head),
    head = min(P, P/2 + 1), that `_sin_squared` builds a window at a time: one
    sine per entry, and each lookup returns the float a sine pass at that
    phase would.  The passes work in units of g: a phase mod P, reflected to
    min(j, P - j), is its own table index, read by `np.take`.  The table is
    held in the last head slots of the output, which the copies overwrite
    after the last lookup; when P = Q it also covers the last outcomes
    [Q - head, head), at most two, whose window runs in a scratch and is
    copied in after the last lookup.  Each window of outcomes runs the same
    per-element passes that one Q-long array would, on small reused
    buffers, so the floats do not depend on the window; only the output is
    Q long.
    """
    n0, rho = divmod(q, r)
    shift = math.gcd(r, q).bit_length() - 1
    period = q >> shift  # r k = 0 (mod Q) at the multiples of period
    mask = period - 1
    head = min(period, period // 2 + 1)  # k in [0, P/2]
    terms = [(n, count) for n, count in ((n0 + 1, rho), (n0, r - rho)) if n and count]
    width = min(head, _WINDOW)
    offsets = np.arange(width, dtype=np.int64)
    steps, phases = np.empty(width, dtype=np.int64), np.empty(width, dtype=np.int64)
    inv_dens, ratios = np.empty(width), np.empty(width)
    mirrors = ratios.view(np.int64)  # ratio holds nothing while a phase is reflected
    total = np.empty(q)
    table = total[q - head :]
    for j0 in range(0, head, width):
        size = min(width, head - j0)
        step = steps[:size]
        np.add(offsets[:size], j0, out=step)
        step <<= shift  # g j <= Q/2, its own reflection
        _sin_squared(step, q, table[j0 : j0 + size])
    split = min(head, q - head)  # the outcomes below the table
    last = np.empty(head - split)
    windows = [(c0, total[c0 : min(c0 + width, split)]) for c0 in range(0, split, width)]
    windows += [(c0, last[c0 - split : c0 - split + width]) for c0 in range(split, head, width)]
    for c0, window in windows:
        size = len(window)
        step, phase, mirror = steps[:size], phases[:size], mirrors[:size]
        inv_den, ratio = inv_dens[:size], ratios[:size]
        np.add(offsets[:size], c0, out=step)
        step *= (r >> shift) & mask
        step &= mask
        np.subtract(period, step, out=mirror)
        np.minimum(step, mirror, out=step)
        np.take(table, step, out=inv_den, mode="clip")
        if c0 == 0:
            inv_den[0] = 1.0  # keeps 1/0 out; the peak takes n**2 below
        np.divide(1.0, inv_den, out=inv_den)
        for index, (n, count) in enumerate(terms):
            # n (r k mod Q) = n r k (mod Q), and reflecting r k first leaves
            # the reflected phase as it is; the first term fills the window
            out = ratio if index else window
            np.multiply(step, n & mask, out=phase)
            phase &= mask
            np.subtract(period, phase, out=mirror)
            np.minimum(phase, mirror, out=phase)
            np.take(table, phase, out=out, mode="clip")
            out *= inv_den
            if c0 == 0:
                out[0] = float(n * n)
            out *= count
            if index:
                window += ratio
        window /= float(q) * q
    total[split:head] = last
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
