"""Seeded operation streams for the shormeter benchmark.

Every workload is an endless sequence of *rounds*.  A round holds a fixed mix
of operation kinds; the seed picks the order inside each round, the CLI's
own ``--seed`` per operation, and (for ``factor``) the modulus and base of
each job.  The timed window always runs whole rounds, so every run measures
the same mix and the medians do not jump between kinds from seed to seed.

The program only ever sees the generated argv; this module imports nothing
from shormeter.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterator, Optional

# Instances as (N, x, t).  r=6 does not divide Q for N=21 x=2, r=4 does for
# N=25 x=7, and N=49 x=3 has r=42, so 42 of 64 register-B columns are used.
# t=10 keeps register B (L) and r, hence the column sparsity and every code
# path, but holds a state in 0.5-1 MB, inside the 2 MB L2.  At the default
# t (18 and 21 qubits) a state lives in the shared L3 or in DRAM, and
# neighbours on a shared host swing single op times by up to 2x.
REPORT_INSTANCES = ((21, 2, 10), (25, 7, 10))
SWEEP_INSTANCE = (49, 3, 10)
SMOKE_INSTANCE = (15, 7, 8)  # 12 qubits

# The sweep ops keep the CLI's default grids; the checks rebuild them here.
SWEEP_GRIDS = {
    "tsallis": tuple(round(0.05 * k, 12) for k in range(1, 41)),
    "l1p": tuple(round(1.0 + 0.05 * k, 12) for k in range(0, 21)),
}

FACTOR_MAX_ATTEMPTS = 10  # the CLI default; the checks rely on it


@dataclass(frozen=True)
class Op:
    """One CLI operation: its argv (without ``--out``) and its instance."""

    kind: str
    argv: tuple[str, ...]
    n: int
    t: int
    x: Optional[int] = None
    measure: Optional[str] = None

    @property
    def q(self) -> int:
        return 2**self.t


def order(x: int, n: int) -> int:
    """Multiplicative order of x mod n by iterating powers."""
    acc, r = x % n, 1
    while acc != 1:
        acc = (acc * x) % n
        r += 1
    return r


def odd_composites(lo: int, hi: int) -> list[int]:
    return [
        n
        for n in range(lo | 1, hi + 1, 2)
        if any(n % p == 0 for p in range(3, math.isqrt(n) + 1, 2))
    ]


def control_qubits(n: int) -> int:
    """t at the CLI's default error budget 1/4: 2L + 1 + ceil(log2(4))."""
    return 2 * n.bit_length() + 3


def _seed_arg(rng: random.Random) -> str:
    return str(rng.randrange(2**31))


def _cli_op(
    kind: str,
    command: list[str],
    n: int,
    x: Optional[int],
    rng: random.Random,
    t: Optional[int] = None,
    measure: Optional[str] = None,
) -> Op:
    argv = [command[0], "--n", str(n)]
    if x is not None:
        argv += ["--x", str(x)]
    if t is not None:
        argv += ["--t", str(t)]
    argv += command[1:] + ["--seed", _seed_arg(rng)]
    t = control_qubits(n) if t is None else t
    return Op(kind=kind, argv=tuple(argv), n=n, t=t, x=x, measure=measure)


def _report_round(rng: random.Random, instances=REPORT_INSTANCES) -> list[Op]:
    ops = [
        _cli_op(f"{cmd}-{n}", [cmd], n, x, rng, t)
        for n, x, t in instances
        for cmd in ("simulate", "verify")
    ]
    rng.shuffle(ops)
    return ops


def _sweep_op(measure: str, instance, rng: random.Random) -> Op:
    n, x, t = instance
    return _cli_op(f"sweep-{measure}", ["sweep", "--measure", measure], n, x, rng, t, measure)


def _sweep_round(rng: random.Random, instance=SWEEP_INSTANCE) -> list[Op]:
    # Two tsallis ops (40-point grid) per l1p op (21 points): the median then
    # falls inside the tsallis cluster instead of in the gap between the two.
    ops = [_sweep_op(m, instance, rng) for m in ("tsallis", "tsallis", "l1p")]
    rng.shuffle(ops)
    return ops


# Cost classes of ``--fast`` factor jobs, as half-open bands of r * Q.  A
# fast job sums r terms over Q outcomes and costs about 65 ns per unit of
# r * Q on the 2-vCPU x86 host the bands were tuned on: "small" jobs take up
# to 0.3 s, "mid" jobs 0.3-1.1 s and "tail" jobs 1.0-1.7 s.  Pairs above the
# tail band (r >= 48 at Q = 2**19, 1.6-5.5 s; 1630 of the 7125 pairs) are left
# out: a 30-s window holds too few of them to put ten samples beyond a tail
# percentile, so the tail would fall on whichever few the seed drew.
FAST_CLASSES = {"small": (0, 2**22), "mid": (2**22, 2**24), "tail": (2**24, 3 * 2**23)}


class FactorJobs:
    """Job classes of the ``factor`` workload, each in its own cost band.

    Dense job cost is fixed by the qubit count.  A ``--fast`` job is a pair
    (N, x) of an odd composite N in [15, 255] and any unit x, sorted into a
    cost class by r * Q; a job draws N uniformly among the moduli with a pair
    in its class, then x among that modulus's bases in the class.  Per
    round: four 21-qubit dense jobs set the median, one 15/18-qubit dense
    job and one small and one mid fast job sit below it, and three tail fast
    jobs (r in [32, 48) at Q = 2**19) set the tail.
    """

    MIX = {"small": 1, "mid": 1, "tail": 3}

    def __init__(self) -> None:
        self.dense_large = odd_composites(33, 63)  # 21 qubits
        self.dense_small = odd_composites(15, 31)  # 15 and 18 qubits
        self.fast: dict[str, dict[int, list[int]]] = {name: {} for name in FAST_CLASSES}
        for n in odd_composites(15, 255):
            q = 2 ** control_qubits(n)
            for x in range(2, n):
                if math.gcd(x, n) != 1:
                    continue
                work = order(x, n) * q
                for name, (lo, hi) in FAST_CLASSES.items():
                    if lo <= work < hi:
                        self.fast[name].setdefault(n, []).append(x)

    def _fast_job(self, name: str, rng: random.Random) -> tuple[int, int]:
        moduli = self.fast[name]
        n = rng.choice(sorted(moduli))
        return n, rng.choice(moduli[n])

    def round(self, rng: random.Random) -> list[Op]:
        dense = [rng.choice(self.dense_large) for _ in range(4)]
        dense.append(rng.choice(self.dense_small))
        fast = [self._fast_job(name, rng) for name, k in self.MIX.items() for _ in range(k)]
        rng.shuffle(dense)
        rng.shuffle(fast)
        ops = []
        for n, (nf, x) in zip(dense, fast):
            ops.append(_cli_op("factor-dense", ["factor"], n, None, rng))
            ops.append(_cli_op("factor-fast", ["factor", "--fast"], nf, x, rng))
        return ops


def _smoke_round(rng: random.Random) -> list[Op]:
    n, x, _ = SMOKE_INSTANCE
    ops = _report_round(rng, (SMOKE_INSTANCE,))
    ops += _sweep_round(rng, SMOKE_INSTANCE)
    ops.append(_cli_op("factor-dense", ["factor"], n, x, rng))
    ops.append(_cli_op("factor-fast", ["factor", "--fast"], n, x, rng))
    return ops


WORKLOADS = ("report", "sweep", "factor")


def warmup_op() -> Op:
    """The operation run once during set-up, before timing: ``verify`` on
    the smallest instance.  It takes under 0.1 s, so import and input
    generation dominate the set-up time."""
    n, x, t = SMOKE_INSTANCE
    return _cli_op(f"verify-{n}", ["verify"], n, x, random.Random("warmup"), t)


def rounds(workload: str, seed: int) -> Iterator[list[Op]]:
    """Endless stream of rounds; the same seed always yields the same ops."""
    rng = random.Random(f"{workload}-{seed}")
    if workload == "report":
        make = _report_round
    elif workload == "sweep":
        make = _sweep_round
    elif workload == "factor":
        make = FactorJobs().round
    elif workload == "smoke":
        make = _smoke_round
    else:
        raise ValueError(f"unknown workload {workload!r}")
    while True:
        yield make(rng)


def perturbed_op(seed: int) -> Op:
    """A verify op with an injected amplitude error: it must count as failed."""
    rng = random.Random(f"perturb-{seed}")
    n, x, t = SMOKE_INSTANCE
    return _cli_op("verify-perturbed", ["verify", "--debug-perturb", "1e-3"], n, x, rng, t)
