"""Exact integer arithmetic for the classical envelope of the algorithm.

Order finding (the ground-truth oracle), the register layout and the
instance that lives on it, continued fractions, and factor extraction.
Everything is plain integer math with Python's unbounded ints, so N*N
never overflows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from math import gcd
from typing import Iterator, Optional

__all__ = [
    "RegisterLayout",
    "ShorInstance",
    "brief",
    "extract_factors",
    "find_order_bruteforce",
    "recover_order",
    "register_sizes",
]


def brief(n: int) -> str:
    """n in full up to 96 bits, else its digit count: no long string is built."""
    if abs(n).bit_length() <= 96:
        return str(n)
    digits = math.floor((abs(n).bit_length() - 1) * math.log10(2)) + 1  # 10**(digits - 1) <= |n|
    return f"{'-' if n < 0 else ''}<{digits + (abs(n) >= 10**digits)} digits>"


def find_order_bruteforce(x: int, n: int) -> int:
    """Smallest r >= 1 with x**r == 1 (mod n), found by iterating powers.

    This is the exact oracle every order-dependent quantity is checked
    against; it is O(r) and meant for toy-sized moduli only.
    """
    if n < 3:
        raise ValueError(f"modulus must be >= 3, got {n}")
    if gcd(x % n, n) != 1:
        raise ValueError(f"{x} is not invertible mod {n}")
    acc = x % n
    r = 1
    while acc != 1:
        acc = (acc * x) % n
        r += 1
    return r


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


def register_sizes(n: int, epsilon: float = 0.25) -> RegisterLayout:
    """Register layout for modulus n at failure budget epsilon.

    L = ceil(log2(n+1)) so register B holds 0..n-1 and the initial |1>;
    t = 2L + 1 + ceil(log2(2 + 1/(2 epsilon))).
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    if n < 3 or n % 2 == 0:
        raise ValueError(f"modulus must be an odd integer >= 3, got {brief(n)}")
    extra = math.log2(2.0 + 1.0 / (2.0 * epsilon))
    if extra == math.inf:  # 1 / (2 epsilon) overflows for subnormal epsilon
        raise ValueError(f"epsilon={epsilon!r} is too small to size register A")
    L = n.bit_length()  # == ceil(log2(n + 1))
    return RegisterLayout(t=2 * L + 1 + math.ceil(extra), L=L)


@dataclass(frozen=True, kw_only=True)
class ShorInstance(RegisterLayout):
    """One order-finding problem: modulus N and base x on a register layout.

    r, the multiplicative order of x mod N, is searched for on first read
    and kept; m = Q // r exists only when r divides Q.
    """

    N: int
    x: int

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.N < 3 or self.N % 2 == 0:
            raise ValueError(f"N must be an odd integer >= 3, got {self.N}")
        if not 1 <= self.x < self.N:
            raise ValueError(f"x must satisfy 1 <= x < N, got x={self.x}")
        if gcd(self.x, self.N) != 1:
            raise ValueError(f"x={self.x} shares a factor with N={self.N}")
        if 2**self.L < self.N + 1:
            raise ValueError(f"register B too small: 2**{self.L} < {self.N + 1}")

    @cached_property
    def r(self) -> int:
        return find_order_bruteforce(self.x, self.N)

    @property
    def m(self) -> Optional[int]:
        return self.Q // self.r if self.Q % self.r == 0 else None

    @property
    def window_ok(self) -> bool:
        """N**2 <= Q < 2 N**2: the quadratic window, which the sizing formula
        for t can exceed (it does for N=15); reported, never enforced."""
        return self.N**2 <= self.Q < 2 * self.N**2


def _convergent_denominators(k: int, q: int) -> Iterator[int]:
    """Denominators of the convergents of k/q, 0 <= k < q, strictly
    increasing, ending at q / gcd(k, q).

    The integer recurrence D_i = a_i D_(i-1) + D_(i-2) on the partial
    quotients a_i of k/q, with no numerators: k/q = [0; a_1, a_2, ...], so
    D_0 = 1 for the leading 0/1, which is dropped when the next convergent
    also has denominator 1 (a_1 = 1, that is k/q > 1/2).
    """
    if 2 * k <= q:
        yield 1
    prev, cur = 0, 1
    a, b = q, k
    while b:
        digit, rem = divmod(a, b)
        a, b = b, rem
        prev, cur = cur, digit * cur + prev
        yield cur


def _divisors(n: int) -> list[int]:
    small = [i for i in range(1, math.isqrt(n) + 1) if n % i == 0]
    return small + [n // i for i in reversed(small) if i * i != n]


def _order_from_multiple(x: int, n: int, multiple: int) -> int:
    # The order divides any verified exponent, so the smallest divisor of
    # `multiple` that maps to 1 is the order itself; the last is `multiple`.
    return next((d for d in _divisors(multiple)[:-1] if pow(x, d, n) == 1), multiple)


def recover_order(k: int, instance: ShorInstance) -> Optional[int]:
    """Order of instance.x recovered from measured outcome k, or None.

    Scans the convergent denominators d of k/Q in [2, N); since the
    measured phase s/r may have gcd(s, r) > 1, the multiples d*j up to N are
    tested too, by stepping y = x**d one multiplication at a time up to j =
    N // d and stopping at the first 1.  A verified exponent is reduced to
    the exact order through its divisors, so the result is never a proper
    multiple.  Nothing is held but the current power.
    """
    q = instance.Q
    if not 0 <= k < q:
        raise ValueError(f"need 0 <= k < Q, got k={k}, Q={q}")
    n, x = instance.N, instance.x
    for d in _convergent_denominators(k, q):
        if d >= n:
            break  # the denominators only grow
        if d < 2:
            continue
        step = acc = pow(x, d, n)
        for mult in range(1, n // d + 1):
            if acc == 1:
                return _order_from_multiple(x, n, d * mult)
            acc = acc * step % n
    return None


def extract_factors(x: int, r: int, n: int) -> Optional[tuple[int, int]]:
    """Nontrivial factor pair of n from an even order, else None.

    Requires x**r == 1 (mod n).  Succeeds when r is even and x**(r/2) is not
    congruent to +-1, returning (gcd(x**(r/2)-1, n), gcd(x**(r/2)+1, n)).
    """
    if n < 2:
        raise ValueError(f"modulus must be >= 2, got {n}")
    if r < 1:
        raise ValueError(f"order must be >= 1, got {r}")
    if pow(x, r, n) != 1:
        raise ValueError(f"precondition x**r == 1 (mod n) fails for x={x}, r={r}, n={n}")
    if r % 2 != 0:
        return None
    h = pow(x, r // 2, n)
    if h == 1 or h == n - 1:
        return None
    return gcd(h - 1, n), gcd(h + 1, n)
