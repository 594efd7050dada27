"""Exact integer arithmetic for the classical envelope of the algorithm.

Order finding (the ground-truth oracle), register sizing, continued
fractions, and factor extraction. Everything is plain integer math with
Python's unbounded ints, so N*N never overflows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from math import gcd
from typing import Optional

__all__ = [
    "Convergent",
    "RegisterSizes",
    "ShorInstance",
    "continued_fraction_convergents",
    "extract_factors",
    "find_order_bruteforce",
    "gcd",
    "make_instance",
    "recover_order",
    "register_sizes",
]

# Convergents are exact reduced rationals; Fraction already guarantees
# lowest terms and exposes .numerator / .denominator.
Convergent = Fraction


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
class RegisterSizes:
    """Register sizes for a target modulus plus the quadratic-window check.

    ``window_ok`` records whether N**2 <= Q < 2*N**2 holds.  The sizing
    formula used for t can exceed that window (it already does for N=15);
    callers get the flag and decide what to do with it.
    """

    t: int
    L: int
    Q: int
    window_ok: bool


def register_sizes(n: int, epsilon: float = 0.25) -> RegisterSizes:
    """Qubit counts for modulus n at failure budget epsilon.

    L = ceil(log2(n+1)) so register B holds 0..n-1 and the initial |1>;
    t = 2L + 1 + ceil(log2(2 + 1/(2 epsilon))).
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    if n < 3 or n % 2 == 0:
        raise ValueError(f"modulus must be an odd integer >= 3, got {n}")
    L = n.bit_length()  # == ceil(log2(n + 1))
    t = 2 * L + 1 + math.ceil(math.log2(2.0 + 1.0 / (2.0 * epsilon)))
    q = 2**t
    return RegisterSizes(t=t, L=L, Q=q, window_ok=n * n <= q < 2 * n * n)


@dataclass(frozen=True)
class ShorInstance:
    """One order-finding problem: modulus N, base x, and register sizes.

    r is the multiplicative order of x mod N once known (oracle or
    recovery); m = Q // r exists only when r divides Q.
    """

    N: int
    x: int
    t: int
    L: int
    r: Optional[int] = None

    def __post_init__(self) -> None:
        if self.N < 3 or self.N % 2 == 0:
            raise ValueError(f"N must be an odd integer >= 3, got {self.N}")
        if not 1 <= self.x < self.N:
            raise ValueError(f"x must satisfy 1 <= x < N, got x={self.x}")
        if gcd(self.x, self.N) != 1:
            raise ValueError(f"x={self.x} shares a factor with N={self.N}")
        if self.t < 1:
            raise ValueError(f"t must be >= 1, got {self.t}")
        if 2**self.L < self.N + 1:
            raise ValueError(f"register B too small: 2**{self.L} < {self.N + 1}")
        if self.r is not None and self.r != find_order_bruteforce(self.x, self.N):
            raise ValueError(f"r={self.r} is not the order of {self.x} mod {self.N}")

    @property
    def Q(self) -> int:
        return 2**self.t

    @property
    def m(self) -> Optional[int]:
        if self.r is None or self.Q % self.r != 0:
            return None
        return self.Q // self.r

    @property
    def n_qubits(self) -> int:
        return self.t + self.L

    def with_order(self) -> "ShorInstance":
        if self.r is not None:
            return self
        return replace(self, r=find_order_bruteforce(self.x, self.N))


def make_instance(
    N: int,
    x: int,
    *,
    t: Optional[int] = None,
    epsilon: float = 0.25,
    with_order: bool = True,
) -> ShorInstance:
    """Build a ShorInstance, sizing registers from epsilon unless t is given."""
    sizes = register_sizes(N, epsilon)
    inst = ShorInstance(N=N, x=x, t=sizes.t if t is None else t, L=sizes.L)
    return inst.with_order() if with_order else inst


def continued_fraction_convergents(k: int, q: int) -> list[Convergent]:
    """Convergents of k/q in lowest terms, ending at k/q itself.

    Denominators are strictly increasing; when the leading 0/1 and the next
    convergent tie at denominator 1 only the later one is kept.  k=0 yields
    the single convergent 0/1.
    """
    if q <= 0:
        raise ValueError(f"denominator must be positive, got {q}")
    if not 0 <= k < q:
        raise ValueError(f"need 0 <= k < q, got k={k}, q={q}")
    digits = []
    a, b = k, q
    while b:
        digits.append(a // b)
        a, b = b, a % b
    convs = [Fraction(digits[0], 1)]
    p_prev, p_cur = 1, digits[0]
    q_prev, q_cur = 0, 1
    for d in digits[1:]:
        p_prev, p_cur = p_cur, d * p_cur + p_prev
        q_prev, q_cur = q_cur, d * q_cur + q_prev
        convs.append(Fraction(p_cur, q_cur))
    if len(convs) > 1 and convs[1].denominator == 1:
        convs.pop(0)
    return convs


def _divisors(n: int) -> list[int]:
    small, large = [], []
    i = 1
    while i * i <= n:
        if n % i == 0:
            small.append(i)
            if i != n // i:
                large.append(n // i)
        i += 1
    return small + large[::-1]


def _order_from_multiple(x: int, n: int, multiple: int) -> int:
    # The order divides any verified exponent, so the smallest divisor of
    # `multiple` that maps to 1 is the order itself.
    for d in _divisors(multiple):
        if pow(x, d, n) == 1:
            return d
    raise AssertionError("verified multiple must contain the order")


def recover_order(k: int, instance: ShorInstance) -> Optional[int]:
    """Order of instance.x recovered from measured outcome k, or None.

    Scans convergents of k/Q with denominator in [2, N); since the measured
    phase s/r may have gcd(s, r) > 1, integer multiples of each denominator
    up to N are tested too.  A verified exponent is reduced to the exact
    order through its divisors, so the result is never a proper multiple.
    """
    q = instance.Q
    if not 0 <= k < q:
        raise ValueError(f"need 0 <= k < Q, got k={k}, Q={q}")
    n, x = instance.N, instance.x
    candidates = set()
    for conv in continued_fraction_convergents(k, q):
        d = conv.denominator
        if d < 2 or d >= n:
            continue
        for mult in range(1, n // d + 1):
            candidates.add(d * mult)
    for cand in sorted(candidates):
        if pow(x, cand, n) == 1:
            order = _order_from_multiple(x, n, cand)
            if pow(x, order, n) != 1:
                raise ArithmeticError(f"recovered order {order} fails {x}**{order} == 1 (mod {n})")
            return order
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
