from fractions import Fraction

import numpy as np
import pytest

from oracles import mod_pow
from shormeter.numtheory import (
    ShorInstance,
    continued_fraction_convergents,
    extract_factors,
    find_order_bruteforce,
    gcd,
    make_instance,
    recover_order,
    register_sizes,
)


def test_gcd_examples():
    assert gcd(48, 18) == 6
    assert gcd(7, 15) == 1
    assert gcd(7**2 - 1, 15) == 3


def test_mod_pow_examples():
    assert mod_pow(7, 2, 15) == 4
    assert mod_pow(7, 4, 15) == 1
    for x, n in [(3, 7), (10, 21), (2, 2**31 - 1)]:
        assert mod_pow(x, 0, n) == 1


def test_mod_pow_domain_errors():
    with pytest.raises(ValueError):
        mod_pow(3, 2, 1)
    with pytest.raises(ValueError):
        mod_pow(3, -1, 7)


def test_mod_pow_multiplicative():
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(2, 10_000))
        x = int(rng.integers(0, n))
        a = int(rng.integers(0, 500))
        b = int(rng.integers(0, 500))
        assert mod_pow(x, a + b, n) == (mod_pow(x, a, n) * mod_pow(x, b, n)) % n


def test_find_order_examples():
    assert find_order_bruteforce(7, 15) == 4
    assert find_order_bruteforce(1, 15) == 1
    assert find_order_bruteforce(2, 15) == 4


def test_find_order_rejects_common_factor():
    with pytest.raises(ValueError):
        find_order_bruteforce(6, 15)


def test_register_sizes_reference_instance():
    sizes = register_sizes(15, 0.25)
    assert (sizes.t, sizes.L, sizes.Q) == (11, 4, 2048)
    # the sizing formula overshoots the quadratic window for N=15: flagged only
    assert sizes.window_ok is False
    assert sizes.Q > 2 * 15**2


def test_register_sizes_n21():
    sizes = register_sizes(21, 0.25)
    assert (sizes.t, sizes.L, sizes.Q) == (13, 5, 8192)


def test_register_sizes_domain_errors():
    for eps in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ValueError):
            register_sizes(15, eps)
    with pytest.raises(ValueError):
        register_sizes(14, 0.25)


def test_convergents_examples():
    assert continued_fraction_convergents(1536, 2048)[-1] == Fraction(3, 4)
    assert continued_fraction_convergents(0, 2048) == [Fraction(0, 1)]
    assert continued_fraction_convergents(512, 2048) == [Fraction(0, 1), Fraction(1, 4)]


def test_convergents_reduced_and_increasing_denominators():
    rng = np.random.default_rng(5)
    for _ in range(300):
        q = int(rng.integers(2, 1 << 14))
        k = int(rng.integers(0, q))
        convs = continued_fraction_convergents(k, q)
        assert convs[-1] == Fraction(k, q)
        denoms = [c.denominator for c in convs]
        assert all(a < b for a, b in zip(denoms, denoms[1:]))
        for c in convs:
            assert gcd(c.numerator, c.denominator) == 1


def test_convergents_domain_error():
    with pytest.raises(ValueError):
        continued_fraction_convergents(1, 0)
    with pytest.raises(ValueError):
        continued_fraction_convergents(9, 4)


def test_recover_order_examples(inst15):
    assert recover_order(1536, inst15) == 4
    assert recover_order(0, inst15) is None
    assert recover_order(512, inst15) == 4
    # 1024/2048 = 1/2 encodes s/r with gcd(s, r) = 2: multiple testing kicks in
    assert recover_order(1024, inst15) == 4


def test_recover_order_rejects_unverified_order(inst15, monkeypatch):
    from shormeter import numtheory

    monkeypatch.setattr(numtheory, "_order_from_multiple", lambda x, n, multiple: 3)
    with pytest.raises(ArithmeticError, match="recovered order 3"):
        recover_order(1536, inst15)


def test_recover_order_never_wrong():
    # every outcome with non-negligible weight recovers the true order or nothing
    from shormeter.statevec import outcome_distribution

    for n in (15, 21, 33, 35):
        sizes = register_sizes(n)
        for x in range(2, n):
            if gcd(x, n) != 1:
                continue
            r = find_order_bruteforce(x, n)
            inst = ShorInstance(N=n, x=x, t=sizes.t, L=sizes.L, r=r)
            probs = outcome_distribution(r, sizes.Q).probabilities
            for k in np.nonzero(probs > 1e-6)[0]:
                got = recover_order(int(k), inst)
                assert got is None or got == r


def test_extract_factors_examples():
    assert extract_factors(7, 4, 15) == (3, 5)
    assert extract_factors(4, 2, 15) == (3, 5)
    assert extract_factors(4, 3, 21) is None  # odd order: method does not apply
    assert extract_factors(14, 2, 15) is None  # 14 == -1 mod 15: trivial root


def test_extract_factors_precondition():
    with pytest.raises(ValueError):
        extract_factors(7, 3, 15)  # 7**3 mod 15 != 1


def test_instance_invariants():
    inst = make_instance(15, 7)
    assert (inst.t, inst.L, inst.Q, inst.r, inst.m) == (11, 4, 2048, 4, 512)
    with pytest.raises(ValueError):
        ShorInstance(N=15, x=5, t=11, L=4)  # shares a factor
    with pytest.raises(ValueError):
        ShorInstance(N=16, x=3, t=11, L=4)  # even modulus
    with pytest.raises(ValueError):
        ShorInstance(N=15, x=7, t=11, L=3)  # register B cannot hold 0..15
    with pytest.raises(ValueError):
        ShorInstance(N=15, x=7, t=11, L=4, r=3)  # not the order


def test_instance_without_divisible_order():
    inst = make_instance(21, 2)
    assert inst.r == 6
    assert inst.m is None  # 6 does not divide 8192
