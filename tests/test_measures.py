import math

import numpy as np
import pytest

from shormeter.measures import (
    geometric_coherence_pure,
    l1p_coherence_density,
    l1p_coherence_pure,
    pure_density,
    relative_entropy_coherence,
    skew_info_coherence,
    tsallis_coherence_density,
    tsallis_coherence_pure,
)

PLUS = np.array([1.0, 1.0]) / math.sqrt(2.0)


def random_pure(dim, rng):
    vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return vec / np.linalg.norm(vec)


def uniform(dim):
    return np.full(dim, 1.0 / math.sqrt(dim), dtype=complex)


def test_tsallis_pure_uniform_closed_form():
    q = 2048
    for alpha in (0.3, 0.5, 1.5, 2.0):
        expected = (q ** (1 - 1 / alpha) - 1) / (alpha - 1)
        assert tsallis_coherence_pure(uniform(q), alpha) == pytest.approx(expected, abs=1e-9)


def test_tsallis_pure_basics():
    basis = np.array([0, 0, 1, 0], dtype=complex)
    assert tsallis_coherence_pure(basis, 1.7) == pytest.approx(0.0, abs=1e-12)
    assert tsallis_coherence_pure(PLUS, 0.5) == pytest.approx(1.0, abs=1e-12)


def test_tsallis_alpha_domain():
    for alpha in (0.0, -1.0, 2.5):
        with pytest.raises(ValueError):
            tsallis_coherence_pure(PLUS, alpha)


def test_tsallis_density_matches_pure_fast_path():
    rng = np.random.default_rng(17)
    for dim in (2, 4, 8, 16, 64):
        for _ in range(5):
            psi = random_pure(dim, rng)
            rho = pure_density(psi)
            for alpha in (0.3, 0.5, 1.5, 2.0):
                assert tsallis_coherence_density(rho, alpha) == pytest.approx(
                    tsallis_coherence_pure(psi, alpha), abs=1e-9
                )


def test_tsallis_density_diagonal_states_vanish():
    rng = np.random.default_rng(2)
    p = rng.random(8)
    rho = np.diag(p / p.sum()).astype(complex)
    for alpha in (0.3, 1.5, 2.0):
        assert tsallis_coherence_density(rho, alpha) == pytest.approx(0.0, abs=1e-10)
    assert tsallis_coherence_density(np.eye(2, dtype=complex) / 2, 0.5) == pytest.approx(
        0.0, abs=1e-12
    )


def test_tsallis_density_rejects_non_hermitian():
    bad = np.array([[0.5, 0.3], [0.0, 0.5]], dtype=complex)
    with pytest.raises(ValueError):
        tsallis_coherence_density(bad, 1.5)


def test_relative_entropy_examples():
    assert relative_entropy_coherence(pure_density(PLUS)) == pytest.approx(1.0, abs=1e-12)
    assert relative_entropy_coherence(np.diag([0.25, 0.75]).astype(complex)) == pytest.approx(
        0.0, abs=1e-12
    )
    assert relative_entropy_coherence(pure_density(uniform(4))) == pytest.approx(2.0, abs=1e-12)


def test_alpha_limit_continuity():
    rng = np.random.default_rng(23)
    ln2 = math.log(2.0)
    for dim in (2, 4, 8, 16):
        psi = random_pure(dim, rng)
        rho = pure_density(psi)
        target = ln2 * relative_entropy_coherence(rho)
        for alpha in (1.0 - 1e-4, 1.0 + 1e-4):
            assert abs(tsallis_coherence_pure(psi, alpha) - target) <= 1e-3
            assert abs(tsallis_coherence_density(rho, alpha) - target) <= 1e-3


def test_l1p_pure_uniform_closed_form():
    q = 2048
    for p in (1.0, 1.5, 2.0):
        assert l1p_coherence_pure(uniform(q), p) == pytest.approx((q - 1) ** (1 / p), rel=1e-12)


def test_l1p_pure_basics():
    assert l1p_coherence_pure(PLUS, 1.0) == pytest.approx(1.0, abs=1e-12)
    assert l1p_coherence_pure(np.array([1, 0, 0, 0], dtype=complex), 1.7) == 0.0
    with pytest.raises(ValueError):
        l1p_coherence_pure(PLUS, 0.9)
    with pytest.raises(ValueError):
        l1p_coherence_pure(PLUS, 2.1)


def test_l1p_pure_matches_out_of_place_formula_bitwise():
    rng = np.random.default_rng(47)
    for psi in (random_pure(4096, rng), uniform(256), PLUS):
        a = np.abs(psi)
        for p in (1.0, 1.05, 1.5, 2.0):
            ap = a**p
            expected = float(np.sum(a * np.clip(np.sum(ap) - ap, 0.0, None) ** (1.0 / p)))
            assert l1p_coherence_pure(psi, p) == expected


def test_l1p_density_matches_pure_and_l1_reduction():
    rng = np.random.default_rng(31)
    for dim in (2, 4, 8, 16, 64):
        psi = random_pure(dim, rng)
        rho = pure_density(psi)
        for p in (1.0, 1.5, 2.0):
            assert l1p_coherence_density(rho, p) == pytest.approx(
                l1p_coherence_pure(psi, p), abs=1e-9
            )
        off_sum = np.abs(rho - np.diag(np.diag(rho))).sum()
        assert l1p_coherence_density(rho, 1.0) == pytest.approx(off_sum, abs=1e-10)
    assert l1p_coherence_density(np.diag([0.5, 0.5]).astype(complex), 1.5) == 0.0


def test_geometric_coherence_values():
    assert geometric_coherence_pure(uniform(2048)) == pytest.approx(1 - 1 / 2048, abs=1e-12)
    assert geometric_coherence_pure(np.array([0, 1], dtype=complex)) == 0.0


def test_skew_info_identity():
    rng = np.random.default_rng(5)
    for dim in (2, 4, 8, 16):
        psi = random_pure(dim, rng)
        rho = pure_density(psi)
        assert tsallis_coherence_pure(psi, 0.5) == pytest.approx(
            2.0 * skew_info_coherence(rho), abs=1e-9
        )
    assert skew_info_coherence(np.diag([0.3, 0.7]).astype(complex)) == pytest.approx(
        0.0, abs=1e-12
    )
    assert skew_info_coherence(pure_density(PLUS)) == pytest.approx(0.5, abs=1e-12)


def test_diagonal_phase_invariance():
    rng = np.random.default_rng(77)
    for dim in (4, 16):
        psi = random_pure(dim, rng)
        phases = np.exp(2j * np.pi * rng.random(dim))
        rotated = psi * phases
        for p in (1.0, 1.5, 2.0):
            assert l1p_coherence_pure(rotated, p) == pytest.approx(
                l1p_coherence_pure(psi, p), abs=1e-9
            )
        for alpha in (0.3, 0.5, 1.5, 2.0):
            assert tsallis_coherence_pure(rotated, alpha) == pytest.approx(
                tsallis_coherence_pure(psi, alpha), abs=1e-9
            )
        assert geometric_coherence_pure(rotated) == pytest.approx(
            geometric_coherence_pure(psi), abs=1e-12
        )


def test_positive_on_coherent_states():
    rng = np.random.default_rng(13)
    psi = random_pure(8, rng)
    assert tsallis_coherence_pure(psi, 1.5) > 1e-6
    assert l1p_coherence_pure(psi, 1.5) > 1e-6
    assert geometric_coherence_pure(psi) > 1e-6


def test_modexp_stage_keeps_all_coherences(pipeline15):
    psi1, psi2, _ = pipeline15
    for p in (1.0, 1.5, 2.0):
        assert l1p_coherence_pure(psi2.amplitudes, p) == pytest.approx(
            l1p_coherence_pure(psi1.amplitudes, p), abs=1e-9
        )
    for alpha in (0.3, 0.5, 1.5, 2.0):
        assert tsallis_coherence_pure(psi2.amplitudes, alpha) == pytest.approx(
            tsallis_coherence_pure(psi1.amplitudes, alpha), abs=1e-9
        )
    assert geometric_coherence_pure(psi2.amplitudes) == pytest.approx(
        geometric_coherence_pure(psi1.amplitudes), abs=1e-12
    )


def test_density_dim_cap():
    with pytest.raises(ValueError):
        tsallis_coherence_density(np.eye(512, dtype=complex) / 512, 1.5)
