"""Acceptance suite: one test per release criterion, each printing a
[PASS]/[FAIL] line with the measured quantity so the run doubles as a
human-readable report."""

import json
import math

import numpy as np

import oracles
from oracles import ideal_psi3, make_instance, measurement_probabilities_A, outcome_probability
from shormeter import entanglement as ent
from shormeter import run_order_finding_circuit, statevec, theorems
from shormeter.cli import main
from shormeter.numtheory import RegisterLayout

P_GRID = (1.0, 1.25, 1.5, 1.75, 2.0)
ALPHA_GRID = (0.3, 0.5, 0.9, 1.1, 1.5, 2.0)


def check(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_geometric_coherence_uniform_stage(pipeline15):
    numeric = oracles.geometric_coherence_pure(pipeline15[0])
    closed = 1.0 - 1.0 / 2048.0
    ok = abs(numeric - closed) <= 1e-9 and abs(numeric - 0.9995) <= 5e-5
    check(1, ok, f"C_g(psi1) = {numeric!r} vs closed {closed!r} and printed 0.9995")


def test_criterion_2_uniform_stage_entanglement_vanishes(pipeline15):
    product_family = oracles.all_starts_product_entanglement(pipeline15[0])
    restricted = oracles.symmetric_optimum(pipeline15[0]).entanglement
    ok = product_family <= 1e-9
    check(
        2,
        ok,
        f"E_g(psi1) = {product_family!r} over the full product family "
        f"(single-angle restricted value {restricted:.4f} cannot reach 0 for this product state)",
    )


def test_criterion_3_post_modexp_entanglement_closed_form(inst15):
    value = 1.0 - ent.closed_form_overlaps(inst15).psi2
    ok = abs(value - 0.8445) <= 1e-3
    check(3, ok, f"closed-form E_g(psi2) = {value!r} vs printed 0.8445")


def test_criterion_4_final_stage_geometric_coherence(inst15):
    numeric = oracles.geometric_coherence_pure(ideal_psi3(inst15))
    closed = theorems.coherence_closed_forms(4 * 4, 1.0, 2.0)[2]
    ok = abs(numeric - 0.9375) <= 1e-12 and abs(closed - 0.9375) <= 1e-12
    check(4, ok, f"C_g(psi3) numeric {numeric!r}, closed {closed!r}, target 15/16")


def test_criterion_5_final_stage_entanglement_closed_form(inst15):
    overlaps = ent.closed_form_overlaps(inst15)
    modulus_squared, literal = 1.0 - overlaps.psi3, 1.0 - overlaps.psi3_literal
    ok = abs(modulus_squared - 0.9876) <= 1e-3 and abs(literal - 0.9876) <= 1e-3
    check(
        5,
        ok,
        f"E_g(psi3) modulus-squared reading {modulus_squared!r} (canonical), "
        f"literal reading {literal!r}, both vs printed 0.9876",
    )


def test_criterion_6_geometric_coherence_variation(inst15):
    overlaps = ent.closed_form_overlaps(inst15)
    c_g = theorems.algorithm_variations(2048, 4, 1.0, 2.0, overlaps)["C_g"]
    target = 1.0 / 2048.0 - 1.0 / 16.0
    additive = abs(c_g["U"] + c_g["F_dagger"] - c_g["total"]) <= 1e-9
    ok = abs(c_g["total"] - target) <= 1e-12 and abs(c_g["total"] + 0.062) <= 1e-3
    check(6, ok and additive, f"dC_g = {c_g['total']!r} vs -0.062, additivity {additive}")


def test_criterion_7_alpha_peak():
    peak = oracles.find_alpha_peak(4, window=(1.0, 2.0), step=1e-4)
    ok = abs(peak.alpha - 1.629) <= 5e-3
    check(7, ok, f"alpha* = {peak.alpha!r} vs printed 1.629")


def test_criterion_8_end_to_end_factoring(tmp_path):
    out = tmp_path / "factor.json"
    code = main(
        ["factor", "--n", "15", "--x", "7", "--t", "11", "--seed", "3",
         "--max-attempts", "10", "--out", str(out)]
    )
    payload = json.loads(out.read_text())
    ok = code == 0 and payload["factors"] == [3, 5] and len(payload["attempts"]) <= 10
    check(8, ok, f"factors {payload['factors']} in {len(payload['attempts'])} seeded attempts")


def test_criterion_9_stage_equivalence(inst15, pipeline15):
    psi1, psi2 = (oracles.to_dense(state) for state in pipeline15[:2])
    worst = 0.0
    for p in P_GRID:
        closed = theorems.coherence_closed_forms(2048, p, 1.0)[0]
        for amps in (psi1, psi2):
            worst = max(worst, abs(oracles.l1p_coherence_pure(amps, p) - closed))
        worst = max(
            worst,
            abs(oracles.l1p_coherence_pure(psi1, p) - oracles.l1p_coherence_pure(psi2, p)),
        )
    for alpha in ALPHA_GRID:
        closed = theorems.coherence_closed_forms(2048, 1.0, alpha)[1]
        for amps in (psi1, psi2):
            worst = max(worst, abs(oracles.tsallis_coherence_pure(amps, alpha) - closed))
        worst = max(
            worst,
            abs(
                oracles.tsallis_coherence_pure(psi1, alpha)
                - oracles.tsallis_coherence_pure(psi2, alpha)
            ),
        )
    for state in pipeline15[:2]:
        numeric = oracles.geometric_coherence_pure(state)
        worst = max(worst, abs(numeric - (1.0 - 1.0 / 2048.0)))
    ok = worst <= 1e-9
    check(9, ok, f"stage-1/stage-2 coherence identities, worst gap {worst:.3e}")


def test_criterion_10_outcome_distribution_identities(pipeline15):
    worst_sum = 0.0
    for r, q in ((4, 2048), (3, 64), (5, 128)):
        # outcome_probability raises if its two evaluation routes differ by > 1e-9
        total = sum(outcome_probability(k, r, q) for k in range(q))
        worst_sum = max(worst_sum, abs(total - 1.0))
    # N=15 x=7 has r=4 | Q; N=21 x=2 has r=6, which does not divide Q=1024
    worst_dist = 0.0
    inst21 = make_instance(21, 2, t=10)
    for psi3, r, q in ((pipeline15[2], 4, 2048), (tuple(run_order_finding_circuit(inst21))[2], 6, 1024)):
        simulated = measurement_probabilities_A(psi3)
        closed = statevec._outcome_probabilities(r, q)
        worst_dist = max(worst_dist, float(np.abs(simulated - closed).max()))
    ok = inst21.m is None and worst_sum <= 1e-9 and worst_dist <= 1e-9
    check(
        10,
        ok,
        "dual-path agreement on (4,2048), (3,64), (5,128); "
        f"worst normalization gap {worst_sum:.3e}, "
        f"worst simulated-vs-closed gap {worst_dist:.3e} on N=15 t=11 and N=21 t=10",
    )


def test_criterion_11_oracle_equivalence():
    rng = np.random.default_rng(2718)
    worst = 0.0
    dims = (2, 4, 8, 16, 64)
    for dim in dims:
        for _ in range(20):  # 5 dims x 20 states = 100 random pure states
            vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            vec /= np.linalg.norm(vec)
            rho = oracles.pure_density(vec)
            for p in (1.0, 1.5, 2.0):
                worst = max(
                    worst,
                    abs(
                        oracles.l1p_coherence_pure(vec, p)
                        - oracles.l1p_coherence_density(rho, p)
                    ),
                )
            for alpha in (0.3, 0.5, 1.5, 2.0):
                worst = max(
                    worst,
                    abs(
                        oracles.tsallis_coherence_pure(vec, alpha)
                        - oracles.tsallis_coherence_density(rho, alpha)
                    ),
                )
            worst = max(
                worst,
                abs(
                    oracles.tsallis_coherence_pure(vec, 0.5)
                    - 2.0 * oracles.skew_info_coherence(rho)
                ),
            )
    continuity = 0.0
    for dim in (2, 4, 8, 16):
        vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        vec /= np.linalg.norm(vec)
        rho = oracles.pure_density(vec)
        target = math.log(2.0) * oracles.relative_entropy_coherence(rho)
        for alpha in (1.0 - 1e-4, 1.0 + 1e-4):
            continuity = max(
                continuity, abs(oracles.tsallis_coherence_pure(vec, alpha) - target)
            )
    ok = worst <= 1e-9 and continuity <= 1e-3
    check(
        11,
        ok,
        f"pure-vs-density worst gap {worst:.3e}; alpha->1 continuity gap {continuity:.3e}",
    )


def test_criterion_12_property_suite():
    rng = np.random.default_rng(314)
    ordering_ok = True
    for lay in (RegisterLayout(t=1, L=1), RegisterLayout(t=2, L=1)):
        for _ in range(8):
            vec = rng.standard_normal(lay.dim) + 1j * rng.standard_normal(lay.dim)
            state = oracles.from_dense(lay, vec / np.linalg.norm(vec))
            sym = oracles.symmetric_optimum(state).entanglement
            brute = oracles.bruteforce_geometric_entanglement(state)
            ordering_ok = ordering_ok and sym >= brute - 1e-12
    lay15 = RegisterLayout(t=11, L=4)
    weight_gap = 0.0
    for w in range(16):
        vec = np.zeros(lay15.dim, dtype=complex)
        vec[(1 << w) - 1] = 1.0
        opt = oracles.symmetric_optimum(oracles.from_dense(lay15, vec))
        weight_gap = max(
            weight_gap, abs(math.sqrt(opt.overlap_sq) - ent.hamming_weight_term(w, 15))
        )
    signs_ok = True
    for n, x in ((15, 7), (15, 2), (21, 2)):
        inst = make_instance(n, x)
        overlaps = ent.closed_form_overlaps(inst)
        for p in (1.0, 2.0):
            for alpha in (0.5, 1.5, 2.0):
                ledger = theorems.algorithm_variations(inst.Q, inst.r, p, alpha, overlaps)
                signs_ok = signs_ok and ledger["C_1p"]["total"] < 0
                signs_ok = signs_ok and ledger["C_alpha"]["total"] < 0
                signs_ok = signs_ok and ledger["C_g"]["total"] < 0
                if overlaps is not None:
                    signs_ok = signs_ok and ledger["E_g"]["U"] >= 0
    ok = ordering_ok and weight_gap <= 1e-9 and signs_ok
    check(
        12,
        ok,
        f"subset ordering {ordering_ok}; per-weight maximum identity gap {weight_gap:.3e}; "
        f"variation sign ledger {signs_ok}",
    )


def test_sweep_properties(pipeline15):
    psi1, psi2, psi3 = (oracles.to_dense(s) for s in pipeline15)
    p_grid = np.linspace(1.0, 2.0, 21)
    mono_p = True
    for amps in (psi1, psi2, psi3):
        series = [oracles.l1p_coherence_pure(amps, float(p)) for p in p_grid]
        mono_p = mono_p and all(a > b for a, b in zip(series, series[1:]))
    alpha_grid = [a for a in np.linspace(0.05, 2.0, 40) if abs(a - 1.0) > 1e-6]
    mono_alpha = True
    for amps in (psi1, psi2):
        series = [oracles.tsallis_coherence_pure(amps, float(a)) for a in alpha_grid]
        lower = [v for a, v in zip(alpha_grid, series) if a < 1.0]
        upper = [v for a, v in zip(alpha_grid, series) if a > 1.0]
        mono_alpha = mono_alpha and all(x < y for x, y in zip(lower, lower[1:]))
        mono_alpha = mono_alpha and all(x < y for x, y in zip(upper, upper[1:]))
    upper_alphas = [a for a in alpha_grid if a > 1.0]
    stage3 = [oracles.tsallis_coherence_pure(psi3, float(a)) for a in upper_alphas]
    peak_idx = int(np.argmax(stage3))
    interior_peak = 0 < peak_idx < len(stage3) - 1
    ok = mono_p and mono_alpha and interior_peak
    check(
        "sweep",
        ok,
        f"C_1p decreasing in p {mono_p}; C_alpha increasing for stages 1-2 {mono_alpha}; "
        f"stage-3 interior peak at alpha ~ {upper_alphas[peak_idx]:.3f}",
    )
