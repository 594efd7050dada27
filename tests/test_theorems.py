import ast
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import oracles
from oracles import make_instance
from shormeter import entanglement as ent
from shormeter import run_order_finding_circuit, theorems


def overlaps_for(inst):
    return ent.closed_form_overlaps(inst)


def test_closed_forms_psi1_values():
    c_1p, _, c_g = theorems.coherence_closed_forms(2048, 1.0, 2.0)
    assert c_1p == pytest.approx(2047.0, rel=1e-12)
    assert c_g == pytest.approx(1 - 1 / 2048, abs=1e-12)
    assert c_g == pytest.approx(0.9995, abs=5e-5)
    assert theorems.coherence_closed_forms(2048, 2.0, 0.5)[0] == pytest.approx(math.sqrt(2047))


def test_closed_forms_psi3_values():
    c_1p, c_alpha, c_g = theorems.coherence_closed_forms(4 * 4, 1.0, 2.0)
    assert c_1p == pytest.approx(15.0, rel=1e-12)
    assert c_g == pytest.approx(0.9375, abs=1e-12)
    assert c_alpha == pytest.approx(3.0, abs=1e-12)  # (16**(1/2) - 1) / 1


def test_coherence_closed_forms_trivial_order():
    # r = 1: the post-transform state is a basis state, D = r**2 = 1
    assert theorems.coherence_closed_forms(1, 1.5, 0.5) == (0.0, 0.0, 0.0)


def test_tsallis_closed_limit():
    assert theorems.tsallis_closed(2048.0, 1.0) == pytest.approx(math.log(2048))
    near = theorems.tsallis_closed(2048.0, 1.0 + 1e-4)
    assert abs(near - math.log(2048)) < 1e-2


def test_operator_variations_values(inst15):
    ledger = theorems.algorithm_variations(2048, 4, 1.0, 2.0, overlaps_for(inst15))
    assert ledger["C_1p"]["U"] == 0.0 and ledger["C_alpha"]["U"] == 0.0
    assert ledger["C_g"]["U"] == 0.0
    assert ledger["C_g"]["F_dagger"] == pytest.approx(1 / 2048 - 1 / 16, abs=1e-12)
    assert ledger["C_g"]["F_dagger"] == pytest.approx(-0.062, abs=1e-3)
    assert ledger["E_g"]["U"] == pytest.approx(0.8445, abs=1e-3)
    assert ledger["E_g"]["total_modulus_squared"] == pytest.approx(0.9876, abs=1e-3)


def test_variations_without_table():
    ledger = theorems.algorithm_variations(8192, 6, 1.5, 1.5)
    assert ledger["E_g"]["U"] is None
    assert ledger["E_g"]["total_modulus_squared"] is None
    assert ledger["C_1p"]["F_dagger"] < 0


def test_algorithm_variations_additivity_and_signs(inst15):
    overlaps = overlaps_for(inst15)
    for p in theorems.P_GRID_DEFAULT:
        for alpha in theorems.ALPHA_GRID_DEFAULT:
            ledger = theorems.algorithm_variations(2048, 4, p, alpha, overlaps)
            c_1p = ledger["C_1p"]
            assert c_1p["total"] == pytest.approx(c_1p["U"] + c_1p["F_dagger"], abs=1e-9)
            assert ledger["C_1p"]["total"] < 0
            assert ledger["C_alpha"]["total"] < 0
            assert ledger["C_g"]["total"] < 0
            assert ledger["E_g"]["U"] >= 0
    ledger = theorems.algorithm_variations(2048, 4, 1.0, 2.0, overlaps)
    assert ledger["C_1p"]["total"] == pytest.approx(15 - 2047, rel=1e-12)
    signs = ledger["signs"]
    assert signs["dC1p"] == signs["dCalpha"] == signs["dCg"] == "negative"
    assert signs["dEg_U"] == "positive"


def test_sign_ledger_across_instance_matrix():
    for n, x in ((15, 7), (15, 2), (21, 2)):
        inst = make_instance(n, x)
        overlaps = overlaps_for(inst) if inst.m is not None else None
        assert inst.Q >= inst.r**2
        ledger = theorems.algorithm_variations(inst.Q, inst.r, 1.0, 1.5, overlaps)
        assert ledger["C_1p"]["total"] < 0
        assert ledger["C_alpha"]["total"] < 0
        assert ledger["C_g"]["total"] < 0
        if overlaps is not None:
            assert ledger["E_g"]["U"] >= 0


def test_verify_stage_psi1_and_psi2(inst15, pipeline15):
    reports, _ = theorems.verify_all(inst15, pipeline15)
    for stage in ("psi1", "psi2"):
        report = reports[stage]
        assert report["pass"] is True
        gated = [row for rows in report["measures"].values() for row in rows if row["gated"]]
        assert gated and all(row["gap"] <= 1e-9 for row in gated)


def test_verify_stage_psi3(inst15, pipeline15):
    report = theorems.verify_all(inst15, pipeline15)[0]["psi3"]
    assert report["pass"] is True
    (cg_row,) = report["measures"]["C_g"]
    assert cg_row["numeric"] == pytest.approx(0.9375, abs=1e-12)
    (eg_row,) = report["measures"]["E_g"]
    assert not eg_row["gated"]
    assert eg_row["closed_form"] == pytest.approx(0.9876, abs=1e-3)
    assert "closed_form_literal" in eg_row["details"]


def test_verify_reports_eg_details_per_stage(inst15, pipeline15):
    reports, _ = theorems.verify_all(inst15, pipeline15)
    rows = {stage: reports[stage]["measures"]["E_g"][0] for stage in theorems.STAGES}
    assert rows["psi1"]["closed_form"] == 0.0
    # the single-angle restricted value is far from zero and stays visible
    assert rows["psi1"]["numeric"] > 0.9
    ansatz = {"ansatz_alpha", "ansatz_overlap_sq"}
    # r | Q here, so the literal reading is reported on psi3, and only there
    assert inst15.Q % inst15.r == 0
    assert set(rows["psi1"]["details"]) == ansatz
    assert set(rows["psi2"]["details"]) == ansatz
    assert set(rows["psi3"]["details"]) == ansatz | {"closed_form_literal"}


def test_verify_all_consistency(inst15, pipeline15):
    reports, overlaps = theorems.verify_all(inst15, pipeline15)
    assert overlaps == overlaps_for(inst15)
    assert set(reports) == {"psi1", "psi2", "psi3"}
    assert all(reports[stage]["pass"] for stage in reports)
    assert [reports[stage]["stage"] for stage in reports] == ["psi1", "psi2", "psi3"]
    assert reports["psi1"]["measures"]["C_1p"][0]["pass"] is True


def test_verify_handles_non_divisible_order():
    inst = make_instance(21, 2)
    reports, overlaps = theorems.verify_all(inst, run_order_finding_circuit(inst))
    assert overlaps is None
    assert all(reports[stage]["pass"] for stage in ("psi1", "psi2"))
    psi3 = [row for rows in reports["psi3"]["measures"].values() for row in rows]
    assert reports["psi3"]["pass"] is True  # nothing gated at this stage
    assert all(not row["gated"] for row in psi3)
    assert all("not applicable" in row["note"] for row in psi3)


def test_stage_table_when_the_order_exceeds_q():
    # N=15 x=7 t=1: r = 4 > Q = 2, so psi3 has no closed form at all
    inst = make_instance(15, 7, t=1)
    assert inst.r > inst.Q
    reports, overlaps = theorems.verify_all(inst, run_order_finding_circuit(inst))
    assert overlaps is None
    for stage in ("psi1", "psi2"):
        assert reports[stage]["pass"] is True
        coherence = [row for name, rows in reports[stage]["measures"].items()
                     if name != "E_g" for row in rows]
        assert all(row["gated"] and row["pass"] for row in coherence)
    (eg_row,) = reports["psi2"]["measures"]["E_g"]
    assert eg_row["closed_form"] is None and "not applicable" in eg_row["note"]
    psi3 = [row for rows in reports["psi3"]["measures"].values() for row in rows]
    assert reports["psi3"]["pass"] is True
    assert all(not row["gated"] and row["closed_form"] is None for row in psi3)
    assert all("not applicable" in row["note"] for row in psi3)


def test_find_alpha_peak_location():
    peak = oracles.find_alpha_peak(4)
    assert peak.alpha == pytest.approx(1.629, abs=5e-3)
    assert not peak.degenerate


def test_find_alpha_peak_degenerate():
    peak = oracles.find_alpha_peak(1)
    assert peak.degenerate
    assert peak.value == 0.0


def test_tsallis_monotone_below_one():
    alphas = np.arange(0.05, 1.0, 0.05)
    values = [theorems.tsallis_closed(16.0, a) for a in alphas]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_stage1_dominates_stage3_pointwise():
    for alpha in (0.3, 0.5, 0.9, 1.1, 1.5, 2.0):
        assert theorems.tsallis_closed(2048.0, alpha) > theorems.tsallis_closed(16.0, alpha)


def test_variations_at_q_equal_r_squared_have_zero_coherence_steps():
    # N=3 x=2 t=2: r = 2, so the transform keeps D = Q = r**2 = 4
    ledger = theorems.algorithm_variations(4, 2, 1.0, 2.0)
    assert ledger["C_1p"]["total"] == ledger["C_alpha"]["total"] == ledger["C_g"]["total"] == 0.0
    assert ledger["signs"]["dCg"] == "zero"


def test_variation_checks_raise_arithmetic_error(monkeypatch):
    # a transform step that raised coherence would contradict the Q >= r**2 signs
    closed = theorems.coherence_closed_forms
    monkeypatch.setattr(
        theorems,
        "coherence_closed_forms",
        lambda d, p, alpha: closed(2**20 if d == 4 * 4 else d, p, alpha),
    )
    with pytest.raises(ArithmeticError, match="not all negative"):
        theorems.algorithm_variations(2048, 4, 1.0, 2.0)


def test_variation_checks_survive_python_optimize(tmp_path):
    # python -O strips assert statements; the ledger checks must still raise,
    # and a perturbed verify must still fail its gates with the golden bytes
    script = textwrap.dedent(
        """
        import sys

        from shormeter import cli, theorems

        if __debug__:
            raise SystemExit("not running under python -O")
        closed = theorems.coherence_closed_forms
        theorems.coherence_closed_forms = lambda d, p, alpha: closed(
            2**20 if d == 4 * 4 else d, p, alpha
        )
        try:
            theorems.algorithm_variations(2048, 4, 1.0, 2.0)
        except ArithmeticError as exc:
            print(f"ArithmeticError: {exc}")
        print(f"verify exit {cli.main(sys.argv[1:])}")
        """
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    out = tmp_path / "verify.json"
    argv = ["verify", "--n", "21", "--x", "2", "--t", "10", "--debug-perturb", "1e-3"]
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script, *argv, "--out", str(out)],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("ArithmeticError: transform-step coherence deltas")
    assert "not all negative" in proc.stdout
    assert proc.stdout.endswith("\nverify exit 1\n")
    golden = Path(__file__).resolve().parent / "data" / "golden" / "verify_perturb_n21_x2_t10.json"
    assert out.read_bytes() == golden.read_bytes()


def test_library_has_no_bare_assert():
    # python -O strips assert statements, so no check in the library may be one
    src = Path(__file__).resolve().parents[1] / "src" / "shormeter"
    files = sorted(src.glob("*.py"))
    assert files
    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
