import csv
import io
import json
import math
import tracemalloc

import pytest

from shormeter import entanglement as ent
from shormeter.cli import ConfigError, build_parser, main, resolve_config


def run_to_file(tmp_path, name, argv):
    out = tmp_path / name
    code = main(argv + ["--out", str(out)])
    return code, out.read_bytes()


def test_simulate_reports_reference_values(tmp_path):
    code, raw = run_to_file(
        tmp_path, "sim.json", ["simulate", "--n", "15", "--x", "7", "--t", "11"]
    )
    assert code == 0
    payload = json.loads(raw)
    assert payload["pass"] is True
    assert payload["order"] == 4
    stages = payload["stages"]
    cg1 = stages["psi1"]["measures"]["C_g"][0]["numeric"]
    assert cg1 == pytest.approx(0.9995, abs=5e-5)
    eg2 = stages["psi2"]["measures"]["E_g"][0]["closed_form"]
    assert eg2 == pytest.approx(0.8445, abs=1e-3)
    cg3 = stages["psi3"]["measures"]["C_g"][0]["numeric"]
    assert cg3 == pytest.approx(0.9375, abs=1e-12)
    eg3 = stages["psi3"]["measures"]["E_g"][0]["closed_form"]
    assert eg3 == pytest.approx(0.9876, abs=1e-3)
    variations = payload["variations"]
    assert variations["C_g"]["total"] == pytest.approx(-0.062, abs=1e-3)
    assert variations["E_g"]["total_modulus_squared"] == pytest.approx(0.9876, abs=1e-3)
    assert payload["factor_hint"] == [3, 5]


def test_simulate_deterministic_bytes(tmp_path):
    argv = ["simulate", "--n", "15", "--x", "7", "--t", "11", "--seed", "1"]
    _, first = run_to_file(tmp_path, "a.json", argv)
    _, second = run_to_file(tmp_path, "b.json", argv)
    assert first == second


def test_simulate_csv_round_trip(tmp_path):
    code, raw = run_to_file(
        tmp_path,
        "sim.csv",
        ["simulate", "--n", "15", "--x", "7", "--t", "11", "--format", "csv"],
    )
    assert code == 0
    lines = raw.decode().strip().splitlines()
    header = lines[0].split(",")
    assert header[:4] == ["stage", "measure", "param", "numeric"]
    import shormeter.measures as measures
    from shormeter import make_instance, run_order_finding_circuit

    psi1 = run_order_finding_circuit(make_instance(15, 7))[0]
    expected = measures.l1p_coherence_pure(psi1.amplitudes, 1.0)
    row = next(l for l in lines[1:] if l.startswith("psi1,C_1p,1,"))
    numeric = float(row.split(",")[3])
    assert numeric == expected  # 17 significant digits round-trip exactly
    # notes may hold commas ("reported, not gated"); the csv module quotes them
    _, report = run_to_file(
        tmp_path, "sim.json", ["simulate", "--n", "15", "--x", "7", "--t", "11"]
    )
    stages = json.loads(report)["stages"]
    expected_notes = {
        (stage, measure): [entry["note"] for entry in entries]
        for stage in stages
        for measure, entries in stages[stage]["measures"].items()
    }
    rows = list(csv.reader(io.StringIO(raw.decode())))
    assert all(len(r) == len(header) for r in rows)
    notes: dict = {}
    for r in rows[1:]:
        notes.setdefault((r[0], r[1]), []).append(r[-1])
    assert notes == expected_notes
    assert any("," in note for group in notes.values() for note in group)


def test_simulate_non_divisible_order_warns_but_passes(tmp_path):
    code, raw = run_to_file(tmp_path, "n21.json", ["simulate", "--n", "21", "--x", "2"])
    assert code == 0
    payload = json.loads(raw)
    assert "warning" in payload
    assert payload["stages"]["psi3"]["measures"]["C_1p"][0]["closed_form"] is None


def test_simulate_order_two_factor_hint(tmp_path):
    code, raw = run_to_file(tmp_path, "x4.json", ["simulate", "--n", "15", "--x", "4"])
    assert code == 0
    assert json.loads(raw)["factor_hint"] == [3, 5]


def test_sweep_tsallis_curves(tmp_path):
    code, raw = run_to_file(
        tmp_path,
        "sweep.csv",
        ["sweep", "--n", "15", "--x", "7", "--t", "11", "--measure", "tsallis"],
    )
    assert code == 0
    lines = raw.decode().strip().splitlines()
    assert lines[0] == "param,C_psi1,C_psi2,C_psi3,delta,limit_flag"
    rows = [line.split(",") for line in lines[1:]]
    params = [float(r[0]) for r in rows]
    c1 = [float(r[1]) for r in rows]
    c2 = [float(r[2]) for r in rows]
    c3 = [float(r[3]) for r in rows]
    deltas = [float(r[4]) for r in rows]
    flags = [int(r[5]) for r in rows]
    assert all(abs(d - (b - a)) < 1e-12 for a, b, d in zip(c1, c3, deltas))
    assert all(abs(a - b) < 1e-9 for a, b in zip(c1, c2))
    limit_rows = [p for p, f in zip(params, flags) if f]
    assert limit_rows and all(abs(p - 1.0) <= 1e-6 for p in limit_rows)
    # inside (1, 2] the final-stage coherence peaks strictly between the edges
    upper = [(p, v) for p, v in zip(params, c3) if 1.0 + 1e-6 < p <= 2.0]
    peak_param = max(upper, key=lambda pv: pv[1])[0]
    assert 1.5 < peak_param < 1.75


def test_sweep_l1p_endpoints(tmp_path):
    code, raw = run_to_file(
        tmp_path,
        "l1p.csv",
        ["sweep", "--n", "15", "--x", "7", "--t", "11", "--measure", "l1p",
         "--grid", "1.0:2.0:0.25"],
    )
    assert code == 0
    rows = [line.split(",") for line in raw.decode().strip().splitlines()[1:]]
    by_param = {float(r[0]): [float(v) for v in r[1:5]] for r in rows}
    assert by_param[1.0][2] == pytest.approx(15.0, abs=1e-9)
    assert by_param[2.0][2] == pytest.approx(math.sqrt(15.0), abs=1e-9)
    # monotone decrease in p for every stage
    params = sorted(by_param)
    for col in range(3):
        series = [by_param[p][col] for p in params]
        assert all(a > b for a, b in zip(series, series[1:]))


def test_factor_reference_run(tmp_path):
    code, raw = run_to_file(
        tmp_path, "factor.json",
        ["factor", "--n", "15", "--x", "7", "--t", "11", "--seed", "3"],
    )
    assert code == 0
    payload = json.loads(raw)
    assert payload["success"] is True
    assert payload["factors"] == [3, 5]
    assert len(payload["attempts"]) <= 10


def test_factor_fast_path_matches_success(tmp_path):
    argv = ["factor", "--n", "15", "--x", "7", "--t", "11", "--seed", "3", "--fast"]
    code, raw = run_to_file(tmp_path, "fast.json", argv)
    assert code == 0
    assert json.loads(raw)["factors"] == [3, 5]
    _, again = run_to_file(tmp_path, "fast2.json", argv)
    assert raw == again


def test_factor_method_inapplicable_base(tmp_path):
    # 14 = -1 mod 15 has order 2 and 14**1 = -1: the even-order trick never fires
    code, raw = run_to_file(
        tmp_path, "x14.json", ["factor", "--n", "15", "--x", "14", "--seed", "0"]
    )
    assert code == 1
    payload = json.loads(raw)
    assert payload["success"] is False
    assert "note" in payload


def test_factor_rejects_max_attempts_below_one(capsys):
    for bad in ("0", "-3"):
        code = main(["factor", "--n", "15", "--x", "7", "--max-attempts", bad, "--fast"])
        assert code == 2
        assert f"--max-attempts must be >= 1, got {bad}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_run_builds_weight_table_once(tmp_path, monkeypatch, command):
    calls = {name: 0 for name in ("build_hamming_table", "weight_sum_ab", "weight_sum_as")}

    def counting(name):
        original = getattr(ent, name)

        def counted(*args):
            calls[name] += 1
            return original(*args)

        return counted

    for name in calls:
        monkeypatch.setattr(ent, name, counting(name))
    code, _ = run_to_file(tmp_path, "run.json", [command, "--n", "15", "--x", "7", "--t", "8"])
    assert code == 0
    # the table and both weight sums are computed once and shared by every E_g entry
    assert calls == {"build_hamming_table": 1, "weight_sum_ab": 1, "weight_sum_as": 1}


def test_verify_passes(tmp_path):
    code, raw = run_to_file(
        tmp_path, "verify.json", ["verify", "--n", "15", "--x", "7", "--t", "11"]
    )
    assert code == 0
    assert json.loads(raw)["pass"] is True


def test_verify_debug_perturbation_fails(tmp_path):
    code, raw = run_to_file(
        tmp_path,
        "perturbed.json",
        ["verify", "--n", "15", "--x", "7", "--t", "11", "--debug-perturb", "1e-3"],
    )
    assert code == 1
    payload = json.loads(raw)
    assert payload["pass"] is False
    gaps = [
        row["gap"]
        for row in payload["stages"]["psi1"]["measures"]["C_g"]
        if row["gap"] is not None
    ]
    assert gaps and max(gaps) > 1e-9


def test_shared_factor_is_config_error(capsys):
    assert main(["simulate", "--n", "15", "--x", "5"]) == 2
    assert "factor" in capsys.readouterr().err


def test_bad_grid_is_config_error():
    assert main(["sweep", "--n", "15", "--x", "7", "--grid", "nonsense"]) == 2


def test_unknown_flag_exits_two():
    with pytest.raises(SystemExit) as err:
        main(["simulate", "--bogus"])
    assert err.value.code == 2


def test_random_coprime_resolution_deterministic(tmp_path):
    argv = ["factor", "--n", "15", "--seed", "5", "--fast"]
    _, first = run_to_file(tmp_path, "r1.json", argv)
    _, second = run_to_file(tmp_path, "r2.json", argv)
    assert first == second
    x = json.loads(first)["config"]["x"]
    assert 1 < x < 15 and math.gcd(x, 15) == 1


@pytest.mark.parametrize(
    "argv, need",
    [
        (["simulate", "--n", "15", "--x", "7", "--t", "40"], 16 * 2**44),
        (["factor", "--n", "15", "--x", "7", "--t", "40", "--fast"], 8 * 2**40),
    ],
)
def test_oversized_config_exits_two_before_allocating(capsys, argv, need):
    tracemalloc.start()
    try:
        code = main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert f"needs {need} bytes" in capsys.readouterr().err
    assert peak < 2**20


def test_memory_budget_admits_24_qubit_dense_states():
    def resolve(t):
        args = build_parser().parse_args(["verify", "--n", "15", "--x", "7", "--t", str(t)])
        return resolve_config(args)

    cfg = resolve(20)
    assert cfg.t + cfg.L == 24
    with pytest.raises(ConfigError, match="25 qubits needs 536870912 bytes"):
        resolve(21)
