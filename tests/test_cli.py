import contextlib
import csv
import io
import json
import math
import os
import tempfile
import tracemalloc
import weakref
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cli_digest
from oracles import make_instance
from shormeter import entanglement as ent
from shormeter import statevec
from shormeter.cli import (
    FAST_BYTES_PER_OUTCOME,
    MAX_ATTEMPTS,
    ConfigError,
    _quoted,
    build_parser,
    main,
    resolve_config,
)


def reject_constant(token):
    raise ValueError(f"non-finite JSON constant {token}")


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
    from shormeter import run_order_finding_circuit, statevec

    psi1 = tuple(run_order_finding_circuit(make_instance(15, 7)))[0]
    expected = measures.l1p_coherence_grid(psi1, (1.0,))[0]
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


def test_factor_rejects_max_attempts_above_the_bound_before_the_order_search(
    capsys, monkeypatch
):
    import shormeter.numtheory

    def no_search(*args):
        raise AssertionError("the order search ran")

    monkeypatch.setattr(shormeter.numtheory, "find_order_bruteforce", no_search)
    bad = MAX_ATTEMPTS + 1
    for fast in ([], ["--fast"]):
        code = main(["factor", "--n", "15", "--x", "7", "--max-attempts", str(bad)] + fast)
        assert code == 2
        assert f"--max-attempts must be <= {MAX_ATTEMPTS}, got {bad}" in capsys.readouterr().err


@pytest.mark.parametrize("command, code", [("sweep", 0), ("factor", 1)])
def test_commands_that_never_read_the_order_run_no_search(tmp_path, monkeypatch, command, code):
    # sweep and dense factor never read the order, so the instance never searches for it
    import shormeter.numtheory

    argv = [command, "--n", "49", "--x", "3", "--t", "10"]
    expected = run_to_file(tmp_path, "free.out", argv)
    assert expected[0] == code

    def no_search(*args):
        raise AssertionError("the order search ran")

    monkeypatch.setattr(shormeter.numtheory, "find_order_bruteforce", no_search)
    assert run_to_file(tmp_path, "patched.out", argv) == expected


def test_factor_admits_max_attempts_at_the_bound(capsys):
    argv = ["factor", "--n", "15", "--x", "7", "--t", "8", "--fast"]
    assert main(argv + ["--max-attempts", str(MAX_ATTEMPTS)]) == 0
    assert json.loads(capsys.readouterr().out)["max_attempts"] == MAX_ATTEMPTS


@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_run_builds_weight_table_once(tmp_path, monkeypatch, command):
    calls = {name: 0 for name in ("closed_form_overlaps", "hamming_weight_term")}

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
    # the overlaps are computed once and shared by every E_g entry, from one
    # evaluation of each of the n + 1 = 13 per-weight maxima
    assert calls == {"closed_form_overlaps": 1, "hamming_weight_term": 13}


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


@pytest.mark.parametrize("eps", ["nan", "inf", "-inf", "1e300"])
def test_non_finite_or_overflowing_debug_perturb_is_config_error(eps, capsys):
    argv = ["verify", "--n", "15", "--x", "7", "--t", "8", f"--debug-perturb={eps}"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and "--debug-perturb" in err


def test_debug_perturb_that_zeroes_the_peak_still_reports(tmp_path):
    argv = ["verify", "--n", "15", "--x", "7", "--t", "8", "--debug-perturb=-1"]
    code, raw = run_to_file(tmp_path, "zeroed.json", argv)
    assert code == 1
    assert json.loads(raw, parse_constant=reject_constant)["pass"] is False


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--n", "15"],
        ["simulate", "--n", "15", "--x", "7"],
        ["factor", "--n", "15", "--x", "7"],
        ["sweep", "--n", "15"],
    ],
)
def test_negative_seed_is_config_error(argv, capsys):
    assert main(argv + ["--t", "4", "--seed", "-1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: --seed must be >= 0, got -1\n"


def test_unwritable_out_is_config_error(tmp_path, capsys):
    out = tmp_path / "missing" / "x.json"
    argv = ["simulate", "--n", "15", "--x", "7", "--t", "8", "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"error: cannot write --out {_quoted(str(out))}: No such file or directory\n"
    assert not out.parent.exists()


@pytest.mark.parametrize(
    "argv, err",
    [
        (
            ["verify", "--n", "15", "--epsilon", "zz"],
            "usage: shormeter verify [-h] --n N [--x X] [--t T] [--epsilon EPSILON]\n"
            "                        [--seed SEED] [--out OUT]\n"
            "                        [--debug-perturb DEBUG_PERTURB]\n"
            "shormeter verify: error: argument --epsilon: invalid float value: 'zz'\n",
        ),
        (
            ["simulate", "--n", "15", "--format", "zz"],
            "usage: shormeter simulate [-h] --n N [--x X] [--t T] [--epsilon EPSILON]\n"
            "                          [--seed SEED] [--out OUT] [--format {json,csv}]\n"
            "shormeter simulate: error: argument --format: invalid choice: 'zz' "
            "(choose from 'json', 'csv')\n",
        ),
        (
            ["simulate", "--n", "15", "--x", "7", "--t", "8", "--out", "/nonexistent/x"],
            "error: cannot write --out '/nonexistent/x': No such file or directory\n",
        ),
    ],
    ids=["epsilon", "format", "out"],
)
def test_short_bad_values_are_quoted_in_full(capsys, monkeypatch, argv, err):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage to the terminal
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    assert capsys.readouterr().err == err


@pytest.mark.parametrize(
    "measure, grid, domain",
    [
        ("l1p", "3:4:1", "p in [1, 2]"),
        ("l1p", "0:0.5:0.25", "p in [1, 2]"),
        ("tsallis", "3:4:1", "alpha in (0, 2]"),
        ("tsallis", "-1:0:0.5", "alpha in (0, 2]"),
    ],
)
def test_grid_outside_the_measure_domain_is_config_error(measure, grid, domain, capsys):
    argv = ["sweep", "--n", "15", "--x", "7", "--t", "4", "--measure", measure, f"--grid={grid}"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: grid {grid!r} has no point with {domain}\n"


def test_grid_partly_outside_the_domain_keeps_its_inside_points(capsys):
    argv = ["sweep", "--n", "15", "--x", "7", "--t", "4", "--measure", "l1p", "--grid=0:1.5:0.5"]
    assert main(argv) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert [row["param"] for row in rows] == ["1", "1.5"]


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
        (["factor", "--n", "15", "--x", "7", "--t", "40", "--fast"], 33 * 2**40),
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


@pytest.mark.parametrize(
    "argv",
    [
        ["--t", "2000"],
        ["--t", "1000000000"],
        ["--t", "100000000000"],
        ["--n", str(10**4000 + 1), "--x", "3"],
        ["--epsilon", "5e-324"],
    ],
    ids=["t2000", "t1e9", "t1e11", "n1e4000", "epsilon5e-324"],
)
def test_oversized_register_request_exits_two_with_one_short_line(capsys, argv):
    # the charge is sized from its exponents before any 2**t is built, so
    # none of these reaches the int-to-str limit, the allocation or the
    # float overflow that once ended it in a traceback, nor prints a count
    # of 600 digits
    argv = ["verify", "--n", "15", "--x", "7"] + argv
    tracemalloc.start()
    try:
        code = main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and len(err) < 200
    assert peak < 2**20


@pytest.mark.parametrize(
    "argv",
    [
        ["factor", "--fast", "--t", "1", "--n", str(10**4000 + 1)],
        ["factor", "--fast", "--t", "1", "--n", str(10**4000 + 1), "--x", "3"],
        ["verify", "--n", str(10**4000)],
        ["verify", "--n", "15", "--x", str(10**4000)],
        ["verify", "--n", "15", "--seed", str(-(10**4000))],
        ["factor", "--n", "15", "--max-attempts", str(10**4000)],
        ["verify", "--n", "15", "--t", str(10**4000)],
        ["factor", "--fast", "--n", "15", "--t", str(10**4000)],
    ],
    ids=["base-list", "order-search", "even-n", "x", "seed", "max-attempts", "t", "fast-t"],
)
def test_long_integer_input_exits_two_with_one_short_line(capsys, argv):
    # each message gives such an integer by its digit count, not in full
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and len(err) < 200
    assert "digits>" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--n", "1" * 5001],
        ["verify", "--n", "15", "--x", "1" * 5001],
        ["sweep", "--n", "15", "--x", "7", "--t", "8", "--grid", "1" * 5000],
        ["verify", "--n", "15", "--epsilon", "z" * 5000],
        ["verify", "--n", "15", "--debug-perturb", "z" * 5000],
        ["simulate", "--n", "15", "--format", "z" * 5000],
        ["sweep", "--n", "15", "--measure", "z" * 5000],
        ["simulate", "--n", "15", "--x", "7", "--t", "8", "--out", "/nonexistent/" + "z" * 5000],
    ],
    ids=["n", "x", "grid", "epsilon", "debug-perturb", "format", "measure", "out"],
)
def test_over_long_argument_exits_two_with_short_lines(capsys, argv):
    # int() takes at most 4300 digits, and argparse would echo the rejected
    # text in full; a bad grid spec and an unwritable --out were quoted in
    # full too
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse exits on its own
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err
    assert "characters>" in err
    assert max(len(line.encode()) for line in err.splitlines()) < 200


def test_fast_factor_peaks_below_its_budgeted_bytes():
    # r = 42 and r = 35 do not divide Q, so both geometric-series terms run;
    # odd r = 35 has the period P = Q, where the sin**2 table held in the
    # probabilities' tail overlaps the last outcomes it computes
    for n, x, r in ((129, 5, 42), (213, 100, 35)):
        inst = make_instance(n, x, t=20)
        assert inst.r == r and inst.Q % r != 0
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(["factor", "--fast", "--n", str(n), "--x", str(x), "--t", "20"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code in (0, 1)
        assert peak < FAST_BYTES_PER_OUTCOME * 2**20
        # the passes run in cache-sized windows: the probabilities and their
        # CDF are the only Q-long arrays (four Q-long buffers peaked at
        # 32.1 * Q)
        assert peak < 17 * inst.Q, r


def test_memory_budget_admits_fast_factor_up_to_t_22():
    def resolve(t):
        args = build_parser().parse_args(["factor", "--fast", "--n", "15", "--x", "7", "--t", str(t)])
        return resolve_config(args)

    assert resolve(22).t == 22
    with pytest.raises(ConfigError, match=f"needs {FAST_BYTES_PER_OUTCOME * 2**23} bytes"):
        resolve(23)


def test_budget_is_checked_before_drawing_x(capsys):
    # without --x, every unit below N would be listed before the budget check
    tracemalloc.start()
    try:
        code = main(["simulate", "--n", "1000000007"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert "above the budget" in capsys.readouterr().err
    assert peak < 2**20


def test_base_list_is_budgeted_before_it_is_built(capsys):
    # --fast at t=1 budgets 66 bytes of outcomes; the list of candidate bases
    # below N costs an 8-byte slot and a 32-byte int per candidate
    n = 10_000_000_001
    tracemalloc.start()
    try:
        code = main(["factor", "--fast", "--t", "1", "--n", str(n)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert f"N={n} needs {40 * (n - 2)} bytes, above the budget" in capsys.readouterr().err
    assert peak < 2**20


def test_order_search_is_bounded_before_it_starts(capsys, monkeypatch):
    # with --x no list of bases is built, so the bound on N is what stops a
    # brute-force order search of up to N - 1 steps
    import shormeter.numtheory

    def fail(*args):
        raise AssertionError("the order search ran")

    monkeypatch.setattr(shormeter.numtheory, "find_order_bruteforce", fail)
    code = main(["factor", "--fast", "--t", "1", "--n", "10000000001", "--x", "2"])
    assert code == 2
    assert f"order-search bound of {2**23}" in capsys.readouterr().err


@pytest.mark.parametrize("n, seed, x", [(15, 5, 11), (91, 5, 61), (1001, 3, 813)])
def test_in_budget_random_base_draws_are_pinned(n, seed, x):
    args = build_parser().parse_args(
        ["factor", "--fast", "--t", "1", "--n", str(n), "--seed", str(seed)]
    )
    assert resolve_config(args).x == x


@pytest.mark.parametrize(
    "grid", ["nan:2:0.5", "0.5:inf:0.5", "1:2:inf", "-1e308:1e308:1", "0.05:2:1e-300"]
)
def test_non_finite_or_oversized_grid_is_config_error(grid, capsys):
    assert main(["sweep", "--n", "15", "--x", "7", "--t", "4", f"--grid={grid}"]) == 2
    assert "grid" in capsys.readouterr().err


GRID_VALUES = ("-1", "0", "0.05", "1", "1.5", "2", "3", "nan", "inf", "-inf")
GRID_STEPS = ("0.05", "0.5", "1", "0", "-0.1", "1e-300", "nan", "inf")


@settings(max_examples=30, deadline=None)
@given(
    command=st.sampled_from(["simulate", "verify", "sweep", "factor", "factor --fast"]),
    n=st.one_of(
        st.integers(-2, 31).map(lambda k: 2 * k + 1), st.sampled_from([2**61 + 1, 10**4000 + 1])
    ),
    t=st.one_of(st.integers(-1, 10), st.sampled_from([63, 2000, 10**9, 10**11])),
    epsilon=st.sampled_from(["0.25", "1e-300", "5e-324", "0", "1", "nan"]),
    x=st.one_of(st.none(), st.integers(-1, 65)),
    seed=st.integers(-2, 3),
    max_attempts=st.one_of(st.integers(-1, 3), st.integers(MAX_ATTEMPTS + 1, 10**12)),
    grid=st.one_of(
        st.none(),
        st.sampled_from(["nonsense", "1:2", "1:2:3:4", ""]),
        st.builds(
            ":".join,
            st.tuples(
                st.sampled_from(GRID_VALUES),
                st.sampled_from(GRID_VALUES),
                st.sampled_from(GRID_STEPS),
            ),
        ),
    ),
    measure=st.sampled_from(["tsallis", "l1p"]),
    debug_perturb=st.sampled_from(["0", "1e-3", "-1", "nan", "inf", "1e300"]),
    out=st.sampled_from([None, "out.txt", os.path.join("missing", "out.txt")]),
)
# one pinned example per input that once escaped main as an exception or a NaN
@example("simulate", 15, 4, "0.25", None, -1, 1, None, "l1p", "0", None)
@example("factor", 15, 4, "0.25", 7, -2, 1, None, "l1p", "0", None)
@example("verify", 15, 4, "0.25", 7, 0, 1, None, "l1p", "nan", None)
@example("verify", 15, 4, "0.25", 7, 0, 1, None, "l1p", "1e300", None)
@example("simulate", 15, 4, "0.25", 7, 0, 1, None, "l1p", "0", os.path.join("missing", "out.txt"))
def test_cli_fuzz_exits_with_a_known_code(
    command, n, t, epsilon, x, seed, max_attempts, grid, measure, debug_perturb, out
):
    # odd N <= 63 and t <= 10 keep the runs that pass the budget small; the
    # oversized N, t and epsilon draws exit 2, and x, the seed, the
    # attempts, the grid, the perturbation and the output path range over
    # valid and invalid values
    argv = command.split() + ["--n", str(n), "--t", str(t), "--seed", str(seed)]
    argv += [f"--epsilon={epsilon}"]
    if x is not None:
        argv += ["--x", str(x)]
    if command.startswith("factor"):
        argv += ["--max-attempts", str(max_attempts)]
    if command == "sweep":
        argv += ["--measure", measure] + ([] if grid is None else [f"--grid={grid}"])
    if command == "verify":
        argv += [f"--debug-perturb={debug_perturb}"]
    stdout, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = None if out is None else os.path.join(tmp, out)
        if path is not None:
            argv += ["--out", path]
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
        text = stdout.getvalue()
        if path is not None and os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue().strip()
    elif command != "sweep":
        json.loads(text, parse_constant=reject_constant)


def test_memory_budget_admits_24_qubit_dense_states():
    def resolve(t):
        args = build_parser().parse_args(["verify", "--n", "15", "--x", "7", "--t", str(t)])
        return resolve_config(args)

    assert resolve(20).n == 24
    with pytest.raises(ConfigError, match="25 qubits needs 536870912 bytes"):
        resolve(21)


# r = 100 does not divide Q = 2**13, and psi3 is transformed in 7 chunks
STAGE_RUN = ["--n", "125", "--x", "2", "--t", "13"]


@pytest.mark.parametrize(
    "argv, exit_code",
    [(["verify"], 0), (["sweep"], 0), (["verify", "--debug-perturb", "1e-3"], 1)],
    ids=["verify", "sweep", "verify-perturb"],
)
def test_stage_commands_peak_below_three_and_a_half_blocks(argv, exit_code):
    # each stage is built, measured and dropped before the next one is
    # built, and --debug-perturb makes one dense block and one perturbed
    # copy of each stage: holding all three stages peaked at 4.10, 4.10 and
    # 5.05 blocks of 16 * Q * r bytes
    inst = make_instance(125, 2, t=13)
    assert inst.r == 100
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv + STAGE_RUN)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == exit_code
    assert peak < 3.5 * 16 * inst.Q * inst.r


@pytest.mark.parametrize(
    "argv",
    [["simulate"], ["verify"], ["sweep"], ["sweep", "--measure", "l1p"]],
    ids=["simulate", "verify", "sweep-tsallis", "sweep-l1p"],
)
def test_stage_commands_peak_below_two_and_a_half_blocks(argv):
    # a stage is its nonzero entries and their mask, and each measure forms
    # only the |c|**2 or |c| it reads: 2.06 to 2.15 blocks of 16 * Q * r
    # bytes, where holding each stage as a zero-filled (Q, k) block and
    # scanning it into a second copy of its entries peaked at 3.06 to 3.09
    inst = make_instance(125, 2, t=13)
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv + STAGE_RUN)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 2.5 * 16 * inst.Q * inst.r


@pytest.mark.parametrize(
    "argv", [["simulate"], ["verify"], ["verify", "--debug-perturb", "1e-3"], ["sweep"]]
)
def test_earlier_stages_are_freed_before_psi3_is_transformed(monkeypatch, argv):
    # the entries of psi1 and psi2, and of their perturbed copies, are gone
    # by the time the first chunk of psi3 is transformed
    blocks, alive = [], []
    make_state, chunks_of = statevec.PureState, statevec._transformed_chunks

    def recorded_state(*args):
        state = make_state(*args)
        blocks.append(weakref.ref(state.amplitudes))
        return state

    def watched_chunks(*args):
        for image in chunks_of(*args):
            if not alive:
                alive.append([ref() is not None for ref in blocks])
            yield image

    monkeypatch.setattr(statevec, "PureState", recorded_state)
    monkeypatch.setattr(statevec, "_transformed_chunks", watched_chunks)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        main(argv + ["--n", "21", "--x", "2", "--t", "10"])
    copies = 2 if "--debug-perturb" in argv else 1
    assert alive == [[False] * 2 * copies]


def test_verify_passes_at_t_19():
    # psi1 rounds sqrt(1/Q) once; rounding 1/sqrt(2) once per qubit made
    # C_1p at p = 1 miss its closed form by 1.75e-9 here
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(["verify", "--n", "15", "--x", "7", "--t", "19"]) == 0


def test_budget_stops_below_the_t_where_the_l1_gate_cannot_hold(capsys):
    # ulp(Q - 1) = 2**(t - 53), so from t = 23 a 2-ulp gap in C_1p at p = 1
    # exceeds the 1e-9 gate; N=3 (L = 2) reaches t = 22 and no further
    assert main(["verify", "--n", "3", "--x", "2", "--t", "23"]) == 2
    assert "25 qubits needs 536870912 bytes" in capsys.readouterr().err


HELP = Path(__file__).resolve().parent / "data" / "help"


@pytest.mark.parametrize("command", ["shormeter", "simulate", "sweep", "factor", "verify"])
def test_help_text_is_pinned(command, monkeypatch, capsys):
    # the CLI surface: every option, its order, default and help string, as
    # argparse of Python 3.11 wraps it at 80 columns
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as done:
        main(([] if command == "shormeter" else [command]) + ["--help"])
    assert done.value.code == 0
    assert capsys.readouterr().out == (HELP / f"{command}.txt").read_text(encoding="utf-8")


def test_cli_digest_is_repeatable():
    # a verify run, a gated failure and a config error give equal digests
    # twice over; stdout, a written --out and an unwritable --out differ
    matrix = [
        ["verify", "--n", "15", "--x", "7", "--t", "4"],
        ["verify", "--n", "21", "--x", "2", "--t", "6", "--debug-perturb", "1e-3"],
        ["simulate", "--n", "15", "--x", "5"],
    ]
    first = cli_digest.digests(matrix)
    assert cli_digest.digests(matrix) == first
    assert len(first) == 3 * len(matrix)
    assert len({line.split()[0] for line in first[:3]}) == 3
