"""Golden output bytes of every subcommand for fixed seeds and configs.

The files under ``tests/data/golden/`` hold the exact output of the
commands below, and a change that keeps the report bytes must reproduce
them byte for byte (``simulate`` and ``verify`` on N=15, where r | Q, and on
N=21, where it does not; ``simulate`` on N=51 and N=17, whose orders 8 and
16 give irrational phases in the post-transform closed-form sum, and whose
psi3 at N=17 t=15 is transformed in two chunks of 8 columns; ``simulate``
on N=129, whose L = 8 puts 8 label bits into the Hamming weights, and
whose r = 42 does not divide Q; ``verify
--debug-perturb`` on N=21, whose perturbed psi1 and psi2 fail their
coherence gates, so it exits 1; dense ``factor`` on N=49 at the
default t, whose 42 image columns are transformed in several chunks;
``factor --fast`` on N=129 (r = 42, gcd(r, Q) = 2) and N=249 (odd r = 41)
at the default t = 19, which pin the sampled outcomes of the closed-form
distribution at Q = 2**19).
They pin the output of numpy 2.4.6; another numpy may round FFTs and
reductions differently, and regenerating them is then a deliberate step:
``PYTHONPATH=src python tests/golden_delta.py`` prints, per file, what a
change moved, and ``PYTHONPATH=src python tests/test_golden.py`` then
rewrites every file from the argv its test runs.  The closed-form sums accumulate left to right with
numpy, so they no longer depend on the interpreter's builtin ``sum()``,
which compensates from Python 3.12 on.
"""

from pathlib import Path

import pytest

from shormeter.cli import main

GOLDEN = Path(__file__).resolve().parent / "data" / "golden"

CASES = {
    "simulate_n15_x7_t8.json": "simulate --n 15 --x 7 --t 8",
    "simulate_n15_x7_t8.csv": "simulate --n 15 --x 7 --t 8 --format csv",
    "simulate_n21_x2_t10.json": "simulate --n 21 --x 2 --t 10",
    "simulate_n21_x2_t10.csv": "simulate --n 21 --x 2 --t 10 --format csv",
    "simulate_n51_x2_t12.json": "simulate --n 51 --x 2 --t 12",
    "simulate_n17_x3_t8.json": "simulate --n 17 --x 3 --t 8",
    "simulate_n17_x3_t15.json": "simulate --n 17 --x 3 --t 15",
    "simulate_n129_x5_t9.json": "simulate --n 129 --x 5 --t 9",
    "verify_n15_x7_t8.json": "verify --n 15 --x 7 --t 8",
    "verify_n21_x2_t10.json": "verify --n 21 --x 2 --t 10",
    "verify_perturb_n21_x2_t10.json": "verify --n 21 --x 2 --t 10 --debug-perturb 1e-3",
    "sweep_l1p_n15_x7_t8.csv": "sweep --n 15 --x 7 --t 8 --measure l1p",
    "sweep_tsallis_n15_x7_t8.csv": "sweep --n 15 --x 7 --t 8 --measure tsallis",
    "factor_n15_x7_t8_s3.json": "factor --n 15 --x 7 --t 8 --seed 3",
    "factor_fast_n15_x7_t8_s3.json": "factor --n 15 --x 7 --t 8 --seed 3 --fast",
    "factor_n49_x3_s3.json": "factor --n 49 --x 3 --seed 3",
    "factor_fast_n129_x5_s3.json": "factor --n 129 --x 5 --seed 3 --fast",
    "factor_fast_n249_x4_s3.json": "factor --n 249 --x 4 --seed 3 --fast",
}
# Commands that end with a nonzero exit code; every other case exits 0.
# r = 42 does not divide Q = 2**15, and x**21 = -1 (mod 49) gives no factor,
# so all ten attempts find the order and the run gives up.
# The perturbed psi1 and psi2 miss their coherence closed forms, so the
# verify run with --debug-perturb fails its gates.
# The two --fast runs at the default t = 19 find the order every time, but
# it gives no factor: r = 42 with 5**21 = -1 (mod 129), and the odd r = 41.
EXIT_CODES = {
    "factor_n49_x3_s3.json": 1,
    "verify_perturb_n21_x2_t10.json": 1,
    "factor_fast_n129_x5_s3.json": 1,
    "factor_fast_n249_x4_s3.json": 1,
}


def test_every_golden_file_has_a_case():
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden_bytes(tmp_path, name):
    out = tmp_path / name
    assert main(CASES[name].split() + ["--out", str(out)]) == EXIT_CODES.get(name, 0)
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


def test_repeated_calls_in_one_process_share_no_state(tmp_path, capsys):
    # every case, one argv that argparse rejects, one that resolve_config
    # rejects, then every case again in reverse order: one parser serves all
    names = sorted(CASES)
    for name in names:
        out = tmp_path / name
        assert main(CASES[name].split() + ["--out", str(out)]) == EXIT_CODES.get(name, 0)
        assert out.read_bytes() == (GOLDEN / name).read_bytes()
    capsys.readouterr()
    with pytest.raises(SystemExit) as rejected:
        main(["simulate", "--n", "zz"])
    assert rejected.value.code == 2
    assert "invalid int value: 'zz'" in capsys.readouterr().err
    assert main(["verify", "--n", "15", "--x", "7", "--seed", "-1"]) == 2
    assert capsys.readouterr().err == "error: --seed must be >= 0, got -1\n"
    for name in reversed(names):
        assert main(CASES[name].split()) == EXIT_CODES.get(name, 0)
        assert capsys.readouterr().out.encode() == (GOLDEN / name).read_bytes()


def regenerate() -> None:
    """Rewrite every golden file from the argv of its case."""
    for name in sorted(CASES):
        code = main(CASES[name].split() + ["--out", str(GOLDEN / name)])
        if code != EXIT_CODES.get(name, 0):
            raise SystemExit(f"{name}: exit code {code}, expected {EXIT_CODES.get(name, 0)}")


if __name__ == "__main__":
    regenerate()
