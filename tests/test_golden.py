"""Golden output bytes of every subcommand for fixed seeds and configs.

The files under ``tests/data/golden/`` hold the exact output of the
commands below, and a change that keeps the report bytes must reproduce
them byte for byte (``simulate`` and ``verify`` on N=15, where r | Q, and on
N=21, where it does not).  They pin the output of numpy 2.4.6; another
numpy may round FFTs and reductions differently, and regenerating them
(run each command with ``--out``) is then a deliberate step.
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
    "verify_n15_x7_t8.json": "verify --n 15 --x 7 --t 8",
    "verify_n21_x2_t10.json": "verify --n 21 --x 2 --t 10",
    "sweep_l1p_n15_x7_t8.csv": "sweep --n 15 --x 7 --t 8 --measure l1p",
    "sweep_tsallis_n15_x7_t8.csv": "sweep --n 15 --x 7 --t 8 --measure tsallis",
    "factor_n15_x7_t8_s3.json": "factor --n 15 --x 7 --t 8 --seed 3",
    "factor_fast_n15_x7_t8_s3.json": "factor --n 15 --x 7 --t 8 --seed 3 --fast",
}


def test_every_golden_file_has_a_case():
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden_bytes(tmp_path, name):
    out = tmp_path / name
    assert main(CASES[name].split() + ["--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()
