"""How far each golden case's output now is from its golden file.

Reruns the argv of every case in ``test_golden.CASES`` and compares its
``--out`` bytes with the file under ``tests/data/golden/``, field by field:
JSON values by their path, CSV cells by row and column.  It prints one table
row per file: the count of floats that moved, the largest |delta| among
them, each key whose floats moved with its own largest |delta|, and every
other change (a string, an integer, a boolean, a key or a row that
differs, or an exit code other than the case's).  A moved JSON float is
named by its path from the key of the last list that holds it, list
indices dropped (``E_g/details/ansatz_alpha`` for
``/stages/psi1/measures/E_g/0/details/ansatz_alpha``), or by its whole path
when no list holds it; a moved CSV cell by its column's header.  Run it
before regenerating the files, to see what a change moved:

    PYTHONPATH=src python tests/golden_delta.py
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from test_golden import CASES, EXIT_CODES, GOLDEN  # noqa: E402

from shormeter.cli import main  # noqa: E402


def _is_float_text(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return not text.lstrip("-").isdigit()


def _json_key(path: str) -> str:
    """The name of a moved JSON float: its path from the key of the last
    list on it, list indices dropped, or the whole path without a list."""
    parts = path.split("/")[1:]
    indices = [i for i, part in enumerate(parts) if part.isdigit()]
    start = indices[-1] - 1 if indices else 0
    return "/".join(part for part in parts[start:] if not part.isdigit())


def _walk(old, new, path: str, floats: list[tuple[str, float]], other: list[str]) -> None:
    """Append each moved float's (key, |delta|) and each other difference
    between two JSON values."""
    if isinstance(old, float) and isinstance(new, float):
        if old != new or old.hex() != new.hex():
            floats.append((_json_key(path), abs(new - old)))
    elif isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(old.keys() | new.keys()):
            if key not in old or key not in new:
                other.append(f"{path}/{key}: only in {'new' if key in new else 'old'}")
            else:
                _walk(old[key], new[key], f"{path}/{key}", floats, other)
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for i, (a, b) in enumerate(zip(old, new)):
            _walk(a, b, f"{path}/{i}", floats, other)
    elif type(old) is not type(new) or old != new:
        other.append(f"{path}: {old!r} -> {new!r}")


def _csv_delta(old: str, new: str, floats: list[tuple[str, float]], other: list[str]) -> None:
    old_rows = list(csv.reader(io.StringIO(old)))
    new_rows = list(csv.reader(io.StringIO(new)))
    if len(old_rows) != len(new_rows):
        other.append(f"rows: {len(old_rows)} -> {len(new_rows)}")
    for i, (a_row, b_row) in enumerate(zip(old_rows, new_rows)):
        if len(a_row) != len(b_row):
            other.append(f"row {i}: {a_row!r} -> {b_row!r}")
            continue
        for j, (a, b) in enumerate(zip(a_row, b_row)):
            if a == b:
                continue
            if _is_float_text(a) or _is_float_text(b):
                try:
                    key = old_rows[0][j] if j < len(old_rows[0]) else f"column {j}"
                    floats.append((key, abs(float(b) - float(a))))
                    continue
                except ValueError:
                    pass
            other.append(f"row {i} column {j}: {a!r} -> {b!r}")


def delta(name: str, out_dir: Path) -> tuple[int, float, dict[str, float], list[str]]:
    """(floats moved, largest |delta|, the largest |delta| per key of the
    moved floats in output order, other changes) of one case."""
    out = out_dir / name
    with contextlib.redirect_stderr(io.StringIO()):  # verify's per-stage summary
        code = main(CASES[name].split() + ["--out", str(out)])
    floats: list[tuple[str, float]] = []
    other: list[str] = []
    if code != EXIT_CODES.get(name, 0):
        other.append(f"exit code {code}, expected {EXIT_CODES.get(name, 0)}")
    old, new = (GOLDEN / name).read_text(), out.read_text()
    if name.endswith(".json"):
        _walk(json.loads(old), json.loads(new), "", floats, other)
    else:
        _csv_delta(old, new, floats, other)
    keys: dict[str, float] = {}
    for key, moved in floats:
        keys[key] = max(keys.get(key, 0.0), moved)
    return len(floats), max(keys.values(), default=0.0), keys, other


def main_table() -> int:
    rows = [
        "| file | floats moved | largest abs delta | moved keys | other changes |",
        "|---|---|---|---|---|",
    ]
    changed = False
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(CASES):
            moved, largest, keys, other = delta(name, Path(tmp))
            changed |= bool(moved or other)
            shown = "; ".join(other) if other else "none"
            named = ", ".join(f"{key} ({d:.3g})" for key, d in keys.items()) or "none"
            rows.append(f"| {name} | {moved} | {largest:.3g} | {named} | {shown} |")
    print("\n".join(rows))
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main_table())
