"""Output checks for every benchmark operation.

Each check recomputes what it compares against (orders by brute force,
closed forms of the uniform and r | Q stages, E_g = 0 on the product state
psi1, factor pairs from the order)
instead of calling shormeter, so a library bug cannot vouch for itself.
A check returns a list of problems; an empty list means the output is right.
"""

from __future__ import annotations

import csv
import io
import json
import math
from typing import Optional

from workloads import FACTOR_MAX_ATTEMPTS, SWEEP_GRIDS, Op, order

GAP_TOL = 1e-9  # the gate tolerance the report promises
REL_TOL = 1e-9
PRODUCT_STATE_TOL = 1e-9  # clean runs report exactly 0.0
ALPHA_ONE_TOL = 1e-6  # the CLI switches to the alpha -> 1 limit this close to 1


def tsallis_flat(base: float, alpha: float) -> float:
    """Tsallis coherence of a state with `base` equal-modulus amplitudes."""
    if abs(alpha - 1.0) <= ALPHA_ONE_TOL:
        return math.log(base)
    return (base ** (1.0 - 1.0 / alpha) - 1.0) / (alpha - 1.0)


def l1p_flat(base: float, p: float) -> float:
    """l_{1,p} coherence of a state with `base` equal-modulus amplitudes."""
    return (base - 1.0) ** (1.0 / p)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= max(GAP_TOL, REL_TOL * abs(b))


def expected_pair(x: int, r: int, n: int) -> Optional[tuple[int, int]]:
    if r % 2:
        return None
    h = pow(x, r // 2, n)
    if h in (1, n - 1):
        return None
    return math.gcd(h - 1, n), math.gcd(h + 1, n)


def _flat_forms(base: float, measure: str, param: Optional[float]) -> float:
    if measure == "C_1p":
        return l1p_flat(base, param)
    if measure == "C_alpha":
        return tsallis_flat(base, param)
    return 1.0 - 1.0 / base  # C_g


def _entanglement_problems(stage: str, row: dict) -> list[str]:
    """E_g rows: every value is a finite number in [0, 1], and the full
    product-family optimum on psi1 (a product state, so E_g = 0) is 0."""
    problems = []
    values = {"numeric": row["numeric"]}
    product = row["details"].get("product_family_numeric")
    if product is not None:
        values["product_family_numeric"] = product
    for key, value in values.items():
        if not (isinstance(value, (int, float)) and 0.0 <= value <= 1.0):
            problems.append(f"{stage} E_g {key} = {value!r} is not in [0, 1]")
    if stage == "psi1" and product is not None and product > PRODUCT_STATE_TOL:
        problems.append(f"psi1 E_g product_family_numeric = {product!r}, want 0")
    return problems


def check_report(op: Op, rc: int, text: str) -> tuple[list[str], int, int]:
    """simulate/verify JSON: passes, gaps within 1e-9, coherence at closed form.

    Returns the problems plus (gated rows, rows) for the gated-row ratio.
    """
    data = json.loads(text)
    problems = []
    r = order(op.x, op.n)
    q = op.q
    if rc != 0:
        problems.append(f"exit code {rc}")
    if data.get("pass") is not True:
        problems.append("report says pass: false")
    if data["order"] != r:
        problems.append(f"order {data['order']} != {r}")
    if (data["config"]["N"], data["config"]["x"], data["config"]["Q"]) != (op.n, op.x, q):
        problems.append(f"config {data['config']} does not match the request")
    rows = gated = 0
    for stage in ("psi1", "psi2", "psi3"):
        # psi1/psi2 hold Q equal amplitudes, psi3 holds r*r when r | Q.
        base = float(q) if stage != "psi3" else (float(r * r) if q % r == 0 else None)
        for measure, entries in data["stages"][stage]["measures"].items():
            for row in entries:
                rows += 1
                if row["gated"]:
                    gated += 1
                    own_gap = abs(row["numeric"] - row["closed_form"])
                    if max(own_gap, row["gap"]) > GAP_TOL:
                        problems.append(f"{stage} {measure} gap {own_gap!r} > {GAP_TOL}")
                if measure == "E_g":
                    problems += _entanglement_problems(stage, row)
                    continue
                if base is None:
                    continue
                want = _flat_forms(base, measure, row["param"])
                if not _close(row["numeric"], want):
                    problems.append(
                        f"{stage} {measure}({row['param']}) = {row['numeric']!r}, want {want!r}"
                    )
    return problems, gated, rows


def check_sweep(op: Op, rc: int, text: str) -> list[str]:
    """Sweep CSV: one finite row per grid point; psi1 and psi2 at the Q-only form."""
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}")
    q = float(op.q)
    grid = SWEEP_GRIDS[op.measure]
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    if header != ["param", "C_psi1", "C_psi2", "C_psi3", "delta", "limit_flag"]:
        problems.append(f"unexpected header {header}")
    rows = list(reader)
    if len(rows) != len(grid):
        return problems + [f"{len(rows)} rows for {len(grid)} grid points"]
    flat = l1p_flat if op.measure == "l1p" else tsallis_flat
    for want_param, row in zip(grid, rows):
        param, c1, c2, c3, delta = (float(v) for v in row[:5])
        if not all(math.isfinite(v) for v in (param, c1, c2, c3, delta)):
            problems.append(f"non-finite row {row}")
            continue
        if abs(param - want_param) > 1e-12:
            problems.append(f"param {param!r} where the grid has {want_param!r}")
        want = flat(q, want_param)
        if not (_close(c1, want) and _close(c2, want)):
            problems.append(f"param {param}: C_psi1={c1!r} C_psi2={c2!r}, want {want!r}")
        if not _close(delta, c3 - c1):
            problems.append(f"param {param}: delta {delta!r} != C_psi3 - C_psi1")
    return problems


def check_factor(op: Op, rc: int, text: str) -> list[str]:
    """Factor JSON: every order is the true order, every pair splits N."""
    data = json.loads(text)
    problems = []
    n = op.n
    x = data["config"]["x"]
    q = op.q
    if (data["config"]["N"], data["config"]["Q"]) != (n, q) or op.x not in (None, x):
        problems.append(f"config {data['config']} does not match the request")
    if not (1 < x < n and math.gcd(x, n) == 1):
        return problems + [f"base x={x} is not a unit mod {n}"]
    r = order(x, n)
    pair = expected_pair(x, r, n)
    attempts = data["attempts"]
    for att in attempts:
        if not 0 <= att["k"] < q:
            problems.append(f"outcome {att['k']} outside [0, {q})")
        if att["order"] is None:
            if att["factors"] is not None:
                problems.append("factors reported without an order")
            continue
        if att["order"] != r:
            problems.append(f"recovered order {att['order']} != {r}")
        got = tuple(att["factors"]) if att["factors"] else None
        if got != pair:
            problems.append(f"factor pair {got} != {pair}")
        if got and not (1 < got[0] < n and 1 < got[1] < n and got[0] * got[1] == n):
            problems.append(f"factor pair {got} is not a nontrivial split of {n}")
    success = bool(attempts) and attempts[-1]["factors"] is not None
    if data["success"] != success or rc != (0 if success else 1):
        problems.append(f"success={data['success']} exit={rc} but attempts say {success}")
    if success and sorted(attempts[-1]["factors"]) != data["factors"]:
        problems.append("final factors differ from the last attempt")
    if not success and len(attempts) != FACTOR_MAX_ATTEMPTS:
        problems.append(f"gave up after {len(attempts)} of {FACTOR_MAX_ATTEMPTS} attempts")
    return problems


def check(op: Op, rc: int, text: str) -> tuple[list[str], int, int]:
    """Problems with one op's output, plus (gated rows, rows) for reports."""
    command = op.argv[0]
    try:
        if command in ("simulate", "verify"):
            return check_report(op, rc, text)
        if command == "sweep":
            return check_sweep(op, rc, text), 0, 0
        return check_factor(op, rc, text), 0, 0
    except (ValueError, KeyError, TypeError, IndexError, StopIteration) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"], 0, 0
