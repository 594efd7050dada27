"""Closed-form stage values, the variation ledger, and the verification harness.

Stages are named after the circuit: "psi1" after the Hadamard layer, "psi2"
after the modular-exponentiation unitary, "psi3" after the inverse Fourier
transform.  Each coherence closed form depends on one number, the count D of
equal-weight basis states: D = Q before the transform and D = r**2 after it
(r | Q).  The entanglement closed forms are 0 on psi1 and 1 - overlap after
it, with the squared overlaps computed once per run (r | Q).  `verify_all`
alone decides which closed form applies to which stage: it builds one table
of (D, E_g, literal E_g) per stage, None where none applies, and
`verify_stage` reads its stage's row.  Coherence closed forms are hard-gated
against the simulator at 1e-9; entanglement rows are reported with their
gaps but never gated, because the closed forms take each overlap term at
its own optimal angle rather than a shared one, so they need not coincide
with a single-angle numeric optimum.

A stage report is the dict the CLI prints: {"stage", "pass", "measures"},
where "measures" maps C_1p, C_alpha, C_g and E_g to lists of rows, each row
{"param", "numeric", "closed_form", "gap", "gated", "pass", "note"} and the
E_g row also "details"; "pass" is True when every gated row passes.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from typing import Optional

from shormeter import entanglement as ent
from shormeter import measures, statevec
from shormeter.numtheory import ShorInstance

__all__ = [
    "ALPHA_GRID_DEFAULT",
    "COHERENCE_GAP_TOL",
    "P_GRID_DEFAULT",
    "algorithm_variations",
    "coherence_closed_forms",
    "tsallis_closed",
    "verify_all",
    "verify_stage",
]

P_GRID_DEFAULT = (1.0, 1.25, 1.5, 1.75, 2.0)
ALPHA_GRID_DEFAULT = (0.3, 0.5, 0.9, 1.1, 1.5, 2.0)
COHERENCE_GAP_TOL = 1e-9
STAGES = ("psi1", "psi2", "psi3")


def tsallis_closed(base: float, alpha: float) -> float:
    """(base**(1 - 1/alpha) - 1) / (alpha - 1), with ln(base) as alpha -> 1."""
    measures.validate_alpha(alpha)
    if base < 1:
        raise ValueError(f"base must be >= 1, got {base}")
    if abs(alpha - 1.0) <= measures.ALPHA_ONE_TOL:
        return math.log(base)
    return (base ** (1.0 - 1.0 / alpha) - 1.0) / (alpha - 1.0)


def coherence_closed_forms(d: int, p: float, alpha: float) -> tuple[float, float, float]:
    """(C_1p, C_alpha, C_g) of a state spread evenly over d basis states.

    d = Q for the uniform and post-modexp stages (the same amplitude multiset
    on permuted labels), d = r**2 for the post-transform stage when r | Q.
    """
    return (d - 1) ** (1.0 / p), tsallis_closed(float(d), alpha), 1.0 - 1.0 / d


def _sign(value: float) -> str:
    if value > 0:
        return "positive"
    if value < 0:
        return "negative"
    return "zero"


def _check(ok: bool, message: str) -> None:
    """Raise ArithmeticError unless a ledger identity holds (survives python -O)."""
    if not ok:
        raise ArithmeticError(message)


def algorithm_variations(
    Q: int,
    r: int,
    p: float,
    alpha: float,
    overlaps: Optional[ent.ClosedFormOverlaps] = None,
) -> dict:
    """Per-operator (U: modexp, F_dagger: transform) and whole-run deltas.

    The modexp unitary leaves all three coherence measures unchanged; the
    inverse transform moves them from their D = Q values to their D = r**2
    values.  Entanglement entries need the closed-form overlaps (r | Q) and
    carry both readings of the squared complex sum; without them they are
    None.  Q >= r**2 needs a non-negative modexp-step entanglement change,
    Q > r**2 negative transform-step coherence deltas (0 at Q = r**2); a
    failed check raises ArithmeticError.
    """
    c1p_before, calpha_before, _ = coherence_closed_forms(Q, p, alpha)
    c1p_after, calpha_after, _ = coherence_closed_forms(r * r, p, alpha)
    dC1p_F = c1p_after - c1p_before
    dCalpha_F = calpha_after - calpha_before
    dCg_F = 1.0 / Q - 1.0 / (r * r)
    signs = {"dC1p": _sign(dC1p_F), "dCalpha": _sign(dCalpha_F), "dCg": _sign(dCg_F)}
    eg: dict = dict.fromkeys(
        (
            "U",
            "F_dagger_literal",
            "F_dagger_modulus_squared",
            "total_literal",
            "total_modulus_squared",
        )
    )
    if overlaps is not None:
        eg = {
            "U": 1.0 - overlaps.psi2,
            "F_dagger_literal": overlaps.psi2 - overlaps.psi3_literal,
            "F_dagger_modulus_squared": overlaps.psi2 - overlaps.psi3,
            "total_literal": 1.0 - overlaps.psi3_literal,
            "total_modulus_squared": 1.0 - overlaps.psi3,
        }
        if Q >= r * r:
            _check(eg["U"] >= 0.0, f"dEg_U={eg['U']!r} < 0 with Q={Q} >= r**2={r * r}")
        signs["dEg_U"] = _sign(eg["U"])
        signs["dEg_F"] = _sign(eg["F_dagger_modulus_squared"])
        signs["dEg_total"] = _sign(eg["total_modulus_squared"])
    if Q > r * r:
        _check(
            dC1p_F <= 0.0 and dCalpha_F <= 0.0 and dCg_F < 0.0,
            f"transform-step coherence deltas ({dC1p_F!r}, {dCalpha_F!r}, {dCg_F!r}) "
            f"are not all negative with Q={Q} > r**2={r * r}",
        )
    return {
        "Q": Q,
        "r": r,
        "p": p,
        "alpha": alpha,
        "C_1p": {"U": 0.0, "F_dagger": dC1p_F, "total": dC1p_F},
        "C_alpha": {"U": 0.0, "F_dagger": dCalpha_F, "total": dCalpha_F},
        "C_g": {"U": 0.0, "F_dagger": dCg_F, "total": dCg_F},
        "E_g": eg,
        "signs": signs,
    }


def _gated_row(param: Optional[float], numeric: float, closed: Optional[float]) -> dict:
    gap = None if closed is None else abs(numeric - closed)
    return {
        "param": param,
        "numeric": numeric,
        "closed_form": closed,
        "gap": gap,
        "gated": gap is not None,
        "pass": None if gap is None else gap <= COHERENCE_GAP_TOL,
        "note": "closed form not applicable" if gap is None else "",
    }


def verify_stage(
    stage: str,
    state: statevec.PureState,
    forms: tuple[Optional[int], Optional[float], Optional[float]],
) -> dict:
    """Numeric-vs-closed-form comparison for one stage, as the dict a report prints.

    Returns {"stage": stage, "pass": bool, "measures": {"C_1p": [...],
    "C_alpha": [...], "C_g": [row], "E_g": [row]}}, one row per grid point
    (P_GRID_DEFAULT, ALPHA_GRID_DEFAULT) in grid order.  Each row holds
    "param", "numeric", "closed_form", "gap", "gated", "pass" and "note";
    the E_g row also holds "details".  "pass" is True when every gated row
    passes.

    `state` is the simulated state after `stage`, and `forms` is the
    stage's row (d, E_g, literal E_g) of the closed-form table `verify_all`
    builds: d is the count of equal-weight basis states, which fixes the
    coherence closed forms, and the literal reading exists on psi3 only;
    each is None where no closed form applies.  Every row reads the
    state's nonzero amplitudes: the C_1p rows come from one grid
    evaluation, and the C_alpha rows and C_g from one |c|**2 array.  The
    E_g row reads the state's weight sums
    (`statevec.weight_sums`), which only this report builds.  Coherence
    rows are gated at COHERENCE_GAP_TOL, or reported as not applicable when
    d is None.  Entanglement rows are never gated: the ansatz optimum and
    the closed-form readings are reported side by side.
    """
    d, eg_closed, eg_literal = forms

    def closed(index: int, p: float = 1.0, alpha: float = 1.0) -> Optional[float]:
        return None if d is None else coherence_closed_forms(d, p, alpha)[index]

    p_values = measures.l1p_coherence_grid(state, P_GRID_DEFAULT)
    alpha_values, cg = measures.tsallis_and_geometric_coherence(state, ALPHA_GRID_DEFAULT)
    opt = ent.geometric_entanglement_symmetric(statevec.weight_sums(state))
    details: dict = {"ansatz_alpha": opt.alpha_angle, "ansatz_overlap_sq": opt.overlap_sq}
    if eg_literal is not None:
        details["closed_form_literal"] = eg_literal
    note = "reported, not gated"
    if eg_closed is None:
        note = "closed form not applicable (r does not divide Q); " + note
    eg_row = _gated_row(None, opt.entanglement, eg_closed)  # same gap, but reported, not gated
    groups = {
        "C_1p": [_gated_row(p, v, closed(0, p=p)) for p, v in zip(P_GRID_DEFAULT, p_values)],
        "C_alpha": [
            _gated_row(alpha, v, closed(1, alpha=alpha))
            for alpha, v in zip(ALPHA_GRID_DEFAULT, alpha_values)
        ],
        "C_g": [_gated_row(None, cg, closed(2))],
        "E_g": [{**eg_row, "gated": False, "pass": None, "note": note, "details": details}],
    }
    passed = all(row["pass"] for rows in groups.values() for row in rows if row["gated"])
    return {"stage": stage, "pass": passed, "measures": groups}


def verify_all(
    instance: ShorInstance, states: Iterable[statevec.PureState]
) -> tuple[dict[str, dict], Optional[ent.ClosedFormOverlaps]]:
    """Verify the stages psi1, psi2 and psi3 that `states` yields in turn,
    each released before the next one is drawn.

    Returns ({"psi1": report, "psi2": report, "psi3": report}, overlaps),
    each report the stage dict of `verify_stage`, in stage order.

    This is where a run computes its closed-form overlaps, once, and decides
    which closed form applies to which stage: D is Q, Q and r**2, and E_g is
    0 on the product state psi1 and 1 - overlap after it.  When r does not
    divide Q, psi3 has no closed form and neither stage after psi1 has an
    E_g closed form.  The overlaps are returned beside the reports so the
    ledger can reuse them (None when r does not divide Q).
    """
    overlaps = ent.closed_form_overlaps(instance)
    Q = instance.Q
    table = [(Q, 0.0, None), (Q, None, None), (None, None, None)]
    if overlaps is not None:
        table[1:] = [
            (Q, 1.0 - overlaps.psi2, None),
            (instance.r**2, 1.0 - overlaps.psi3, 1.0 - overlaps.psi3_literal),
        ]
    reports = dict(zip(STAGES, map(verify_stage, STAGES, states, table)))
    return reports, overlaps
