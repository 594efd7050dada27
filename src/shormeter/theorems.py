"""Closed-form stage values, the variation ledger, and the verification harness.

Stages are named after the circuit: "psi1" after the Hadamard layer, "psi2"
after the modular-exponentiation unitary, "psi3" after the inverse Fourier
transform.  Each coherence closed form depends on one number, the count D of
equal-weight basis states: D = Q before the transform and D = r**2 after it
(r | Q).  The entanglement closed forms are 1 - overlap, with the squared
overlaps computed once per run from the weight table.  Coherence closed
forms are hard-gated against the simulator at 1e-9; entanglement rows are
reported with their gaps but never gated, because the closed forms take
each overlap term at its own optimal angle rather than a shared one, so
they need not coincide with a single-angle numeric optimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional


from shormeter import entanglement as ent
from shormeter import measures, statevec
from shormeter.numtheory import ShorInstance

__all__ = [
    "ALPHA_GRID_DEFAULT",
    "COHERENCE_GAP_TOL",
    "P_GRID_DEFAULT",
    "MeasureReport",
    "MeasureRow",
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
    None.  With Q >= r**2 the transform-step coherence deltas must be
    negative and the modexp-step entanglement change non-negative, and every
    row must satisfy U + F = total; a failed check raises ArithmeticError.
    """
    c1p_before, calpha_before, _ = coherence_closed_forms(Q, p, alpha)
    c1p_after, calpha_after, _ = coherence_closed_forms(r * r, p, alpha)
    dC1p_F = c1p_after - c1p_before
    dCalpha_F = calpha_after - calpha_before
    dCg_F = 1.0 / Q - 1.0 / (r * r)
    signs = {"dC1p": _sign(dC1p_F), "dCalpha": _sign(dCalpha_F), "dCg": _sign(dCg_F)}
    sums = [
        ("dC1p", 0.0, dC1p_F, dC1p_F),
        ("dCalpha", 0.0, dCalpha_F, dCalpha_F),
        ("dCg", 0.0, dCg_F, dCg_F),
    ]
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
        sums += [
            (f"dEg_{reading}", eg["U"], eg[f"F_dagger_{reading}"], eg[f"total_{reading}"])
            for reading in ("literal", "modulus_squared")
        ]
    if Q >= r * r:
        _check(
            dC1p_F <= 0.0 and dCalpha_F <= 0.0 and dCg_F < 0.0,
            f"transform-step coherence deltas ({dC1p_F!r}, {dCalpha_F!r}, {dCg_F!r}) "
            f"are not all negative with Q={Q} >= r**2={r * r}",
        )
    for name, step_u, step_f, total in sums:
        _check(
            abs(step_u + step_f - total) <= 1e-9,
            f"{name}: U {step_u!r} + F {step_f!r} != total {total!r}",
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


@dataclass(frozen=True)
class MeasureRow:
    """One numeric-vs-closed-form comparison inside a stage report."""

    measure: str
    param: Optional[float]
    numeric: float
    closed_form: Optional[float]
    gap: Optional[float]
    gated: bool
    passed: Optional[bool]
    note: str = ""
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "param": self.param,
            "numeric": self.numeric,
            "closed_form": self.closed_form,
            "gap": self.gap,
            "gated": self.gated,
            "pass": self.passed,
            "note": self.note,
            **({"details": self.details} if self.details else {}),
        }


@dataclass(frozen=True)
class MeasureReport:
    """All quantifier rows of one stage plus the aggregate gate result."""

    stage: str
    rows: tuple[MeasureRow, ...]

    @property
    def passed(self) -> bool:
        return all(row.passed for row in self.rows if row.gated)

    def to_dict(self) -> dict:
        grouped: dict[str, list] = {}
        for row in self.rows:
            grouped.setdefault(row.measure, []).append(row.to_dict())
        return {"stage": self.stage, "pass": self.passed, "measures": grouped}


def _gated_row(
    measure: str, param: Optional[float], numeric: float, closed: Optional[float]
) -> MeasureRow:
    if closed is None:
        return MeasureRow(
            measure=measure,
            param=param,
            numeric=numeric,
            closed_form=None,
            gap=None,
            gated=False,
            passed=None,
            note="closed form not applicable",
        )
    gap = abs(numeric - closed)
    return MeasureRow(
        measure=measure,
        param=param,
        numeric=numeric,
        closed_form=closed,
        gap=gap,
        gated=True,
        passed=gap <= COHERENCE_GAP_TOL,
    )


def verify_stage(
    stage: str,
    instance: ShorInstance,
    *,
    state: statevec.PureState,
    overlaps: Optional[ent.ClosedFormOverlaps],
) -> MeasureReport:
    """Numeric-vs-closed-form comparison for one stage.

    `state` is the simulated state after `stage`; the C_1p and C_alpha rows
    come from one grid evaluation each over its nonzero support.  Coherence
    rows are gated at COHERENCE_GAP_TOL.  When r does not divide Q the final
    stage has no closed forms; its rows are reported as not applicable and
    do not gate.  Entanglement rows are never gated: the ansatz optimum and
    both closed-form readings are reported side by side.  `overlaps` holds
    the closed-form overlaps, needed by the psi2/psi3 rows when r | Q.
    """
    if stage not in STAGES:
        raise ValueError(f"stage must be one of {STAGES}, got {stage!r}")
    if instance.r is None:
        raise ValueError("instance needs its order r (call with_order() first)")
    if stage != "psi1" and instance.m is not None and overlaps is None:
        raise ValueError(f"the {stage} rows need the closed-form overlaps when r | Q")
    amps = state.amplitudes
    d: Optional[int] = None  # count of equal-weight basis states
    if stage != "psi3":
        d = instance.Q
    elif instance.m is not None:
        d = instance.r * instance.r

    def closed(index: int, p: float = 1.0, alpha: float = 1.0) -> Optional[float]:
        return None if d is None else coherence_closed_forms(d, p, alpha)[index]

    p_values = measures.l1p_coherence_grid(amps, P_GRID_DEFAULT)
    alpha_values = measures.tsallis_coherence_grid(amps, ALPHA_GRID_DEFAULT)
    rows = [_gated_row("C_1p", p, v, closed(0, p=p)) for p, v in zip(P_GRID_DEFAULT, p_values)]
    rows += [
        _gated_row("C_alpha", alpha, v, closed(1, alpha=alpha))
        for alpha, v in zip(ALPHA_GRID_DEFAULT, alpha_values)
    ]
    rows.append(_gated_row("C_g", None, measures.geometric_coherence_pure(amps), closed(2)))
    rows.append(_entanglement_row(stage, state, overlaps))
    return MeasureReport(stage=stage, rows=tuple(rows))


def _entanglement_row(
    stage: str, state: statevec.PureState, overlaps: Optional[ent.ClosedFormOverlaps]
) -> MeasureRow:
    opt = ent.geometric_entanglement_symmetric(state)
    details: dict = {"ansatz_alpha": opt.alpha_angle, "ansatz_overlap_sq": opt.overlap_sq}
    closed: Optional[float] = None
    note = "reported, not gated"
    if stage == "psi1":
        closed = 0.0
        # The single-angle symmetric family misses this product state by a
        # wide margin; the full product-family optimum is reported alongside.
        details["product_family_numeric"] = ent.geometric_entanglement_product(state)
    elif overlaps is None:
        note = "closed form not applicable (r does not divide Q); reported, not gated"
    elif stage == "psi2":
        closed = 1.0 - overlaps.psi2
    else:
        closed = 1.0 - overlaps.psi3
        details["closed_form_literal"] = 1.0 - overlaps.psi3_literal
    gap = None if closed is None else abs(opt.entanglement - closed)
    return MeasureRow(
        measure="E_g",
        param=None,
        numeric=opt.entanglement,
        closed_form=closed,
        gap=gap,
        gated=False,
        passed=None,
        note=note,
        details=details,
    )


def verify_all(
    instance: ShorInstance, states: tuple[statevec.PureState, ...]
) -> tuple[dict[str, MeasureReport], Optional[ent.ClosedFormOverlaps]]:
    """Verify every stage of the simulated circuit `states`.

    This is where a run builds its weight table and closed-form overlaps,
    once, when r | Q; they are returned beside the reports so the ledger can
    reuse them (None when r does not divide Q).
    """
    overlaps = None
    if instance.m is not None:
        overlaps = ent.closed_form_overlaps(ent.build_hamming_table(instance), instance.Q)
    reports = {
        stage: verify_stage(stage, instance, state=state, overlaps=overlaps)
        for stage, state in zip(STAGES, states)
    }
    return reports, overlaps
