"""Closed-form stage values, variation ledgers, and the verification harness.

Stages are named after the circuit: "psi1" after the Hadamard layer, "psi2"
after the modular-exponentiation unitary, "psi3" after the inverse Fourier
transform.  Coherence closed forms are hard-gated against the simulator at
1e-9; entanglement rows are reported with their gaps but never gated,
because the closed forms take each overlap term at its own optimal angle
rather than a shared one, so they need not coincide with a single-angle
numeric optimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from shormeter import entanglement as ent
from shormeter import measures, statevec
from shormeter.numtheory import ShorInstance

__all__ = [
    "ALPHA_GRID_DEFAULT",
    "AlphaPeak",
    "COHERENCE_GAP_TOL",
    "P_GRID_DEFAULT",
    "StageClosedForms",
    "MeasureReport",
    "MeasureRow",
    "VariationLedger",
    "algorithm_variations",
    "closed_forms_psi1",
    "closed_forms_psi3",
    "find_alpha_peak",
    "operator_variations",
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


@dataclass(frozen=True)
class StageClosedForms:
    """The four quantifiers of one stage in closed form (E_g may be absent)."""

    C_1p: float
    C_alpha: float
    C_g: float
    E_g: Optional[float] = None


def closed_forms_psi1(Q: int, p: float, alpha: float) -> StageClosedForms:
    """Uniform-superposition stage: all quantifiers depend on Q alone.

    The same values hold for the post-modexp stage, whose amplitudes are the
    same multiset placed on permuted labels.
    """
    if Q < 2:
        raise ValueError(f"Q must be >= 2, got {Q}")
    return StageClosedForms(
        C_1p=(Q - 1) ** (1.0 / p),
        C_alpha=tsallis_closed(float(Q), alpha),
        C_g=1.0 - 1.0 / Q,
        E_g=0.0,
    )


def closed_forms_psi3(r: int, p: float, alpha: float) -> StageClosedForms:
    """Post-transform stage: coherence depends on the order alone (r | Q)."""
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    r2 = float(r * r)
    return StageClosedForms(
        C_1p=(r2 - 1.0) ** (1.0 / p) if r > 1 else 0.0,
        C_alpha=tsallis_closed(r2, alpha),
        C_g=1.0 - 1.0 / r2,
        E_g=None,  # handled by the entanglement closed forms
    )


@dataclass(frozen=True)
class VariationLedger:
    """Per-operator and whole-run changes of every quantifier.

    The modexp unitary leaves all three coherence measures unchanged; the
    inverse transform moves them from their Q values to their r**2 values.
    Entanglement rows need the weight tables (r | Q) and carry both readings
    of the squared complex sum.
    """

    Q: int
    r: int
    p: float
    alpha: float
    dC1p_U: float
    dC1p_F: float
    dC1p_total: float
    dCalpha_U: float
    dCalpha_F: float
    dCalpha_total: float
    dCg_U: float
    dCg_F: float
    dCg_total: float
    dEg_U: Optional[float] = None
    dEg_F_literal: Optional[float] = None
    dEg_F_modulus_squared: Optional[float] = None
    dEg_total_literal: Optional[float] = None
    dEg_total_modulus_squared: Optional[float] = None

    def sign_classification(self) -> dict[str, str]:
        out = {
            "dC1p": _sign(self.dC1p_total),
            "dCalpha": _sign(self.dCalpha_total),
            "dCg": _sign(self.dCg_total),
        }
        if self.dEg_U is not None:
            out["dEg_U"] = _sign(self.dEg_U)
        if self.dEg_F_modulus_squared is not None:
            out["dEg_F"] = _sign(self.dEg_F_modulus_squared)
        if self.dEg_total_modulus_squared is not None:
            out["dEg_total"] = _sign(self.dEg_total_modulus_squared)
        return out

    def to_dict(self) -> dict:
        return {
            "Q": self.Q,
            "r": self.r,
            "p": self.p,
            "alpha": self.alpha,
            "C_1p": {"U": self.dC1p_U, "F_dagger": self.dC1p_F, "total": self.dC1p_total},
            "C_alpha": {
                "U": self.dCalpha_U,
                "F_dagger": self.dCalpha_F,
                "total": self.dCalpha_total,
            },
            "C_g": {"U": self.dCg_U, "F_dagger": self.dCg_F, "total": self.dCg_total},
            "E_g": {
                "U": self.dEg_U,
                "F_dagger_literal": self.dEg_F_literal,
                "F_dagger_modulus_squared": self.dEg_F_modulus_squared,
                "total_literal": self.dEg_total_literal,
                "total_modulus_squared": self.dEg_total_modulus_squared,
            },
            "signs": self.sign_classification(),
        }


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


def operator_variations(
    Q: int,
    r: int,
    p: float,
    alpha: float,
    table: Optional[ent.HammingTable] = None,
) -> VariationLedger:
    """Per-operator deltas; entanglement rows are absent without a table.

    With Q >= r**2 the transform-step coherence deltas must be negative and
    the modexp-step entanglement change non-negative, else ArithmeticError.
    """
    before = closed_forms_psi1(Q, p, alpha)
    after = closed_forms_psi3(r, p, alpha)
    dC1p_F = after.C_1p - before.C_1p
    dCalpha_F = after.C_alpha - before.C_alpha
    dCg_F = 1.0 / Q - 1.0 / (r * r)
    kwargs: dict = {}
    if table is not None:
        s_ab = ent.weight_sum_ab(table)
        eg2 = 1.0 - s_ab * s_ab / Q
        s_as = ent.weight_sum_as(table)
        overlap2_literal = (s_as * s_as).real / (r * r)
        overlap2_mod = abs(s_as) ** 2 / (r * r)
        kwargs = {
            "dEg_U": eg2,
            "dEg_F_literal": (s_ab * s_ab / Q) - overlap2_literal,
            "dEg_F_modulus_squared": (s_ab * s_ab / Q) - overlap2_mod,
            "dEg_total_literal": 1.0 - overlap2_literal,
            "dEg_total_modulus_squared": 1.0 - overlap2_mod,
        }
        if Q >= r * r:
            _check(kwargs["dEg_U"] >= 0.0, f"dEg_U={eg2!r} < 0 with Q={Q} >= r**2={r * r}")
    if Q >= r * r:
        _check(
            dC1p_F <= 0.0 and dCalpha_F <= 0.0 and dCg_F < 0.0,
            f"transform-step coherence deltas ({dC1p_F!r}, {dCalpha_F!r}, {dCg_F!r}) "
            f"are not all negative with Q={Q} >= r**2={r * r}",
        )
    return VariationLedger(
        Q=Q,
        r=r,
        p=p,
        alpha=alpha,
        dC1p_U=0.0,
        dC1p_F=dC1p_F,
        dC1p_total=dC1p_F,
        dCalpha_U=0.0,
        dCalpha_F=dCalpha_F,
        dCalpha_total=dCalpha_F,
        dCg_U=0.0,
        dCg_F=dCg_F,
        dCg_total=dCg_F,
        **kwargs,
    )


def algorithm_variations(
    Q: int,
    r: int,
    p: float,
    alpha: float,
    table: Optional[ent.HammingTable] = None,
) -> VariationLedger:
    """Whole-run deltas; checks additivity against the per-operator ledger.

    For every quantifier the whole-run change equals the modexp-step change
    plus the transform-step change; with Q >= r**2 all three coherence
    deltas are negative.  A failed check raises ArithmeticError.
    """
    ledger = operator_variations(Q, r, p, alpha, table)
    sums = [
        ("dC1p", ledger.dC1p_U, ledger.dC1p_F, ledger.dC1p_total),
        ("dCalpha", ledger.dCalpha_U, ledger.dCalpha_F, ledger.dCalpha_total),
        ("dCg", ledger.dCg_U, ledger.dCg_F, ledger.dCg_total),
    ]
    if ledger.dEg_U is not None:
        sums += [
            ("dEg_literal", ledger.dEg_U, ledger.dEg_F_literal, ledger.dEg_total_literal),
            (
                "dEg_modulus_squared",
                ledger.dEg_U,
                ledger.dEg_F_modulus_squared,
                ledger.dEg_total_modulus_squared,
            ),
        ]
    for name, step_u, step_f, total in sums:
        _check(
            abs(step_u + step_f - total) <= 1e-9,
            f"{name}: U {step_u!r} + F {step_f!r} != total {total!r}",
        )
    return ledger


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
    measure: str, param: Optional[float], numeric: float, closed: Optional[float], tol: float
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
        passed=gap <= tol,
    )


def verify_stage(
    stage: str,
    instance: ShorInstance,
    *,
    state: statevec.PureState,
    p_grid: Sequence[float] = P_GRID_DEFAULT,
    alpha_grid: Sequence[float] = ALPHA_GRID_DEFAULT,
    tol: float = COHERENCE_GAP_TOL,
    table: Optional[ent.HammingTable] = None,
) -> MeasureReport:
    """Numeric-vs-closed-form comparison for one stage.

    `state` is the simulated state after `stage`; the C_1p and C_alpha rows
    come from one grid evaluation each over its nonzero support.  Coherence
    rows are gated at `tol`.  When r does not divide Q the final stage has
    no closed forms; its rows are reported as not applicable and do not
    gate.  Entanglement rows are never gated: the ansatz optimum and
    both closed-form readings are reported side by side.  The weight table
    for the psi2/psi3 closed forms is built here unless `table` is given.
    """
    if stage not in STAGES:
        raise ValueError(f"stage must be one of {STAGES}, got {stage!r}")
    if instance.r is None:
        raise ValueError("instance needs its order r (call with_order() first)")
    amps = state.amplitudes

    def closed(p: float, alpha: float) -> Optional[StageClosedForms]:
        if stage in ("psi1", "psi2"):
            return closed_forms_psi1(instance.Q, p, alpha)
        if instance.m is not None:
            return closed_forms_psi3(instance.r, p, alpha)
        return None

    rows: list[MeasureRow] = []
    for p, numeric in zip(p_grid, measures.l1p_coherence_grid(amps, p_grid)):
        forms = closed(p, 1.0)
        rows.append(_gated_row("C_1p", p, numeric, forms.C_1p if forms else None, tol))
    for alpha, numeric in zip(alpha_grid, measures.tsallis_coherence_grid(amps, alpha_grid)):
        forms = closed(1.0, alpha)
        rows.append(_gated_row("C_alpha", alpha, numeric, forms.C_alpha if forms else None, tol))
    forms = closed(1.0, 2.0)
    rows.append(
        _gated_row(
            "C_g",
            None,
            measures.geometric_coherence_pure(amps),
            forms.C_g if forms else None,
            tol,
        )
    )
    rows.append(_entanglement_row(stage, instance, state, table))
    return MeasureReport(stage=stage, rows=tuple(rows))


def _entanglement_row(
    stage: str,
    instance: ShorInstance,
    state: statevec.PureState,
    table: Optional[ent.HammingTable],
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
    elif instance.m is not None:
        if table is None:
            table = ent.build_hamming_table(instance)
        if stage == "psi2":
            closed = ent.closed_form_eg_psi2(instance, table)
        else:
            both = ent.closed_form_eg_psi3(instance, table)
            closed = both.canonical
            details["closed_form_literal"] = both.literal
    else:
        note = "closed form not applicable (r does not divide Q); reported, not gated"
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
    instance: ShorInstance,
    *,
    p_grid: Sequence[float] = P_GRID_DEFAULT,
    alpha_grid: Sequence[float] = ALPHA_GRID_DEFAULT,
    tol: float = COHERENCE_GAP_TOL,
    states: Optional[tuple[statevec.PureState, ...]] = None,
    table: Optional[ent.HammingTable] = None,
) -> dict[str, MeasureReport]:
    """Simulate the full circuit once and verify every stage against it.

    The weight table is built once here when r | Q (unless `table` is
    given) and shared by the psi2 and psi3 rows.
    """
    if states is None:
        states = statevec.run_order_finding_circuit(instance)
    if table is None and instance.m is not None:
        table = ent.build_hamming_table(instance)
    return {
        stage: verify_stage(
            stage,
            instance,
            state=state,
            p_grid=p_grid,
            alpha_grid=alpha_grid,
            tol=tol,
            table=table,
        )
        for stage, state in zip(STAGES, states)
    }


@dataclass(frozen=True)
class AlphaPeak:
    """Location and value of the post-transform coherence maximum."""

    alpha: float
    value: float
    degenerate: bool


def find_alpha_peak(
    r: int, window: tuple[float, float] = (1.0, 2.0), step: float = 1e-4
) -> AlphaPeak:
    """Argmax of the post-transform Tsallis coherence over (lo, hi].

    Grid search at the given step; the lower edge is excluded (the measure
    has a removable singularity there).  With r = 1 the coherence vanishes
    identically and the first grid point is returned, flagged degenerate.
    """
    lo, hi = window
    if not 0.0 < lo < hi <= 2.0:
        raise ValueError(f"window must satisfy 0 < lo < hi <= 2, got {window}")
    grid = np.arange(lo + step, hi + step / 2.0, step)
    grid = grid[grid <= hi + 1e-15]
    if r == 1:
        return AlphaPeak(alpha=float(grid[0]), value=0.0, degenerate=True)
    r2 = float(r * r)
    safe = np.abs(grid - 1.0) > measures.ALPHA_ONE_TOL
    values = np.empty_like(grid)
    values[safe] = (r2 ** (1.0 - 1.0 / grid[safe]) - 1.0) / (grid[safe] - 1.0)
    values[~safe] = math.log(r2)
    best = int(np.argmax(values))
    return AlphaPeak(alpha=float(grid[best]), value=float(values[best]), degenerate=False)
