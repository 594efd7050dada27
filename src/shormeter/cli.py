"""Command-line front end: simulate, sweep, factor, verify.

Exit codes: 0 success, 1 gated verification failure (or factoring gave up),
2 configuration error.  With a fixed seed every command writes byte-identical
output, and reals in CSV files carry 17 significant digits so parsing them
back is lossless.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass
from math import gcd
from typing import Optional

import numpy as np

from shormeter import measures, statevec, theorems
from shormeter.numtheory import (
    ShorInstance,
    extract_factors,
    recover_order,
    register_sizes,
)

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_CONFIG = 2

# Largest array a run may allocate for its dense state (complex128, 16 bytes
# per amplitude) or its --fast outcome vector (float64, 8 bytes per outcome):
# a 24-qubit dense state.  Larger configs exit 2 before allocating anything.
MEMORY_BUDGET_BYTES = 2**28


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


@dataclass(frozen=True)
class RunConfig:
    N: int
    x: int
    t: int
    L: int
    epsilon: float
    seed: int
    window_ok: bool
    fmt: str = "json"
    out: Optional[str] = None

    def instance(self) -> ShorInstance:
        return ShorInstance(N=self.N, x=self.x, t=self.t, L=self.L).with_order()

    def to_dict(self) -> dict:
        return {
            "N": self.N,
            "x": self.x,
            "t": self.t,
            "L": self.L,
            "Q": 2**self.t,
            "epsilon": self.epsilon,
            "seed": self.seed,
            "quadratic_window_ok": self.window_ok,
        }


class ConfigError(Exception):
    pass


def resolve_config(args: argparse.Namespace) -> RunConfig:
    try:
        sizes = register_sizes(args.n, args.epsilon)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    t = args.t if args.t is not None else sizes.t
    if t < 1:
        raise ConfigError(f"t must be >= 1, got {t}")
    x = args.x
    if x is None:
        rng = np.random.default_rng(args.seed)
        coprimes = [c for c in range(2, args.n) if gcd(c, args.n) == 1]
        x = int(coprimes[rng.integers(len(coprimes))])
    if not 1 < x < args.n:
        raise ConfigError(f"x must satisfy 1 < x < N, got x={x}")
    if gcd(x, args.n) != 1:
        raise ConfigError(
            f"x={x} shares the factor {gcd(x, args.n)} with N={args.n}; "
            "no quantum run needed"
        )
    q = 2**t
    if args.command == "factor" and args.fast:
        need, what = 8 * q, f"the outcome vector over Q=2**{t} outcomes"
    else:
        need, what = 16 * 2 ** (t + sizes.L), f"the dense state on {t + sizes.L} qubits"
    if need > MEMORY_BUDGET_BYTES:
        raise ConfigError(
            f"{what} needs {need} bytes, above the budget of {MEMORY_BUDGET_BYTES} bytes"
        )
    return RunConfig(
        N=args.n,
        x=x,
        t=t,
        L=sizes.L,
        epsilon=args.epsilon,
        seed=args.seed,
        window_ok=args.n**2 <= q < 2 * args.n**2,
        fmt=getattr(args, "format", "json"),
        out=args.out,
    )


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _simulate_csv(reports: dict[str, theorems.MeasureReport]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["stage", "measure", "param", "numeric", "closed_form", "gap", "gated", "pass", "note"]
    )
    for stage in theorems.STAGES:
        for row in reports[stage].rows:
            writer.writerow(
                [
                    stage,
                    row.measure,
                    "" if row.param is None else _fmt(row.param),
                    _fmt(row.numeric),
                    "" if row.closed_form is None else _fmt(row.closed_form),
                    "" if row.gap is None else _fmt(row.gap),
                    "1" if row.gated else "0",
                    "" if row.passed is None else ("1" if row.passed else "0"),
                    row.note,
                ]
            )
    return buf.getvalue()


def cmd_simulate(cfg: RunConfig) -> int:
    instance = cfg.instance()
    states = statevec.run_order_finding_circuit(instance)
    reports, overlaps = theorems.verify_all(instance, states)
    hint = extract_factors(instance.x, instance.r, instance.N)
    payload = {
        "config": cfg.to_dict(),
        "order": instance.r,
        "stages": {stage: reports[stage].to_dict() for stage in theorems.STAGES},
        "variations": theorems.algorithm_variations(instance.Q, instance.r, 1.0, 2.0, overlaps),
        "factor_hint": list(hint) if hint else None,
        "pass": all(reports[stage].passed for stage in theorems.STAGES),
    }
    if instance.m is None:
        payload["warning"] = (
            f"order r={instance.r} does not divide Q={instance.Q}; "
            "closed-form columns marked not applicable"
        )
    if cfg.fmt == "csv":
        _emit(_simulate_csv(reports), cfg.out)
    else:
        _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", cfg.out)
    return EXIT_OK if payload["pass"] else EXIT_VERIFY_FAIL


def _parse_grid(spec: str) -> tuple[float, float, float]:
    try:
        lo, hi, step = (float(part) for part in spec.split(":"))
    except ValueError as exc:
        raise ConfigError(f"grid must look like LO:HI:STEP, got {spec!r}") from exc
    if step <= 0 or hi < lo:
        raise ConfigError(f"bad grid bounds {spec!r}")
    return lo, hi, step


def cmd_sweep(cfg: RunConfig, measure: str, grid_spec: Optional[str]) -> int:
    instance = cfg.instance()
    psi1, psi2, psi3 = statevec.run_order_finding_circuit(instance)
    if grid_spec is None:
        grid_spec = "1.0:2.0:0.05" if measure == "l1p" else "0.05:2.0:0.05"
    lo, hi, step = _parse_grid(grid_spec)
    # index-based grid: accumulating float steps would drift past hi
    count = int(math.floor((hi - lo) / step + 1e-9)) + 1
    params = [round(lo + i * step, 12) for i in range(count)]
    if measure == "l1p":
        params = [param for param in params if 1.0 <= param <= 2.0]
        curves = [measures.l1p_coherence_grid(s.amplitudes, params) for s in (psi1, psi2, psi3)]
        limits = [0] * len(params)
    else:
        params = [param for param in params if 0.0 < param <= 2.0]
        curves = [
            measures.tsallis_coherence_grid(s.amplitudes, params) for s in (psi1, psi2, psi3)
        ]
        limits = [int(abs(param - 1.0) <= measures.ALPHA_ONE_TOL) for param in params]
    lines = ["param,C_psi1,C_psi2,C_psi3,delta,limit_flag"]
    for param, limit, c1, c2, c3 in zip(params, limits, *curves):
        lines.append(
            ",".join([_fmt(param), _fmt(c1), _fmt(c2), _fmt(c3), _fmt(c3 - c1), str(limit)])
        )
    _emit("\n".join(lines) + "\n", cfg.out)
    return EXIT_OK


def cmd_factor(cfg: RunConfig, max_attempts: int, fast: bool) -> int:
    if max_attempts < 1:
        raise ConfigError(f"--max-attempts must be >= 1, got {max_attempts}")
    instance = cfg.instance()
    rng = np.random.default_rng(cfg.seed)
    if fast:
        dist = statevec.outcome_distribution(instance.r, instance.Q)
    else:
        _, _, psi3 = statevec.run_order_finding_circuit(instance)
        dist = statevec.measurement_distribution_A(psi3)
    attempts = []
    factors: Optional[tuple[int, int]] = None
    orders_seen = 0
    for _ in range(max_attempts):
        k = statevec.sample_outcome(dist, rng)
        order = recover_order(k, instance)
        pair = None
        if order is not None:
            orders_seen += 1
            pair = extract_factors(instance.x, order, instance.N)
        attempts.append(
            {"k": k, "order": order, "factors": list(pair) if pair else None}
        )
        if pair is not None:
            factors = pair
            break
    payload = {
        "config": cfg.to_dict(),
        "fast": fast,
        "max_attempts": max_attempts,
        "attempts": attempts,
        "success": factors is not None,
        "factors": sorted(factors) if factors else None,
    }
    if factors is None and orders_seen > 0:
        payload["note"] = (
            "the order was recovered but yielded no factors; "
            f"the even-order method does not apply to x={instance.x}"
        )
    _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", cfg.out)
    return EXIT_OK if factors is not None else EXIT_VERIFY_FAIL


def _perturbed(state: statevec.PureState, eps: float) -> statevec.PureState:
    amps = state.amplitudes.copy()
    amps[int(np.argmax(np.abs(amps)))] *= 1.0 + eps
    amps /= np.sqrt(np.vdot(amps, amps).real)
    return statevec.PureState(state.layout, amps)


def cmd_verify(cfg: RunConfig, debug_perturb: float) -> int:
    instance = cfg.instance()
    states = statevec.run_order_finding_circuit(instance)
    if debug_perturb:
        states = tuple(_perturbed(s, debug_perturb) for s in states)
    reports, _ = theorems.verify_all(instance, states)
    ok = True
    lines = []
    for stage in theorems.STAGES:
        report = reports[stage]
        ok = ok and report.passed
        gated = [row for row in report.rows if row.gated]
        worst = max((row.gap for row in gated), default=None)
        lines.append(
            f"{stage}: {'PASS' if report.passed else 'FAIL'}"
            + (f" (worst gated gap {_fmt(worst)})" if worst is not None else " (no gated rows)")
        )
    payload = {
        "config": cfg.to_dict(),
        "order": instance.r,
        "debug_perturb": debug_perturb,
        "stages": {stage: reports[stage].to_dict() for stage in theorems.STAGES},
        "pass": ok,
    }
    _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", cfg.out)
    for line in lines:
        print(line, file=sys.stderr)
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shormeter",
        description="Order-finding simulator with coherence/entanglement meters",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--n", type=int, required=True, help="odd composite modulus")
        p.add_argument("--x", type=int, default=None, help="base (random coprime if absent)")
        p.add_argument("--t", type=int, default=None, help="control-register qubits")
        p.add_argument("--epsilon", type=float, default=0.25, help="error budget in (0,1)")
        p.add_argument("--seed", type=int, default=0, help="PRNG seed")
        p.add_argument("--out", type=str, default=None, help="output path (stdout if absent)")

    sim = sub.add_parser("simulate", help="run the pipeline and report every stage")
    add_common(sim)
    sim.add_argument("--format", choices=("json", "csv"), default="json")

    sweep = sub.add_parser("sweep", help="parameter sweep of a coherence measure (CSV)")
    add_common(sweep)
    sweep.add_argument("--measure", choices=("l1p", "tsallis"), default="tsallis")
    sweep.add_argument("--grid", type=str, default=None, help="LO:HI:STEP")

    factor = sub.add_parser("factor", help="end-to-end factoring loop")
    add_common(factor)
    factor.add_argument("--max-attempts", type=int, default=10)
    factor.add_argument(
        "--fast",
        action="store_true",
        help="sample outcomes from the closed-form distribution, skipping state evolution",
    )

    verify = sub.add_parser("verify", help="run the verification harness")
    add_common(verify)
    verify.add_argument(
        "--debug-perturb",
        type=float,
        default=0.0,
        help="inject a relative amplitude error to self-test the harness",
    )
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
        if args.command == "simulate":
            return cmd_simulate(cfg)
        if args.command == "sweep":
            return cmd_sweep(cfg, args.measure, args.grid)
        if args.command == "factor":
            return cmd_factor(cfg, args.max_attempts, args.fast)
        if args.command == "verify":
            return cmd_verify(cfg, args.debug_perturb)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
