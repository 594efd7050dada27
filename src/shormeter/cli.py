"""Command-line front end: simulate, sweep, factor, verify.

A run takes one path from argv to report: `main` parses argv, where each
subcommand's parser binds its command; `resolve_config` checks the options
and returns the `ShorInstance` they describe; and the command runs on
(args, instance), which is all it reads.

Exit codes: 0 success, 1 gated verification failure (or factoring gave up),
2 configuration error (bad input, or an --out that cannot be written).  With
a fixed seed every command writes byte-identical output, and reals in CSV
files carry 17 significant digits so parsing them back is lossless.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from math import gcd
from typing import Callable, Optional

import numpy as np

from shormeter import measures, statevec, theorems
from shormeter.numtheory import (
    ShorInstance,
    brief,
    extract_factors,
    recover_order,
    register_sizes,
)

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_CONFIG = 2

# Byte budget of a run: 16 per basis state (one dense complex state, which
# bounds the stored columns), FAST_BYTES_PER_OUTCOME per --fast outcome, and,
# without --x, the list of candidate bases.  2**28 bytes is a 24-qubit dense
# state; larger configs exit 2 before allocating anything, and a charge is
# sized from its exponents, so that no 2**t is built on the way.  Dense
# `factor` holds no state: it peaks at a scratch of 2 MiB or 4 columns plus
# the row sums that then become its CDF in place (3.45 MiB, 0.16 (Q, r)
# blocks, traced at N=49 x=3 on a cold process).  simulate, verify and sweep
# hold one stage's nonzero entries, psi3's rows [0, Q/2f] only, f = gcd(r,
# Q/2, 4), and its measure buffers: traced at t=13, 0.31 to 0.34 blocks at
# N=125 x=2 (f = 4) and 0.52 to 0.55 at N=121 x=2 (f = 2), where the
# Hermitian half (f = 1, as for every odd r) took 1.03 to 1.09.  At 24
# qubits that is 91 and 157 MiB RSS for simulate and verify on them (252
# and 274 MiB as the Hermitian half), and 491 MiB for verify --debug-perturb
# --n 125 --x 2, which builds a full-storage copy of each stage and
# measures it.
MEMORY_BUDGET_BYTES = 2**28
# Charge of `factor --fast` per outcome.  It was the traced peak of four
# Q-long buffers (32.1 bytes at Q = 2**20); the passes now run in
# cache-sized windows, their sin**2 table lives in the output's tail and
# the probabilities become their CDF in place, so the peak is one Q-long
# array and the windows: the distribution traces 8.38 bytes per outcome at
# Q = 2**20 for odd and even r (r = 35, 41, 40, 42), and a whole job 8.38
# (N=213 x=100, r = 35) and 9.28 (N=129 x=5, r = 42).  The charge stays, so
# that no input changes its exit code.
FAST_BYTES_PER_OUTCOME = 33
MAX_GRID_POINTS = 100_000  # a tiny --grid STEP exits 2 instead of listing unbounded points
# Each failing factor attempt costs about 40 us at N = 49 and 0.8 KB of
# output and RSS.  Its order recovery steps through at most N // d powers
# of x**d per convergent denominator d, holding one: up to 22 ms (median
# 6 ms) over 200 sampled outcomes at N = 2**23 - 1, the order-search bound.
# A larger --max-attempts exits 2 instead of running for hours.
MAX_ATTEMPTS = 10_000
# The brute-force order search takes up to N - 1 modular multiplications
# (about 1 s at N = 2**23), so a larger N exits 2 before searching.
MAX_ORDER_SEARCH_N = 2**23


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _quoted(text: str) -> str:
    """repr(text), or once that is long, its start and the length of text."""
    shown = repr(text)
    return shown if len(shown) <= 40 else f"{shown[:24]}... <{len(text)} characters>"


# argparse echoes a rejected text in full; these types quote it by `_quoted`
# in argparse's own words.
def _typed(kind: Callable[[str], object]) -> Callable[[str], object]:
    """kind(text) for argparse, for kind int or float."""

    def parse(text: str) -> object:
        try:
            return kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {kind.__name__} value: {_quoted(text)}"
            ) from None

    return parse


def _one_of(choices: tuple[str, ...]) -> Callable[[str], str]:
    """text if it is one of choices; the option keeps `choices=` for its usage."""

    def parse(text: str) -> str:
        if text not in choices:
            listed = ", ".join(map(repr, choices))
            raise argparse.ArgumentTypeError(
                f"invalid choice: {_quoted(text)} (choose from {listed})"
            )
        return text

    return parse


class ConfigError(Exception):
    pass


def resolve_config(args: argparse.Namespace) -> ShorInstance:
    """The instance `args` describe, or ConfigError for bad or oversized input."""
    try:
        sizes = register_sizes(args.n, args.epsilon)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {brief(args.seed)}")
    t = args.t if args.t is not None else sizes.t
    if t < 1:
        raise ConfigError(f"t must be >= 1, got {brief(t)}")
    # each charge is unit * 2**shift bytes
    if args.command == "factor" and args.fast:
        budget = [(FAST_BYTES_PER_OUTCOME, t, f"the outcome buffers over Q=2**{brief(t)} outcomes")]
    else:
        budget = [(16, t + sizes.L, f"the dense state on {brief(t + sizes.L)} qubits")]
    if args.x is None:  # a list slot and an int object per candidate base
        size = (8 + sys.getsizeof(args.n)) * (args.n - 2)
        budget.append((size, 0, f"the list of bases below N={brief(args.n)}"))
    for unit, shift, what in budget:
        # a charge of more than 64 bits is over the budget by its bit length
        # alone: it is neither built nor printed in full
        bits = unit.bit_length() + shift
        need = f"at least 2**{brief(bits - 1)}" if bits > 64 else unit << shift
        if bits > 64 or need > MEMORY_BUDGET_BYTES:
            raise ConfigError(
                f"{what} needs {need} bytes, above the budget of {MEMORY_BUDGET_BYTES} bytes"
            )
    if args.n > MAX_ORDER_SEARCH_N:
        raise ConfigError(
            f"N={brief(args.n)} is above the order-search bound of {MAX_ORDER_SEARCH_N}"
        )
    x = args.x
    if x is None:
        rng = np.random.default_rng(args.seed)
        coprimes = [c for c in range(2, args.n) if gcd(c, args.n) == 1]
        x = int(coprimes[rng.integers(len(coprimes))])
    if not 1 < x < args.n:
        raise ConfigError(f"x must satisfy 1 < x < N, got x={brief(x)}")
    if gcd(x, args.n) != 1:
        raise ConfigError(
            f"x={x} shares the factor {gcd(x, args.n)} with N={args.n}; "
            "no quantum run needed"
        )
    return ShorInstance(N=args.n, x=x, t=t, L=sizes.L)


def _config(args: argparse.Namespace, instance: ShorInstance) -> dict:
    """The "config" object of every JSON report."""
    return dict(
        N=instance.N,
        x=instance.x,
        t=instance.t,
        L=instance.L,
        Q=instance.Q,
        epsilon=args.epsilon,
        seed=args.seed,
        quadratic_window_ok=instance.window_ok,
    )


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write --out {_quoted(out)}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)


def _simulate_csv(reports: dict[str, dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["stage", "measure", "param", "numeric", "closed_form", "gap", "gated", "pass", "note"]
    )
    for stage in theorems.STAGES:
        for measure, rows in reports[stage]["measures"].items():
            for row in rows:
                writer.writerow(
                    [
                        stage,
                        measure,
                        "" if row["param"] is None else _fmt(row["param"]),
                        _fmt(row["numeric"]),
                        "" if row["closed_form"] is None else _fmt(row["closed_form"]),
                        "" if row["gap"] is None else _fmt(row["gap"]),
                        "1" if row["gated"] else "0",
                        "" if row["pass"] is None else ("1" if row["pass"] else "0"),
                        row["note"],
                    ]
                )
    return buf.getvalue()


def cmd_simulate(args: argparse.Namespace, instance: ShorInstance) -> int:
    states = statevec.run_order_finding_circuit(instance)
    reports, overlaps = theorems.verify_all(instance, states)
    hint = extract_factors(instance.x, instance.r, instance.N)
    payload = {
        "config": _config(args, instance),
        "order": instance.r,
        "stages": reports,
        "variations": theorems.algorithm_variations(instance.Q, instance.r, 1.0, 2.0, overlaps),
        "factor_hint": list(hint) if hint else None,
        "pass": all(report["pass"] for report in reports.values()),
    }
    if instance.m is None:
        payload["warning"] = (
            f"order r={instance.r} does not divide Q={instance.Q}; "
            "closed-form columns marked not applicable"
        )
    if args.format == "csv":
        _emit(_simulate_csv(reports), args.out)
    else:
        _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    return EXIT_OK if payload["pass"] else EXIT_VERIFY_FAIL


def _parse_grid(spec: str) -> list[float]:
    try:
        lo, hi, step = (float(part) for part in spec.split(":"))
    except ValueError as exc:
        raise ConfigError(f"grid must look like LO:HI:STEP, got {_quoted(spec)}") from exc
    if not all(math.isfinite(v) for v in (lo, hi, step)) or step <= 0 or hi < lo:
        raise ConfigError(f"bad grid bounds {_quoted(spec)}")
    span = (hi - lo) / step  # inf when hi - lo overflows
    if span >= MAX_GRID_POINTS:
        raise ConfigError(f"grid {_quoted(spec)} has more than {MAX_GRID_POINTS} points")
    # index-based grid: accumulating float steps would drift past hi
    count = int(math.floor(span + 1e-9)) + 1
    return [round(lo + i * step, 12) for i in range(count)]


def cmd_sweep(args: argparse.Namespace, instance: ShorInstance) -> int:
    measure, grid_spec = args.measure, args.grid
    if grid_spec is None:
        grid_spec = "1.0:2.0:0.05" if measure == "l1p" else "0.05:2.0:0.05"
    params = _parse_grid(grid_spec)
    if measure == "l1p":
        grid, domain = measures.l1p_coherence_grid, "p in [1, 2]"
        params = [param for param in params if 1.0 <= param <= 2.0]
        limits = [0] * len(params)
    else:
        grid, domain = measures.tsallis_coherence_grid, "alpha in (0, 2]"
        params = [param for param in params if 0.0 < param <= 2.0]
        limits = [int(abs(param - 1.0) <= measures.ALPHA_ONE_TOL) for param in params]
    if not params:
        raise ConfigError(f"grid {_quoted(grid_spec)} has no point with {domain}")
    states = statevec.run_order_finding_circuit(instance)
    # by map: a comprehension's variable would hold a stage while the next is built
    curves = list(map(lambda state: grid(state, params), states))
    lines = ["param,C_psi1,C_psi2,C_psi3,delta,limit_flag"]
    for param, limit, c1, c2, c3 in zip(params, limits, *curves):
        lines.append(
            ",".join([_fmt(param), _fmt(c1), _fmt(c2), _fmt(c3), _fmt(c3 - c1), str(limit)])
        )
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_factor(args: argparse.Namespace, instance: ShorInstance) -> int:
    max_attempts, fast = args.max_attempts, args.fast
    if max_attempts < 1:
        raise ConfigError(f"--max-attempts must be >= 1, got {brief(max_attempts)}")
    if max_attempts > MAX_ATTEMPTS:
        raise ConfigError(f"--max-attempts must be <= {MAX_ATTEMPTS}, got {brief(max_attempts)}")
    rng = np.random.default_rng(args.seed)
    if fast:
        dist = statevec.outcome_distribution(instance.r, instance.Q)
    else:  # summed from the modexp columns a chunk at a time: no stage is held
        dist = statevec.final_distribution(instance)
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
        "config": _config(args, instance),
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
    _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    return EXIT_OK if factors is not None else EXIT_VERIFY_FAIL


def _perturbed(state: statevec.PureState, eps: float) -> statevec.PureState:
    try:
        return statevec.perturbed(state, eps)
    except ValueError as exc:
        raise ConfigError(f"--debug-perturb {eps!r} leaves no valid state: {exc}") from exc


def cmd_verify(args: argparse.Namespace, instance: ShorInstance) -> int:
    if not math.isfinite(args.debug_perturb):
        raise ConfigError(f"--debug-perturb must be finite, got {args.debug_perturb!r}")
    states = statevec.run_order_finding_circuit(instance)
    if args.debug_perturb:  # by map, whose call holds the unperturbed stage alone
        states = map(functools.partial(_perturbed, eps=args.debug_perturb), states)
    reports, _ = theorems.verify_all(instance, states)
    lines = []
    for stage, report in reports.items():
        gaps = [row["gap"] for rows in report["measures"].values() for row in rows if row["gated"]]
        lines.append(
            f"{stage}: {'PASS' if report['pass'] else 'FAIL'}"
            + (f" (worst gated gap {_fmt(max(gaps))})" if gaps else " (no gated rows)")
        )
    ok = all(report["pass"] for report in reports.values())
    payload = {
        "config": _config(args, instance),
        "order": instance.r,
        "debug_perturb": args.debug_perturb,
        "stages": reports,
        "pass": ok,
    }
    _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    for line in lines:
        print(line, file=sys.stderr)
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shormeter",
        description="Order-finding simulator with coherence/entanglement meters",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    integer, real = _typed(int), _typed(float)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--n", type=integer, required=True, help="odd composite modulus")
        p.add_argument("--x", type=integer, default=None, help="base (random coprime if absent)")
        p.add_argument("--t", type=integer, default=None, help="control-register qubits")
        p.add_argument("--epsilon", type=real, default=0.25, help="error budget in (0,1)")
        p.add_argument("--seed", type=integer, default=0, help="PRNG seed")
        p.add_argument("--out", type=str, default=None, help="output path (stdout if absent)")

    sim = sub.add_parser("simulate", help="run the pipeline and report every stage")
    add_common(sim)
    formats = ("json", "csv")
    sim.add_argument("--format", choices=formats, type=_one_of(formats), default="json")
    sim.set_defaults(run=cmd_simulate)

    sweep = sub.add_parser("sweep", help="parameter sweep of a coherence measure (CSV)")
    add_common(sweep)
    kinds = ("l1p", "tsallis")
    sweep.add_argument("--measure", choices=kinds, type=_one_of(kinds), default="tsallis")
    sweep.add_argument("--grid", type=str, default=None, help="LO:HI:STEP")
    sweep.set_defaults(run=cmd_sweep)

    factor = sub.add_parser("factor", help="end-to-end factoring loop")
    add_common(factor)
    factor.add_argument("--max-attempts", type=integer, default=10)
    factor.add_argument(
        "--fast",
        action="store_true",
        help="sample outcomes from the closed-form distribution, skipping state evolution",
    )
    factor.set_defaults(run=cmd_factor)

    verify = sub.add_parser("verify", help="run the verification harness")
    add_common(verify)
    verify.add_argument(
        "--debug-perturb",
        type=real,
        default=0.0,
        help="inject a relative amplitude error to self-test the harness",
    )
    verify.set_defaults(run=cmd_verify)
    return parser


# The grammar is fixed and parse_args keeps no state in the parser, so every
# `main` call in a process parses with the one parser built on first use.
_parser = functools.lru_cache(maxsize=None)(build_parser)


def main(argv: Optional[list[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.run(args, resolve_config(args))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
