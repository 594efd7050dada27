#!/usr/bin/env python3
"""Benchmark of the shormeter CLI: one closed-loop client, checked outputs.

    python3 perfbench/run.py --workload report --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root.  The program is imported from ``src/`` of the
same checkout and driven in-process through ``shormeter.cli.main(argv)``,
one operation at a time, each writing to a scratch file under
``.perfbench_out/``.  Every output is checked (see ``checks.py``).  The last
line of stdout is the result object; the line before it holds the details
(environment, per-op wall time and sha256, the tail percentile).

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced rounds and reports the per-layer metrics plus the
tracing overhead.  ``--self-test`` proves the failure counter on a perturbed
``verify`` and checks that the smallest instance emits every metric.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import checks
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

CHILD_TIMEOUT_S = 60
SETUP_CHILDREN = 8  # set-up samples taken in child processes per run
TAIL_BEYOND = 10  # op_tail_s: highest percentile with this many samples beyond

# BLAS and OpenMP pools are pinned to one thread (at most nproc): the ops are
# mostly element-wise, and a single thread keeps runs on a shared 2-core box
# comparable.  Set before numpy is first imported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Every end-to-end figure, with its unit; the details line prints them all.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mb": "MB",
    "fail_frac": "ratio",
}
# The figures the result line carries and BENCHMARK.json bounds.  The shared
# 2-vCPU host this was tuned on moves between load regimes, lasting seconds
# to minutes, that make every op up to 2x slower.  ops_per_s and op_p50_s
# follow the regime mix of a run (quartile spread over ten report runs: up
# to 0.31 and 0.40), while the tail (0.04-0.13 across workloads) and the
# memory high-water mark (under 0.01) hold.  setup_s follows the regime too,
# but the median of its nine samples per run moved at most 12.5% between
# sets of ten runs.  fail_frac is 0 on a correct program; the result's
# failed and correct fields gate it.
DECLARED = ("setup_s", "op_tail_s", "peak_rss_mb")

# Functions whose calls and self time the traced run reports (per operation).
TRACED_FUNCTIONS = (
    "entanglement.geometric_entanglement_product",
    "entanglement.geometric_entanglement_symmetric",
    "entanglement.build_hamming_table",
    "entanglement.closed_form_eg_psi2",
    "entanglement.closed_form_eg_psi3",
    "theorems.verify_all",
    "theorems.verify_stage",
    "theorems.algorithm_variations",
    "measures.tsallis_coherence_pure",
    "measures.l1p_coherence_pure",
    "measures.geometric_coherence_pure",
    "statevec.apply_hadamard_layer",
    "statevec.apply_modexp_unitary",
    "statevec.apply_inverse_qft_A",
    "statevec.measurement_distribution_A",
    "statevec.run_order_finding_circuit",
    "statevec.outcome_distribution",
    "numtheory.recover_order",
    "numtheory.extract_factors",
    "numtheory.find_order_bruteforce",
    "cli.main",
)


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in TRACED_FUNCTIONS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for layer in spans.LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.share"] = "ratio"
        units[f"{layer}.errors"] = "count"
    units.update(
        {
            "theorems.gated_row_frac": "ratio",
            "measures.amps_read": "count",
            "statevec.amps_touched": "count",
            "numtheory.order_hit_frac": "ratio",
            "cli.out_bytes": "bytes",
            "trace.ops_per_s": "1/s",
            "trace.untraced_ops_per_s": "1/s",
            "trace.overhead_frac": "ratio",
        }
    )
    return units


class SetupError(Exception):
    pass


@dataclass
class Record:
    """Outcome of one CLI operation."""

    kind: str
    seconds: float
    rc: Optional[int]
    problems: list[str]
    sha256: str
    out_bytes: int
    gated_rows: int = 0
    rows: int = 0
    traced: bool = False

    @property
    def failed(self) -> bool:
        return bool(self.problems)


@dataclass
class Window:
    records: list[Record] = field(default_factory=list)
    elapsed: float = 0.0
    rounds: int = 0
    traced_time: float = 0.0
    untraced_time: float = 0.0


def pin_threads() -> None:
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_cli():
    """shormeter.cli from this checkout's src/, never from elsewhere."""
    if not (SRC / "shormeter" / "__init__.py").is_file():
        raise SetupError(f"no shormeter package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import shormeter
    import shormeter.cli

    if not Path(shormeter.__file__).resolve().is_relative_to(SRC):
        raise SetupError(f"imported shormeter from {shormeter.__file__}, not {SRC}")
    return shormeter.cli


def run_op(cli, op: workloads.Op, out_path: Path, tracer=None, op_id=None) -> Record:
    """Run one op through cli.main, time it, and check its output."""
    with contextlib.suppress(FileNotFoundError):
        out_path.unlink()
    argv = list(op.argv) + ["--out", str(out_path)]
    stderr = io.StringIO()
    problems: list[str] = []
    rc: Optional[int] = None
    if tracer is not None:
        tracer.op_id = op_id
    start = time.perf_counter()
    try:
        with contextlib.redirect_stderr(stderr):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejects bad argv this way
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # any exception is a failed op, not a dead run
        problems.append(f"exception {type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - start
    data = out_path.read_bytes() if out_path.exists() else b""
    gated = rows = 0
    if not problems:
        found, gated, rows = checks.check(op, rc, data.decode("utf-8", "replace"))
        problems.extend(found)
    if problems and stderr.getvalue():
        problems.append("stderr: " + stderr.getvalue().strip()[-300:])
    return Record(
        kind=op.kind,
        seconds=seconds,
        rc=rc,
        problems=problems,
        sha256=hashlib.sha256(data).hexdigest(),
        out_bytes=len(data),
        gated_rows=gated,
        rows=rows,
        traced=tracer is not None,
    )


def run_window(
    cli, stream, seconds: float, out_path: Path, tracer=None, pause=None
) -> Window:
    """Whole rounds until `seconds` have passed (at least one; two when tracing).

    With a tracer, even rounds run traced and odd rounds untraced, so the
    tracing overhead is measured on the same mix in the same process.
    `pause` runs off the clock SETUP_CHILDREN times: between rounds once each
    1/SETUP_CHILDREN of the window has passed, and at the end.
    """
    win = Window()
    min_rounds = 1 if tracer is None else 2
    start = time.perf_counter()
    paused = 0.0
    marks = 1
    while win.rounds < min_rounds or time.perf_counter() - start - paused < seconds:
        while pause is not None and marks < SETUP_CHILDREN and (
            time.perf_counter() - start - paused >= seconds * marks / SETUP_CHILDREN
        ):
            pause_start = time.perf_counter()
            pause()
            marks += 1
            paused += time.perf_counter() - pause_start
        ops = next(stream)
        traced = tracer is not None and win.rounds % 2 == 0
        if traced:
            tracer.install()
        round_start = time.perf_counter()
        try:
            for op in ops:
                win.records.append(
                    run_op(cli, op, out_path, tracer if traced else None, len(win.records))
                )
        finally:
            if traced:
                tracer.uninstall()
        round_time = time.perf_counter() - round_start
        if traced:
            win.traced_time += round_time
        else:
            win.untraced_time += round_time
        win.rounds += 1
    win.elapsed = time.perf_counter() - start - paused
    # The last mark is the end; a long last round may also have passed others.
    while pause is not None and marks <= SETUP_CHILDREN:
        pause()
        marks += 1
    return win


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the highest percentile that
    still has TAIL_BEYOND samples above it.  Below 2 * TAIL_BEYOND + 1
    samples that percentile is not above the median, so the maximum stands in.
    """
    ordered = sorted(values)
    n = len(ordered)
    index = n - 1 - TAIL_BEYOND if n > 2 * TAIL_BEYOND else n - 1
    return ordered[index], 100.0 * (index + 1) / n, n - 1 - index


def end_to_end(win: Window, setup_samples: list[float]) -> dict[str, float]:
    times = [r.seconds for r in win.records]
    return {
        "setup_s": statistics.median(setup_samples),
        "ops_per_s": len(times) / win.elapsed,
        "op_p50_s": statistics.median(times),
        "op_tail_s": tail(times)[0],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "fail_frac": sum(r.failed for r in win.records) / len(times),
    }


def per_layer(win: Window, tracer: spans.Tracer) -> dict[str, float]:
    traced = [r for r in win.records if r.traced]
    untraced = [r for r in win.records if not r.traced]
    n_ops = len(traced)
    wall = sum(r.seconds for r in traced)
    calls, self_s = tracer.self_times()
    out: dict[str, float] = {}
    for name in TRACED_FUNCTIONS:
        out[f"{name}.calls"] = calls.get(name, 0) / n_ops
        out[f"{name}.self_s"] = self_s.get(name, 0.0) / n_ops
    for layer in spans.LAYERS:
        layer_self = sum(v for k, v in self_s.items() if k.startswith(layer + "."))
        out[f"{layer}.self_s"] = layer_self / n_ops
        out[f"{layer}.share"] = layer_self / wall
        out[f"{layer}.errors"] = tracer.errors[layer]
    rows = sum(r.rows for r in traced)
    recover_calls = calls.get("numtheory.recover_order", 0)
    traced_rate = n_ops / win.traced_time
    untraced_rate = len(untraced) / win.untraced_time
    out.update(
        {
            "theorems.gated_row_frac": sum(r.gated_rows for r in traced) / rows if rows else 0.0,
            "measures.amps_read": tracer.counts["measures.amps_read"] / n_ops,
            "statevec.amps_touched": tracer.counts["statevec.amps_touched"] / n_ops,
            "numtheory.order_hit_frac": (
                tracer.counts["numtheory.order_hits"] / recover_calls if recover_calls else 0.0
            ),
            "cli.out_bytes": sum(r.out_bytes for r in traced) / n_ops,
            "trace.ops_per_s": traced_rate,
            "trace.untraced_ops_per_s": untraced_rate,
            "trace.overhead_frac": 1.0 - traced_rate / untraced_rate,
        }
    )
    return out


def environment() -> dict:
    import numpy

    caches = {}
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        with contextlib.suppress(OSError):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}-{kind}"] = (index / "size").read_text().strip()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "machine": platform.machine(),
        "caches": caches,
    }


def setup(workload: str, seed: int, out_path: Path):
    """Import the program, build the op stream, run one checked warm-up op."""
    start = time.perf_counter()
    cli = import_cli()
    stream = workloads.rounds(workload, seed)
    first = next(stream)
    warm = run_op(cli, workloads.warmup_op(), out_path)
    seconds = time.perf_counter() - start
    if warm.failed:
        raise SetupError(f"warm-up op failed: {warm.problems}")

    def resumed():
        yield first
        yield from stream

    return cli, resumed(), seconds


def child_setup_seconds(workload: str, seed: int) -> float:
    """Set-up time measured in a fresh interpreter (imports are not cached)."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        check=False,
    )
    if proc.returncode != 0:
        raise SetupError(f"set-up child failed: {proc.stderr.strip()[-500:]}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def summary(win: Window) -> dict:
    times = [r.seconds for r in win.records]
    _, percentile, beyond = tail(times)
    failed = [r for r in win.records if r.failed]
    return {
        "rounds": win.rounds,
        "window_s": win.elapsed,
        "op_tail": {"percentile": percentile, "samples": len(times), "beyond": beyond},
        "ops": [[r.kind, round(r.seconds, 6), r.rc, not r.failed, r.sha256] for r in win.records],
        "problems": [[r.kind, r.problems] for r in failed][:5],
    }


def measure(args) -> int:
    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"op-{os.getpid()}.out"
    try:
        cli, stream, own_setup = setup(args.workload, args.seed, out_path)
        if args.setup_only:
            print(json.dumps({"setup_s": own_setup}))
            return 0
        setup_samples = [own_setup]

        def child_setup():
            setup_samples.append(child_setup_seconds(args.workload, args.seed))

        # Set-up samples: this process at the start, then a fresh child
        # process after each eighth of the run, so that their median does
        # not hang on one moment of the host's load.
        tracer = spans.Tracer() if args.trace else None
        pause = None if args.trace else child_setup
        win = run_window(cli, stream, args.seconds, out_path, tracer, pause)
    finally:
        with contextlib.suppress(FileNotFoundError):
            out_path.unlink()
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(),
        "setup_samples_s": setup_samples,
        **summary(win),
    }
    if tracer is not None:
        units = per_layer_units()
        metrics = per_layer(win, tracer)
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(str(spans_path))
        details["spans_file"] = str(spans_path.relative_to(ROOT))
        details["binding_sites"] = tracer.sites
    else:
        units = END_TO_END
        figures = end_to_end(win, setup_samples)
        details["end_to_end"] = {k: {"value": v, "unit": units[k]} for k, v in figures.items()}
        metrics = {k: figures[k] for k in DECLARED}
    failed = sum(r.failed for r in win.records)
    print(json.dumps({"details": details}))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": len(win.records),
                "failed": failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0


def wrapped_sites(tracer: spans.Tracer) -> list[str]:
    """Problems unless the from-import and re-export bindings get wrapped and restored."""
    import shormeter

    sites = [
        (shormeter.cli, "recover_order"),
        (shormeter.cli, "extract_factors"),
        (shormeter.cli, "register_sizes"),
        (shormeter, "recover_order"),
        (shormeter, "run_order_finding_circuit"),
        (shormeter.cli, "main"),
    ]
    problems = []
    tracer.install()
    try:
        problems += [f"{m.__name__}.{a} not wrapped" for m, a in sites
                     if not hasattr(getattr(m, a), "__wrapped__")]
    finally:
        tracer.uninstall()
    problems += [f"{m.__name__}.{a} not restored" for m, a in sites
                 if hasattr(getattr(m, a), "__wrapped__")]
    print(f"tracer binding sites: {tracer.sites}")
    return problems


def self_test() -> int:
    """Perturbed verify counts as failed; the smallest instance emits every metric."""
    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"selftest-{os.getpid()}.out"
    problems = []
    try:
        cli, stream, setup_s = setup("smoke", 0, out_path)
        bad = run_op(cli, workloads.perturbed_op(0), out_path)
        good = run_op(cli, workloads.warmup_op(), out_path)
        win = Window(records=[bad, good], elapsed=bad.seconds + good.seconds)
        fail_frac = end_to_end(win, [setup_s])["fail_frac"]
        print(f"perturbed verify: exit {bad.rc}, problems {bad.problems[:2]}")
        print(f"fail_frac over [perturbed, clean] = {fail_frac}")
        if not (bad.failed and not good.failed and fail_frac == 0.5):
            problems.append("the perturbed op did not count as the one failure")
        plain = run_window(cli, stream, 0.0, out_path)
        tracer = spans.Tracer()
        problems += wrapped_sites(tracer)
        traced = run_window(cli, stream, 0.0, out_path, tracer)
    finally:
        with contextlib.suppress(FileNotFoundError):
            out_path.unlink()
    units = {**END_TO_END, **per_layer_units()}
    figures = {**end_to_end(plain, [setup_s]), **per_layer(traced, tracer)}
    for name, value in figures.items():
        print(f"{name} = {value!r} [{units[name]}]")
    emitted = {(k, units[k]) for k in DECLARED} | {(k, units[k]) for k in per_layer_units()}
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = {(e["name"], e["unit"]) for e in declared["end_to_end"] + declared["per_layer"]}
    problems += [f"{n} [{u}] declared but not emitted" for n, u in sorted(listed - emitted)]
    problems += [f"{n} [{u}] emitted but not declared" for n, u in sorted(emitted - listed)]
    for record in plain.records + traced.records:
        problems += [f"{record.kind}: {p}" for p in record.problems]
    print("self-test:", "FAIL" if problems else "ok")
    for problem in problems:
        print("  " + problem)
    return 1 if problems else 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    pin_threads()
    try:
        if args.self_test:
            return self_test()
        if args.workload is None:
            parser.error("--workload is required")
        return measure(args)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
