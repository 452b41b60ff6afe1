"""Benchmark runner for qwcycle.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (closed_form, oracle_sweep, temp_scan, cli) in this
process: it builds the inputs from the seed, repeats the workload's fixed
list of operations in whole rounds for about S seconds, then checks every
output against ``reference`` outside the timed spans.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; ``--trace 0`` reports the end-to-end metrics and
``--trace 1`` the per-layer ones.  Exits with 2, printing no result, when the
package cannot be imported from ``src/`` next to this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "_out"
# set-up probes per run, spread over it: before the first round, between
# rounds at an even pace, and after the last; the median is reported
PROBES_BEFORE, PROBES_DURING, PROBES_AFTER = 3, 9, 3
# cores this process may use, and how long a choice of core is kept
CORES = sorted(os.sched_getaffinity(0))
REPICK_S = 0.5


def import_package() -> None:
    """Import qwcycle from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    try:
        import qwcycle
    except ImportError as exc:
        print(f"error: cannot import qwcycle from {SRC}: {exc}", file=sys.stderr)
        raise SystemExit(2) from None
    if not Path(qwcycle.__file__).resolve().is_relative_to(SRC):
        print(f"error: qwcycle was imported from {qwcycle.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)


def setup_probe(workload: str, seed: int) -> float:
    """Time from process start to the first timed operation, in a fresh
    interpreter that imports the package, builds the inputs and reports ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    pick_core()
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    if line.strip() != "ready" or proc.returncode != 0:
        raise SystemExit(f"error: set-up probe failed (exit {proc.returncode})")
    return elapsed


def pick_core() -> None:
    """Pin this thread to the core that runs a short NumPy loop fastest now.

    On a shared virtual machine one core can run far slower than the other
    for seconds at a time; timing on the quieter core keeps the figures
    about the program.  Child processes inherit the choice.
    """
    if len(CORES) < 2:
        return
    import numpy as np

    x = np.ones((2, 256), dtype=np.complex128)
    speed = {}
    for core in CORES:
        os.sched_setaffinity(0, {core})
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            for _ in range(10):
                np.einsum("ak,bk->ab", np.fft.fft(x, axis=1), x)
            best = min(best, time.perf_counter() - t0)
        speed[core] = best
    os.sched_setaffinity(0, {min(speed, key=speed.get)})


def clear_program_caches() -> None:
    """Start every round cold, so that rounds repeat the same work."""
    import qwcycle

    clear = getattr(qwcycle.solve_all_blocks, "cache_clear", None)
    if clear:
        clear()


def run_rounds(
    ops: list, seconds: float, first_round: int = 0, between: Callable[[], None] = lambda: None
) -> tuple[list[list[float]], list[list]]:
    """Whole rounds of the operation list until the next would end after
    ``seconds``; at least one.  Returns the time and the output of every
    operation, round by round.  ``between`` runs after each round, untimed."""
    op_s, outputs = [], []
    start = picked = time.perf_counter()
    pick_core()
    while True:
        clear_program_caches()
        times, outs = [], []
        for op in ops:
            if time.perf_counter() - picked > REPICK_S:
                pick_core()
                picked = time.perf_counter()
            t0 = time.perf_counter()
            try:
                out = op.run(first_round + len(outputs))
            except Exception as exc:  # a failed operation is counted, not fatal
                out = exc
            times.append(time.perf_counter() - t0)
            if outputs and same_output(out, outputs[0][len(outs)]):
                out = outputs[0][len(outs)]  # keep one copy: memory stays flat
            outs.append(out)
        op_s.append(times)
        outputs.append(outs)
        between()
        round_s = statistics.median(sum(t) for t in op_s)
        if time.perf_counter() - start + round_s > seconds:
            return op_s, outputs


def same_output(a: object, b: object) -> bool:
    """Is a later round's output identical to the first round's?"""
    import numpy as np

    if isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
        return a.shape == b.shape and bool((a == b).all())
    if hasattr(a, "values") and hasattr(b, "values"):  # a ScanGrid
        return all(
            np.array_equal(getattr(a, f), getattr(b, f), equal_nan=True)
            for f in ("axis1", "axis2", "values", "reference_temperature")
        )
    return type(a) is type(b) and not isinstance(a, Exception) and a == b


def best_times(op_s: list[list[float]]) -> list[float]:
    """Each operation at its best round: other load on the machine only ever
    slows an operation down, so the fastest round is the steadiest estimate."""
    return [min(times) for times in zip(*op_s)]


def check_outputs(ops: list, outputs: list[list]) -> tuple[bool, int]:
    """(correct, failed) over every output of every round."""
    correct, failed, seen, checked = True, 0, set(), {}
    for outs in outputs:
        for op, out in zip(ops, outs):
            if isinstance(out, Exception):
                err = f"raised {type(out).__name__}: {out}"
            elif id(out) in checked:  # the same object as an earlier round's
                err = checked[id(out)]
            else:
                err = checked[id(out)] = op.check(out)
            if err is None:
                continue
            failed += 1
            correct = correct and op.known_fault
            if (op.name, err) not in seen:
                seen.add((op.name, err))
                kind = "known fault" if op.known_fault else "WRONG"
                print(f"{kind}: {op.name}: {err}", file=sys.stderr)
    return correct, failed


def timed_run(args: argparse.Namespace, ops: list) -> tuple[dict, list[list]]:
    """End-to-end metrics, with tracing off."""
    probes = [setup_probe(args.workload, args.seed) for _ in range(PROBES_BEFORE)]
    start = time.perf_counter()

    def probe_between() -> None:
        due = min(PROBES_DURING, PROBES_DURING * (time.perf_counter() - start) / args.seconds)
        while len(probes) < PROBES_BEFORE + due:
            probes.append(setup_probe(args.workload, args.seed))

    op_s, outputs = run_rounds(ops, args.seconds, between=probe_between)
    # read before any reference computation, so the peak is the program's
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    while len(probes) < PROBES_BEFORE + PROBES_DURING + PROBES_AFTER:
        probes.append(setup_probe(args.workload, args.seed))

    best = best_times(op_s)
    for op, t in zip(ops, best):
        print(f"  {1e3 * t:10.2f} ms  {op.name}")
    metrics = {
        "setup_s": (statistics.median(probes), "s"),
        "wall_s": (sum(best), "s"),
        "op_p50_ms": (1e3 * statistics.median(best), "ms"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
    return metrics, outputs


def traced_run(args: argparse.Namespace, ops: list) -> tuple[dict, list[list]]:
    """Per-layer metrics: untraced and traced rounds in turn, so that the
    tracing overhead compares rounds run under the same conditions."""
    import qwcycle
    from tracing import LAYER_UNITS, Tracer, layer_metrics

    tracer = Tracer()
    plain_s, traced_s, outputs = [], [], []
    start = time.perf_counter()
    while True:
        op_s, outs = run_rounds(ops, 0.0, first_round=len(outputs))
        plain_s += op_s
        outputs += outs
        tracer.install()
        try:
            op_s, outs = run_rounds(ops, 0.0, first_round=len(outputs))
        finally:
            tracer.uninstall()
        traced_s += op_s
        outputs += outs
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(plain_s) > args.seconds:
            break
    tracer.dump(OUT / "trace" / f"{args.workload}-{args.seed}.json")

    def cross_pairs(coin: object, n: int) -> int:
        return len(qwcycle.degeneracy_table(coin, n).cross_pairs())

    values = layer_metrics(tracer.spans, len(traced_s), cross_pairs)
    overhead = sum(best_times(traced_s)) / sum(best_times(plain_s)) - 1.0
    values["trace.overhead_pct"] = 100.0 * overhead
    return {name: (values[name], unit) for name, unit in LAYER_UNITS.items()}, outputs


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    import_package()
    import workloads

    if args.workload not in workloads.NAMES:
        p.error(f"--workload must be one of {', '.join(workloads.NAMES)}")
    # a probe writes its inputs apart, so it never touches the run's outputs
    ops = workloads.build(args.workload, args.seed, OUT / "probe" if args.setup_probe else OUT)
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    metrics, outputs = (traced_run if args.trace else timed_run)(args, ops)
    correct, failed = check_outputs(ops, outputs)
    gap = workloads.reference_self_check()
    print(f"reference self-check: block vs dense 2N x 2N within {gap:.1e}")
    print(f"{args.workload}: {len(outputs)} rounds of {len(ops)} operations, seed {args.seed}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    result = {
        "correct": correct,
        "attempted": len(outputs) * len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
