"""Benchmark for stratiwave: one workload per run, one JSON line as result.

    python3 perfbench/run.py --workload continue-strat64 --seed 1 \
        --seconds 25 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
The run sets up the workload several times (``setup_s`` is the median),
then runs whole rounds of the workload's operations until ``--seconds``
have passed, checks every output, and prints the metrics as the last line
of standard output.  ``--trace 1`` wraps the layers' functions on every
other round and reports per-layer counts and times per round instead.
"""

import os

# One BLAS thread for numpy's and scipy's bundled OpenBLAS alike; this must
# happen before either library is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("STRATIWAVE_VERBOSE", None)

import argparse  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 3

END_TO_END = {"ops_per_s": "1/s", "op_s_p50": "s", "setup_s": "s",
              "peak_rss_mb": "MiB"}
# Per-layer metrics printed with --trace 1 (all hooks go to the trace file).
PER_LAYER_HOOKS = (
    "laminar.solve_laminar", "spectral.shoot_mode",
    "spectral.find_lambda_star", "spectral.classify",
    "spectral.find_double_sigma", "bifurc.coefficient_set",
    "bifurc.oracle_roots", "heightsolver.jacobian", "heightsolver.residual",
    "heightsolver.linear_solve", "heightsolver.newton",
    "heightsolver.continue_branch", "heightsolver.dump_field",
    "heightsolver.load_field", "eulerian.reconstruct",
    "eulerian.flux_all_columns", "eulerian.surface_bernoulli_residual",
    "eulerian.yih_residual")
PER_LAYER_CALLS = ("laminar.solve_laminar", "spectral.shoot_mode",
                   "bifurc.oracle_roots", "heightsolver.jacobian",
                   "heightsolver.residual", "heightsolver.linear_solve")


def import_program():
    """Import stratiwave from this checkout's src/, never from elsewhere."""
    if not (SRC / "stratiwave" / "__init__.py").is_file():
        raise ImportError(f"no stratiwave package under {SRC}")
    sys.path.insert(0, str(SRC))
    import stratiwave
    if Path(stratiwave.__file__).resolve().parent != SRC / "stratiwave":
        raise ImportError(f"stratiwave imported from {stratiwave.__file__}")


def run_round(ops, rnd, work, records, tracer=None):
    from workloads import Outcome, Record
    for k, op in enumerate(ops):
        out_dir = str(work / f"r{rnd}" / f"{k:02d}-{op.name}")
        covered = tracer.covered if tracer else 0.0
        start = perf_counter()
        try:
            outcome = op(out_dir)
        except Exception:       # a crash is a failed operation, not a stop
            outcome = Outcome(None, "", traceback.format_exc())
        seconds = perf_counter() - start
        self_s = seconds - (tracer.covered - covered) if tracer else None
        records.append(Record(op, rnd, out_dir, seconds, outcome, self_s))


def measure(args, work):
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload](args.seed)
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()

    states, setup_times = [], []
    for rep in range(1 if tracer else SETUP_REPEATS):
        start = perf_counter()
        setup_dir = work / f"setup{rep}"
        setup_dir.mkdir(parents=True)
        state = workload.prepare(str(setup_dir))
        warm = workload.warmup(state)
        outcome = warm(str(setup_dir / "warmup"))
        setup_times.append(perf_counter() - start)
        if outcome.code != warm.expect:
            raise RuntimeError(f"warm-up {warm.name} exited {outcome.code}: "
                               f"{outcome.err.strip()}")
        states.append(state)

    ops = workload.ops(states[-1])
    order = random.Random(args.seed)
    records, traced_rounds = [], []
    start = perf_counter()
    rnd = 0
    while (perf_counter() - start < args.seconds
           or (tracer and rnd < 2)):
        mix = order.sample(ops, len(ops))
        if tracer and rnd % 2 == 1:
            with tracer.active():
                run_round(mix, rnd, work, records, tracer)
            traced_rounds.append(rnd)
        else:
            run_round(mix, rnd, work, records)
        rnd += 1
    timed = perf_counter() - start

    try:
        problems = workload.check(states, records, str(work / "check"))
    except Exception:       # a broken output must not hide the result
        problems = [f"checks raised:\n{traceback.format_exc()}"]
    for rec in records:
        if rec.failed and not rec.op.known_fault:
            problems.append(f"{rec.op.name} round {rec.round} failed: exit "
                            f"{rec.outcome.code}, {rec.outcome.problem}, "
                            f"{rec.outcome.err.strip()}")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    by_op = {}
    for rec in records:
        by_op.setdefault(rec.op.name, []).append(rec.seconds)
    for name, times in sorted(by_op.items()):
        print(f"{name}: n={len(times)} "
              f"median={statistics.median(times):.4f} s", file=sys.stderr)
    print(f"setup: {[round(t, 4) for t in setup_times]} s; rounds: {rnd}",
          file=sys.stderr)

    if tracer:
        metrics = per_layer(tracer, records, traced_rounds, args)
    else:
        metrics = {
            "ops_per_s": len(records) / timed,
            "op_s_p50": statistics.median(r.seconds for r in records),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: {"value": value, "unit": END_TO_END[name]}
                   for name, value in metrics.items()}
    return {"correct": not problems, "attempted": len(records),
            "failed": sum(rec.failed for rec in records), "metrics": metrics}


def per_layer(tracer, records, traced_rounds, args):
    """Per-round counts and times of the traced rounds; trace file too."""
    n = len(traced_rounds)
    calls, seconds = tracer.summary()
    traced = [r for r in records if r.round in traced_rounds]
    plain = [r for r in records if r.round not in traced_rounds]
    rounds_plain = len({r.round for r in plain})
    overhead = (sum(r.seconds for r in traced) / n) / (
        sum(r.seconds for r in plain) / rounds_plain) - 1.0
    points = sum(p for p, _ in tracer.branches)
    arclength = sum(s for _, s in tracer.branches)

    values = {}
    for hook in PER_LAYER_HOOKS:
        if hook in PER_LAYER_CALLS:
            values[f"{hook}.calls"] = (calls[hook] / n, "count")
        values[f"{hook}.s"] = (seconds[hook] / n, "s")
    values["heightsolver.points"] = (points / n, "count")
    values["heightsolver.jacobian_per_point"] = (
        calls["heightsolver.jacobian"] / points if points else 0.0, "count")
    values["heightsolver.arclength_per_point"] = (
        arclength / points if points else 0.0, "1")
    values["cli.self_s"] = (sum(r.self_s for r in traced) / n, "s")
    values["trace.overhead_pct"] = (100.0 * overhead, "%")
    values["trace.skipped_hooks"] = (len(tracer.skipped), "count")

    report = {
        "workload": args.workload, "seed": args.seed,
        "traced_rounds": n, "untraced_rounds": rounds_plain,
        "per_round": {"calls": {k: v / n for k, v in calls.items()},
                      "s": {k: v / n for k, v in seconds.items()}},
        "metrics": {k: v for k, (v, _) in values.items()},
        "skipped_hooks": tracer.skipped,
        "observer_errors": tracer.observer_errors,
        "spans": len(tracer.spans),
    }
    WORK.mkdir(exist_ok=True)
    path = WORK / f"trace-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    for hook in tracer.skipped:
        print(f"trace: hook {hook} not found, skipped", file=sys.stderr)
    print(f"trace: overhead {100.0 * overhead:+.2f} % over {n} traced and "
          f"{rounds_plain} untraced rounds; report in {path}",
          file=sys.stderr)
    return {k: {"value": v, "unit": unit} for k, (v, unit) in values.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import_program()
    except ImportError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    work = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        result = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
