"""Paired benchmark runs of a parent checkout against this one.

    python tools/paired_bench.py --parent ../parent --workload continue-strat64 \
        --pairs 10 --seed 701

Each pair runs ``perfbench/run.py`` unchanged, once in each checkout, for
the ``run_seconds`` of ``BENCHMARK.json`` on one seed (``--seed``,
``--seed + 1``, ...), one run at a time; the parent runs first in even pairs
(0, 2, ...) and the change first in odd ones, so a drift of the host does
not favour one side.  The result goes to ``BENCH_<workload>.json`` in the
root of this checkout: both checkouts' ``git rev-parse HEAD``, every run
of both sides, and for each end-to-end metric of ``BENCHMARK.json`` both
sides' medians and quartiles, the parent's interquartile range and the
pairs the change won.  A run that exits non-zero or prints no result is
kept with its error and leaves its pair out of the counts.

When that file already exists, the new pairs are appended to its pairs
and the summary is recomputed over all of them.  That needs the same two
commits, the same run length and no seed run before; otherwise nothing
runs and the exit code is 2 (move the file aside to start afresh).  A
checkout outside git, such as a ``git archive`` copy, has no commit, so
its pairs are never appended to.  A checkout with uncommitted edits is
recorded as its HEAD marked ``-dirty``, which does not tell one set of
edits from another: keep one working tree per file.  Needs only the
standard library.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(checkout, workload, seed, seconds):
    """One ``perfbench/run.py`` run; its JSON result, or an error entry."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"seed": seed, "error": f"exit {proc.returncode}: "
                f"{proc.stderr.strip()[-400:]}"}
    result = json.loads(lines[-1])
    return {"seed": seed, "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {name: m["value"]
                        for name, m in result["metrics"].items()}}


def head(checkout):
    """``git rev-parse HEAD`` of a checkout, with ``-dirty`` appended when
    its tracked files differ from that commit; None outside git."""
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        return None
    dirty = subprocess.run(["git", "diff", "--quiet", "HEAD"],
                           cwd=checkout).returncode != 0
    return proc.stdout.strip() + ("-dirty" if dirty else "")


def merge_refusal(stored, report):
    """Why the pairs of ``report`` may not join those of ``stored``, or
    None when they may."""
    commits = report["commits"]
    missing = [side for side, commit in commits.items() if commit is None]
    if missing:
        return (f"no git commit for the {' and '.join(missing)} checkout, "
                "so its runs cannot be told from another tree's")
    if stored.get("commits") != commits:
        return (f"stored commits {stored.get('commits')} are not "
                f"{commits}")
    if stored.get("seconds") != report["seconds"]:
        return (f"stored runs last {stored.get('seconds')} s, not "
                f"{report['seconds']} s")
    repeated = sorted(set(stored["seeds"]) & set(report["seeds"]))
    if repeated:
        return f"seeds {repeated} were run before"
    return None


def quartiles(values):
    if len(values) < 2:         # statistics.quantiles needs two points
        values = values * 2
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3}


def summarize(pairs, metrics):
    """Per-metric medians, quartiles and wins over the pairs that ran."""
    done = [(p, c) for p, c in pairs if "error" not in p and "error" not in c]
    out = {}
    if not done:
        return out
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        parent = [p["metrics"][name] for p, _ in done]
        change = [c["metrics"][name] for _, c in done]
        wins = sum((c > p) if higher else (c < p)
                   for p, c in zip(parent, change))
        ps, cs = quartiles(parent), quartiles(change)
        out[name] = {
            "better": metric["better"], "parent": ps, "change": cs,
            "parent_iqr": ps["q3"] - ps["q1"],
            "median_gap": cs["median"] - ps["median"],
            "relative_change": cs["median"] / ps["median"] - 1.0,
            "change_better_pairs": wins, "pairs": len(done)}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path,
                        help="root of the parent checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of the first pair")
    args = parser.parse_args(argv)
    parent = args.parent.resolve()
    if not (parent / "perfbench" / "run.py").is_file():
        parser.error(f"no perfbench/run.py under {parent}")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    report = {
        "workload": args.workload, "seconds": bench["run_seconds"],
        "commits": {"parent": head(parent), "change": head(ROOT)},
        "seeds": [args.seed + k for k in range(args.pairs)],
        "parent": [], "change": []}
    path = ROOT / f"BENCH_{args.workload}.json"
    stored = json.loads(path.read_text()) if path.is_file() else None
    if stored is not None:
        refusal = merge_refusal(stored, report)
        if refusal:
            print(f"not appending to {path}: {refusal}", file=sys.stderr)
            return 2
        for key in ("seeds", "parent", "change"):
            report[key] = stored[key] + report[key]

    seconds = report["seconds"]
    pairs = []
    for k in range(args.pairs):
        seed = args.seed + k
        sides = {}
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for side in order:
            checkout = parent if side == "parent" else ROOT
            sides[side] = run_once(checkout, args.workload, seed, seconds)
            print(f"pair {k} seed {seed} {side}: "
                  f"{sides[side].get('metrics', sides[side].get('error'))}",
                  file=sys.stderr)
        sides["parent"]["first"] = order[0] == "parent"
        sides["change"]["first"] = order[0] == "change"
        pairs.append((sides["parent"], sides["change"]))

    report["parent"] += [p for p, _ in pairs]
    report["change"] += [c for _, c in pairs]
    report["summary"] = summarize(list(zip(report["parent"],
                                           report["change"])),
                                  bench["end_to_end"])
    path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    for name, s in report["summary"].items():
        print(f"{name}: {s['parent']['median']:.6g} -> "
              f"{s['change']['median']:.6g} ({100 * s['relative_change']:+.1f}"
              f" %), change better {s['change_better_pairs']}/{s['pairs']}, "
              f"parent IQR {s['parent_iqr']:.3g}", file=sys.stderr)
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
