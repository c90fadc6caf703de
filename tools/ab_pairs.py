"""Compare two checkouts on one benchmark workload in alternating pairs.

    python3 tools/ab_pairs.py PARENT CHANGE --workload naive-dense --seed 0 \
        --pairs 10 --seconds 30

PARENT and CHANGE are directories that each hold a `perfbench/run.py`.
Each pair runs `perfbench/run.py --trace 0` once from each checkout, one
after the other; the side that goes first alternates from pair to pair,
so a drift of the host's speed favours neither.  Every run must print
`"correct": true` on its last line, or the comparison stops with exit
status 1: a speed figure from a run whose jobs failed shows nothing.

For each end-to-end metric of BENCHMARK.json (next to this directory) it
prints both sides' medians and quartiles, the relative change of the
median, and the number of pairs the change wins, ties counting for
neither.  A gain may be claimed only from ten pairs or more, when the
change wins at least nine tenths of them and its median is better than
the parent's by more than the distance between the parent's quartiles.  The last line of
standard output is one JSON object: the summary and every run's values.
Standard library only.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values):
    """[first quartile, median, third quartile], interpolated between the
    values themselves (statistics' "inclusive" method)."""
    if len(values) == 1:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def _sig(x):
    return float(f"{x:.6g}")


def summarize(parent, change, metrics):
    """Per metric, the parent's and the change's medians and quartiles, to
    6 significant digits, and how the change fares pair by pair.

    parent[i] and change[i] map metric names to the values of pair i;
    metrics is a list of (name, better) with better "higher" or "lower".
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same number of runs on each side, at least one")
    out = {}
    for name, better in metrics:
        sign = 1 if better == "higher" else -1
        p = [run[name] for run in parent]
        c = [run[name] for run in change]
        pq, cq = quartiles(p), quartiles(c)
        wins = sum(sign * (b - a) > 0 for a, b in zip(p, c))
        out[name] = {
            "parent_median": _sig(pq[1]),
            "change_median": _sig(cq[1]),
            "change_vs_parent": _sig(cq[1] / pq[1] - 1) if pq[1] else None,
            "parent_quartiles": [_sig(v) for v in pq],
            "change_quartiles": [_sig(v) for v in cq],
            "change_better_in": f"{wins} of {len(p)}",
            "gain": (len(p) >= 10 and 10 * wins >= 9 * len(p)
                     and sign * (cq[1] - pq[1]) > pq[2] - pq[0]),
        }
    return out


def run_once(checkout, args):
    """One benchmark run from `checkout`: its last line, parsed."""
    cmd = [sys.executable, str(Path(checkout) / "perfbench" / "run.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0", "--size", args.size]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    if not result or result.get("correct") is not True:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        raise SystemExit(f"{checkout}: the run was not correct; no comparison")
    return result


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--size", default="full")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    with open(ROOT / "BENCHMARK.json") as fh:
        metrics = [(m["name"], m["better"]) for m in json.load(fh)["end_to_end"]]

    runs = {"parent": [], "change": []}
    attempted = failed = 0
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_once(getattr(args, side), args)
            attempted += result["attempted"]
            failed += result["failed"]
            runs[side].append({k: v["value"] for k, v in result["metrics"].items()})
        print(f"pair {i + 1}: " + ", ".join(
            f"{side} {runs[side][-1]['jobs_per_s']:.4g}" for side in order), flush=True)

    summary = summarize(runs["parent"], runs["change"], metrics)
    for name, s in summary.items():
        rel = "n/a" if s["change_vs_parent"] is None else f"{s['change_vs_parent']:+.2%}"
        print(f"{name}: parent {s['parent_median']} {s['parent_quartiles']},"
              f" change {s['change_median']} {s['change_quartiles']} ({rel}),"
              f" change better in {s['change_better_in']}" + (", a gain" if s["gain"] else ""))
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "pairs": args.pairs, "all_correct": True, "attempted": attempted, "failed": failed,
        "summary": summary,
        "runs": {side: {name: [run[name] for run in rs] for name, _ in metrics}
                 for side, rs in runs.items()},
    }))


if __name__ == "__main__":
    main()
