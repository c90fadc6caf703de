"""Experiment runner: simulate configurations, emit JSON reports and CSV
traces, run the trace checkers, and sweep (n, m) grids.

Exit codes: 0 on success with all requested checks passing, 1 when a
requested check fails (the failing check is named), 2 on configuration or
usage errors.  Output is byte-stable across runs: no timestamps, sorted
keys, exact rationals rendered as strings.
"""

import argparse
import csv
import json
import sys
from fractions import Fraction
from itertools import chain, repeat

from . import adversary, analysis
from .core import ConfigError, SimConfig, Topology
from .engine import energy, run
from .fractional import anchors, run_fractional
from .protocols import PROTOCOLS

CHECKS = ("sync", "flatten", "continuity", "dynamic", "budget")
_ALGORITHM_ALIASES = {"dynamic": "dynamic-synch"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="radiosync",
        description="deterministic simulator for duty-cycled clock synchronization")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="simulate one configuration")
    _common_flags(run_p)
    run_p.add_argument("--fractional", action="store_true",
                       help="sub-unit wake offsets; explicit wakes may be rationals like 7/2")
    run_p.add_argument("--check", default="",
                       help=f"comma-separated checks from {','.join(CHECKS)}")
    run_p.add_argument("--trace", metavar="FILE",
                       help="write a per-tick CSV trace (tick, radio-on ids, clocks)")
    run_p.add_argument("--out", metavar="FILE", help="write the JSON report here")

    sweep_p = sub.add_parser("sweep", help="run a grid of configurations")
    _common_flags(sweep_p, lists=True)
    sweep_p.add_argument("--out", metavar="FILE", help="write the CSV table here")
    return parser


def _common_flags(p, lists=False):
    if lists:
        p.add_argument("--n", required=True,
                       help="comma-separated uncertainty windows, e.g. 64,256,1024")
        p.add_argument("--m", required=True,
                       help="comma-separated processor counts, e.g. 4,16,64")
    else:
        p.add_argument("--n", required=True, type=int, help="uncertainty window in ticks")
        p.add_argument("--m", required=True, type=int, help="number of processors")
    p.add_argument("--algorithm", default="synchronize",
                   choices=[*PROTOCOLS, *_ALGORITHM_ALIASES])
    p.add_argument("--wake", default="uniform",
                   help="uniform | random | clustered | explicit:FILE")
    p.add_argument("--seed", type=int, default=0, help="seed for the random generator")
    p.add_argument("--topology", default="complete",
                   help="complete | two-clique | l-connected:L | unit-disk | edges:FILE")
    p.add_argument("--k", type=int, default=None, help="override the schedule parameter")
    p.add_argument("--max-ticks", type=int, default=None, help="simulation horizon override")


def _number(text, what, parse=int):
    """parse(text), or a ConfigError naming the malformed input."""
    try:
        return parse(text)
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"malformed {what} {text!r}") from None


_WAKE_ALIASES = {
    "uniform": "uniform-spread",
    "random": "seeded-random",
    "clustered": "adversarial-clustered",
}


def _lines(path):
    """The non-blank lines of a text file, stripped."""
    try:
        with open(path) as fh:
            return [ln.strip() for ln in fh if ln.strip()]
    except UnicodeDecodeError:
        raise ConfigError(f"{path} is not a text file") from None


def _parse_wakes(spec: str, fractional: bool):
    if spec in _WAKE_ALIASES:
        return _WAKE_ALIASES[spec]
    if spec.startswith("explicit:"):
        path = spec.split(":", 1)[1]
        parse = Fraction if fractional else int
        return [_number(ln, f"wake time in {path}", parse) for ln in _lines(path)]
    raise ConfigError(f"unknown wake spec {spec!r}")


def _parse_topology(spec: str, m: int):
    if spec.startswith("edges:"):
        path = spec.split(":", 1)[1]
        edges = set()
        for ln in _lines(path):
            try:
                u, v = (int(x) for x in ln.split())
            except ValueError:
                raise ConfigError(f"malformed edge line {ln!r} in {path}") from None
            edges.add((min(u, v), max(u, v)))
        return Topology(m=m, edges=frozenset(edges), kind="edge-list")
    return adversary.build_topology(spec, m)


def _build_config(args, n, m, fractional=False) -> SimConfig:
    """The run's config; validate_config (at run time) checks n and m."""
    return SimConfig(n=n, m=m, wake_times=_parse_wakes(args.wake, fractional),
                     topology=_parse_topology(args.topology, m),
                     algorithm=_ALGORITHM_ALIASES.get(args.algorithm, args.algorithm),
                     k_override=args.k,
                     max_ticks=args.max_ticks, seed=args.seed, fractional=fractional)


# checks backed by an analysis checker that returns (passed, details), each
# called with the trace and its clusters; each applies only to the
# algorithms whose STRUCTURAL_CHECKS name it.  Each checker is looked up in
# `analysis` when called, so a stand-in for cli.analysis sees every call
_ANALYSIS_CHECKS = {
    "flatten": lambda trace, cl: analysis.check_flatten(trace, cl),
    "continuity": lambda trace, _cl: analysis.check_final_continuity(trace),
    "dynamic": lambda trace, cl: analysis.check_dynamic(trace, cl),
}


def _run_checks(trace, wanted, cl):
    results = {}
    for name in wanted:
        if name == "sync":
            ok = trace.sync_complete_tick is not None and not trace.flags
            results[name] = {"passed": ok,
                             "sync_complete_tick": trace.sync_complete_tick,
                             "flags": sorted(trace.flags)}
        elif name in _ANALYSIS_CHECKS:
            rep = _ANALYSIS_CHECKS[name](trace, cl)
            results[name] = {"passed": rep.passed, "details": rep.details}
        elif name == "budget":
            limit = PROTOCOLS[trace.cfg["algorithm"]].budget(trace.n, trace.k)
            rep = energy(trace)
            results[name] = {"passed": rep.max_energy <= limit,
                             "max_energy": rep.max_energy, "budget": limit}
    return results


def _report(trace, checks, fractional, cl) -> dict:
    rep = energy(trace)
    out = {
        "config": trace.cfg,
        "energy": rep.to_json(),
        "digest": trace.digest(),
        "flags": sorted(trace.flags),
        "checks": checks,
    }
    if fractional:
        out["timeline_anchors"] = {str(pid): str(a) for pid, a in sorted(anchors(trace).items())}
    out["clusters"] = [
        {"interval": [str(c.interval[0]), str(c.interval[1])],
         "members": sorted(c.members), "cwet": str(c.cwet), "cden": str(c.cden)}
        for c in cl[:200]
    ]
    return out


_EDGE = "\n        [\n          %d,\n          %d\n        ]"  # json's indent=2 text of one edge
_HOLE = '"edges": "\\u0000"'  # that of the placeholder, "\x00"


def _dump_report(report) -> str:
    """json.dumps(report, sort_keys=True, indent=2) + "\n", byte for byte, built once per run.
    json's indent encoder is pure Python, so the edge list (the only "edges" key) goes in by one
    "%d" template join, in place of a placeholder put in copies (trace.cfg is not written)."""
    cfg, edges = report["config"], report["config"]["topology"]["edges"]
    blob = json.dumps({**report, "config": {**cfg, "topology": {**cfg["topology"], "edges": "\x00"}}},
                      sort_keys=True, indent=2)
    block = "[" + ",".join([_EDGE] * len(edges)) % tuple(chain.from_iterable(edges)) + "\n      ]"
    return blob.replace(_HOLE, f'"edges": {block if edges else "[]"}') + "\n"


_ROWS_PER_WRITE = 256  # rows joined into one write; bounds the buffer


def _write_trace_csv(trace, path):
    """One row per tick: the radio-on ids, then every displayed clock
    (blank before wake).

    The clock events come in tick order (integer engine), so the ticks
    fall into segments: a segment starts at an event tick, after all of
    that tick's events, and ends before the next event tick.  Within one,
    clock i reads t + delta_i with delta_i = tau - event tick fixed, and
    the deltas take few distinct values (one, once the clocks agree).  So
    the rows are built from columns: one column of strings per distinct
    delta, the radio-on ids (one text per distinct on-set) and a blank
    column for a processor not yet awake, zipped and joined row by row in C.
    A segment in which every processor is awake and every clock shows one
    delta (most rows, once the clocks agree) needs no columns: each row is
    one f-string, its tick, its ids and that clock's ",tau" block m times.

    The bytes are those of csv.writer's excel dialect: comma-separated,
    "\\r\\n" after every row, no quoting, which none of these fields (ints,
    blanks, space-separated ids) needs.  A segment goes out in chunks of
    at most _ROWS_PER_WRITE rows, one write each, so the buffer stays
    bounded however long the segment is."""
    m, stop, events, on = trace.m, trace.horizon + 1, trace.clock_events, trace.on_sets
    texts = {s: " ".join(map(str, s)) for s in set(on.values())}  # per distinct on-set
    cuts = [e[0] for e in events if 0 < e[0] < stop]
    deltas = [None] * m  # processor i at index i - 1
    blank = repeat("")
    nxt = 0
    with open(path, "w", newline="") as fh:
        fh.write(",".join(["tick", "radio_on", *[f"tau_{i}" for i in range(1, m + 1)]])
                 + "\r\n")
        for t, end in zip([0, *cuts], [*cuts, stop]):  # a segment: ticks t..end-1
            while nxt < len(events) and events[nxt][0] <= t:
                tick, owner, tau, _q = events[nxt]
                deltas[owner - 1] = tau - tick
                nxt += 1
            distinct = {d for d in deltas if d is not None}
            synced = len(distinct) == 1 and None not in deltas
            shift = deltas[0]
            for lo in range(t, end, _ROWS_PER_WRITE):  # empty when events share a tick
                ticks = range(lo, min(end, lo + _ROWS_PER_WRITE))
                ids = map(texts.get, map(on.get, ticks), blank)
                if synced:  # every clock shows x + shift: one block, repeated
                    fh.write("".join([f"{x},{s}{(',' + str(x + shift)) * m}\r\n"
                                      for x, s in zip(ticks, ids)]))
                    continue
                cols = {d: list(map(str, range(lo + d, ticks.stop + d))) for d in distinct}
                rows = map(",".join, zip(map(str, ticks), ids,
                                         *[blank if d is None else cols[d] for d in deltas]))
                fh.write("\r\n".join(rows) + "\r\n")


def cmd_run(args) -> int:
    cfg = _build_config(args, args.n, args.m, args.fractional)
    wanted = [c for c in args.check.split(",") if c]
    structural = PROTOCOLS[cfg.algorithm].STRUCTURAL_CHECKS
    for c in wanted:
        if c not in CHECKS:
            raise ConfigError(f"unknown check {c!r}; choose from {CHECKS}")
        if c in _ANALYSIS_CHECKS and c not in structural:
            raise ConfigError(f"check {c!r} does not apply to {cfg.algorithm}"
                              f" (its structural checks: {', '.join(structural) or 'none'})")
    if args.trace and cfg.fractional:
        raise ConfigError("per-tick CSV traces are integer-mode only")
    trace = run_fractional(cfg) if cfg.fractional else run(cfg)
    cl = analysis.clusters(trace)  # shared by the checkers and the report
    checks = _run_checks(trace, wanted, cl)
    report = _report(trace, checks, cfg.fractional, cl)
    blob = _dump_report(report)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(blob)
    else:
        sys.stdout.write(blob)
    if args.trace:
        _write_trace_csv(trace, args.trace)
    failed = sorted(name for name, res in checks.items() if not res["passed"])
    if failed:
        print(f"FAILED checks: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def cmd_sweep(args) -> int:
    ns = [_number(x, "--n entry") for x in args.n.split(",") if x]
    ms = [_number(x, "--m entry") for x in args.m.split(",") if x]
    if not ns or not ms:
        raise ConfigError("sweep needs at least one n and one m")
    rows = []
    for n in ns:
        for m in ms:
            cfg = _build_config(args, n, m)
            trace = run(cfg)
            rep = energy(trace)
            rows.append({
                "n": n, "m": m, "k": trace.k, "algorithm": cfg.algorithm,
                "max_energy": rep.max_energy, "total_energy": rep.total_energy,
                "sync_tick": "" if rep.sync_complete_tick is None else rep.sync_complete_tick,
            })
    out = args.out or "sweep.csv"
    with open(out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["n", "m", "k", "algorithm",
                                                "max_energy", "total_energy", "sync_tick"])
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {len(rows)} rows to {out}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "run":
            code = cmd_run(args)
        else:
            code = cmd_sweep(args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:  # a config too large to hold: a usage error, not a failed check
        print("error: out of memory; the config is too large to run", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    raise SystemExit(main())
