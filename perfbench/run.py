"""radiosync benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload sync-sparse --seed 0 --seconds 20 --trace 0

Run from anywhere; the sources are taken from src/ next to this directory.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  --trace 0 measures the end-to-end
metrics that BENCHMARK.json lists, with no tracing; --trace 1 is a
separate traced run that measures the per-layer metrics.  The lines before
it name the machine, the commit and whether the seed has pinned digests.

    python3 perfbench/run.py --pin 0-10

recomputes the pinned job identities (perfbench/golden.json) for seeds 0
to 10 from the current sources; do this only when a change to a trace is
intended.
"""

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
from collections import Counter
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT))

from perfbench import jobs as jobs_mod  # noqa: E402
from perfbench import tracing  # noqa: E402
from perfbench.speed import Speed  # noqa: E402
from perfbench.workloads import SIZES, WORKLOADS, make_jobs, prepare_cli  # noqa: E402

GOLDEN = HERE / "golden.json"
SETUP_REPEATS = 9
TAIL_BEYOND = 10  # the tail percentile has at least this many jobs beyond it


def parse_args(argv):
    p = argparse.ArgumentParser(description="radiosync benchmark")
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0,
                   help="measure for this long; at least one full pass runs")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=SIZES, default="full",
                   help="smoke: tiny configurations, for the benchmark's own tests")
    p.add_argument("--golden", type=Path, default=GOLDEN,
                   help="file of pinned job identities")
    p.add_argument("--pin", metavar="SEEDS",
                   help="write the pinned identities of every workload for SEEDS"
                        " (e.g. 0-10) to --golden, then exit")
    args = p.parse_args(argv)
    if args.seconds < 0:
        p.error("--seconds must be >= 0")
    if args.pin is None and args.workload is None:
        p.error("--workload is required")
    return args


# -- set-up ---------------------------------------------------------------

class Radiosync:
    """The radiosync modules one run uses, freshly imported."""

    def __init__(self):
        for name in [n for n in sys.modules if n == "radiosync" or n.startswith("radiosync.")]:
            del sys.modules[name]
        package = importlib.import_module("radiosync")
        self.core = importlib.import_module("radiosync.core")
        self.engine = importlib.import_module("radiosync.engine")
        self.analysis = importlib.import_module("radiosync.analysis")
        self.fractional = importlib.import_module("radiosync.fractional")
        self.cli = importlib.import_module("radiosync.cli")
        self.package_dir = os.path.dirname(package.__file__)


def load_pins(path, size, seed, workload):
    """The pinned identities of this pass, or None when the seed has none."""
    if not path.is_file():
        return None
    with open(path) as fh:
        pins = json.load(fh)["pins"]
    return pins.get(f"{size}/{seed}/{workload}")


def setup(args, workdir):
    """Imports, workload generation and the pinned identities; timed."""
    t0 = perf_counter()
    rs = Radiosync()
    job_list = prepare_cli(make_jobs(args.workload, args.seed, args.size), workdir)
    pins = load_pins(args.golden, args.size, args.seed, args.workload)
    return perf_counter() - t0, rs, job_list, pins


# -- running jobs ---------------------------------------------------------

class Ledger:
    """Outcomes of every job a run executes."""

    def __init__(self, pins):
        self.pins = pins
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.first_pass = {}  # job index -> outcome, first execution only

    def record(self, index, job, outcome):
        if self.pins is not None and outcome.identity is not None:
            if outcome.identity != self.pins[index]:
                outcome.problems.append(f"identity {outcome.identity} != pinned {self.pins[index]}")
        self.attempted += 1
        if outcome.problems:
            self.failed += 1
            self.problems.append(f"job {index} ({job.group} n={job.n} m={job.m}): "
                                 + "; ".join(outcome.problems))
        self.first_pass.setdefault(index, outcome)
        return not outcome.problems


def timed(rs, job, hook):
    t0 = perf_counter()
    outcome = jobs_mod.run_job(rs, job, hook)
    return perf_counter() - t0, outcome


def measure(rs, job_list, ledger, seconds):
    """Untraced loop: whole passes first, then jobs until time is up."""
    plain = tracing.Plain()
    speed = Speed()
    ticks, passed = 0, 0
    start = perf_counter()
    i = 0
    while i < len(job_list) or perf_counter() - start < seconds:
        job = job_list[i % len(job_list)]
        dt, outcome = timed(rs, job, plain)
        speed.add(dt)
        if ledger.record(i % len(job_list), job, outcome):
            passed += 1
            ticks += outcome.ticks
        i += 1
    speed.flush()
    return speed, passed, ticks


def tail(times):
    """(value, percentile) of the highest percentile with TAIL_BEYOND jobs
    beyond it; with too few jobs, the fastest job and its percentile."""
    ordered = sorted(times)
    idx = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[idx], 100.0 * (idx + 1) / len(ordered)


def end_to_end(args, rs, job_list, ledger, setup_speed):
    speed, passed, ticks = measure(rs, job_list, ledger, args.seconds)
    outcomes = list(ledger.first_pass.values())
    fracs = {name: [getattr(o, name) for o in outcomes if getattr(o, name) is not None]
             for name in ("energy_frac", "sync_frac")}
    values = {}
    for label, times, setup_times in (("raw", speed.raw, setup_speed.raw),
                                      ("scaled", speed.scaled, setup_speed.scaled)):
        tail_value, tail_pct = tail(times)
        values[label] = {
            "setup_s": statistics.median(setup_times),
            "jobs_per_s": passed / sum(times),
            "sim_ticks_per_s": ticks / sum(times),
            "job_p50_s": statistics.median(times),
            "job_tail_s": tail_value,
        }
    raw = values["raw"]
    print(f"jobs: {len(speed.raw)} run, {passed} passed; job_tail_s is p{tail_pct:.1f}"
          f" of {len(speed.raw)} jobs")
    print(f"speed factor: median {speed.median_factor:.4f}, range {min(speed.factors):.4f}"
          f" to {max(speed.factors):.4f} over {len(speed.factors)} probes")
    print("raw host times: " + ", ".join(f"{k}={v!r}" for k, v in raw.items()))
    return {
        **values["scaled"],
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "energy_budget_frac": float(max(fracs["energy_frac"], default=0)),
        "sync_bound_frac": float(max(fracs["sync_frac"], default=0)),
    }


def traced(args, rs, job_list, ledger):
    """Separate traced run: each job untraced and traced in turn (the order
    alternating), the first pass counted; then a profiled subset."""
    plain, spans = tracing.Plain(), tracing.Spans()
    plain_seconds = 0.0
    start = perf_counter()
    i = 0
    while i < len(job_list) or perf_counter() - start < args.seconds:
        index = i % len(job_list)
        job = job_list[index]
        for hook in ((plain, spans) if i % 2 == 0 else (spans, plain)):
            if hook is spans:
                spans.begin_job(job.group)
            dt, outcome = timed(rs, job, hook)
            ledger.record(index, job, outcome)
            if hook is spans:
                spans.end_job(dt, outcome, count=i < len(job_list))
            else:
                plain_seconds += dt
        i += 1

    prof = tracing.Profiled()
    per_group = Counter(job.group for job in job_list)
    profiled = Counter()
    for index, job in enumerate(job_list):
        if profiled[job.group] < max(1, per_group[job.group] // 8):
            profiled[job.group] += 1
            prof.group = job.group
            ledger.record(index, job, jobs_mod.run_job(rs, job, prof))
    shares = prof.shares(rs.package_dir)
    for group, split in sorted(shares.items()):
        print(f"profile shares {group}: " + ", ".join(
            f"{layer or 'unattributed'} {share:.3f}"
            for layer, share in sorted(split.items(), key=lambda kv: -kv[1])))
    return layer_metrics(spans, shares, plain_seconds)


def layer_metrics(spans, shares, plain_seconds):
    per_job = 1.0 / max(1, spans.jobs)
    layer_self = spans.layer_seconds(shares)
    c = spans.counts
    out = {f"{layer}.self_s": layer_self[layer] * per_job for layer in tracing.LAYERS}
    for span, metric in (("core.validate", "core.validate_s"), ("engine.init", "engine.init_s"),
                         ("engine.run", "engine.run_s"), ("engine.digest", "engine.digest_s"),
                         ("analysis.check_flatten", "analysis.check_flatten_s"),
                         ("analysis.check_dynamic", "analysis.check_dynamic_s"),
                         ("analysis.clusters", "analysis.clusters_s"),
                         ("analysis.discontinuity", "analysis.discontinuity_s"),
                         ("cli.main", "cli.main_s"), ("fractional.run", "fractional.run_s")):
        out[metric] = spans.span_seconds[span] * per_job
    for name in ("engine.ticks", "engine.on_ticks", "engine.messages", "engine.edge_contacts",
                 "engine.clock_events", "protocols.policies", "protocols.reschedules",
                 "protocols.adoptions", "cli.csv_bytes", "cli.json_bytes", "fractional.slots"):
        out[name] = c[name]
    out["engine.on_tick_frac"] = c["engine.on_ticks"] / c["engine.ticks"] if c["engine.ticks"] else 0.0
    out["analysis.pristine_frac"] = (c["analysis.pristine"] / c["analysis.groups"]
                                     if c["analysis.groups"] else 0.0)
    out["analysis.continuity_pass_frac"] = (
        c["analysis.continuity_passed"] / c["analysis.continuity_checked"]
        if c["analysis.continuity_checked"] else 0.0)
    out["fractional.exact_view_frac"] = (
        c["fractional.exact_views"] / c["fractional.integral_jobs"]
        if c["fractional.integral_jobs"] else 0.0)
    out["trace.overhead_frac"] = spans.job_seconds / plain_seconds - 1.0 if plain_seconds else 0.0
    out["trace.glue_frac"] = spans.glue_seconds / spans.job_seconds if spans.job_seconds else 0.0
    accounted = sum(layer_self.values()) + spans.glue_seconds
    print(f"traced: {spans.jobs} jobs, {spans.job_seconds:.3f} s; layer self times"
          f" {sum(layer_self.values()):.3f} s + glue {spans.glue_seconds:.3f} s"
          f" = {accounted:.3f} s")
    return out


# -- reporting ------------------------------------------------------------

def git_commit():
    """The commit checked out at the repository root, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def print_env(args, pins):
    print(f"radiosync benchmark: workload={args.workload} seed={args.seed}"
          f" seconds={args.seconds:g} trace={args.trace} size={args.size}")
    print(f"env: python={platform.python_version()} nproc={os.cpu_count()}"
          f" platform={platform.platform()} commit={git_commit()}")
    if pins is None:
        print(f"digests: unpinned (no pinned identities for {args.size} seed {args.seed});"
              " guarantee checks only")
    else:
        print(f"digests: pinned ({len(pins)} identities)")


def emit(spec_metrics, values, ledger):
    metrics = {}
    for m in spec_metrics:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"metric {m['name']} = {values[m['name']]!r} {m['unit']}")
    frac = ledger.failed / ledger.attempted
    print(f"failed_frac = {frac!r} ({ledger.failed} of {ledger.attempted} jobs failed)")
    for line in ledger.problems[:5]:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps({"correct": ledger.failed == 0 and ledger.attempted > 0,
                      "attempted": ledger.attempted, "failed": ledger.failed,
                      "metrics": metrics}))


def pin(args):
    seeds = _parse_seeds(args.pin)
    pins = {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        rs = Radiosync()
        for seed in seeds:
            for workload in WORKLOADS:
                job_list = prepare_cli(make_jobs(workload, seed, args.size), workdir)
                ids = []
                for index, job in enumerate(job_list):
                    outcome = jobs_mod.run_job(rs, job, tracing.Plain())
                    if outcome.problems:
                        print(f"error: {workload} seed {seed} job {index}: {outcome.problems}",
                              file=sys.stderr)
                        return 1
                    ids.append(outcome.identity)
                pins[f"{args.size}/{seed}/{workload}"] = ids
                print(f"pinned {args.size}/{seed}/{workload}: {len(ids)} jobs")
    old = {}
    if args.golden.is_file():
        with open(args.golden) as fh:
            old = json.load(fh)["pins"]
    old.update(pins)
    lines = [f" {json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(old.items())]
    with open(args.golden, "w") as fh:
        fh.write('{"pins": {\n' + ",\n".join(lines) + "\n}}\n")
    return 0


def _parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "radiosync" / "__init__.py").is_file():
        print(f"error: no radiosync sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.pin is not None:
        return pin(args)
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        setup_speed = Speed()
        for _ in range(SETUP_REPEATS):
            seconds, rs, job_list, pins = setup(args, workdir)
            setup_speed.add(seconds)
            setup_speed.flush()
        if pins is not None and len(pins) != len(job_list):
            print(f"error: {args.golden} pins {len(pins)} jobs for a pass of {len(job_list)}",
                  file=sys.stderr)
            return 2
        print_env(args, pins)
        ledger = Ledger(pins)
        if args.trace:
            values = traced(args, rs, job_list, ledger)
            emit(spec["per_layer"], values, ledger)
        else:
            values = end_to_end(args, rs, job_list, ledger, setup_speed)
            emit(spec["end_to_end"], values, ledger)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
