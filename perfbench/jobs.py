"""Running one job through the public API and checking what it produced.

A job's checks are the guarantees that tests/test_acceptance.py states for
its algorithm.  Its identity is a short hash of the trace digest together
with the analysis results the job computed, so a change that alters a
trace, a checker's verdict, the clusters, the discontinuity points or the
CLI's CSV trace shows up as a mismatch against the pinned identities.

Every call into a radiosync layer goes through ``hook.call`` (or
``hook.sim`` for the engine runs), which the tracing hooks time; the plain
hook calls straight through.
"""

import hashlib
import json
import traceback
from dataclasses import dataclass, field
from fractions import Fraction

HALF = Fraction(1, 2)
IDENTITY_CHARS = 16


@dataclass
class Outcome:
    identity: str | None = None
    problems: list = field(default_factory=list)
    ticks: int = 0  # simulated ticks covered: horizon + 1
    energy_frac: Fraction | None = None  # max radio-on ticks / stated budget
    sync_frac: Fraction | None = None  # sync_complete_tick / stated bound
    csv_bytes: int = 0  # cli jobs: size of the CSV trace written
    json_bytes: int = 0  # cli jobs: size of the JSON report written
    exact_view: bool | None = None  # integral fractional jobs: view equal in order


def _hash(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:IDENTITY_CHARS]


def stated_bounds(algorithm: str, n: int, k: int, ceil_log2) -> tuple:
    """(sync-tick bound, per-processor energy budget) the algorithm states.

    naive states no sync bound; its always-on policy spans n+1 ticks, and
    every pair of processors meets inside that span.
    """
    if algorithm == "synchronize":
        log_n = ceil_log2(n)
        return log_n * 4 * n + 2 * n + k * k + k, (2 * k + 1) * (log_n + 1)
    if algorithm == "dynamic-synch":
        return 4 * n + k * k + k + 1, 4 * k + 2
    if algorithm == "naive":
        return n + 1, n + 1
    raise ValueError(f"no stated bounds for {algorithm!r}")


def run_job(rs, job, hook) -> Outcome:
    """Run one job; any exception is a failure of the job, not of the run."""
    out = Outcome()
    try:
        if job.kind == "int":
            _int_job(rs, job, hook, out)
        elif job.kind == "frac":
            _frac_job(rs, job, hook, out)
        else:
            _cli_job(rs, job, hook, out)
    except Exception:  # noqa: BLE001 - the job boundary reports and continues
        out.problems.append(traceback.format_exc(limit=3).strip().splitlines()[-1])
        out.identity = None
    return out


def _simulate(rs, cfg, hook):
    world = hook.sim("engine.init", _new_world, rs, cfg, hook.record_messages)
    return hook.sim("engine.run", world.run)


def _new_world(rs, cfg, record_messages):
    if record_messages:
        return rs.engine.World(cfg, record_messages=True)
    return rs.engine.World(cfg)


def _gate_bounds(rs, job, out, k, sync_tick, max_energy, gate_sync):
    sync_bound, budget = stated_bounds(job.algorithm, job.n, k, rs.core.ceil_log2)
    out.energy_frac = Fraction(max_energy, budget)
    if sync_tick is not None:
        out.sync_frac = Fraction(sync_tick, sync_bound)
    if max_energy > budget:
        out.problems.append(f"energy {max_energy} over budget {budget}")
    if gate_sync and (sync_tick is None or sync_tick > sync_bound):
        out.problems.append(f"sync tick {sync_tick} past bound {sync_bound}")


def _int_job(rs, job, hook, out):
    core, analysis = rs.core, rs.analysis
    cfg = hook.call("core.validate", core.validate_config,
                    core.SimConfig(n=job.n, m=job.m, wake_times=list(job.wakes),
                                   algorithm=job.algorithm))
    trace = _simulate(rs, cfg, hook)
    rep = hook.call("engine.energy", rs.engine.energy, trace)
    out.ticks = trace.horizon + 1
    single_hop = job.algorithm in ("synchronize", "dynamic-synch")
    _gate_bounds(rs, job, out, trace.k, rep.sync_complete_tick, rep.max_energy, single_hop)
    if single_hop and trace.flags:
        out.problems.append(f"flags raised: {sorted(trace.flags)[:2]}")
    if job.algorithm == "naive":
        pairs = job.m * (job.m - 1) // 2
        if len(trace.edge_contacts) != pairs:
            out.problems.append(f"{len(trace.edge_contacts)} of {pairs} edges contacted")

    summary = {}
    for name in job.analyses:
        if name == "flatten":
            res = hook.call("analysis.check_flatten", analysis.check_flatten, trace)
            summary[name] = res.passed
            if not res.passed:
                out.problems.append("check_flatten failed")
        elif name == "dynamic":
            res = hook.call("analysis.check_dynamic", analysis.check_dynamic, trace)
            summary[name] = res.passed
            if not res.passed:
                out.problems.append("check_dynamic failed")
        elif name == "continuity":
            # recorded, never gated: it holds only in the clean regime
            res = hook.call("analysis.continuity", analysis.check_final_continuity, trace)
            summary[name] = res.passed
        elif name == "clusters":
            res = hook.call("analysis.clusters", analysis.clusters, trace)
            summary[name] = _hash([[list(c.interval), sorted(c.members), c.cwet, str(c.cden)]
                                   for c in res])
        elif name == "discontinuity":
            res = hook.call("analysis.discontinuity", analysis.discontinuity_points, trace)
            summary[name] = _hash(sorted(res))
        else:
            raise ValueError(f"unknown analysis {name!r}")
    digest = hook.call("engine.digest", trace.digest)
    out.identity = _hash({"trace": digest, **summary})


def _frac_job(rs, job, hook, out):
    core, fractional = rs.core, rs.fractional
    cfg = hook.call("core.validate", core.validate_config,
                    core.SimConfig(n=job.n, m=job.m, wake_times=list(job.wakes),
                                   algorithm=job.algorithm, fractional=True))
    trace = hook.sim("fractional.run", fractional.run_fractional, cfg)
    anchors = hook.call("fractional.anchors", fractional.anchors, trace)
    out.ticks = trace.horizon + 1
    _gate_bounds(rs, job, out, trace.k, trace.sync_complete_tick,
                 max(trace.energy_counts.values()), False)
    clocks = list(trace.final_clocks.values())
    if len(set(anchors.values())) != 1:
        out.problems.append("timeline anchors disagree")
    if any(abs(q) > HALF for _tau, q in clocks):
        out.problems.append("carry |q| exceeds 1/2")
    taus = [tau for tau, _q in clocks]
    if max(taus) - min(taus) > 1:
        out.problems.append("final clocks more than 1 apart")
    if all(w.denominator == 1 for w in job.wakes):
        int_cfg = hook.call("core.validate", core.validate_config,
                            core.SimConfig(n=job.n, m=job.m, algorithm=job.algorithm,
                                           wake_times=[int(w) for w in job.wakes]))
        int_trace = _simulate(rs, int_cfg, hook)
        views = [hook.call("engine.view", t.deterministic_view) for t in (int_trace, trace)]
        for view in views:
            view["cfg"].pop("fractional")
        # the fractional engine lays down simultaneous policies in another
        # order: the gate compares the policy lists as multisets and the
        # exact match is only recorded
        out.exact_view = views[0] == views[1]
        for view in views:
            view["policies"].sort(key=lambda rec: json.dumps(rec, sort_keys=True))
        if views[0] != views[1]:
            out.problems.append("integral wakes do not reproduce the integer engine")
    out.identity = _hash({"trace": hook.call("engine.digest", trace.digest)})


def _cli_job(rs, job, hook, out):
    with hook.instrument_cli(rs):
        code = hook.call("cli.main", rs.cli.main, list(job.argv))
    if code != 0:
        out.problems.append(f"radiosync run exited {code}")
        return
    json_path = job.argv[job.argv.index("--out") + 1]
    csv_path = job.argv[job.argv.index("--trace") + 1]
    with open(json_path, "rb") as fh:
        blob = fh.read()
    with open(csv_path, "rb") as fh:
        csv = fh.read()
    report = json.loads(blob)
    csv_sha = hashlib.sha256(csv).hexdigest()
    out.json_bytes, out.csv_bytes = len(blob), len(csv)
    cfg, rep = report["config"], report["energy"]
    out.ticks = int(cfg["horizon"]) + 1
    _gate_bounds(rs, job, out, cfg["k"], rep["sync_complete_tick"], rep["max_energy"], True)
    out.identity = _hash({"trace": report["digest"], "csv": csv_sha,
                          "clusters": report["clusters"], "energy": rep})
