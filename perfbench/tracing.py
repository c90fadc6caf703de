"""Hooks around the benchmark's calls into radiosync, and the per-layer
breakdown built from them.

``Plain`` calls straight through; the end-to-end numbers come from it.
``Spans`` times every call as a span, takes each span's self time (its
duration minus that of the spans it contains) and counts the work the
traces record.  The protocol handlers and the policy code run inside
``World.run`` where no outside span can reach them, so ``Profiled`` runs a
subset of the jobs under cProfile, and each engine span's self time is
split between the layers in the shares that profile found.  cProfile slows
call-heavy code more than the rest, so those shares are estimates.
"""

import contextlib
import cProfile
import functools
import os
import pstats
from collections import Counter
from time import perf_counter

LAYERS = ("core", "policy", "protocols", "engine", "fractional", "analysis", "cli")
# spans whose self time is split between layers by the profile shares
SIM_SPANS = ("engine.init", "engine.run", "fractional.run")
# names cli.main calls, wrapped in the cli-export traced run
CLI_SPANS = {"run": "engine.run", "run_fractional": "fractional.run",
             "energy": "engine.energy", "anchors": "fractional.anchors"}
ANALYSIS_SPANS = {"check_flatten": "analysis.check_flatten",
                  "check_dynamic": "analysis.check_dynamic",
                  "check_final_continuity": "analysis.continuity",
                  "clusters": "analysis.clusters",
                  "discontinuity_points": "analysis.discontinuity"}


class Plain:
    record_messages = False

    def call(self, name, fn, *args):
        return fn(*args)

    def sim(self, name, fn, *args):
        return fn(*args)

    def instrument_cli(self, rs):
        return contextlib.nullcontext()


class _AnalysisProxy:
    """Stands in for the analysis module inside cli, routing its checkers
    through the hook; the module itself stays untouched."""

    def __init__(self, module, hook):
        self._module = module
        self._hook = hook

    def __getattr__(self, attr):
        fn = getattr(self._module, attr)
        span = ANALYSIS_SPANS.get(attr)
        return fn if span is None else functools.partial(self._hook.call, span, fn)


@contextlib.contextmanager
def patch_cli(rs, hook):
    """Route the layer calls cli.main makes through the hook, so that the
    cli span's self time is the report and CSV work alone."""
    cli, trace_cls = rs.cli, rs.engine.SimTrace
    saved = {}
    for name, span in CLI_SPANS.items():
        if hasattr(cli, name):
            saved[name] = getattr(cli, name)
            via = hook.sim if span in SIM_SPANS else hook.call
            setattr(cli, name, functools.partial(via, span, saved[name]))
    if hasattr(cli, "analysis"):
        saved["analysis"] = cli.analysis
        cli.analysis = _AnalysisProxy(cli.analysis, hook)
    digest = trace_cls.digest
    trace_cls.digest = lambda self: hook.call("engine.digest", digest, self)
    try:
        yield
    finally:
        trace_cls.digest = digest
        for name, fn in saved.items():
            setattr(cli, name, fn)


class Profiled(Plain):
    """Profiles the engine spans, one cProfile per job group."""

    def __init__(self):
        self.group = None
        self.profiles = {}

    def sim(self, name, fn, *args):
        prof = self.profiles.setdefault(self.group, cProfile.Profile())
        prof.enable()
        try:
            return fn(*args)
        finally:
            prof.disable()

    def instrument_cli(self, rs):
        return patch_cli(rs, self)

    def shares(self, package_dir) -> dict:
        """group -> {layer: share of the profiled engine time}."""
        return {group: layer_shares(prof, package_dir)
                for group, prof in self.profiles.items()}


def layer_shares(prof, package_dir) -> dict:
    """Split a profile's time between radiosync modules.

    A function defined in the package belongs to its module.  Time spent in
    anything else (the standard library, builtins, dataclass-generated
    methods) goes to the layers of its callers, in proportion to the time
    each caller's calls took.  Time no radiosync caller reaches is left
    under the key None.
    """
    stats = pstats.Stats(prof).stats
    package_dir = os.path.realpath(package_dir)
    memo = {}

    def owner(func, visiting):
        if func in memo:
            return memo[func]
        path = func[0]
        if path.endswith(".py") and os.path.dirname(os.path.realpath(path)) == package_dir:
            dist = {os.path.basename(path)[:-3]: 1.0}
        elif func in visiting or func not in stats:
            return {}
        else:
            visiting.add(func)
            callers = stats[func][4]
            weights = {c: s[2] for c, s in callers.items()}
            if not any(weights.values()):
                weights = {c: s[1] for c, s in callers.items()}
            total = sum(weights.values())
            dist = Counter()
            for caller, w in weights.items():
                if w:
                    for layer, share in owner(caller, visiting).items():
                        dist[layer] += share * w / total
            visiting.discard(func)
        memo[func] = dist
        return dist

    spent = Counter()
    for func, (_cc, _nc, tt, _ct, _callers) in stats.items():
        dist = owner(func, set())
        for layer, share in dist.items():
            spent[layer] += tt * share
        spent[None] += tt * (1.0 - sum(dist.values()))
    total = sum(spent.values())
    return {layer: t / total for layer, t in spent.items()} if total else {}


class Spans(Plain):
    """Times every layer call and accumulates the per-layer breakdown."""

    record_messages = True

    def __init__(self):
        self._open = []  # child time accumulated by each open span
        self._group = None  # job group of the current job
        self._top = 0.0  # time inside outermost spans, current job
        self._results = []  # (span, result) of the current job
        self.jobs = 0
        self.job_seconds = 0.0
        self.glue_seconds = 0.0
        self.span_seconds = Counter()  # span name -> total duration
        self.layer_self = Counter()  # layer -> self seconds outside SIM_SPANS
        self.sim_self = Counter()  # job group -> self seconds of SIM_SPANS
        self.counts = Counter()

    def call(self, name, fn, *args):
        self._open.append(0.0)
        t0 = perf_counter()
        try:
            result = fn(*args)
        finally:
            dur = perf_counter() - t0
            child = self._open.pop()
            if self._open:
                self._open[-1] += dur
            else:
                self._top += dur
            self.span_seconds[name] += dur
            if name in SIM_SPANS:
                self.sim_self[self._group] += dur - child
            else:
                self.layer_self[name.split(".")[0]] += dur - child
        self._results.append((name, result))
        return result

    sim = call

    def instrument_cli(self, rs):
        return patch_cli(rs, self)

    def begin_job(self, group):
        self._group = group
        self._top = 0.0
        self._results = []

    def end_job(self, seconds, outcome, count):
        """Close a job; count its work when this is the counted pass."""
        self.jobs += 1
        self.job_seconds += seconds
        self.glue_seconds += seconds - self._top
        if count:
            _tally(self.counts, self._results, outcome)
        self._results = []

    def layer_seconds(self, shares) -> Counter:
        """Self seconds per layer, the engine spans split by the shares."""
        out = Counter(self.layer_self)
        for group, seconds in self.sim_self.items():
            split = shares.get(group, {})
            for layer, share in split.items():
                if layer is not None:
                    out[layer] += seconds * share
            out["engine"] += seconds * (1.0 - sum(v for k, v in split.items() if k))
        return out


def _tally(counts, results, outcome):
    trace = None  # the trace the analysis calls that follow are about
    for name, res in results:
        if name in ("engine.run", "fractional.run"):
            trace = res
            counts["protocols.policies"] += len(res.policies)
            counts["protocols.reschedules"] += len(res.stage2)
            counts["protocols.adoptions"] += max(0, len(res.clock_events) - res.m)
        if name == "engine.run":
            counts["engine.ticks"] += res.horizon + 1
            counts["engine.on_ticks"] += len(res.on_sets)
            if res.messages is not None:
                counts["engine.messages"] += sum(
                    len(receivers) for sent in res.messages.values()
                    for _pid, _kind, _payload, receivers in sent)
            counts["engine.edge_contacts"] += len(res.edge_contacts)
            counts["engine.clock_events"] += len(res.clock_events)
        elif name == "fractional.run":
            counts["fractional.slots"] += sum(res.energy_counts.values())
        elif name == "analysis.check_flatten":
            groups = len({rec.tick for rec in trace.stage2})
            degenerate = sum("degenerate" in d for d in res.details)
            counts["analysis.groups"] += groups
            counts["analysis.pristine"] += groups - degenerate
        elif name == "analysis.continuity":
            counts["analysis.continuity_checked"] += 1
            counts["analysis.continuity_passed"] += bool(res.passed)
    if outcome.exact_view is not None:
        counts["fractional.integral_jobs"] += 1
        counts["fractional.exact_views"] += outcome.exact_view
    counts["cli.csv_bytes"] += outcome.csv_bytes
    counts["cli.json_bytes"] += outcome.json_bytes
