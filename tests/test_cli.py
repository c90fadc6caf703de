import csv
import io
import itertools
import json
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from radiosync import analysis, cli
from radiosync.adversary import build_topology
from radiosync.cli import _ROWS_PER_WRITE, _write_trace_csv, main
from radiosync.core import SimConfig
from radiosync.engine import World, run
from radiosync.protocols import PROTOCOLS


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_run_with_checks_exits_zero(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, _, _ = run_cli(["run", "--n", "64", "--m", "8",
                          "--algorithm", "synchronize", "--wake", "uniform",
                          "--check", "flatten,continuity,budget,sync",
                          "--out", str(out)], capsys)
    assert code == 0
    report = json.loads(out.read_text())
    assert all(v["passed"] for v in report["checks"].values())
    assert report["energy"]["max_energy"] <= report["checks"]["budget"]["budget"]


def test_run_dynamic_checks(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, _, _ = run_cli(["run", "--n", "64", "--m", "8",
                          "--algorithm", "dynamic", "--wake", "random",
                          "--seed", "7", "--check", "dynamic,budget,sync",
                          "--out", str(out)], capsys)
    assert code == 0


@pytest.mark.parametrize("algorithm, checks", [("synchronize", "sync,flatten,budget"),
                                               ("dynamic", "sync,dynamic,budget")])
def test_run_computes_clusters_once(tmp_path, capsys, monkeypatch, algorithm, checks):
    calls = []

    def counted(trace, _orig=analysis.clusters):
        calls.append(trace)
        return _orig(trace)

    monkeypatch.setattr(analysis, "clusters", counted)
    code, _, _ = run_cli(["run", "--n", "64", "--m", "8", "--algorithm", algorithm,
                          "--wake", "random", "--check", checks,
                          "--out", str(tmp_path / "report.json")], capsys)
    assert code == 0 and len(calls) == 1


class RecordingAnalysis:
    """Stands in for the analysis module and records every call made
    through it, with its arguments and result."""

    def __init__(self):
        self.calls = []

    def __getattr__(self, name):
        fn = getattr(analysis, name)

        def recorded(*args):
            out = fn(*args)
            self.calls.append((name, args, out))
            return out
        return recorded


@pytest.mark.parametrize("algorithm, check", [("synchronize", "flatten"),
                                              ("dynamic", "dynamic")])
def test_run_calls_checkers_through_cli_analysis(tmp_path, capsys, monkeypatch,
                                                 algorithm, check):
    stand_in = RecordingAnalysis()
    monkeypatch.setattr(cli, "analysis", stand_in)
    code, _, _ = run_cli(["run", "--n", "64", "--m", "8", "--algorithm", algorithm,
                          "--wake", "random", "--check", f"sync,{check},budget",
                          "--out", str(tmp_path / "report.json")], capsys)
    assert code == 0
    assert [name for name, _args, _out in stand_in.calls] == ["clusters", f"check_{check}"]
    (_, (trace,), cl), (_, args, _) = stand_in.calls
    assert args[0] is trace and args[1] is cl


def test_bad_n_exits_two(capsys):
    code, _, err = run_cli(["run", "--n", "0", "--m", "4"], capsys)
    assert code == 2
    assert "n must be >= 1" in err


@pytest.mark.parametrize("n, m", [("", "2"), ("8", ",")])
def test_sweep_without_n_or_m_exits_two(tmp_path, capsys, n, m):
    code, _, err = run_cli(["sweep", "--n", n, "--m", m,
                            "--out", str(tmp_path / "sweep.csv")], capsys)
    assert code == 2
    assert "sweep needs at least one n and one m" in err
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("command", [["run"], ["sweep", "--out", "{tmp}/sweep.csv"]])
def test_out_of_memory_is_a_usage_error(tmp_path, capsys, monkeypatch, command):
    # a stand-in: a config too large to hold is never allocated for real
    def no_memory(cfg):
        raise MemoryError
    monkeypatch.setattr(cli, "run", no_memory)
    argv = [a.format(tmp=tmp_path) for a in command] + ["--n", "8", "--m", "2"]
    code, _, err = run_cli(argv, capsys)
    assert code == 2
    assert err.count("\n") == 1 and err.startswith("error: ") and "memory" in err


def test_unknown_check_exits_two(capsys):
    code, _, err = run_cli(["run", "--n", "4", "--m", "2", "--check", "nonsense"],
                           capsys)
    assert code == 2


def test_failed_check_exits_one_and_names_it(tmp_path, capsys):
    # clocks are never adjusted by the pairwise baseline, so a sync check
    # on it must fail
    out = tmp_path / "r.json"
    code, _, err = run_cli(["run", "--n", "20", "--m", "2",
                            "--algorithm", "pairwise", "--check", "sync",
                            "--out", str(out)], capsys)
    assert code == 1
    assert "sync" in err


def test_pairwise_budget_follows_k_override(tmp_path, capsys):
    # the policy is the k-basic one for the overridden k, so the budget is
    # 2k = 16 on-ticks, not 2 * ceil(sqrt(n)) = 8
    out = tmp_path / "r.json"
    code, _, _ = run_cli(["run", "--n", "16", "--m", "4", "--algorithm", "pairwise",
                          "--k", "8", "--check", "budget", "--out", str(out)], capsys)
    budget = json.loads(out.read_text())["checks"]["budget"]
    assert (code, budget["budget"], budget["max_energy"]) == (0, 16, 16)


# the README's per-algorithm table: k, horizon and energy budget
def _ceil_sqrt(num, den=1):
    """Smallest k with k * k >= num / den."""
    return next(k for k in itertools.count(1) if k * k * den >= num)


def _ceil_log2(n):
    """Smallest c with 2 ** c >= n."""
    return next(c for c in itertools.count() if 2 ** c >= n)


README_FORMULAS = {
    "synchronize": (lambda n, m: _ceil_sqrt(8 * n, m),
                    lambda n, k: _ceil_log2(n) * 4 * n + 2 * n + k * k + k + 1,
                    lambda n, k: (2 * k + 1) * (_ceil_log2(n) + 1)),
    "dynamic-synch": (lambda n, m: _ceil_sqrt(8 * n, m),
                      lambda n, k: 4 * n + k * k + k + 2,
                      lambda n, k: 4 * k + 2),
    "naive": (lambda n, m: 1, lambda n, k: 3 * n + 1, lambda n, k: n + 1),
    "pairwise": (lambda n, m: _ceil_sqrt(n),
                 lambda n, k: 2 * n + k * k + k,
                 lambda n, k: 2 * k),
}


@pytest.mark.parametrize("k_override", [None, 5])
@pytest.mark.parametrize("algorithm", sorted(README_FORMULAS))
def test_per_algorithm_formulas(tmp_path, capsys, algorithm, k_override):
    n, m = 20, 3  # 8n/m = 160/3 and n = 20 are not squares: the ceilings matter
    k_of, horizon_of, budget_of = README_FORMULAS[algorithm]
    k = k_of(n, m) if k_override is None else k_override
    world = World(SimConfig(n=n, m=m, algorithm=algorithm, k_override=k_override))
    assert (world.k, world.horizon) == (k, horizon_of(n, k))
    out = tmp_path / "r.json"
    args = ["run", "--n", str(n), "--m", str(m), "--algorithm", algorithm,
            "--check", "budget", "--out", str(out)]
    run_cli(args + ([] if k_override is None else ["--k", str(k_override)]), capsys)
    assert json.loads(out.read_text())["checks"]["budget"]["budget"] == budget_of(n, k)


# the structural checks that do not describe an algorithm's traces
MISMATCHED_CHECKS = [
    ("synchronize", "dynamic"),
    ("dynamic-synch", "flatten"), ("dynamic-synch", "continuity"),
    ("naive", "flatten"), ("naive", "continuity"), ("naive", "dynamic"),
    ("pairwise", "flatten"), ("pairwise", "continuity"), ("pairwise", "dynamic"),
]


@pytest.mark.parametrize("algorithm, check", MISMATCHED_CHECKS)
def test_mismatched_check_exits_two_before_writing(tmp_path, capsys, algorithm, check):
    out, trace = tmp_path / "r.json", tmp_path / "t.csv"
    code, stdout, err = run_cli(["run", "--n", "16", "--m", "4", "--algorithm", algorithm,
                                 "--check", f"sync,{check}", "--out", str(out),
                                 "--trace", str(trace)], capsys)
    assert code == 2 and "does not apply" in err
    assert not stdout and not out.exists() and not trace.exists()


def test_output_bytes_are_stable(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["run", "--n", "32", "--m", "4", "--algorithm", "dynamic",
            "--wake", "random", "--seed", "11"]
    assert run_cli(args + ["--out", str(a)], capsys)[0] == 0
    assert run_cli(args + ["--out", str(b)], capsys)[0] == 0
    assert a.read_bytes() == b.read_bytes()


# cli._dump_report splices the config's edge list into json's indent=2
# text; the report must keep json.dumps' bytes for every topology shape
@pytest.mark.parametrize("args", [
    ["--m", "1"],  # an empty edge list
    ["--m", "2"],
    ["--m", "64", "--algorithm", "dynamic", "--check", "sync,dynamic,budget"],
    ["--m", "8", "--topology", "two-clique", "--algorithm", "naive"],
    ["--m", "8", "--topology", "unit-disk", "--algorithm", "naive"],
    ["--m", "3", "--fractional", "--wake", "explicit:WAKES"],
], ids=["complete-m1", "complete-m2", "complete-m64", "two-clique", "unit-disk",
        "fractional"])
def test_report_bytes_match_json_dumps(tmp_path, capsys, monkeypatch, args):
    wakes = tmp_path / "wakes.txt"
    wakes.write_text("0\n5/2\n4\n")
    reports = []

    def recorded(trace, *rest, _orig=cli._report):
        reports.append((trace, _orig(trace, *rest)))
        return reports[-1][1]

    monkeypatch.setattr(cli, "_report", recorded)
    out = tmp_path / "r.json"
    args = [a.replace("WAKES", str(wakes)) for a in args]
    code, _, _ = run_cli(["run", "--n", "16", *args, "--out", str(out)], capsys)
    assert code == 0
    (trace, report), = reports
    assert out.read_text() == json.dumps(report, sort_keys=True, indent=2) + "\n"
    # the placeholder went into copies, not into the trace's own config
    assert report["config"] is trace.cfg
    assert isinstance(trace.cfg["topology"]["edges"], list)


def test_explicit_wake_file(tmp_path, capsys):
    wakes = tmp_path / "wakes.txt"
    wakes.write_text("0\n3\n7\n")
    out = tmp_path / "r.json"
    code, _, _ = run_cli(["run", "--n", "10", "--m", "3",
                          "--wake", f"explicit:{wakes}", "--out", str(out)], capsys)
    assert code == 0
    report = json.loads(out.read_text())
    assert report["config"]["wake_times"] == ["0", "3", "7"]


def test_edge_file_topology(tmp_path, capsys):
    edges = tmp_path / "edges.txt"
    edges.write_text("1 2\n2 3\n")
    out = tmp_path / "r.json"
    code, _, _ = run_cli(["run", "--n", "8", "--m", "3", "--algorithm", "naive",
                          "--topology", f"edges:{edges}", "--out", str(out)], capsys)
    assert code == 0
    report = json.loads(out.read_text())
    assert report["config"]["topology"]["edges"] == [[1, 2], [2, 3]]


def test_fractional_run(tmp_path, capsys):
    wakes = tmp_path / "wakes.txt"
    wakes.write_text("0\n5/2\n4\n")
    out = tmp_path / "r.json"
    code, _, _ = run_cli(["run", "--n", "8", "--m", "3", "--fractional",
                          "--wake", f"explicit:{wakes}", "--out", str(out)], capsys)
    assert code == 0
    report = json.loads(out.read_text())
    assert len(set(report["timeline_anchors"].values())) == 1


def test_fractional_trace_rejected_before_writing(tmp_path, capsys):
    wakes = tmp_path / "wakes.txt"
    wakes.write_text("0\n5/2\n4\n")
    out, trace = tmp_path / "r.json", tmp_path / "t.csv"
    code, _, err = run_cli(["run", "--n", "8", "--m", "3", "--fractional",
                            "--wake", f"explicit:{wakes}", "--out", str(out),
                            "--trace", str(trace)], capsys)
    assert code == 2
    assert "integer-mode only" in err
    assert not out.exists() and not trace.exists()


def test_trace_csv(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    code, _, _ = run_cli(["run", "--n", "8", "--m", "2", "--algorithm", "naive",
                          "--trace", str(trace), "--out", str(tmp_path / "r.json")],
                         capsys)
    assert code == 0
    rows = list(csv.DictReader(trace.open()))
    assert rows[0]["tick"] == "0"
    assert len(rows) > 8
    assert any(r["radio_on"] for r in rows)


def _csv_from_tau_at(trace):
    """The trace CSV built row by row from SimTrace.tau_at."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["tick", "radio_on", *[f"tau_{i}" for i in range(1, trace.m + 1)]])
    for t in range(trace.horizon + 1):
        taus = [trace.tau_at(i, t) for i in range(1, trace.m + 1)]
        writer.writerow([t, " ".join(map(str, trace.on_sets.get(t, ()))),
                         *["" if x is None else x for x in taus]])
    return buf.getvalue().encode()


@pytest.mark.parametrize("algorithm, n, wakes", [
    ("synchronize", 8, [0, 3, 5, 8]),
    ("dynamic-synch", 8, [0, 3, 5, 8]),
    ("naive", 6, [0, 4, 6]),
    ("pairwise", 9, [0, 4, 7]),
])
def test_trace_csv_matches_tau_at(tmp_path, algorithm, n, wakes):
    trace = run(SimConfig(n=n, m=len(wakes), wake_times=wakes, algorithm=algorithm))
    path = tmp_path / "trace.csv"
    _write_trace_csv(trace, path)
    assert path.read_bytes() == _csv_from_tau_at(trace)
    # late wakers leave blank cells; all but pairwise adopt on their wake
    # tick, which sets one clock twice at one tick
    assert b",," in path.read_bytes()
    twice = Counter((t, o) for t, o, _tau, _q in trace.clock_events)
    assert (max(twice.values()) > 1) == (algorithm != "pairwise")


# the topologies the baselines run on, and the processor counts each allows
# (l-connected:1 needs m > 12); the single-hop algorithms run on the first
TOPOLOGY_MS = {
    "complete": st.integers(1, 8),
    "two-clique": st.sampled_from([2, 4, 6, 8]),
    "l-connected:1": st.sampled_from([14, 16]),
    "unit-disk": st.sampled_from([2, 4, 6, 8]),
}


@st.composite
def csv_configs(draw):
    algorithm = draw(st.sampled_from(sorted(PROTOCOLS)))
    spec = "complete"
    if not PROTOCOLS[algorithm].SINGLE_HOP:
        spec = draw(st.sampled_from(sorted(TOPOLOGY_MS)))
    m, n = draw(TOPOLOGY_MS[spec]), draw(st.integers(1, 24))
    return SimConfig(n=n, m=m, wake_times=draw(st.lists(st.integers(0, n), min_size=m,
                                                        max_size=m)),
                     topology=build_topology(spec, m), algorithm=algorithm,
                     k_override=draw(st.none() | st.integers(1, 6)),
                     # below the last wake, some processor never wakes
                     max_ticks=draw(st.none() | st.integers(0, 8 * n)))


# the segment cases the writer must get right, each checked below
CSV_EXAMPLES = {
    # three wakes, and then adoptions, at one tick
    "events-at-one-tick": SimConfig(n=12, m=4, wake_times=[3, 3, 3, 7]),
    # the one row is tick 0, where both events are
    "event-at-tick-0": SimConfig(n=6, m=3, wake_times=[0, 0, 4], algorithm="naive",
                                 max_ticks=0),
    # processor 3 wakes and adopts on the last tick
    "event-on-last-tick": SimConfig(n=8, m=3, wake_times=[0, 2, 5], algorithm="naive",
                                    max_ticks=5),
    # processor 3 would wake at tick 8
    "never-wakes": SimConfig(n=8, m=3, wake_times=[0, 2, 8], algorithm="dynamic-synch",
                             max_ticks=6),
    # one processor, one event: a single segment over several writes
    "segment-over-buffer": SimConfig(n=200, m=1, wake_times=[0], algorithm="naive"),
    # ticks 2..398: one segment over two writes, three clocks apart and
    # processor 4's blank column across the chunk boundary
    "blank-across-chunks": SimConfig(n=400, m=4, wake_times=[0, 1, 2, 399],
                                     algorithm="pairwise"),
}


def test_csv_examples_are_what_they_say():
    traces = {name: run(cfg) for name, cfg in CSV_EXAMPLES.items()}
    ticks = {name: Counter(e[0] for e in tr.clock_events) for name, tr in traces.items()}
    assert max(ticks["events-at-one-tick"].values()) >= 3
    assert traces["event-at-tick-0"].horizon == 0 and ticks["event-at-tick-0"][0] == 2
    assert traces["event-on-last-tick"].horizon in ticks["event-on-last-tick"]
    assert 3 not in {e[1] for e in traces["never-wakes"].clock_events}
    assert set(ticks["segment-over-buffer"]) == {0}
    assert traces["segment-over-buffer"].horizon + 1 > 2 * _ROWS_PER_WRITE
    events = traces["blank-across-chunks"].clock_events
    assert [(t, o, tau) for t, o, tau, _q in events[:4]] == [(0, 1, 0), (1, 2, 0), (2, 3, 0),
                                                              (399, 4, 0)]
    assert 399 - 2 > _ROWS_PER_WRITE


@settings(max_examples=150, deadline=None)
@given(csv_configs())
@example(CSV_EXAMPLES["events-at-one-tick"])
@example(CSV_EXAMPLES["event-at-tick-0"])
@example(CSV_EXAMPLES["event-on-last-tick"])
@example(CSV_EXAMPLES["never-wakes"])
@example(CSV_EXAMPLES["segment-over-buffer"])
@example(CSV_EXAMPLES["blank-across-chunks"])
def test_trace_csv_bytes_match_csv_writer(tmp_path_factory, cfg):
    trace = run(cfg)
    path = tmp_path_factory.getbasetemp() / "trace.csv"
    _write_trace_csv(trace, path)
    assert path.read_bytes() == _csv_from_tau_at(trace)


def test_sweep_writes_budgeted_table(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code, _, _ = run_cli(["sweep", "--n", "64,256", "--m", "4,16",
                          "--algorithm", "synchronize", "--out", str(out)], capsys)
    assert code == 0
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 4
    from radiosync.core import ceil_log2

    for r in rows:
        n, k = int(r["n"]), int(r["k"])
        budget = (2 * k + 1) * (ceil_log2(n) + 1)
        assert int(r["max_energy"]) <= budget
        assert r["sync_tick"] != ""


def test_sweep_dynamic_budget(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code, _, _ = run_cli(["sweep", "--n", "64,256,1024", "--m", "4,16,64",
                          "--algorithm", "dynamic", "--out", str(out)], capsys)
    assert code == 0
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 9
    for r in rows:
        assert int(r["max_energy"]) <= 4 * int(r["k"]) + 2


def test_sweep_naive_energy_exact(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code, _, _ = run_cli(["sweep", "--n", "16,64", "--m", "4",
                          "--algorithm", "naive", "--out", str(out)], capsys)
    assert code == 0
    rows = list(csv.DictReader(out.open()))
    for r in rows:
        assert int(r["max_energy"]) == int(r["n"]) + 1


@pytest.mark.parametrize("args, content", [
    (["run", "--n", "8", "--m", "2", "--wake", "explicit:{file}"], "0\nabc\n"),
    (["run", "--n", "8", "--m", "2", "--fractional", "--wake", "explicit:{file}"],
     "0\n1/0\n"),
    (["run", "--n", "8", "--m", "2", "--algorithm", "naive",
      "--topology", "edges:{file}"], "1\n"),
    (["run", "--n", "8", "--m", "16", "--algorithm", "naive",
      "--topology", "l-connected:abc"], None),
    (["sweep", "--n", "8,x", "--m", "2", "--out", "{file}"], None),
], ids=["wake-integer", "wake-rational", "edge-line", "l-connected", "sweep-n"])
def test_malformed_input_exits_two(tmp_path, capsys, args, content):
    path = tmp_path / "input.txt"
    if content is not None:
        path.write_text(content)
    code, _, err = run_cli([a.format(file=path) for a in args], capsys)
    assert code == 2
    assert "malformed" in err


def test_sweep_honours_max_ticks(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code, _, _ = run_cli(["sweep", "--n", "8", "--m", "2", "--max-ticks", "3",
                          "--out", str(out)], capsys)
    assert code == 0
    row = next(csv.DictReader(out.open()))
    code, report, _ = run_cli(["run", "--n", "8", "--m", "2", "--max-ticks", "3"], capsys)
    assert code == 0
    assert int(row["max_energy"]) == json.loads(report)["energy"]["max_energy"] == 4
    assert row["sync_tick"] == ""


def test_sweep_has_no_fractional_flag(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--n", "8", "--m", "2", "--fractional",
              "--out", str(tmp_path / "sweep.csv")])
    assert exc.value.code == 2


def test_unknown_flag_is_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--n", "4", "--m", "2", "--frobnicate"])
    assert exc.value.code == 2
