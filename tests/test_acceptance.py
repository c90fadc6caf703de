"""Acceptance suite: every release criterion at its stated tolerance.

Each criterion prints one PASS/FAIL line (visible with pytest -s / -rA).
Criteria 2-6 share the exhaustive and 500-vector random sweeps from
conftest; tolerances are exact (integer or rational) throughout.
"""

import json
import random
import sys
import time
from fractions import Fraction

import pytest

from radiosync import adversary, analysis
from radiosync.cli import main as cli_main
from radiosync.core import SimConfig, ceil_log2
from radiosync.engine import energy, run
from radiosync.fractional import anchors, run_fractional
from radiosync.policy import basic_policy, naive_policy, overlaps
from radiosync.protocols import ceil_sqrt

HALF = Fraction(1, 2)


def report(idx, name, passed, extra=""):
    line = f"ACCEPTANCE {idx:2d} {name:<28s} {'PASS' if passed else 'FAIL'}"
    if extra:
        line += f"  ({extra})"
    print(line, file=sys.stderr)
    assert passed, line


def sync_threshold(n, k):
    return ceil_log2(n) * 4 * n + 2 * n + k * k + k


def test_criterion_01_overlap_guarantee():
    t0 = time.time()
    ok = True
    for k in range(1, 13):
        p = basic_policy(k)
        span = k * k + k
        ok = ok and all(overlaps(p, 0, p, d) for d in range(span))
        ok = ok and not overlaps(p, 0, p, span)
    elapsed = time.time() - t0
    report(1, "overlap-guarantee", ok and elapsed < 1.0, f"{elapsed:.2f}s")


def test_criterion_02_synchronize_correctness(sync_exhaustive, sync_random):
    t0 = time.time()
    bad = []
    for key, tr in sync_exhaustive + sync_random:
        thresh = sync_threshold(tr.n, tr.k)
        if tr.sync_complete_tick is None or tr.sync_complete_tick > thresh:
            bad.append(key)
    elapsed = time.time() - t0
    total = len(sync_exhaustive) + len(sync_random)
    report(2, "synchronize-correctness", not bad and elapsed < 300,
           f"{total} configs, {len(bad)} late, sim+check {elapsed:.0f}s")


def test_criterion_03_synchronize_energy(sync_exhaustive, sync_random):
    bad = []
    for key, tr in sync_exhaustive + sync_random:
        budget = (2 * tr.k + 1) * (ceil_log2(tr.n) + 1)
        if max(tr.energy_counts.values()) > budget:
            bad.append(key)
    report(3, "synchronize-energy", not bad, f"{len(bad)} over budget")


def test_criterion_04_dynamic_correctness_and_energy(dyn_exhaustive, dyn_random):
    bad_sync, bad_energy = [], []
    for key, tr in dyn_exhaustive + dyn_random:
        thresh = 4 * tr.n + tr.k * tr.k + tr.k + 1
        if tr.sync_complete_tick is None or tr.sync_complete_tick > thresh:
            bad_sync.append(key)
        if max(tr.energy_counts.values()) > 4 * tr.k + 2:
            bad_energy.append(key)
    report(4, "dynamic-correctness-energy", not bad_sync and not bad_energy,
           f"{len(bad_sync)} late, {len(bad_energy)} over budget")


def test_criterion_05_dynamic_structure(dyn_exhaustive, dyn_random):
    bad = []
    for key, tr in dyn_exhaustive + dyn_random:
        rep = analysis.check_dynamic(tr)
        if not rep.passed or tr.flags:
            bad.append((key, rep.details[:2], tr.flags[:2]))
    report(5, "dynamic-structure", not bad,
           f"{len(bad)} traces violate" if bad else "windows disjoint, density <= 1, queue >= m/2")


def test_criterion_06_flatten_geometry(sync_exhaustive, sync_random):
    bad = []
    for key, tr in sync_exhaustive + sync_random:
        rep = analysis.check_flatten(tr)
        if not rep.passed:
            bad.append((key, [d for d in rep.details if "degenerate" not in d][:2]))
    report(6, "flatten-geometry", not bad, f"{len(bad)} traces violate")


def test_criterion_07_fractional_mode():
    rng = random.Random(20260809)
    bad = []
    for trial in range(200):
        n = rng.choice([16, 32, 64, 128, 256])
        m = rng.choice([2, 3, 4, 8, 16])
        den = rng.choice([2, 3, 4, 8, 16])
        wakes = [Fraction(rng.randint(0, n * den), den) for _ in range(m)]
        cfg = SimConfig(n=n, m=m, wake_times=wakes, algorithm="synchronize",
                        fractional=True)
        tr = run_fractional(cfg)
        A = anchors(tr)
        taus = [tau for tau, _q in tr.final_clocks.values()]
        if (len(set(A.values())) != 1
                or any(abs(q) > HALF for _t, q in tr.final_clocks.values())
                or max(taus) - min(taus) > 1):
            bad.append((n, m, trial))
    # integral offsets must reproduce the integer engine exactly
    proj_ok = True
    for alg in ("synchronize", "naive", "pairwise"):
        ci = SimConfig(n=24, m=4, wake_times=[0, 7, 13, 24], algorithm=alg)
        cf = SimConfig(n=24, m=4, wake_times=[Fraction(w) for w in (0, 7, 13, 24)],
                       algorithm=alg, fractional=True)
        vi, vf = run(ci).deterministic_view(), run_fractional(cf).deterministic_view()
        vi["cfg"].pop("fractional")
        vf["cfg"].pop("fractional")
        proj_ok = proj_ok and vi == vf
    report(7, "fractional-mode", not bad and proj_ok,
           f"200 vectors, {len(bad)} bad; projection {'exact' if proj_ok else 'differs'}")


def test_criterion_08_lower_bound_probes():
    t0 = time.time()
    w = adversary.search_non_overlap([(1, 1), (1, 1)], 9)
    have_witness = w is not None and w.certified
    none_for_basic = all(
        adversary.search_non_overlap([basic_policy(ceil_sqrt(n)).bits] * 2, n) is None
        for n in range(1, 201))
    rows = adversary.budget_curve(100, 20)
    by_budget = {r["budget"]: r for r in rows}
    curve_ok = by_budget[3]["all_defeated"] and "basic-truncated" in by_budget[20]["safe"]
    elapsed = time.time() - t0
    report(8, "lower-bound-probes",
           have_witness and none_for_basic and curve_ok and elapsed < 60,
           f"{elapsed:.2f}s")


def test_criterion_09_multi_hop_baseline():
    rep = adversary.multi_hop_experiment(adversary.two_clique(8), 64, "pairwise")
    expected = 8 * 2 * ceil_sqrt(64)
    ok = rep["all_edges_contacted"] and rep["total_energy"] == expected
    report(9, "multi-hop-baseline", ok,
           f"total={rep['total_energy']} expected={expected}")


def test_criterion_10_determinism(sync_exhaustive, sync_random, dyn_exhaustive,
                                  dyn_random, sweep_digests, tmp_path, capsys):
    mismatches = 0
    # re-simulate every sweep configuration and compare its full trace
    # digest with the cached trace's, taken once per session (sweep_digests)
    for alg, name, cached in (("synchronize", "sync_exhaustive", sync_exhaustive),
                              ("synchronize", "sync_random", sync_random),
                              ("dynamic-synch", "dyn_exhaustive", dyn_exhaustive),
                              ("dynamic-synch", "dyn_random", dyn_random)):
        for ((n, m, wakes), _tr), digest in zip(cached, sweep_digests[name], strict=True):
            again = run(SimConfig(n=n, m=m, wake_times=list(wakes), algorithm=alg))
            if again.digest() != digest:
                mismatches += 1
    # fractional re-run
    wakes = [Fraction(0), Fraction(7, 2), Fraction(12), Fraction(55, 4)]
    cfg = SimConfig(n=16, m=4, wake_times=wakes, algorithm="synchronize",
                    fractional=True)
    if run_fractional(cfg).digest() != run_fractional(cfg).digest():
        mismatches += 1
    # command-line output bytes
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["run", "--n", "64", "--m", "8", "--algorithm", "dynamic",
            "--wake", "random", "--seed", "7", "--check", "dynamic,budget"]
    assert cli_main(args + ["--out", str(a)]) == 0
    assert cli_main(args + ["--out", str(b)]) == 0
    capsys.readouterr()
    if a.read_bytes() != b.read_bytes():
        mismatches += 1
    report(10, "determinism", mismatches == 0, f"{mismatches} mismatches")
