"""Acceptance suite: one test per numbered criterion, in order.

Each test prints a single "ACCEPTANCE <k> PASS/FAIL" line before asserting,
so the full verdict list survives in captured output either way. Criterion 7
states the diameter-monotonicity direction for block graphs exactly as the
source claims it; that direction has real counterexamples at n = 6 and 7, so
the harness reports violations and this suite shows the failure rather than
hiding it. The analysis is in the README's "Criterion 7 fails" section.

Criteria 3 and 9 start the command as `python -m blockspectra` through the
`module_launch` fixture in conftest.py, so they run the source tree under test.
"""

import itertools
import json
import math
import time

from oracle import ahu_canon, is_clique_tree, prufer_decode

from blockspectra import (
    adjacency_matrix,
    are_isomorphic,
    block_decomposition,
    complete_graph,
    distance_matrix,
    dominant_eigenpair,
    enumerate_clique_trees,
    enumerate_connected_graphs,
    enumerate_trees,
    from_edge_list,
    path_graph,
)
from blockspectra.verify import run_check

EPS = 1e-8


def report_line(k, ok, detail):
    print(f"ACCEPTANCE {k} {'PASS' if ok else 'FAIL'}: {detail}")


def test_criterion_1_closed_forms():
    t0 = time.time()
    worst = 0.0
    for n in range(2, 51):
        kn = complete_graph(n)
        worst = max(worst, abs(dominant_eigenpair(adjacency_matrix(kn)).value - (n - 1)))
        worst = max(worst, abs(dominant_eigenpair(distance_matrix(kn)).value - (n - 1)))
        pn = path_graph(n)
        target = 2 * math.cos(math.pi / (n + 1))
        worst = max(worst, abs(dominant_eigenpair(adjacency_matrix(pn)).value - target))
        star = from_edge_list(n, [(0, i) for i in range(1, n)])
        worst = max(
            worst, abs(dominant_eigenpair(adjacency_matrix(star)).value - math.sqrt(n - 1))
        )
    p3 = abs(dominant_eigenpair(distance_matrix(path_graph(3))).value - (1 + math.sqrt(3)))
    worst = max(worst, p3)
    elapsed = time.time() - t0
    ok = worst <= 1e-9 and elapsed < 5
    report_line(1, ok, f"closed forms n=2..50, worst error {worst:.3g}, {elapsed:.2f}s")
    assert worst <= 1e-9
    assert elapsed < 5


def test_criterion_2_distance_identity():
    t0 = time.time()
    report = run_check("L4.1", n=7)
    elapsed = time.time() - t0
    strict_note = next(n for n in report.notes if "strict" in n)
    # P4 must show up as a strict diameter-3 instance
    p4_strict = report.witness is not None and are_isomorphic(
        from_edge_list(4, [tuple(map(int, ln.split())) for ln in report.witness.split("; ")[1:]]),
        path_graph(4),
    )
    ok = report.passed and p4_strict and elapsed < 600
    report_line(
        2,
        ok,
        f"identity exhaustive n<=7: checked {report.checked}, "
        f"violations {len(report.violations)}, {strict_note}, {elapsed:.1f}s",
    )
    assert report.passed
    assert p4_strict
    assert elapsed < 600


def test_criterion_3_tree_chains(module_launch):
    t0 = time.time()
    details = []
    for tid in ("T2.5", "T4.6"):
        for n in (7, 8):
            report = run_check(tid, n=n)
            assert report.passed, (tid, n, report.violations)
            assert report.checked > 0
            assert report.checked + report.excluded == len(list(enumerate_trees(n)))
            assert not any(note.startswith("ties not isomorphic") for note in report.notes)
            details.append(f"{tid} n={n} checked={report.checked}")
    cli_ok = True
    for tid in ("T2.5", "T4.6"):
        t1 = time.time()
        proc = module_launch.run("verify", tid, "--n", "8")
        dt = time.time() - t1
        cli_ok = cli_ok and proc.returncode == 0 and dt < 60
        details.append(f"cli {tid} exit={proc.returncode} {dt:.1f}s")
    elapsed = time.time() - t0
    ok = cli_ok and elapsed < 120
    report_line(3, ok, "; ".join(details))
    assert cli_ok
    assert elapsed < 120


def test_criterion_4_clique_tree_bounds():
    t0 = time.time()
    details = []
    for tid in ("T2.2", "T2.4", "T4.4", "T4.5"):
        checked = 0
        for n in range(2, 8):
            report = run_check(tid, n=n)
            assert report.passed, (tid, n, report.violations)
            assert not any(note.startswith("ties not isomorphic") for note in report.notes)
            checked += report.checked
        details.append(f"{tid} checked={checked}")
        assert checked > 0
    elapsed = time.time() - t0
    ok = elapsed < 600
    report_line(4, ok, f"clique trees n<=7 all s: {'; '.join(details)}, {elapsed:.1f}s")
    assert elapsed < 600


def test_criterion_5_block_graph_bounds():
    t0 = time.time()
    details = []
    for tid in ("L3.2", "L5.1"):
        report = run_check(tid, n=6)
        assert report.passed, (tid, report.violations)
        details.append(f"{tid} checked={report.checked} ties={report.ties}")
    for tid in ("T3.3", "T5.2"):
        checked = 0
        for n in range(2, 7):
            report = run_check(tid, n=n)
            assert report.passed, (tid, n, report.violations)
            checked += report.checked
        details.append(f"{tid} checked={checked}")
        assert checked > 0
    elapsed = time.time() - t0
    ok = elapsed < 600
    report_line(5, ok, f"block graphs n<=6: {'; '.join(details)}, {elapsed:.1f}s")
    assert elapsed < 600


def test_criterion_6_clique_moves():
    t0 = time.time()
    details = []
    for name in ("L2.1", "L4.2"):
        report = run_check(name, trials=1000, seed=0, n=10)
        assert report.passed, (name, report.violations[:3])
        assert report.ties >= 1
        assert not any(note.startswith("ties not isomorphic") for note in report.notes)
        details.append(f"{name} moves={report.checked} ties={report.ties}")
    elapsed = time.time() - t0
    ok = elapsed < 300
    report_line(6, ok, f"1000 seeded trees n<=10: {'; '.join(details)}, {elapsed:.1f}s")
    assert elapsed < 300


def test_criterion_7_diameter_monotonicity():
    t0 = time.time()
    failures = []
    details = []
    for tid in ("L2.3", "L3.1", "L4.3"):
        for n in (6, 7):
            for d in range(3, n):
                report = run_check(tid, n=n, d=d)
                vac = any(note.startswith("vacuous") for note in report.notes)
                if vac:
                    details.append(f"{tid} n={n} d={d} vacuous")
                    continue
                if report.passed:
                    details.append(f"{tid} n={n} d={d} ok")
                else:
                    v = report.violations[0]
                    failures.append(
                        f"{tid} n={n} d={d}: lhs {v['lhs']:.6f} < rhs {v['rhs']:.6f} "
                        f"(margin {v['margin']:.3g})"
                    )
    elapsed = time.time() - t0
    ok = not failures and elapsed < 600
    summary = "all stated directions hold" if ok else "; ".join(failures)
    report_line(7, ok, f"{summary}, {elapsed:.1f}s")
    assert elapsed < 600
    assert not failures, (
        "the stated block-graph direction fails on real class maxima: "
        + "; ".join(failures)
    )


def test_criterion_8_enumeration_oracles():
    t0 = time.time()
    tree_counts = []
    for n in range(2, 9):
        oracle = set()
        for seq in itertools.product(range(n), repeat=n - 2):
            oracle.add(ahu_canon(n, prufer_decode(seq, n)))
        ours = list(enumerate_trees(n))
        assert len(ours) == len(oracle), n
        assert {ahu_canon(g.n, g.edges) for g in ours} == oracle
        tree_counts.append(len(ours))
    assert tree_counts[-1] == 23
    ct_pairs = 0
    for n in range(2, 7):
        by_s = {}
        for g in enumerate_connected_graphs(n):
            if is_clique_tree(g):
                by_s.setdefault(len(block_decomposition(g).blocks), []).append(g)
        for s in range(1, n):
            ours = list(enumerate_clique_trees(n, s))
            ref = by_s.get(s, [])
            assert len(ours) == len(ref), (n, s)
            for g in ours:
                assert sum(1 for h in ref if are_isomorphic(g, h)) == 1
            ct_pairs += 1
    elapsed = time.time() - t0
    ok = elapsed < 300
    report_line(
        8,
        ok,
        f"tree counts n=2..8 {tree_counts} match Prufer oracle; "
        f"clique trees match brute filter over {ct_pairs} (n,s) pairs, {elapsed:.1f}s",
    )
    assert elapsed < 300


def test_criterion_9_determinism(module_launch):
    def strip_elapsed(text):
        return "\n".join(l for l in text.splitlines() if '"elapsed"' not in l)

    outs = []
    for jobs in ("1", "1", "4"):
        proc = module_launch.run("verify", "T2.4", "--n", "7", "--jobs", jobs)
        assert proc.returncode == 0
        json.loads(proc.stdout)
        outs.append(strip_elapsed(proc.stdout))
    ok = outs[0] == outs[1] == outs[2]
    report_line(9, ok, "repeat runs and --jobs 1 vs 4 byte-identical minus elapsed")
    assert ok
