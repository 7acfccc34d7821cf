"""Verification harness: dispatch, exhaustiveness, report shape, determinism.

L3.1 is checked here as a detector test: the stated direction has genuine
small counterexamples, and the harness must report them as violations rather
than pass.
"""

import collections
import concurrent.futures
import inspect
import itertools
import json
import random
import time

import numpy as np
import pytest
from oracle import relabelled

from blockspectra import (
    EigenPair,
    GraphError,
    adjacency_matrix,
    are_isomorphic,
    block_decomposition,
    clique_path,
    complement_distance_matrix,
    complete_graph,
    diameter,
    end_cliques,
    enumerate_clique_trees,
    enumerate_connected_graphs,
    enumerate_trees,
    format_edge_list,
    parse_edge_list,
    path_graph,
    random_clique_tree,
    spectral_radii,
    verify,
)
from blockspectra.verify import (
    ALIASES,
    CLAIMS,
    EPS,
    PARAMS,
    TheoremReport,
    _comparators,
    run_check,
)

SMOKE_PARAMS = {
    "T2.2": dict(n=5),
    "T2.4": dict(n=5),
    "L4.4": dict(n=5),
    "T4.5": dict(n=5),
    "T3.3": dict(n=5),
    "T5.2": dict(n=5),
    "T2.5": dict(n=7),
    "T4.6": dict(n=7),
    "L4.1": dict(n=5),
    "L2.1": dict(trials=40, seed=0, n=8),
    "L4.2": dict(trials=40, seed=0, n=8),
    "L2.3": dict(n=6, d=3),
    "L4.3": dict(n=6, d=3),
    "L3.1": dict(n=6, d=3),
    "L3.2": dict(n=5),
    "L5.1": dict(n=5),
}


def canon(report):
    """The JSON report as an object, minus the run time."""
    obj = json.loads(report.to_json())
    obj.pop("elapsed")
    return obj


def gstr(g):
    """A graph's text as reports print it."""
    return format_edge_list(g).strip().replace("\n", "; ")


def witness_graph(report):
    # witness strings use "; " where the file format uses newlines
    return parse_edge_list(report.witness.replace("; ", "\n"))


class TestDispatch:
    def test_every_claim_id_smokes(self):
        for tid, kwargs in SMOKE_PARAMS.items():
            report = run_check(tid, **kwargs)
            assert isinstance(report, TheoremReport)
            assert report.theorem == tid
            assert report.checked >= 0 and report.excluded >= 0
            parsed = json.loads(report.to_json())
            assert parsed["theorem"] == tid
            if tid != "L3.1":
                assert report.passed, (tid, report.violations)

    def test_ids_cover_registry(self):
        assert set(SMOKE_PARAMS) == set(CLAIMS)
        assert "all connected graphs" in CLAIMS["L3.1"].text

    def test_alias(self):
        report = run_check("T4.4", n=5)
        assert report.theorem == "L4.4"
        assert ALIASES == {"T4.4": "L4.4"}

    def test_unknown_id(self):
        with pytest.raises(GraphError, match="known ids"):
            run_check("X9.9")

    def test_jobs_are_capped_at_the_cpu_count(self, monkeypatch):
        """The pool records its size and runs the chunks in this process.
        _run_family imports the pool class from concurrent.futures when it
        needs one, so the fake replaces it there."""
        sizes = []

        class Pool:
            def __init__(self, max_workers, mp_context):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, chunks):
                return map(fn, chunks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
        monkeypatch.setattr(verify.os, "cpu_count", lambda: 3)
        report = run_check("T2.4", n=6, jobs=100000)
        assert sizes == [3]
        assert report.to_csv() == run_check("T2.4", n=6).to_csv()


class TestSteps:
    """Every step is a generator that _run_rounds drives by send."""

    @pytest.mark.parametrize("tid", sorted(CLAIMS))
    def test_every_step_is_a_generator(self, tid):
        claim = CLAIMS[tid]
        p = {key: default for key, (default, _) in claim.params.items()}
        items = claim.family(p)[:3]
        assert items, tid
        for item in items:
            assert inspect.isgenerator(claim.instance(item, p)), (tid, item)

    def test_identity_asks_for_no_radii(self, monkeypatch):
        calls = []

        def radii(graphs, kind):
            calls.append(kind)
            return spectral_radii(graphs, kind)

        monkeypatch.setattr(verify, "spectral_radii", radii)
        report = run_check("L4.1", n=6)
        assert report.checked > 0 and report.passed
        assert calls == []


class TestVacuity:
    @pytest.mark.parametrize(
        "tid, kwargs",
        [
            ("L4.1", dict(n=3)),
            ("L2.1", dict(trials=0)),
            ("L4.2", dict(trials=0)),
            ("T2.4", dict(n=1)),
            ("T3.3", dict(n=3)),
            ("L3.2", dict(n=1)),
            ("T2.5", dict(n=3)),
            ("L2.3", dict(n=3, d=3)),
        ],
    )
    def test_zero_checked_is_flagged_once(self, tid, kwargs):
        report = run_check(tid, **kwargs)
        assert report.checked == 0 and report.passed
        assert sum(note.startswith("vacuous") for note in report.notes) == 1


class TestExhaustiveness:
    def test_clique_tree_family_counts(self):
        # 22 clique-tree classes on 6 vertices across all s
        report = run_check("T2.4", n=6)
        assert report.checked + report.excluded == 22

    def test_tree_family_counts(self):
        report = run_check("T2.5", n=7)
        assert report.checked + report.excluded == 11

    def test_block_graph_family_counts(self):
        report = run_check("T3.3", n=5)
        assert report.checked + report.excluded == 21

    def test_identity_counts(self):
        report = run_check("L4.1", n=5)
        assert report.checked + report.excluded == 1 + 1 + 2 + 6 + 21


class TestHypothesis:
    def test_spread_matches_the_pairwise_statement(self):
        """_spread returns the block decomposition exactly when two cut
        vertices share no block, checked pair by pair: every connected graph
        with n <= 7, the first being K1, which has no blocks, and every
        clique tree with n <= 11."""
        pool = [g for n in range(1, 8) for g in enumerate_connected_graphs(n)]
        pool += [g for n in range(1, 12) for g in enumerate_clique_trees(n)]
        assert pool[0] == complete_graph(1) and block_decomposition(pool[0]).blocks == ()
        held = 0
        for g in pool:
            d = block_decomposition(g)
            pairs = itertools.combinations(sorted(d.cut_vertices), 2)
            pairwise = any(not any(u in b and v in b for b in d.blocks) for u, v in pairs)
            assert verify._spread(g) == (d if pairwise else None), g
            held += pairwise
        assert len(pool) == 8254
        assert 0 < held < len(pool)

    def test_spread_on_trees_is_diameter_above_3(self):
        """A tree's cut vertices are its internal vertices and its blocks its
        edges, so the hypothesis holds on a tree iff its diameter is > 3, as
        T2.5 and T4.6 state it: every tree with n <= 12."""
        trees = [t for n in range(1, 13) for t in enumerate_trees(n)]
        assert len(trees) == 987
        for t in trees:
            assert (verify._spread(t) is None) == (diameter(t) <= 3), t

    @pytest.mark.parametrize("tid", ["T2.5", "T4.6"])
    def test_tree_chain_leaves_the_hypothesis_to_spread(self, monkeypatch, tid):
        calls = []

        def counted(g):
            calls.append(g)
            return diameter(g)

        monkeypatch.setattr(verify, "diameter", counted)
        report = run_check(tid, n=8)
        assert (report.checked, report.excluded) == (19, 4)
        assert calls == []


class TestExtremal:
    def test_lower_bound_ties_are_the_comparator(self):
        report = run_check("T2.4", n=6)
        assert report.passed
        assert report.ties >= 1
        assert not any("not isomorphic" in note for note in report.notes)

    def test_upper_bounds_pass(self):
        for tid in ("T2.2", "T4.5"):
            report = run_check(tid, n=6)
            assert report.passed, report.violations
            assert any("no equality characterization" in note for note in report.notes)

    def test_clique_path_bound_fails_at_n10(self):
        # a pinned fact, not a tolerance: T2.4 as stated has exactly these
        # two counterexamples among the clique trees on 10 vertices
        report = run_check("T2.4", n=10)
        assert (report.checked, report.excluded, report.ties) == (1288, 252, 18)
        margins = {}
        for v in report.violations:
            blocks = block_decomposition(parse_edge_list(v["graph"].replace("; ", "\n"))).blocks
            margins[tuple(sorted(len(b) for b in blocks))] = v["margin"]
        assert len(report.violations) == 2
        assert margins == pytest.approx(
            {(2, 3, 3, 3, 3): -0.00713914810771, (2, 2, 2, 3, 3, 3): -0.00379609039272},
            abs=1e-9,
        )
        assert not report.passed

    def test_single_s_restriction(self):
        full = run_check("T2.4", n=6)
        parts = [run_check("T2.4", n=6, s=s) for s in range(1, 6)]
        assert sum(p.checked for p in parts) == full.checked
        assert sum(p.excluded for p in parts) == full.excluded
        assert full.params["s"] == "all" and parts[0].params["s"] == 1

    def test_trees_include_broom_tie(self):
        for tid in ("T2.5", "T4.6"):
            report = run_check(tid, n=8)
            assert report.passed
            assert report.ties >= 1
            assert report.witness is not None

    def test_block_graph_bounds_pass(self):
        for tid in ("T3.3", "T5.2"):
            report = run_check(tid, n=6)
            assert report.passed, report.violations


class TestComparators:
    def test_equal_sizes_give_one_path_quickly(self):
        start = time.perf_counter()
        (only,) = _comparators("path", (2,) * 11)
        assert time.perf_counter() - start < 0.5
        assert only.edges == path_graph(12).edges

    def test_paths_match_every_permutation(self):
        rng = random.Random(7)
        for _ in range(40):
            sizes = tuple(sorted(rng.choice((2, 2, 3, 4, 5)) for _ in range(rng.randint(1, 7))))
            orders = sorted({min(o, o[::-1]) for o in itertools.permutations(sizes)})
            expected = [clique_path(o).edges for o in orders]
            assert [g.edges for g in _comparators("path", sizes)] == expected, sizes

    def test_reversed_paths_share_radii(self):
        """A clique path and its reversal are isomorphic, the premise of
        _comparators keeping min(o, o[::-1]) alone: every ordering it keeps
        for the block sizes of the clique trees of order up to 9 with 3
        blocks or more has its reversal's radii in both complement kinds."""
        multisets = {
            tuple(sorted(map(len, block_decomposition(g).blocks)))
            for n in range(4, 10) for s in range(3, n) for g in enumerate_clique_trees(n, s)
        }
        orders = [o for sizes in sorted(multisets)
                  for o in sorted({min(o, o[::-1]) for o in itertools.permutations(sizes)})]
        for kind in ("complement_adjacency", "complement_distance"):
            radii = spectral_radii([clique_path(o) for o in orders], kind)
            back = spectral_radii([clique_path(o[::-1]) for o in orders], kind)
            for o, a, b in zip(orders, (r.value for r in radii), (r.value for r in back)):
                assert abs(a - b) <= 1e-12 * max(abs(a), abs(b)), (kind, o)


class TestIdentity:
    def test_small_witness_is_p4(self):
        report = run_check("L4.1", n=4)
        assert report.passed
        assert report.checked == 1 and report.excluded == 9
        assert are_isomorphic(witness_graph(report), path_graph(4))

    def test_case_notes(self):
        report = run_check("L4.1", n=6)
        assert report.passed
        assert any("diameter > 3" in note for note in report.notes)
        assert any("strict" in note for note in report.notes)

    @pytest.mark.parametrize("case, d", [("dominance", 3), ("equality", 4)])
    def test_bad_entry_is_the_violation(self, monkeypatch, case, d):
        """One entry of the first graph of diameter d, at (1, 2), is set to
        0, below its target 1 + A[1, 2]. The violation names that entry and
        its two values; the graph's CSV row keeps its strict-pair count."""
        hit = []

        def corrupted(g):
            dc = complement_distance_matrix(g)
            if not hit and diameter(g) == d:
                dc = dc.copy()
                dc[1, 2] = 0
                hit.append((g, dc))
            return dc

        monkeypatch.setattr(verify, "complement_distance_matrix", corrupted)
        report = run_check("L4.1", n=5)
        ((g, dc),) = hit
        target = 1 - np.eye(g.n, dtype=np.int64) + adjacency_matrix(g)
        rhs = float(target[1, 2])
        assert report.violations == [
            {
                "graph": gstr(g),
                "lhs": 0.0,
                "rhs": rhs,
                "margin": -rhs,
                "reason": f"{case} fails at entry (1,2)",
            }
        ]
        strict = int((dc > target).sum()) // 2 if d == 3 else 0
        row = f"L4.1,{gstr(g)},{case},{strict},0,0,violation"
        assert [line for line in report.to_csv().split("\n") if f",{gstr(g)}," in line] == [row]
        assert not report.passed


class TestMonotonicity:
    def test_clique_tree_direction_passes(self):
        for tid in ("L2.3", "L4.3"):
            for d in (3, 4):
                report = run_check(tid, n=6, d=d)
                assert report.passed, (tid, d, report.violations)
                assert report.checked > 0

    def test_block_graph_direction_detects_counterexample(self):
        report = run_check("L3.1", n=5, d=3)
        assert not report.passed
        assert report.violations[0]["margin"] < -EPS
        assert report.violations[0]["reason"] == "inequality"

    def test_vacuous_class_is_flagged(self):
        report = run_check("L2.3", n=5, d=4)
        assert report.checked > 0  # the d=4 class itself is nonempty
        assert any(note.startswith("vacuous") for note in report.notes)
        assert report.passed

    def test_small_d_rejected(self):
        with pytest.raises(GraphError):
            run_check("L2.3", n=6, d=2)


class TestCompletion:
    def test_all_small_instances_are_fixed_points(self):
        # below n=7 every hypothesis-passing graph is already a clique tree
        for tid in ("L3.2", "L5.1"):
            report = run_check(tid, n=6)
            assert report.passed
            assert report.checked == report.ties

    def test_strict_instances_appear_at_n7(self):
        for tid in ("L3.2", "L5.1"):
            report = run_check(tid, n=7)
            assert report.passed, report.violations
            assert report.checked == 40
            assert report.checked > report.ties

    def test_one_decomposition_per_instance(self, decompositions):
        report = run_check("L3.2")
        assert report.checked + report.excluded > 0
        assert len(decompositions) == report.checked + report.excluded


class TestMoves:
    def test_adjacency_move_never_decreases(self):
        report = run_check("L2.1", trials=150, seed=0, n=9)
        assert report.passed, report.violations
        assert report.checked > 100
        assert report.ties >= 1

    def test_distance_move_never_decreases(self):
        report = run_check("L4.2", trials=150, seed=0, n=9)
        assert report.passed, report.violations
        assert report.checked > 100

    def test_seed_changes_sample(self):
        a = run_check("L2.1", trials=30, seed=1, n=8)
        b = run_check("L2.1", trials=30, seed=2, n=8)
        assert a.rows != b.rows

    def test_small_cap_rejected(self):
        with pytest.raises(GraphError):
            run_check("L2.1", trials=5, seed=0, n=4)

    @pytest.mark.parametrize("tid", ["L2.1", "L4.2"])
    def test_one_decomposition_per_sampled_tree(self, decompositions, tid):
        report = run_check(tid, trials=40, seed=0, n=8)
        assert report.checked > 20
        assert len(decompositions) == 40


class TestTieBranches:
    """With every radius stubbed to 1, every comparison ties, so each tie
    branch runs: a tie must be isomorphic to its comparator unless the bound
    states no equality case."""

    @pytest.fixture(autouse=True)
    def all_radii_tie(self, monkeypatch):
        def radii(graphs, kind, tol=None):
            return [EigenPair(1.0, np.ones(g.n) / np.sqrt(g.n), 0.0, 0, "stub") for g in graphs]

        monkeypatch.setattr(verify, "spectral_radii", radii)

    def test_lower_bound_ties_off_the_comparator_are_violations(self):
        report = run_check("T2.4", n=6)
        assert (report.checked, report.ties) == (5, 3)
        reasons = [v["reason"] for v in report.violations]
        assert reasons == ["equality-characterization"] * 2

    def test_upper_bound_ties_are_counted_in_a_note(self):
        report = run_check("T2.2", n=6)
        assert report.ties == 5 and report.passed
        loose = "ties not isomorphic to the comparator: 5 "
        assert any(note.startswith(loose) for note in report.notes)

    def test_tree_chain_ties(self):
        report = run_check("T2.5", n=7)
        assert (report.checked, report.ties, len(report.violations)) == (8, 1, 15)

    def test_class_maxima_tie(self):
        """Every class member ties, so the d = 3 maximum is its first member."""
        report = run_check("L2.3", n=6, d=3)
        first = next(g for g in enumerate_clique_trees(6) if diameter(g) == 3)
        assert (report.ties, report.passed, report.witness) == (1, True, gstr(first))
        assert [r["status"] for r in report.rows] == ["tie"]
        assert "class maxima tie within tolerance (no equality case stated)" in report.notes

    @pytest.mark.parametrize("tid", ["L2.1", "L4.2"])
    def test_move_ties(self, tid):
        report = run_check(tid, trials=20, seed=0, n=8)
        assert (report.checked, report.ties, len(report.violations)) == (55, 16, 39)
        assert {v["reason"] for v in report.violations} == {"equality-characterization"}


class TestBoundaries:
    """Stubbed radii and Perron vectors just either side of the tolerances."""

    @pytest.mark.parametrize("above, status", [(1.5, "violation"), (0.5, "tie")])
    def test_violation_threshold_is_eps(self, monkeypatch, above, status):
        """Each T2.2 instance's radius exceeds its clique-star comparators'
        by `above` * EPS: past EPS a violation of the inequality, within it a tie."""
        stars = set()
        for g in enumerate_clique_trees(7):
            decomp = verify._spread(g)
            if decomp is not None:
                sizes = tuple(sorted(len(b) for b in decomp.blocks))
                stars |= {(h.n, h.rows) for h in _comparators("star", sizes)}

        def radii(graphs, kind, tol=None):
            values = [1.0 - above * EPS * ((g.n, g.rows) in stars) for g in graphs]
            return [EigenPair(x, np.ones(g.n), 0.0, 0, "stub") for x, g in zip(values, graphs)]

        monkeypatch.setattr(verify, "spectral_radii", radii)
        report = run_check("T2.2", n=7)
        assert report.checked == 25
        assert {r["status"] for r in report.rows} == {status}
        if status == "tie":
            assert report.passed and report.ties == 25
        else:
            assert len(report.violations) == 25 and report.ties == 0
            assert {v["reason"] for v in report.violations} == {"inequality"}
            margins = [v["margin"] for v in report.violations]
            assert margins == pytest.approx([-1.5 * EPS] * 25, rel=1e-6)

    def test_perron_entry_slack(self, monkeypatch):
        """With x_i = 1 + 1e-9 * i, x(v) >= x(w) within 1e-12 exactly when
        v >= w, so L2.1 admits each move with v > w, L4.2 each with v < w,
        and both admit each identity move w = v."""

        def radii(graphs, kind, tol=None):
            return [EigenPair(1.0, 1 + 1e-9 * np.arange(g.n), 0.0, 0, "stub") for g in graphs]

        monkeypatch.setattr(verify, "spectral_radii", radii)
        candidates = identities = 0
        for spec in verify._move_specs({"trials": 40, "seed": 0, "n_max": 8}):
            g = random_clique_tree(*spec)
            decomp = verify._spread(g)
            if decomp is None:
                continue
            for K, v in end_cliques(g, decomp):
                identities += 1
                candidates += sum(w == v or w not in K for w in decomp.cut_vertices)
        a = run_check("L2.1", trials=40, seed=0, n=8)
        b = run_check("L4.2", trials=40, seed=0, n=8)
        assert (candidates, identities) == (125, 35)
        assert a.checked + b.checked == candidates + identities


class TestReports:
    def test_json_key_order(self):
        report = run_check("T2.4", n=5)
        keys = list(json.loads(report.to_json()).keys())
        assert keys == [
            "theorem",
            "params",
            "checked",
            "excluded",
            "violations",
            "ties",
            "witness",
            "tolerance",
            "elapsed",
            "notes",
        ]

    def test_violation_entries_carry_all_fields(self):
        report = run_check("L3.1", n=5, d=3)
        v = json.loads(report.to_json())["violations"][0]
        assert set(v) == {"graph", "lhs", "rhs", "margin", "reason"}

    def test_csv_shape(self):
        report = run_check("T2.4", n=5)
        lines = report.to_csv().strip().split("\n")
        assert lines[0] == "theorem,graph,side,lhs,rhs,margin,status"
        assert len(lines) == 1 + len(report.rows)
        assert all(line.startswith("T2.4,") for line in lines[1:])
        statuses = {line.rsplit(",", 1)[1] for line in lines[1:]}
        assert statuses <= {"ok", "tie", "violation"}

    def test_deterministic_across_runs_and_jobs(self):
        a = run_check("T2.4", n=6, jobs=1)
        b = run_check("T2.4", n=6, jobs=1)
        c = run_check("T2.4", n=6, jobs=2)
        assert canon(a) == canon(b) == canon(c)
        m1 = run_check("L2.1", trials=60, seed=7, n=8, jobs=1)
        m2 = run_check("L2.1", trials=60, seed=7, n=8, jobs=2)
        assert canon(m1) == canon(m2)

    def test_violations_cross_the_process_pool(self):
        # records travel from the workers as pickled graphs; T2.4 at n = 10
        # has two violations, so both their text and the CSV rows are compared
        one = run_check("T2.4", n=10, jobs=1)
        two = run_check("T2.4", n=10, jobs=2)
        assert len(one.violations) == 2
        assert canon(one) == canon(two)
        assert one.to_csv() == two.to_csv()

    @pytest.fixture
    def formats(self, monkeypatch):
        """The graphs verify formats as edge-list text, one entry per call."""
        seen = []

        def counted(g):
            seen.append(g)
            return format_edge_list(g)

        monkeypatch.setattr(verify, "format_edge_list", counted)
        return seen

    def test_json_formats_only_what_it_prints(self, formats):
        report = run_check("T2.4", n=10)
        report.to_json()
        assert len(report.violations) == 2
        assert len(formats) <= len(report.violations) + 1
        formats.clear()
        run_check("L4.1").to_json()
        assert len(formats) == 1

    @pytest.mark.parametrize("tid", ["T2.5", "L2.1"])
    def test_csv_formats_each_row_graph_once(self, formats, tid):
        report = run_check(tid)
        formats.clear()
        report.to_csv()
        distinct = {r["graph"] for r in report.rows}
        assert len(formats) == len(distinct) < len(report.rows)

    def test_tolerance_field(self):
        report = run_check("T2.4", n=5)
        assert report.tolerance == EPS


class TestParams:
    def test_params_are_the_names_the_claims_take(self):
        taken = {"n" if key == "n_max" else key for c in CLAIMS.values() for key in c.params}
        assert len(PARAMS) == len(set(PARAMS))
        assert set(PARAMS) == taken

    def test_unknown_keyword_is_a_graph_error(self):
        with pytest.raises(GraphError, match=r"^T2.4 takes no parameter foo; it takes n, s$"):
            run_check("T2.4", foo=1)


class TestRelabelling:
    """A claim's verdict does not depend on how its instances are labelled:
    every enumerated graph replaced by a copy relabelled by a seeded random
    permutation gives the same counts, statuses and margins. The radius
    table is keyed by labelled graph, so a relabelled family shares fewer
    keys and the comparators meet their instances under other labels."""

    @pytest.mark.parametrize(
        "tid, kwargs",
        [
            ("T2.4", dict(n=9)),
            ("T4.5", dict(n=9)),
            ("T4.6", dict(n=10)),
            ("T5.2", dict(n=6)),
            ("L2.3", dict(n=8, d=3)),
        ],
    )
    def test_relabelled_family_keeps_the_verdict(self, monkeypatch, tid, kwargs):
        plain = run_check(tid, **kwargs)
        rng = random.Random(f"{tid} relabelled")
        moved = []

        def relabelling(enumerate_family):
            def enumerate_relabelled(*args):
                for g in enumerate_family(*args):
                    h = relabelled(g, rng)
                    moved.append(h != g)
                    yield h

            return enumerate_relabelled

        for name in ("enumerate_clique_trees", "enumerate_trees", "enumerate_connected_graphs"):
            monkeypatch.setattr(verify, name, relabelling(getattr(verify, name)))
        other = run_check(tid, **kwargs)
        assert any(moved)
        keys = ("checked", "excluded", "ties", "passed")
        assert [getattr(other, k) for k in keys] == [getattr(plain, k) for k in keys]
        assert [r["status"] for r in other.rows] == [r["status"] for r in plain.rows]
        margins = [sorted(r["margin"] for r in report.rows) for report in (other, plain)]
        assert max(abs(a - b) for a, b in zip(*margins)) <= 1e-12

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("tid", ["L2.1", "L4.2"])
    def test_relabelled_move_trees_keep_the_verdict(self, monkeypatch, tid, seed):
        """Each sampled clique tree replaced by a copy relabelled by a
        permutation seeded from the tree's own seed."""
        plain = run_check(tid, trials=300, seed=seed)
        moved = []

        def relabelled_tree(n, s, tree_seed):
            g = random_clique_tree(n, s, tree_seed)
            h = relabelled(g, random.Random(tree_seed))
            moved.append(h != g)
            return h

        monkeypatch.setattr(verify, "random_clique_tree", relabelled_tree)
        other = run_check(tid, trials=300, seed=seed)
        assert any(moved)
        keys = ("checked", "excluded", "ties", "passed")
        assert [getattr(other, k) for k in keys] == [getattr(plain, k) for k in keys]
        statuses = [collections.Counter(r["status"] for r in report.rows) for report in (other, plain)]
        assert statuses[0] == statuses[1]
        margins = [sorted(r["margin"] for r in report.rows) for report in (other, plain)]
        assert max(abs(a - b) for a, b in zip(*margins)) <= 1e-12
