"""Empirical verification of the extremal eigenvalue claims.

Every claim is one record in CLAIMS: a graph family, a per-instance
comparison of complement spectral radii (or of matrices, for L4.1), and a
reduction of those comparisons into a TheoremReport. run_check drives every
record through the same pipeline. One step, _versus, compares a radius with
the least or greatest radius of comparator graphs for all twelve claims of
that shape, each admissible clique move included. Checks never assert: they
record violations, near-ties with an isomorphism classification, hypothesis
exclusions, and extremal witnesses, so a run is interpretable on its own and
a genuine counterexample surfaces loudly.

Claim identifiers are stable strings (L2.1, T2.2, ..., T5.2) shared by the
CLI, reports, and tests.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import time
from dataclasses import dataclass, field, fields
from functools import cache, partial
from typing import Callable, NamedTuple

import numpy as np

from .families import (
    CAPS,
    broom,
    clique_path,
    clique_star,
    enumerate_clique_trees,
    enumerate_connected_graphs,
    enumerate_trees,
    random_clique_tree,
)
from .graphs import GraphError, are_isomorphic, block_decomposition, diameter, format_edge_list
from .spectral import adjacency_matrix, complement_distance_matrix, spectral_radii
from .transforms import complete_blocks, end_cliques, move_clique

__all__ = ["EPS", "TheoremReport", "ALIASES", "run_check"]

# Comparison margin for all theorem inequalities, two orders above the
# eigensolver residual tolerance so solver noise can never masquerade as a
# strict inequality or hide one.
EPS = 1e-8

# Slack allowed when testing the Perron-entry precondition x(v) >= x(w): at
# the solver tolerance scale, so exact-symmetry ties are deliberately included.
ENTRY_SLACK = 1e-12

ORDERING_NOTE = (
    "comparator policy: lower bounds use the min over distinct clique-size "
    "orderings of the clique path, upper bounds the max over (bridge, last) "
    "clique-star arrangements, since the statements leave the arrangement open"
)
VACUOUS_NOTE = "vacuous: no instance satisfies the hypothesis at this order"

# The harness's own numbering follows the claim list; 4.4 is stated as a lemma
# but one acceptance summary calls it a theorem, so T4.4 is accepted as input.
ALIASES = {"T4.4": "L4.4"}


@dataclass
class TheoremReport:
    """Structured result of one verification run. rows, one per comparison
    (per graph for L4.1), are what a claim's reduction writes: rows[i]["graph"]
    holds the Graph itself, formatted when the CSV is written, and a violation
    row also holds its "violation" detail. run_check reads violations and ties
    off the rows; witness and each violation's "graph" hold edge-list text."""

    theorem: str
    params: dict
    checked: int = 0
    excluded: int = 0
    violations: list = field(default_factory=list)
    ties: int = 0
    witness: str | None = None
    tolerance: float = EPS
    elapsed: float = 0.0
    notes: list = field(default_factory=list)
    rows: list = field(default_factory=list)

    @property
    def passed(self):
        return not self.violations

    def to_json(self):
        # every field but rows, in field order
        obj = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "rows"}
        obj["violations"] = [
            {key: x if key in ("graph", "reason") else _num(x) for key, x in v.items()}
            for v in self.violations
        ]
        obj["elapsed"] = round(self.elapsed, 3)
        return json.dumps(obj, indent=2) + "\n"

    def to_csv(self):
        lines = ["theorem,graph,side,lhs,rhs,margin,status"]
        # one formatting per distinct graph: a tree can have many rows
        text = {g: _gstr(g) for g in {r["graph"] for r in self.rows}}
        for r in self.rows:
            nums = ",".join(format(float(r[key]), ".12g") for key in ("lhs", "rhs", "margin"))
            lines.append(f"{self.theorem},{text[r['graph']]},{r['side']},{nums},{r['status']}")
        return "\n".join(lines) + "\n"


def _num(x):
    """Cap serialized floats at 12 significant digits for stable output."""
    return float(format(float(x), ".12g"))


def _gstr(g):
    """Single-line edge-list form used inside reports; '; ' replaces newlines."""
    return format_edge_list(g).strip().replace("\n", "; ")


def _spread(g):
    """g's block decomposition if two of its cut vertices share no block (the
    standing hypothesis), else None. The blocks holding a cut vertex form a
    subtree of the block-cut tree, and subtrees of a tree that meet pairwise
    share a node (Helly; Golumbic 1980, ch. 4), so the hypothesis holds iff
    there are cut vertices and no block holds them all."""
    decomp = block_decomposition(g)
    cuts = decomp.cut_vertices
    return decomp if cuts and not any(cuts <= b for b in decomp.blocks) else None


def _orderings(sizes):
    """The distinct orderings of a tuple of sizes, each once."""
    if not sizes:
        return [()]
    firsts = {a: i for i, a in enumerate(sizes)}  # one position per value
    return [(a, *o) for a, i in firsts.items() for o in _orderings(sizes[:i] + sizes[i + 1 :])]


@cache
def _comparators(shape, sizes):
    """All clique paths ("path") or clique stars ("star") with these sorted block sizes."""
    if shape == "path":
        # distinct orderings of the sizes, up to reversal
        orders = sorted({min(o, o[::-1]) for o in _orderings(sizes)})
        return tuple(clique_path(o) for o in orders)
    # distinct (end sizes, bridge, last) splits of the sizes
    splits = set()
    for bridge, last in itertools.permutations(sizes, 2):
        ends = list(sizes)
        ends.remove(bridge)
        ends.remove(last)
        splits.add((tuple(ends), bridge, last))
    return tuple(clique_star(e, b, l) for e, b, l in sorted(splits))


# Per-instance steps take (instance, params) and are generators: each yields
# tuples of graphs, is sent back one EigenPair of its claim's spectral kind
# per graph, and returns None for an instance outside the hypothesis, else
# the record its claim's reduction reads (see _run_rounds). All radius
# comparisons are _versus steps; a comparison claim's hypothesis sides(g)
# gives None for an excluded g, else the (side, comparator graphs) pairs.
# _compare calls sides(g) before making the step, so none of its locals wait
# with the step.


def _versus(g, sides):
    """Compare g's radius with each (side, comparator graphs) pair: a "lower"
    side claims it is at least the least comparator radius, any other side at
    most the greatest; slack >= 0 means the claim holds. On a tie within EPS,
    tie_ok says whether g is a comparator up to isomorphism, else it is None.
    With sides None (g excluded) it returns None at its first send."""
    if sides is None:
        return None
    pairs = yield (g, *(h for _, others in sides for h in others))
    radii = iter([pair.value for pair in pairs])
    lam = next(radii)
    comparisons = []
    for side, others in sides:
        rhs = (min if side == "lower" else max)(itertools.islice(radii, len(others)))
        slack = lam - rhs if side == "lower" else rhs - lam
        # labelled equality first, so an identity move needs no canonical form
        tied = abs(lam - rhs) <= EPS
        tie_ok = any(h == g or are_isomorphic(g, h) for h in others) if tied else None
        comparisons.append((side, lam, rhs, slack, tie_ok))
    return {"graph": g, "comparisons": comparisons}


def _compare(g, p, sides):
    return _versus(g, sides(g))


def _block_bound(side, g):
    """The clique paths below g, or the clique stars above it, with its block sizes."""
    decomp = _spread(g)
    if decomp is None:
        return None
    sizes = tuple(sorted(len(b) for b in decomp.blocks))
    return ((side, _comparators("path" if side == "lower" else "star", sizes)),)


def _tree_chain(g):
    """A tree under the standing hypothesis, on trees diameter > 3, lies above
    the path (the clique path of its edges) and below the broom, built by broom:
    the clique star of its edges has other labels and other last bits."""
    lower = _block_bound("lower", g)
    return None if lower is None else (*lower, ("upper", (broom(g.n),)))


def _completion(side, g):
    decomp = _spread(g)
    return None if decomp is None else ((side, (complete_blocks(g, decomp),)),)


def _clique_move(spec, p, toward_smaller_entry):
    """Every admissible move of one sampled clique tree, compared with it.

    A move takes an end clique K from its cut vertex v to a cut vertex w
    outside K, or to v itself (the identity move). L2.1 admits it when
    x(v) >= x(w) for the Perron vector x, L4.2 when x(w) >= x(v); either way
    the radius must not drop.
    """
    g = random_clique_tree(*spec)
    decomp = _spread(g)
    # before the Perron round: an excluded tree's complement may be
    # disconnected, and its complement distance matrix is then undefined
    if decomp is None:
        return None
    x = (yield (g,))[0].vector
    moves = []
    for K, v in end_cliques(g, decomp):
        for w in sorted(decomp.cut_vertices):
            big, small = (v, w) if toward_smaller_entry else (w, v)
            if (w == v or w not in K) and x[big] >= x[small] - ENTRY_SLACK:
                moves.append(("move", (move_clique(g, K, v, w, decomp),)))
    return (yield from _versus(g, moves))


def _identity(g, p):
    """D(G^c) against J - I + A(G): equal for diameter > 3, >= for diameter 3.

    The record is g's report row: its strict-pair count against 0, and if an
    entry fails, the first such entry as the violation.
    """
    yield from ()  # a step like every other, but it asks for no radii
    d = diameter(g)
    if d < 3:
        return None
    dc = complement_distance_matrix(g)
    target = 1 - np.eye(g.n, dtype=np.int64) + adjacency_matrix(g)
    case = "equality" if d > 3 else "dominance"
    strict = int((dc > target).sum()) // 2 if d == 3 else 0
    row = {"graph": g, "side": case, "lhs": float(strict), "rhs": 0.0, "margin": 0.0}
    bad = np.argwhere(dc != target if d > 3 else dc < target)
    row["status"] = "violation" if len(bad) else "ok"
    if len(bad):
        i, j = bad[0]
        lhs, rhs = float(dc[i, j]), float(target[i, j])
        reason = f"{case} fails at entry ({i},{j})"
        row["violation"] = {"lhs": lhs, "rhs": rhs, "margin": lhs - rhs, "reason": reason}
    return row


def _class_member(g, p):
    """(diameter, radius, g) for a graph in diameter class d or d + 1."""
    dg = diameter(g)
    if dg not in (p["d"], p["d"] + 1):
        return None
    (pair,) = yield (g,)
    return (dg, pair.value, g)


# Reductions fold the kept (non-None) records into report rows, witness and
# notes; run_check has already set the checked and excluded counts, and reads
# the violations and ties off the rows.


def _reduce(report, results, p, eq_required=True):
    """One row per comparison: ok, tie or violation. A tie is a violation
    when eq_required is on and g is no comparator; with it off, a tie is
    loose when g is no comparator (tie_ok None asks no such question). The
    witness is the graph of the first row of least slack."""
    loose_ties = 0
    for res in results:
        for side, lhs, rhs, slack, tie_ok in res["comparisons"]:
            row = {"graph": res["graph"], "side": side, "lhs": lhs, "rhs": rhs, "margin": slack}
            if abs(lhs - rhs) <= EPS:
                row["status"] = "violation" if eq_required and not tie_ok else "tie"
                reason = "equality-characterization"
                loose_ties += row["status"] == "tie" and tie_ok is False
            else:
                row["status"] = "violation" if slack < -EPS else "ok"
                reason = "inequality"
            if row["status"] == "violation":
                row["violation"] = {"lhs": lhs, "rhs": rhs, "margin": slack, "reason": reason}
            report.rows.append(row)
    if report.rows:
        report.witness = _gstr(min(report.rows, key=lambda r: r["margin"])["graph"])
    if loose_ties:
        report.notes.append(
            f"ties not isomorphic to the comparator: {loose_ties} "
            "(no equality case is stated for this bound)"
        )


def _reduce_moves(report, results, p):
    _reduce(report, results, p)
    # checked counted sampled trees so far; restate it as admissible moves
    trees_checked = report.checked
    report.checked = len(report.rows)
    report.notes.append(
        f"trees sampled: {p['trials']}; passing the two-spread-cut-vertices hypothesis: "
        f"{trees_checked}; admissible moves checked: {report.checked}"
    )


def _reduce_identity(report, results, p):
    report.rows.extend(results)
    equality = sum(row["side"] == "equality" for row in results)
    strict = [row["graph"] for row in results if row["lhs"] > 0]
    report.witness = _gstr(strict[0]) if strict else None
    report.notes.append(f"diameter > 3 instances (exact equality required): {equality}")
    report.notes.append(
        f"diameter = 3 instances (entrywise >= required): {len(results) - equality}"
    )
    report.notes.append(
        f"diameter = 3 instances with at least one strict entry: {len(strict)}; "
        f"with exact equality anyway: {len(results) - equality - len(strict)}"
    )


def _reduce_class_max(report, results, p, rising):
    """Compare the class maxima over diameters d and d + 1.

    Not rising (L2.3/L4.3): the d-class maximum must dominate; rising (L3.1):
    the (d+1)-class maximum must. An empty class makes the run vacuous.
    """
    d = p["d"]
    classes = {d: [], d + 1: []}
    for res in results:
        classes[res[0]].append(res)
    empty = [f"d={k}" for k, members in classes.items() if not members]
    if empty:
        report.notes.append(f"vacuous: empty diameter class ({', '.join(empty)})")
        return
    tops = {k: max(members, key=lambda r: r[1]) for k, members in classes.items()}
    lhs, rhs = (tops[d + 1], tops[d]) if rising else (tops[d], tops[d + 1])
    comparison = ("classmax", lhs[1], rhs[1], lhs[1] - rhs[1], None)
    _reduce(report, [{"graph": lhs[2], "comparisons": [comparison]}], p, eq_required=False)
    if report.rows[0]["status"] == "tie":
        report.notes.append("class maxima tie within tolerance (no equality case stated)")
    for k, (_, lam, g) in tops.items():
        report.notes.append(
            f"class d={k}: {len(classes[k])} graphs, max {format(lam, '.12g')} at {_gstr(g)}"
        )


class Claim(NamedTuple):
    """What one claim states and how run_check checks it.

    kind is the spectral kind of every radius the claim compares (None for
    L4.1, which compares matrices). params maps each report parameter, in
    report order, to (default, minimum or None); family maps params to the
    instances. Functions of other layers are called by name, never stored
    here, so wrappers on them see each call.
    """

    text: str
    kind: str | None
    params: dict
    family: Callable
    instance: Callable
    reduce: Callable
    notes: tuple = ()


def _trees(p):
    return list(enumerate_trees(p["n"]))


def _clique_trees(p):
    s = p.get("s", "all")
    return list(enumerate_clique_trees(p["n"], None if s == "all" else s))


def _connected(p):
    return list(enumerate_connected_graphs(p["n"]))


def _connected_up_to(first, p):
    # enumerated from n_max down, so an order above the cap is named as given
    levels = [list(enumerate_connected_graphs(n)) for n in range(p["n_max"], first - 1, -1)]
    return [g for level in reversed(levels) for g in level]


def _move_specs(p):
    if p["n_max"] > CAPS["clique-tree"]:
        raise GraphError(
            f"clique-move sampling capped at n = {CAPS['clique-tree']}, got n={p['n_max']}"
        )
    rng = random.Random(p["seed"])
    specs = []
    for _ in range(p["trials"]):
        n = rng.randint(5, p["n_max"])
        s = rng.randint(2, n - 1)
        specs.append((n, s, rng.randrange(2**32)))
    return specs


ADJ = "complement_adjacency"
DIST = "complement_distance"
CLIQUE_TREES = {"n": (6, 1), "s": ("all", None)}
BLOCK_GRAPHS = {"n": (6, 1)}
HYPOTHESIS = "hypothesis: two cut vertices sharing no block; others excluded"
BOUND_NOTES = (HYPOTHESIS, ORDERING_NOTE)
COMPLETION_NOTES = (HYPOTHESIS, "ties must be graphs already equal to their block completion")
TREE_HYPOTHESIS = "hypothesis: trees with diameter > 3; others excluded"
NO_EQUALITY = "no equality characterization is stated for this bound"
PATH_BOUND = partial(_block_bound, "lower")
STAR_BOUND = partial(_block_bound, "upper")


def _compare_claim(text, params, family, kind, sides, *notes, eq_required=True):
    reduce = partial(_reduce, eq_required=eq_required)
    return Claim(text, kind, params, family, partial(_compare, sides=sides), reduce, notes)


def _class_max_claim(text, family, kind, rising=False):
    reduce = partial(_reduce_class_max, rising=rising)
    return Claim(text, kind, {"n": (6, 1), "d": (3, 3)}, family, _class_member, reduce)


def _move_claim(text, kind, toward_smaller_entry):
    params = {"trials": (1000, 0), "seed": (0, None), "n_max": (10, 5)}
    instance = partial(_clique_move, toward_smaller_entry=toward_smaller_entry)
    notes = (
        "an admissible move satisfies the Perron-entry precondition within 1e-12; "
        "identity moves (w = v) are recorded as exact ties",
    )
    return Claim(text, kind, params, _move_specs, instance, _reduce_moves, notes)


CLAIMS = {
    "L2.1": _move_claim(
        "clique move keeps adjacency spectral radius of the complement non-decreasing", ADJ, True
    ),
    "T2.2": _compare_claim(
        "clique-star upper bound, adjacency spectral radius of complements of clique trees",
        CLIQUE_TREES, _clique_trees, ADJ, STAR_BOUND, *BOUND_NOTES, NO_EQUALITY, eq_required=False,
    ),
    "L2.3": _class_max_claim(
        "class max over clique trees non-increasing in diameter (adjacency of complement)",
        _clique_trees, ADJ,
    ),
    "T2.4": _compare_claim(
        "clique-path lower bound, adjacency spectral radius of complements of clique trees",
        CLIQUE_TREES, _clique_trees, ADJ, PATH_BOUND, *BOUND_NOTES,
    ),
    "T2.5": _compare_claim(
        "path/broom chain over trees, adjacency spectral radius of complements",
        {"n": (8, 1)}, _trees, ADJ, _tree_chain, TREE_HYPOTHESIS,
    ),
    # Unlike T3.3, T5.2, L3.2 and L5.1, L3.1 keeps every connected graph: no
    # two-spread-cut-vertex filter. The README's "Criterion 7 fails" section
    # shows its verdict is the same on the filtered pool.
    "L3.1": _class_max_claim(
        "class max over block graphs non-decreasing in diameter (adjacency of complement); "
        "pool: all connected graphs, no two-spread-cut-vertex filter "
        "(README, 'Criterion 7 fails')",
        _connected, ADJ, rising=True,
    ),
    "L3.2": _compare_claim(
        "block completion does not raise the adjacency spectral radius of the complement",
        {"n_max": (5, 1)}, partial(_connected_up_to, 2), ADJ, partial(_completion, "lower"),
        *COMPLETION_NOTES,
    ),
    "T3.3": _compare_claim(
        "clique-path lower bound, adjacency spectral radius of complements of block graphs",
        BLOCK_GRAPHS, _connected, ADJ, PATH_BOUND, *BOUND_NOTES,
        "equality case tested as B isomorphic to the clique path itself; the "
        "claim's equality clause names the complement on one side, which is "
        "inconsistent with the parallel claims and flagged here rather than guessed",
    ),
    "L4.1": Claim(
        "complement distance matrix identity D(G^c) = J - I + A(G) for diameter > 3", None,
        {"n_max": (6, 1)}, partial(_connected_up_to, 1), _identity, _reduce_identity,
        ("witness: first diameter-3 graph with a strict entry",),
    ),
    "L4.2": _move_claim(
        "clique move keeps distance spectral radius of the complement non-decreasing", DIST, False
    ),
    "L4.3": _class_max_claim(
        "class max over clique trees non-increasing in diameter (distance of complement)",
        _clique_trees, DIST,
    ),
    "L4.4": _compare_claim(
        "clique-path lower bound, distance spectral radius of complements of clique trees",
        CLIQUE_TREES, _clique_trees, DIST, PATH_BOUND, *BOUND_NOTES,
    ),
    "T4.5": _compare_claim(
        "clique-star upper bound, distance spectral radius of complements of clique trees",
        CLIQUE_TREES, _clique_trees, DIST, STAR_BOUND, *BOUND_NOTES, NO_EQUALITY, eq_required=False,
    ),
    "T4.6": _compare_claim(
        "path/broom chain over trees, distance spectral radius of complements",
        {"n": (8, 1)}, _trees, DIST, _tree_chain, TREE_HYPOTHESIS,
    ),
    "L5.1": _compare_claim(
        "block completion does not lower the distance spectral radius of the complement",
        {"n_max": (5, 1)}, partial(_connected_up_to, 2), DIST, partial(_completion, "upper"),
        *COMPLETION_NOTES,
    ),
    "T5.2": _compare_claim(
        "clique-star upper bound, distance spectral radius of complements of block graphs",
        BLOCK_GRAPHS, _connected, DIST, STAR_BOUND, *BOUND_NOTES,
    ),
}


def _name(key):
    """The name a claim's parameter is given by: n sets n_max."""
    return "n" if key == "n_max" else key


# Every parameter name some claim takes, in registry order.
PARAMS = tuple(dict.fromkeys(_name(key) for claim in CLAIMS.values() for key in claim.params))


def _run_rounds(tid, p, items):
    """Run the claim's step on each item, all steps in lockstep rounds.

    The first round makes and starts each step in turn. After each round,
    the distinct graphs the open steps ask for and not yet in this run's
    table, keyed by the Graph itself, are solved in one spectral_radii call
    of the claim's kind; the next round sends each step its pairs, built as
    it is sent. Returns the steps' records in item order. Batching never
    changes a pair's bits, so neither does the grouping of items into runs.
    """
    # pool workers get the claim id, never a record's callables, which need not pickle
    claim = CLAIMS[tid]
    records = [None] * len(items)
    table = {}
    # (item index, step, its request); the first round's steps are made lazily
    waiting = ((i, claim.instance(item, p), None) for i, item in enumerate(items))
    while waiting:
        current, waiting = waiting, []
        for i, step, graphs in current:
            reply = None if graphs is None else [table[g] for g in graphs]
            try:
                waiting.append((i, step, step.send(reply)))
            except StopIteration as stop:
                records[i] = stop.value
        fresh = dict.fromkeys(g for _, _, graphs in waiting for g in graphs if g not in table)
        if fresh:
            table.update(zip(fresh, spectral_radii(fresh, claim.kind)))
    return records


def _run_family(tid, p, items, jobs):
    """_run_rounds over `jobs` contiguous chunks of the items, in item order,
    with no more chunks, and worker processes, than there are CPUs."""
    items = list(items)
    jobs = min(jobs, os.cpu_count() or 1)
    if jobs == 1 or len(items) < 2:
        return _run_rounds(tid, p, items)
    # imported here: the pool modules add about 25 ms to every import of the
    # package, and only a run with jobs > 1 uses them
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    size = -(-len(items) // jobs)
    chunks = [items[i : i + size] for i in range(0, len(items), size)]
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=len(chunks), mp_context=spawn) as pool:
        parts = pool.map(partial(_run_rounds, tid, p), chunks)
        return [record for part in parts for record in part]


def run_check(theorem, jobs=1, **given):
    """Check one claim: validate and default its parameters, given by name
    (None for the default), enumerate its family, run each instance's step
    (the family split over `jobs` processes), reduce to a report.

    n sets n_max where a claim takes one. Bad input, including a parameter
    the claim does not take, raises GraphError. A run that checks no instance
    says so in its notes.
    """
    tid = ALIASES.get(theorem, theorem)
    if tid not in CLAIMS:
        known = ", ".join(sorted(CLAIMS))
        raise GraphError(f"unknown theorem id {theorem!r}; known ids: {known}")
    if jobs < 1:
        raise GraphError(f"jobs must be >= 1, got jobs={jobs}")
    claim = CLAIMS[tid]
    taken = {key: _name(key) for key in claim.params}
    for name, value in given.items():
        if value is not None and name not in taken.values():
            raise GraphError(
                f"{tid} takes no parameter {name}; it takes {', '.join(taken.values())}"
            )
    p = {}
    for key, (default, minimum) in claim.params.items():
        name = taken[key]
        value = default if given.get(name) is None else given[name]
        if minimum is not None and value < minimum:
            raise GraphError(f"{tid} needs {name} >= {minimum}, got {name}={value}")
        p[key] = value
    t0 = time.perf_counter()
    results = _run_family(tid, p, claim.family(p), jobs)
    kept = [res for res in results if res is not None]
    report = TheoremReport(
        theorem=tid, params=p, checked=len(kept), excluded=len(results) - len(kept)
    )
    claim.reduce(report, kept, p)
    bad = [row for row in report.rows if row["status"] == "violation"]
    text = {g: _gstr(g) for g in {row["graph"] for row in bad}}
    report.violations = [{"graph": text[row["graph"]], **row["violation"]} for row in bad]
    report.ties = sum(row["status"] == "tie" for row in report.rows)
    if report.checked == 0 and not any(note.startswith("vacuous") for note in report.notes):
        report.notes.append(VACUOUS_NOTE)
    report.notes.extend(claim.notes)
    report.elapsed = time.perf_counter() - t0
    return report
