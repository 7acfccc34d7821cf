"""Benchmark of the `blockspectra` command line, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One closed-loop client runs the workload's commands one after another, each
in a fresh `python3` process, with `--jobs 1`, and repeats the whole list (a
"pass") for about S seconds. Every command's output is checked (see
checks.py). With --trace 0 the last stdout line reports the end-to-end
metrics, medians over passes; with --trace 1 untraced and traced passes
alternate, and it reports the per-layer metrics of the traced passes plus the
tracing overhead. The line before it records the environment and failures.
Workloads, metrics and predictions are described in bench/DESIGN.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CHILD = BENCH / "child.py"
REFERENCE = BENCH / "reference.json"
WORK = BENCH / ".work"

# A single pinned worker: the CLI's default is os.cpu_count(), which differs
# between machines, and process pools lose at these instance counts. The
# process-pool path is outside this benchmark.
JOBS = "1"
JOBS_NOTE = (
    "--jobs pinned to 1: the default os.cpu_count() varies by machine and pools "
    "lose at these sizes; the process-pool path is out of scope"
)
CHILD_ENV = dict(
    os.environ,
    OPENBLAS_NUM_THREADS="1",
    OMP_NUM_THREADS="1",
    MKL_NUM_THREADS="1",
)
COMMAND_TIMEOUT_S = 60

CLIQUE_PATH = "cliquepath:" + ",".join(["8"] * 40)
CLIQUE_STAR = "cliquestar:" + ",".join(["10"] * 28) + ";10;10"

VERIFY_WORKLOADS = {
    "blockgraph_n7": ["L4.1 --n 7", "L3.1 --n 7", "T3.3 --n 7", "T5.2 --n 7", "L5.1 --n 7"],
    "cliquetree_n10": [
        "T2.4 --n 10",
        "T4.5 --n 10",
        "L4.3 --n 10 --d 4",
        "T2.5 --n 12",
        "T4.6 --n 12",
    ],
    "clique_moves": ["L2.1 --trials 1000 --seed {seed}", "L4.2 --trials 1000 --seed {seed}"],
}
SPECTRUM_WORKLOADS = {
    "spectrum_large": [
        ("path:120", "adjacency"),
        ("broom:300", "adjacency"),
        ("broom:300", "distance"),
        (CLIQUE_PATH, "adjacency"),
        (CLIQUE_PATH, "distance"),
        (CLIQUE_STAR, "adjacency"),
        (CLIQUE_STAR, "distance"),
    ],
}
WORKLOADS = (*VERIFY_WORKLOADS, *SPECTRUM_WORKLOADS)


class SetupError(Exception):
    pass


@dataclass
class Command:
    argv: list
    reference: object  # verify: stored reference or None; spectrum: (radius, vector)
    label: str = ""

    @property
    def key(self):
        return self.label or " ".join(self.argv)

    @property
    def is_verify(self):
        return self.argv[0] == "verify"

    def check(self, outcome):
        if self.is_verify:
            return checks.check_verify(outcome.returncode, outcome.stdout, self.reference)
        return checks.check_spectrum(outcome.returncode, outcome.stdout, self.reference)

    def instances(self, outcome):
        if self.is_verify:
            return checks.report_instances(outcome.stdout) or 0
        return 1


@dataclass
class Outcome:
    returncode: int
    stdout: bytes
    start: float
    end: float
    main_s: float | None
    peak_rss_kb: int
    trace: dict | None


def spawn(argv, traced, workdir):
    """Run one CLI command in a fresh process and wait for it to end."""
    fd, stats = tempfile.mkstemp(dir=workdir, suffix=".json")
    os.close(fd)
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), stats, "1" if traced else "0", *argv],
            cwd=ROOT,
            env=CHILD_ENV,
            capture_output=True,
            timeout=COMMAND_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        # subprocess.run has killed and reaped the child; the command failed
        proc = subprocess.CompletedProcess(exc.cmd, -9, exc.stdout or b"", exc.stderr or b"")
    end = time.perf_counter()
    if proc.returncode not in (0, 2):
        sys.stderr.write(f"bench: `{' '.join(argv)}` exited {proc.returncode}\n")
        sys.stderr.write(proc.stderr.decode(errors="replace")[-2000:])
    try:
        with open(stats, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError):
        data = {}
    os.unlink(stats)
    return Outcome(
        proc.returncode,
        proc.stdout,
        start,
        end,
        data.get("main_s"),
        data.get("peak_rss_kb") or 0,
        data.get("trace"),
    )


# -- workloads ------------------------------------------------------------------


def load_reference():
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)["verify"]


def verify_argv(line, seed):
    return ["verify", *line.format(seed=seed).split(), "--jobs", JOBS]


def spectrum_commands(workload, rng, workdir):
    """Generate the family graphs with `gen`, relabel them from the seed, and
    compute each command's reference with numpy."""
    generated = {}
    commands = []
    for i, (spec, kind) in enumerate(SPECTRUM_WORKLOADS[workload]):
        if spec not in generated:
            out = spawn(["gen", spec], False, workdir)
            if out.returncode != 0:
                raise SetupError(f"`gen {spec}` exited {out.returncode}")
            n, edges = checks.parse_edges(out.stdout.decode())
            if not checks.same_graph_spectrum(n, edges, *checks.family_edges(spec)):
                raise SetupError(f"`gen {spec}` does not build the family graph")
            generated[spec] = (n, edges)
        n, edges = generated[spec]
        perm = list(range(n))
        rng.shuffle(perm)
        relabeled = [
            (perm[u], perm[v]) if rng.random() < 0.5 else (perm[v], perm[u]) for u, v in edges
        ]
        rng.shuffle(relabeled)
        path = Path(workdir) / f"graph{i}.txt"
        path.write_text(checks.format_edges(n, relabeled), encoding="utf-8")
        reference = checks.spectrum_reference(checks.matrix(n, relabeled, kind))
        argv = ["spectrum", str(path), "--matrix", kind]
        commands.append(Command(argv, reference, f"spectrum <{spec}> --matrix {kind}"))
    return commands


def build_commands(workload, seed, workdir):
    rng = random.Random(seed)
    if workload in VERIFY_WORKLOADS:
        stored = load_reference()
        commands = []
        for line in VERIFY_WORKLOADS[workload]:
            argv = verify_argv(line, seed)
            commands.append(Command(argv, stored.get(" ".join(argv))))
    else:
        commands = spectrum_commands(workload, rng, workdir)
    rng.shuffle(commands)
    return commands


# -- passes and metrics ------------------------------------------------------------


@dataclass
class Pass:
    outcomes: list
    ok: list

    @property
    def wall_s(self):
        return self.outcomes[-1].end - self.outcomes[0].start

    @property
    def timed(self):
        return [o for o in self.outcomes if o.main_s is not None]


def run_pass(commands, traced, workdir):
    outcomes = [spawn(c.argv, traced, workdir) for c in commands]
    ok = [o.main_s is not None and c.check(o) for c, o in zip(commands, outcomes)]
    return Pass(outcomes, ok)


def same_output(command, a, b):
    if command.is_verify:
        return checks.report_digest(a.stdout) == checks.report_digest(b.stdout)
    return a.stdout == b.stdout


def measure(commands, traced_too, seconds, workdir):
    """Repeat passes (untraced, then traced if asked) while another fits in `seconds`."""
    start = time.perf_counter()
    untraced, traced, steps = [], [], []
    while True:
        t0 = time.perf_counter()
        untraced.append(run_pass(commands, False, workdir))
        if traced_too:
            p = run_pass(commands, True, workdir)
            base = untraced[0].outcomes
            p.ok = [
                ok and same_output(c, o, b)
                for ok, c, o, b in zip(p.ok, commands, p.outcomes, base)
            ]
            traced.append(p)
        steps.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(steps) > seconds:
            return untraced, traced


def pass_instances(commands, p):
    return sum(c.instances(o) for c, o in zip(commands, p.outcomes))


def end_to_end(commands, passes):
    setups = [o.end - o.start - o.main_s for p in passes for o in p.timed]
    rates = [
        pass_instances(commands, p) / sum(o.main_s for o in p.timed) for p in passes if p.timed
    ]
    return {
        "wall_s": statistics.median(p.wall_s for p in passes),
        "setup_s": statistics.median(setups) if setups else 0.0,
        "instances_per_s": statistics.median(rates) if rates else 0.0,
        "peak_rss_mb": statistics.median(
            max(o.peak_rss_kb for o in p.outcomes) / 1024 for p in passes
        ),
    }


def per_layer(commands, untraced, traced):
    rows = []
    for p in traced:
        merged = tracer.merge([o.trace for o in p.outcomes if o.trace])
        rows.append(tracer.layer_metrics(merged, pass_instances(commands, p)))
    out = {name: statistics.median(r[name] for r in rows) for name in rows[0]}
    overhead = statistics.median(p.wall_s for p in traced) / statistics.median(
        p.wall_s for p in untraced
    )
    out["trace.overhead_frac"] = overhead - 1.0
    return out


def with_units(values, section):
    """Attach the units BENCHMARK.json declares; every declared metric must be measured."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)[section]
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


# -- environment -------------------------------------------------------------------


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest():
    """SHA-256 over the package sources, which identifies the code without git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment():
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": commit(),
        "src_sha256": source_digest(),
        "blas_threads": 1,
        "jobs": int(JOBS),
        "jobs_note": JOBS_NOTE,
    }


# -- main -----------------------------------------------------------------------


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "blockspectra" / "cli.py").is_file():
        print(f"bench: no blockspectra sources under {ROOT / 'src'}", file=sys.stderr)
        return 1

    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK)
    try:
        # compile the sources and warm the file cache before anything is timed
        warm = spawn(["gen", "path:2"], bool(args.trace), workdir)
        if warm.returncode != 0 or warm.main_s is None:
            print("bench: the blockspectra CLI does not run", file=sys.stderr)
            return 1
        commands = build_commands(args.workload, args.seed, workdir)
        untraced, traced = measure(commands, bool(args.trace), args.seconds, workdir)
    except SetupError as exc:
        print(f"bench: set-up failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passes = untraced + traced
    attempted = sum(len(p.ok) for p in passes)
    failures = sorted({c.key for p in passes for c, ok in zip(commands, p.ok) if not ok})
    failed = sum(not ok for p in passes for ok in p.ok)
    if args.trace:
        metrics = with_units(per_layer(commands, untraced, traced), "per_layer")
        absent = sorted(
            {name for p in traced for o in p.outcomes if o.trace for name in o.trace["absent"]}
        )
    else:
        metrics = with_units(end_to_end(commands, untraced), "end_to_end")
        absent = []
    print(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "trace": args.trace,
                "passes": len(untraced),
                "traced_passes": len(traced),
                "pass_wall_s": [p.wall_s for p in untraced],
                "traced_pass_wall_s": [p.wall_s for p in traced],
                "commands": [c.key for c in commands],
                "failed_frac": failed / attempted,
                "failed_commands": failures,
                "absent_spans": absent,
                "env": environment(),
            }
        )
    )
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
