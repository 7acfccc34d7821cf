"""Write bench/reference.json from the current sources.

    python3 bench/make_reference.py

Runs every verify command of the benchmark once, untraced, and stores its
exit code and report digest (checks.report_digest). The clique-move commands
are stored for seeds 0 to REFERENCE_SEEDS - 1; other seeds are checked by
exit code and an empty violation list. Regenerate only when a change is meant
to alter the report bytes, and say so in the change.
"""

import json
import shutil
import sys
import tempfile

import checks
import run

REFERENCE_SEEDS = 64


def main():
    keys = {}
    for workload, lines in run.VERIFY_WORKLOADS.items():
        seeds = range(REFERENCE_SEEDS) if any("{seed}" in x for x in lines) else [0]
        for seed in seeds:
            for line in lines:
                argv = run.verify_argv(line, seed)
                keys[" ".join(argv)] = argv
    run.WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=run.WORK)
    stored = {}
    try:
        for key, argv in keys.items():
            out = run.spawn(argv, False, workdir)
            if out.returncode not in (0, 2) or checks.report_instances(out.stdout) is None:
                print(f"{key}: exit {out.returncode}, no report", file=sys.stderr)
                return 1
            stored[key] = {"exit": out.returncode, "sha256": checks.report_digest(out.stdout)}
            print(f"{key}: exit {out.returncode}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump({"digest": checks.report_digest.__doc__, "verify": stored}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
